//! Direct unit tests of the sans-io TCP state machine: every transition is
//! driven by hand-built segments, with no network underneath.

use crate::conn::{Connection, Out, SegFlags, SegIn, SegOut, State, TcpCfg};
use mpichgq_sim::{SimDelta, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Fire a timer and collect the connection's actions.
fn on_timer(c: &mut Connection, gen: u64, now: SimTime) -> Vec<Out> {
    let mut outs = Vec::new();
    c.on_timer_into(gen, now, &mut outs);
    outs
}

fn segs(outs: &[Out]) -> Vec<SegOut> {
    outs.iter()
        .filter_map(|o| match o {
            Out::Seg(s) => Some(*s),
            _ => None,
        })
        .collect()
}

fn data_segs(outs: &[Out]) -> Vec<SegOut> {
    segs(outs).into_iter().filter(|s| s.len > 0).collect()
}

fn ack_of(c: &Connection, ack: u64, wnd: u32) -> SegIn {
    let _ = c;
    SegIn {
        seq: 0,
        ack,
        wnd,
        len: 0,
        flags: SegFlags {
            ack: true,
            ..Default::default()
        },
    }
}

/// Drive a full client handshake; returns the established connection.
fn established(cfg: TcpCfg) -> Connection {
    let (mut c, outs) = Connection::connect(cfg, t(0));
    let syn = segs(&outs);
    assert_eq!(syn.len(), 1);
    assert!(syn[0].flags.syn && !syn[0].flags.ack);
    let outs = c.on_segment(
        &SegIn {
            seq: 0,
            ack: 1,
            wnd: 65535,
            len: 0,
            flags: SegFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
        },
        t(1),
    );
    assert!(outs.contains(&Out::Connected));
    assert_eq!(c.state(), State::Established);
    c
}

#[test]
fn handshake_client_and_server() {
    let cfg = TcpCfg::default();
    let c = established(cfg);
    assert_eq!(c.flight(), 0);

    // Server side.
    let syn = SegIn {
        seq: 0,
        ack: 0,
        wnd: 65535,
        len: 0,
        flags: SegFlags {
            syn: true,
            ..Default::default()
        },
    };
    let (mut s, outs) = Connection::accept(cfg, &syn, t(0));
    let synack = segs(&outs);
    assert!(synack[0].flags.syn && synack[0].flags.ack && synack[0].ack == 1);
    let outs = s.on_segment(&ack_of(&s, 1, 65535), t(1));
    assert!(outs.contains(&Out::Accepted));
    assert_eq!(s.state(), State::Established);
}

#[test]
fn syn_retransmits_on_timeout_with_backoff() {
    let cfg = TcpCfg::default();
    let (mut c, outs) = Connection::connect(cfg, t(0));
    let gen = outs
        .iter()
        .find_map(|o| match o {
            Out::ArmTimer { gen, at } => Some((*gen, *at)),
            _ => None,
        })
        .expect("SYN must arm a timer");
    assert_eq!(gen.1, t(1000)); // initial RTO 1 s
    let outs = on_timer(&mut c, gen.0, t(1000));
    let s = segs(&outs);
    assert!(s[0].flags.syn && s[0].rtx);
    // Backed-off rearm at +2 s.
    let at = outs
        .iter()
        .find_map(|o| match o {
            Out::ArmTimer { at, .. } => Some(*at),
            _ => None,
        })
        .unwrap();
    assert_eq!(at, t(3000));
}

#[test]
fn write_segments_respect_mss_and_cwnd() {
    let cfg = TcpCfg {
        init_cwnd_segs: 2,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let (accepted, outs) = c.write(10_000, t(2));
    assert_eq!(accepted, 10_000);
    // cwnd = 2 MSS: exactly two full segments go out.
    let d = data_segs(&outs);
    assert_eq!(d.len(), 2);
    assert_eq!(d[0].len, 1460);
    assert_eq!(d[1].len, 1460);
    assert_eq!(c.flight(), 2920);
}

#[test]
fn slow_start_grows_one_mss_per_ack() {
    // Appropriate byte counting with L=1 (RFC 3465): each ACK grows cwnd
    // by at most one MSS, however much it acknowledges cumulatively.
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let (_, outs) = c.write(1_000_000, t(2));
    assert_eq!(data_segs(&outs).len(), 2);
    // One cumulative ACK for both segments: cwnd 2 -> 3 MSS, flight empty,
    // so three segments flow.
    let outs = c.on_segment(&ack_of(&c, 1 + 2920, 1_000_000), t(4));
    assert_eq!(data_segs(&outs).len(), 3);
    // Two more single-segment ACKs: cwnd 3 -> 5 MSS.
    let _ = c.on_segment(&ack_of(&c, 1 + 2920 + 1460, 1_000_000), t(5));
    let _ = c.on_segment(&ack_of(&c, 1 + 2920 + 2920, 1_000_000), t(6));
    assert!(c.cwnd_bytes() >= 5 * 1460, "cwnd {}", c.cwnd_bytes());
}

#[test]
fn send_buffer_limits_writes_and_signals_writable() {
    let cfg = TcpCfg {
        send_buf: 4096,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let (accepted, _) = c.write(10_000, t(2));
    assert_eq!(accepted, 4096);
    assert_eq!(c.send_buffer_free(), 0);
    // An ACK frees buffer space and must emit Writable (the app was
    // blocked).
    let outs = c.on_segment(&ack_of(&c, 1 + 1460, 65535), t(3));
    assert!(outs.contains(&Out::Writable));
    assert_eq!(c.send_buffer_free(), 1460);
}

#[test]
fn receiver_window_limits_flight() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    // Peer advertises a tiny window.
    let _ = c.on_segment(&ack_of(&c, 1, 2000), t(2));
    let (_, outs) = c.write(100_000, t(2));
    let d = data_segs(&outs);
    let sent: u64 = d.iter().map(|s| s.len as u64).sum();
    assert!(sent <= 2000, "flight {sent} exceeds advertised window");
}

#[test]
fn zero_window_probe_after_stall() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let _ = c.on_segment(&ack_of(&c, 1, 0), t(2));
    let (accepted, outs) = c.write(5_000, t(2));
    assert_eq!(accepted, 5_000);
    assert!(
        data_segs(&outs).is_empty(),
        "nothing sent into a zero window"
    );
    // The probe timer fires: exactly one 1-byte probe.
    let gen = outs
        .iter()
        .rev()
        .find_map(|o| match o {
            Out::ArmTimer { gen, .. } => Some(*gen),
            _ => None,
        })
        .expect("zero-window stall must arm a timer");
    let outs = on_timer(&mut c, gen, t(1200));
    let d = data_segs(&outs);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].len, 1);
}

#[test]
fn in_order_data_is_readable_and_acked() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let outs = c.on_segment(
        &SegIn {
            seq: 1,
            ack: 1,
            wnd: 65535,
            len: 1000,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
        },
        t(2),
    );
    assert!(outs.contains(&Out::Readable));
    let acks = segs(&outs);
    assert_eq!(acks.last().unwrap().ack, 1001);
    assert_eq!(c.readable_bytes(), 1000);
    let (n, _) = c.read(400);
    assert_eq!(n, 400);
    assert_eq!(c.readable_bytes(), 600);
}

#[test]
fn out_of_order_data_dupacks_then_merges() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    // Hole: segment at 1461 arrives before 1.
    let outs = c.on_segment(
        &SegIn {
            seq: 1461,
            ack: 1,
            wnd: 65535,
            len: 1000,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
        },
        t(2),
    );
    assert!(!outs.contains(&Out::Readable));
    assert_eq!(segs(&outs).last().unwrap().ack, 1, "dup ack for the hole");
    // Fill the hole: cumulative ack jumps over the cached block.
    let outs = c.on_segment(
        &SegIn {
            seq: 1,
            ack: 1,
            wnd: 65535,
            len: 1460,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
        },
        t(3),
    );
    assert!(outs.contains(&Out::Readable));
    assert_eq!(segs(&outs).last().unwrap().ack, 2461);
    assert_eq!(c.readable_bytes(), 2460);
}

#[test]
fn three_dupacks_trigger_fast_retransmit() {
    let cfg = TcpCfg {
        init_cwnd_segs: 8,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let (_, outs) = c.write(10 * 1460, t(2));
    assert_eq!(data_segs(&outs).len(), 8);
    // Three duplicate ACKs at the initial una.
    for i in 0..3 {
        let outs = c.on_segment(&ack_of(&c, 1, 65535), t(3 + i));
        if i < 2 {
            assert!(data_segs(&outs).is_empty());
        } else {
            let d = data_segs(&outs);
            assert_eq!(d.len(), 1, "third dupack retransmits the head");
            assert_eq!(d[0].seq, 1);
            assert!(d[0].rtx);
        }
    }
    assert_eq!(c.stats.fast_retransmits, 1);
    assert_eq!(c.stats.dup_acks_received, 3);
}

#[test]
fn newreno_partial_ack_retransmits_next_hole() {
    let cfg = TcpCfg {
        init_cwnd_segs: 8,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let _ = c.write(8 * 1460, t(2));
    for i in 0..3 {
        let _ = c.on_segment(&ack_of(&c, 1, 65535), t(3 + i));
    }
    // Partial ACK: first segment recovered, second still missing.
    let outs = c.on_segment(&ack_of(&c, 1 + 1460, 65535), t(10));
    let d = data_segs(&outs);
    assert!(!d.is_empty(), "partial ack retransmits the next hole");
    assert_eq!(d[0].seq, 1 + 1460);
    // Full ACK exits recovery and deflates cwnd to ssthresh.
    let _ = c.on_segment(&ack_of(&c, 1 + 8 * 1460, 65535), t(12));
    assert!(c.cwnd_bytes() <= 8 * 1460);
}

#[test]
fn rto_goes_back_n_and_backs_off() {
    let cfg = TcpCfg {
        init_cwnd_segs: 4,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let (_, outs) = c.write(4 * 1460, t(2));
    let gen = outs
        .iter()
        .rev()
        .find_map(|o| match o {
            Out::ArmTimer { gen, .. } => Some(*gen),
            _ => None,
        })
        .unwrap();
    let before = c.rto();
    let outs = on_timer(&mut c, gen, t(2) + before);
    assert_eq!(c.stats.rtos, 1);
    // Go-back-N: snd_nxt rewound, one segment (cwnd = 1 MSS) retransmitted.
    let d = data_segs(&outs);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].seq, 1);
    assert_eq!(c.flight(), 1460);
    assert_eq!(c.rto(), (before * 2).min(cfg.rto_max));
    // A cumulative ACK beyond the rewound point (receiver had cached the
    // rest) pulls snd_nxt forward.
    let _ = c.on_segment(&ack_of(&c, 1 + 4 * 1460, 65535), t(3000));
    assert_eq!(c.flight(), 0);
}

#[test]
fn rtt_estimation_tracks_samples_and_karn() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let _ = c.write(1460, t(100));
    // ACK 40 ms later: first sample sets srtt = 40 ms.
    let _ = c.on_segment(&ack_of(&c, 1 + 1460, 65535), t(140));
    assert_eq!(c.srtt(), Some(SimDelta::from_millis(40)));
    // RTO = srtt + 4*rttvar = 40 + 80 = 120 ms, clamped to rto_min 200 ms.
    assert_eq!(c.rto(), SimDelta::from_millis(200));
}

#[test]
fn idle_restart_collapses_cwnd() {
    let cfg = TcpCfg {
        idle_restart: true,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    // Grow cwnd well past initial.
    let _ = c.write(8 * 1460, t(2));
    for i in 1..=8u64 {
        let _ = c.on_segment(&ack_of(&c, 1 + i * 1460, 65535), t(2 + i));
    }
    assert!(c.cwnd_bytes() > 4 * 1460);
    // Go idle for 2 s (>> RTO), then write a burst: only init_cwnd goes out.
    let (_, outs) = c.write(10 * 1460, t(2500));
    let d = data_segs(&outs);
    assert_eq!(d.len(), cfg.init_cwnd_segs as usize, "idle restart");
}

#[test]
fn no_idle_restart_when_disabled() {
    let cfg = TcpCfg {
        idle_restart: false,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let _ = c.write(8 * 1460, t(2));
    for i in 1..=8u64 {
        let _ = c.on_segment(&ack_of(&c, 1 + i * 1460, 65535), t(2 + i));
    }
    let grown = c.cwnd_bytes();
    let (_, outs) = c.write(20 * 1460, t(2500));
    let d = data_segs(&outs);
    assert!(
        d.len() * 1460 >= grown as usize - 1460,
        "window kept after idle"
    );
}

#[test]
fn graceful_close_both_directions() {
    let cfg = TcpCfg::default();
    let mut a = established(cfg);
    // a sends FIN.
    let outs = a.close(t(2));
    let fin = segs(&outs);
    assert!(fin[0].flags.fin);
    assert_eq!(a.state(), State::FinWait);
    // Peer ACKs the FIN and sends its own.
    let _ = a.on_segment(&ack_of(&a, 2, 65535), t(3));
    let outs = a.on_segment(
        &SegIn {
            seq: 1,
            ack: 2,
            wnd: 65535,
            len: 0,
            flags: SegFlags {
                fin: true,
                ack: true,
                ..Default::default()
            },
        },
        t(4),
    );
    assert!(outs.contains(&Out::RemoteClosed));
    assert!(outs.contains(&Out::Closed));
    assert_eq!(a.state(), State::Closed);
    assert!(a.at_eof());
}

#[test]
fn fin_waits_for_queued_data() {
    let cfg = TcpCfg {
        init_cwnd_segs: 1,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    let _ = c.write(3 * 1460, t(2));
    let outs = c.close(t(2));
    // cwnd 1: only the first data segment is out; no FIN yet.
    assert!(segs(&outs).iter().all(|s| !s.flags.fin));
    // Ack everything: remaining data then FIN flow out.
    let outs1 = c.on_segment(&ack_of(&c, 1 + 1460, 65535), t(3));
    let outs2 = c.on_segment(&ack_of(&c, 1 + 3 * 1460, 65535), t(4));
    let all: Vec<SegOut> = segs(&outs1).into_iter().chain(segs(&outs2)).collect();
    assert!(all.iter().any(|s| s.flags.fin), "FIN after data drained");
}

#[test]
fn rst_closes_immediately() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let outs = c.on_segment(
        &SegIn {
            seq: 1,
            ack: 1,
            wnd: 0,
            len: 0,
            flags: SegFlags {
                rst: true,
                ..Default::default()
            },
        },
        t(2),
    );
    assert!(outs.contains(&Out::Closed));
    assert_eq!(c.state(), State::Closed);
}

#[test]
fn window_update_sent_when_reader_drains_full_buffer() {
    let cfg = TcpCfg {
        recv_buf: 4096,
        ..TcpCfg::default()
    };
    let mut c = established(cfg);
    // Fill the receive buffer completely.
    let outs = c.on_segment(
        &SegIn {
            seq: 1,
            ack: 1,
            wnd: 65535,
            len: 4096,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
        },
        t(2),
    );
    let last = segs(&outs).last().cloned().unwrap();
    assert_eq!(last.wnd, 0, "advertised window closed");
    // Reading opens the window: a pure window-update ACK must be emitted.
    let (n, outs) = c.read(4096);
    assert_eq!(n, 4096);
    let upd = segs(&outs);
    assert_eq!(upd.len(), 1, "window update after drain");
    assert_eq!(upd[0].wnd, 4096);
}

#[test]
fn duplicate_data_reacked_not_redelivered() {
    let cfg = TcpCfg::default();
    let mut c = established(cfg);
    let seg = SegIn {
        seq: 1,
        ack: 1,
        wnd: 65535,
        len: 1000,
        flags: SegFlags {
            ack: true,
            ..Default::default()
        },
    };
    let _ = c.on_segment(&seg, t(2));
    let (n, _) = c.read(10_000);
    assert_eq!(n, 1000);
    // The same segment retransmitted: re-acked, nothing new to read.
    let outs = c.on_segment(&seg, t(3));
    assert_eq!(segs(&outs).last().unwrap().ack, 1001);
    assert!(!outs.contains(&Out::Readable));
    assert_eq!(c.readable_bytes(), 0);
}

// ----------------------------------------------------------------------
// Delayed acknowledgments (RFC 1122)
// ----------------------------------------------------------------------

fn delack_cfg() -> TcpCfg {
    TcpCfg {
        delayed_ack: true,
        ..TcpCfg::default()
    }
}

fn data_at(seq: u64, len: u32) -> SegIn {
    SegIn {
        seq,
        ack: 1,
        wnd: 65535,
        len,
        flags: SegFlags {
            ack: true,
            ..Default::default()
        },
    }
}

#[test]
fn delack_holds_first_segment_acks_second() {
    let mut c = established(delack_cfg());
    // First in-order segment: no ACK, a delack timer instead.
    let outs = c.on_segment(&data_at(1, 1000), t(2));
    assert!(
        segs(&outs).is_empty(),
        "first segment must not be acked yet"
    );
    assert!(outs
        .iter()
        .any(|o| matches!(o, Out::ArmTimer { at, .. } if *at == t(202))));
    // Second segment: immediate cumulative ACK.
    let outs = c.on_segment(&data_at(1001, 1000), t(3));
    let a = segs(&outs);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].ack, 2001);
}

#[test]
fn delack_timer_flushes_lone_segment() {
    let mut c = established(delack_cfg());
    let outs = c.on_segment(&data_at(1, 1000), t(2));
    let gen = outs
        .iter()
        .find_map(|o| match o {
            Out::ArmTimer { gen, .. } => Some(*gen),
            _ => None,
        })
        .unwrap();
    assert_eq!(gen % 2, 1, "delack timers use odd generations");
    let outs = on_timer(&mut c, gen, t(202));
    let a = segs(&outs);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].ack, 1001);
    // A stale delack firing later does nothing.
    assert!(on_timer(&mut c, gen, t(400)).is_empty());
}

#[test]
fn delack_out_of_order_acks_immediately() {
    let mut c = established(delack_cfg());
    // A hole: dupack must go out at once (fast retransmit depends on it).
    let outs = c.on_segment(&data_at(1461, 1000), t(2));
    let a = segs(&outs);
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].ack, 1);
}

#[test]
fn delack_piggybacks_on_data() {
    let mut c = established(delack_cfg());
    let _ = c.on_segment(&data_at(1, 1000), t(2)); // delack pending
                                                   // We now send data: the segment carries the ack; the pending delack is
                                                   // satisfied and its timer generation invalidated.
    let (_, outs) = c.write(500, t(3));
    let d = data_segs(&outs);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].ack, 1001);
    // The old delack timer is stale now.
    let outs = on_timer(&mut c, 1, t(202));
    assert!(segs(&outs).is_empty());
}

#[test]
fn delack_off_acks_every_segment() {
    let mut c = established(TcpCfg::default());
    let outs = c.on_segment(&data_at(1, 1000), t(2));
    assert_eq!(segs(&outs).len(), 1, "immediate ack when delack disabled");
}

// ----------------------------------------------------------------------
// Karn's algorithm (pinned regressions for the RTO go-back-N bug)
// ----------------------------------------------------------------------

/// The retransmission timer armed by a batch of outs (even generations;
/// delayed-ACK generations are odd).
fn rtx_timer(outs: &[Out]) -> (u64, SimTime) {
    outs.iter()
        .rev()
        .find_map(|o| match o {
            Out::ArmTimer { gen, at } if gen % 2 == 0 => Some((*gen, *at)),
            _ => None,
        })
        .expect("retransmission timer armed")
}

/// Drive one clean MSS exchange (write at t(10), ACK at t(110)) so srtt is
/// primed to 100 ms, then write a second MSS that goes unACKed until the
/// RTO fires and go-back-N re-sends it.
fn primed_then_rto(cfg: TcpCfg) -> (Connection, u64) {
    let mss = cfg.mss as u64;
    let mut c = established(cfg);
    let (n, outs) = c.write(mss, t(10));
    assert_eq!(n, mss);
    assert_eq!(data_segs(&outs).len(), 1);
    let _ = c.on_segment(&ack_of(&c, 1 + mss, 65535), t(110));
    assert_eq!(c.srtt(), Some(SimDelta::from_millis(100)));
    // Second burst at t(200); the ACK never arrives.
    let (n, outs) = c.write(mss, t(200));
    assert_eq!(n, mss);
    let (gen, at) = rtx_timer(&outs);
    // srtt 100 ms, rttvar 50 ms -> RTO 300 ms.
    assert_eq!(at, t(500));
    let outs = on_timer(&mut c, gen, t(500));
    let rtx = data_segs(&outs);
    assert_eq!(rtx.len(), 1, "go-back-N re-sends the lost segment");
    assert!(
        rtx[0].rtx,
        "re-sent bytes must be flagged as a retransmission"
    );
    (c, 1 + 2 * mss)
}

#[test]
fn karn_rto_retransmission_never_times_rtt() {
    let (mut c, ack) = primed_then_rto(TcpCfg::default());
    let srtt0 = c.srtt().unwrap();
    // The ACK of the retransmitted segment lands 4.5 s after the original
    // transmission. It is ambiguous (it may acknowledge either copy), so
    // Karn's algorithm forbids feeding it to update_rtt.
    let _ = c.on_segment(&ack_of(&c, ack, 65535), t(5000));
    assert_eq!(c.flight(), 0, "the late ACK covers everything outstanding");
    assert_eq!(
        c.srtt(),
        Some(srtt0),
        "ambiguous ACK of a retransmission must not move srtt"
    );
    assert_eq!(c.stats.karn_violations, 0);
    assert_eq!(c.stats.invariant_violations, 0);
}

#[test]
fn karn_disable_switch_reintroduces_the_bogus_sample() {
    let cfg = TcpCfg {
        karn_disable: true,
        ..TcpCfg::default()
    };
    let (mut c, ack) = primed_then_rto(cfg);
    let srtt0 = c.srtt().unwrap();
    let _ = c.on_segment(&ack_of(&c, ack, 65535), t(5000));
    // The historical bug: the sample armed at t(200) survives the RTO and
    // the 4.8 s "RTT" is fed into the estimator — and the audit counter
    // convicts it.
    assert_eq!(c.stats.karn_violations, 1);
    assert!(
        c.srtt().unwrap() > srtt0 * 4,
        "bug switch must reproduce the srtt pollution ({:?} vs {:?})",
        c.srtt(),
        srtt0
    );
}
