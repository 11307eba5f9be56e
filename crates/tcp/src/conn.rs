//! The TCP Reno connection state machine.
//!
//! "TCP's flow control and congestion control mechanisms, while critical to
//! the effectiveness of TCP in shared networks, have the unfortunate
//! consequences of making TCP traffic both bursty and sensitive to the loss
//! of individual packets." (§4.3) — reproducing Figures 1, 5 and 6 requires
//! a faithful loss response, so this is a real Reno implementation: slow
//! start, congestion avoidance, fast retransmit/recovery with NewReno
//! partial-ACK handling, RTO estimation per RFC 6298 with exponential
//! backoff and Karn's algorithm, receiver flow control with zero-window
//! probing.
//!
//! The connection is *sans-io*: every input yields a list of [`Out`]
//! actions (segments to emit, timers to arm, application wake-ups) that the
//! socket layer in [`crate::stack`] applies to the simulated network. This
//! keeps the protocol logic independently testable. Each input comes in two
//! forms: `*_into` appends to a buffer the caller owns and reuses, and the
//! plain name wraps it to return a fresh `Vec`.
//!
//! Simulator simplifications, documented here once: sequence numbers are
//! 64-bit (no wraparound), there is no SACK (Reno-era stacks), no Nagle
//! (MPICH disables it), no delayed ACK by default (configurable), and the
//! initial sequence number is zero.

use mpichgq_sim::{SimDelta, SimTime};
use std::collections::BTreeMap;

/// Connection configuration (per-socket tunables).
#[derive(Debug, Clone, Copy)]
pub struct TcpCfg {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Send socket buffer ("applications that use TCP and want high
    /// performance need careful tuning (such as socket buffer sizes)", §5.5).
    pub send_buf: u32,
    /// Receive socket buffer; bounds the advertised window.
    pub recv_buf: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segs: u32,
    /// Initial slow-start threshold in bytes.
    pub init_ssthresh: u32,
    pub rto_min: SimDelta,
    pub rto_max: SimDelta,
    /// Initial RTO before any RTT sample (RFC 6298 says 1 s).
    pub rto_initial: SimDelta,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_thresh: u32,
    /// Slow-start restart after idle (RFC 2861 / Jacobson): if the
    /// connection has been send-idle for longer than one RTO, the
    /// congestion window collapses back to its initial value. Real stacks
    /// do this; it is what makes low-duty-cycle bursty senders (the
    /// paper's 1-frame-per-second case, Table 1) re-probe the network on
    /// every burst.
    pub idle_restart: bool,
    /// Delayed acknowledgments (RFC 1122): hold the ACK for the first
    /// unacknowledged in-order segment up to `delack_delay`, acknowledging
    /// every second segment immediately. Off by default here because the
    /// experiments are calibrated without it; turning it on halves pure-ACK
    /// traffic at the cost of slower slow-start.
    pub delayed_ack: bool,
    /// Delayed-ACK timeout (era stacks: 200 ms).
    pub delack_delay: SimDelta,
    /// Disable Karn's algorithm (bug-injection switch for the qcheck
    /// fuzzer's self-test: with this set, RTT samples are armed on
    /// retransmitted bytes and survive retransmissions, reproducing the
    /// historical bug; the `karn_violations` audit counter still detects
    /// every bogus sample that reaches `update_rtt`). Never set this in
    /// real configurations.
    #[doc(hidden)]
    pub karn_disable: bool,
}

impl TcpCfg {
    /// TCP tuning of the paper's era: the GARNET premium endpoints were
    /// Sun Ultras whose stacks used coarse retransmission timers (minimum
    /// RTO on the order of half a second) and delayed acknowledgments.
    /// The coarse minimum RTO is what makes bursty flows pay for shallow
    /// token buckets (Table 1; see EXPERIMENTS.md).
    pub fn era_solaris() -> TcpCfg {
        TcpCfg {
            rto_min: SimDelta::from_millis(500),
            delayed_ack: true,
            ..TcpCfg::default()
        }
    }
}

impl Default for TcpCfg {
    fn default() -> Self {
        TcpCfg {
            mss: 1460,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            init_cwnd_segs: 2,
            init_ssthresh: u32::MAX,
            rto_min: SimDelta::from_millis(200),
            rto_max: SimDelta::from_secs(60),
            rto_initial: SimDelta::from_secs(1),
            dupack_thresh: 3,
            idle_restart: true,
            delayed_ack: false,
            delack_delay: SimDelta::from_millis(200),
            karn_disable: false,
        }
    }
}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    SynSent,
    SynRcvd,
    Established,
    /// We sent a FIN (possibly still retransmitting data before it).
    FinWait,
    /// Peer's FIN received and acked; we may still be sending.
    CloseWait,
    Closed,
}

/// Flags subset mirrored from the network layer (kept local so this module
/// has no dependency direction on packet formats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub(crate) rst: bool,
}

/// An incoming segment, as seen by the connection.
#[derive(Debug, Clone, Copy)]
pub struct SegIn {
    pub seq: u64,
    pub ack: u64,
    pub wnd: u32,
    pub len: u32,
    pub flags: SegFlags,
}

/// An outgoing segment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegOut {
    pub seq: u64,
    pub ack: u64,
    pub wnd: u32,
    pub len: u32,
    pub flags: SegFlags,
    /// True if this is a retransmission (for tracing).
    pub(crate) rtx: bool,
}

/// Actions the socket layer must apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Out {
    Seg(SegOut),
    /// (Re-)arm the retransmission timer at `at`; earlier arms are stale.
    ArmTimer {
        at: SimTime,
        gen: u64,
    },
    /// The three-way handshake completed (client side).
    Connected,
    /// The passive open completed (server side).
    Accepted,
    /// New in-order data is available to read.
    Readable,
    /// Send-buffer space became available after the app hit a full buffer.
    Writable,
    /// The peer closed its direction; reads will drain then return 0.
    RemoteClosed,
    /// Both directions closed.
    Closed,
    /// A congestion-control state change worth recording: the stack forwards
    /// these to the network's observability layer (counters + flight
    /// recorder) so experiments can correlate cwnd collapses with QoS events.
    Cc {
        kind: CcKind,
        /// Congestion window after the transition, in bytes.
        cwnd_bytes: u64,
        /// Retransmission timeout after the transition (post back-off).
        rto: SimDelta,
    },
}

/// Which congestion-control transition an [`Out::Cc`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Retransmission timeout fired: window collapsed to one MSS, go-back-N.
    Rto,
    /// Three duplicate ACKs: fast retransmit + window halving.
    FastRetransmit,
    /// RFC 2861 slow-start restart after a send-idle period.
    SlowStartRestart,
}

/// Congestion-control counters for experiments and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    pub segs_sent: u64,
    pub bytes_sent: u64,
    pub rtx_segs: u64,
    pub rtos: u64,
    pub fast_retransmits: u64,
    pub dup_acks_received: u64,
    /// RFC 2861 idle-restart window collapses.
    pub slow_start_restarts: u64,
    /// RTT samples taken from (possibly) retransmitted data that reached
    /// `update_rtt` — Karn's algorithm forbids these, so this stays 0
    /// unless the `karn_disable` bug switch is set. Audited by qcheck.
    pub karn_violations: u64,
    /// Protocol-invariant failures caught by the connection's self-audit
    /// (`snd_una ≤ snd_nxt ≤ written+1`, monotone `snd_una`/`delivered`,
    /// `cwnd ≥ mss`). Always 0 on a correct implementation; audited by
    /// qcheck after every fuzzed scenario.
    pub invariant_violations: u64,
}

/// One outstanding RTT measurement (RFC 6298 timing of a single segment).
#[derive(Debug, Clone, Copy)]
struct RttSample {
    /// Cumulative ACK threshold that completes the sample.
    seq: u64,
    /// When the sampled segment was transmitted.
    at: SimTime,
    /// False if the sampled bytes were (or may have been) transmitted more
    /// than once — Karn's algorithm: such a sample must never reach
    /// `update_rtt`. With the fix in force an unclean sample is cleared at
    /// the retransmission, so `clean` is always true at acceptance; the
    /// flag exists so the `karn_disable` bug switch still *detects* (and
    /// counts) the violations it reintroduces.
    clean: bool,
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct Connection {
    pub cfg: TcpCfg,
    state: State,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    /// Peer's advertised window.
    snd_wnd: u64,
    /// Absolute stream offset one past the last byte accepted from the app.
    written: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    fin_queued: bool,
    /// Sequence number consumed by our FIN, once sent.
    fin_seq: Option<u64>,
    want_write: bool,

    // --- timers / RTT ---
    rto: SimDelta,
    srtt: Option<SimDelta>,
    rttvar: SimDelta,
    timer_gen: u64,
    timer_armed: bool,
    /// One outstanding RTT sample.
    rtt_sample: Option<RttSample>,
    /// Transmission high-water mark: one past the highest byte ever sent.
    /// `snd_nxt < max_sent` means the stream is being re-sent (go-back-N
    /// after an RTO), so segments below this frontier are retransmissions
    /// even when they flow through the regular `send_data` path.
    max_sent: u64,
    /// Time of the last data transmission (for idle restart).
    last_send: SimTime,
    /// A delayed ACK is owed for received in-order data.
    delack_pending: bool,
    /// Generation for the delayed-ACK timer (odd numbers; the RTO timer
    /// uses even generations, so one dispatch entry point serves both).
    delack_gen: u64,

    // --- receive side ---
    rcv_nxt: u64,
    /// Stream offset up to which the application has consumed data.
    delivered: u64,
    /// Out-of-order byte ranges: start -> end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// Sequence of the peer's FIN, once seen.
    peer_fin: Option<u64>,
    peer_fin_acked: bool,
    /// Last window we advertised (to decide when to send window updates).
    advertised_wnd: u32,
    our_fin_acked: bool,

    // --- self-audit memory (monotonicity witnesses) ---
    audit_una: u64,
    audit_delivered: u64,

    pub stats: ConnStats,
}

impl Connection {
    /// Active open: returns the connection and the SYN to send.
    pub fn connect(cfg: TcpCfg, now: SimTime) -> (Connection, Vec<Out>) {
        let mut c = Connection::new(cfg, State::SynSent);
        let mut outs = Vec::new();
        outs.push(Out::Seg(SegOut {
            seq: 0,
            ack: 0,
            wnd: c.recv_window(),
            len: 0,
            flags: SegFlags {
                syn: true,
                ..Default::default()
            },
            rtx: false,
        }));
        c.snd_nxt = 1; // SYN occupies sequence 0
        c.max_sent = 1;
        c.arm_timer(now, &mut outs);
        (c, outs)
    }

    /// Passive open in response to a SYN: returns the connection (in
    /// `SynRcvd`) and the SYN/ACK.
    pub fn accept(cfg: TcpCfg, syn: &SegIn, now: SimTime) -> (Connection, Vec<Out>) {
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut c = Connection::new(cfg, State::SynRcvd);
        c.rcv_nxt = syn.seq + 1;
        c.delivered = c.rcv_nxt;
        c.snd_wnd = syn.wnd as u64;
        let mut outs = Vec::new();
        outs.push(Out::Seg(SegOut {
            seq: 0,
            ack: c.rcv_nxt,
            wnd: c.recv_window(),
            len: 0,
            flags: SegFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            rtx: false,
        }));
        c.snd_nxt = 1;
        c.max_sent = 1;
        c.arm_timer(now, &mut outs);
        (c, outs)
    }

    fn new(cfg: TcpCfg, state: State) -> Connection {
        Connection {
            cfg,
            state,
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: cfg.recv_buf as u64, // until the peer tells us otherwise
            written: 1,                   // data starts after the SYN
            cwnd: (cfg.init_cwnd_segs * cfg.mss) as f64,
            ssthresh: cfg.init_ssthresh as f64,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            fin_queued: false,
            fin_seq: None,
            want_write: false,
            rto: cfg.rto_initial,
            srtt: None,
            rttvar: SimDelta::ZERO,
            timer_gen: 0,
            timer_armed: false,
            rtt_sample: None,
            max_sent: 0,
            last_send: SimTime::ZERO,
            delack_pending: false,
            delack_gen: 1,
            rcv_nxt: 0,
            delivered: 0,
            ooo: BTreeMap::new(),
            peer_fin: None,
            peer_fin_acked: false,
            advertised_wnd: cfg.recv_buf,
            our_fin_acked: false,
            audit_una: 0,
            audit_delivered: 0,
            stats: ConnStats::default(),
        }
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> State {
        self.state
    }

    /// Unacknowledged bytes in flight.
    pub(crate) fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    #[cfg(test)]
    pub(crate) fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    #[cfg(test)]
    pub(crate) fn srtt(&self) -> Option<SimDelta> {
        self.srtt
    }

    #[cfg(test)]
    pub(crate) fn rto(&self) -> SimDelta {
        self.rto
    }

    /// Bytes of in-order data available to read.
    pub(crate) fn readable_bytes(&self) -> u64 {
        let mut end = self.rcv_nxt;
        // The FIN consumes a sequence number but carries no data.
        if let Some(f) = self.peer_fin {
            if self.rcv_nxt > f {
                end = f;
            }
        }
        end.saturating_sub(self.delivered)
    }

    /// Free space in the send buffer.
    pub fn send_buffer_free(&self) -> u64 {
        let used = self.written - self.snd_una;
        (self.cfg.send_buf as u64).saturating_sub(used)
    }

    /// True once the peer's FIN has been delivered and drained.
    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peer_fin, Some(f) if self.delivered >= f && self.rcv_nxt > f)
    }

    fn recv_window(&self) -> u32 {
        let buffered = self.rcv_nxt.saturating_sub(self.delivered);
        (self.cfg.recv_buf as u64).saturating_sub(buffered) as u32
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Accept up to `len` bytes from the application. Returns bytes
    /// accepted (bounded by send-buffer space) plus actions.
    pub fn write(&mut self, len: u64, now: SimTime) -> (u64, Vec<Out>) {
        let mut outs = Vec::new();
        (self.write_into(len, now, &mut outs), outs)
    }

    /// [`Connection::write`], appending the actions to `outs`.
    pub(crate) fn write_into(&mut self, len: u64, now: SimTime, outs: &mut Vec<Out>) -> u64 {
        assert!(
            matches!(self.state, State::Established | State::CloseWait),
            "write in state {:?}",
            self.state
        );
        assert!(!self.fin_queued, "write after close");
        let accepted = len.min(self.send_buffer_free());
        self.written += accepted;
        if accepted < len {
            self.want_write = true;
        }
        self.send_data(now, outs);
        self.audit();
        accepted
    }

    /// Consume up to `len` bytes of in-order received data.
    pub fn read(&mut self, len: u64) -> (u64, Vec<Out>) {
        let mut outs = Vec::new();
        (self.read_into(len, &mut outs), outs)
    }

    /// [`Connection::read`], appending the actions to `outs`.
    pub(crate) fn read_into(&mut self, len: u64, outs: &mut Vec<Out>) -> u64 {
        let n = len.min(self.readable_bytes());
        let old_wnd = self.advertised_wnd;
        self.delivered += n;
        let new_wnd = self.recv_window();
        // Send a window update if the window was closed (or nearly) and has
        // now opened by at least one MSS — otherwise the sender could stall.
        if n > 0 && (old_wnd as u64) < self.cfg.mss as u64 && new_wnd as u64 >= self.cfg.mss as u64
        {
            self.emit_ack(outs);
        }
        self.audit();
        n
    }

    /// Close the sending direction (queues a FIN after pending data).
    pub(crate) fn close(&mut self, now: SimTime) -> Vec<Out> {
        if self.fin_queued || self.state == State::Closed {
            return Vec::new();
        }
        self.fin_queued = true;
        let mut outs = Vec::new();
        self.send_data(now, &mut outs);
        outs
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    pub fn on_segment(&mut self, seg: &SegIn, now: SimTime) -> Vec<Out> {
        let mut outs = Vec::new();
        self.on_segment_into(seg, now, &mut outs);
        outs
    }

    /// [`Connection::on_segment`], appending the actions to `outs`.
    pub(crate) fn on_segment_into(&mut self, seg: &SegIn, now: SimTime, outs: &mut Vec<Out>) {
        self.on_segment_inner(seg, now, outs);
        self.audit();
    }

    fn on_segment_inner(&mut self, seg: &SegIn, now: SimTime, outs: &mut Vec<Out>) {
        if seg.flags.rst {
            self.state = State::Closed;
            outs.push(Out::Closed);
            return;
        }
        match self.state {
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == 1 {
                    self.snd_una = 1;
                    self.rcv_nxt = seg.seq + 1;
                    self.delivered = self.rcv_nxt;
                    self.snd_wnd = seg.wnd as u64;
                    self.state = State::Established;
                    self.cancel_timer();
                    self.emit_ack(outs);
                    outs.push(Out::Connected);
                    self.send_data(now, outs);
                }
            }
            State::SynRcvd => {
                if seg.flags.ack && seg.ack >= 1 {
                    self.snd_una = 1;
                    self.snd_wnd = seg.wnd as u64;
                    self.state = State::Established;
                    self.cancel_timer();
                    outs.push(Out::Accepted);
                    // The handshake-completing ACK may carry data.
                    if seg.len > 0 || seg.flags.fin {
                        self.process_established(seg, now, outs);
                    }
                }
            }
            State::Established | State::FinWait | State::CloseWait => {
                self.process_established(seg, now, outs);
            }
            State::Closed => {}
        }
    }

    fn process_established(&mut self, seg: &SegIn, now: SimTime, outs: &mut Vec<Out>) {
        if seg.flags.ack {
            self.process_ack(seg, now, outs);
        }
        if seg.len > 0 || seg.flags.fin {
            self.process_data(seg, now, outs);
        }
        self.send_data(now, outs);
        self.check_fully_closed(outs);
    }

    fn process_ack(&mut self, seg: &SegIn, now: SimTime, outs: &mut Vec<Out>) {
        let ack = seg.ack;
        let old_wnd = self.snd_wnd;
        self.snd_wnd = seg.wnd as u64;
        if ack > self.snd_nxt {
            // After a timeout we rewind snd_nxt (go-back-N); the receiver
            // may cumulatively acknowledge out-of-order data it had cached,
            // pulling us forward past the rewound point.
            self.snd_nxt = ack;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            // FIN consumed a sequence number; note its acknowledgment.
            if let Some(f) = self.fin_seq {
                if ack == f + 1 {
                    self.our_fin_acked = true;
                }
            }
            // RTT sampling. Karn's algorithm: a sample is only trustworthy
            // if the timed bytes were transmitted exactly once — samples
            // armed on retransmitted data, or outlived by a retransmission,
            // are cleared in `note_retransmit` and never get here. The
            // `clean` check is the always-on auditor: it counts any bogus
            // sample that slips through (reachable only via the
            // `karn_disable` bug-injection switch).
            if let Some(s) = self.rtt_sample {
                if ack >= s.seq {
                    if !s.clean {
                        self.stats.karn_violations += 1;
                    }
                    let r = now.since(s.at);
                    self.update_rtt(r);
                    self.rtt_sample = None;
                }
            }
            if self.in_recovery {
                if ack > self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dupacks = 0;
                } else {
                    // NewReno partial ACK: retransmit the next hole and
                    // deflate by the amount acked.
                    self.retransmit_head(now, outs);
                    self.cwnd =
                        (self.cwnd - acked as f64 + self.cfg.mss as f64).max(self.cfg.mss as f64);
                }
            } else {
                self.dupacks = 0;
                self.grow_cwnd(acked);
            }
            // Restart the retransmission timer on forward progress.
            if self.flight() > 0 || (self.fin_seq.is_some() && !self.our_fin_acked) {
                self.arm_timer(now, outs);
            } else {
                self.cancel_timer();
            }
            if self.want_write && self.send_buffer_free() > 0 {
                self.want_write = false;
                outs.push(Out::Writable);
            }
        } else if ack == self.snd_una
            && seg.len == 0
            && !seg.flags.syn
            && !seg.flags.fin
            && seg.wnd as u64 == old_wnd
            && self.flight() > 0
        {
            // Duplicate ACK.
            self.stats.dup_acks_received += 1;
            self.dupacks += 1;
            if self.in_recovery {
                // Window inflation: one MSS per additional dupack.
                self.cwnd += self.cfg.mss as f64;
            } else if self.dupacks == self.cfg.dupack_thresh {
                self.enter_fast_recovery(now, outs);
            }
        }
    }

    fn enter_fast_recovery(&mut self, now: SimTime, outs: &mut Vec<Out>) {
        self.stats.fast_retransmits += 1;
        let flight = self.flight() as f64;
        self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
        self.retransmit_head(now, outs);
        self.cwnd = self.ssthresh + (self.cfg.dupack_thresh * self.cfg.mss) as f64;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        outs.push(Out::Cc {
            kind: CcKind::FastRetransmit,
            cwnd_bytes: self.cwnd as u64,
            rto: self.rto,
        });
    }

    fn grow_cwnd(&mut self, acked_bytes: u64) {
        let mss = self.cfg.mss as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: grow by the bytes acknowledged (ABC).
            self.cwnd += (acked_bytes as f64).min(mss);
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd += mss * mss / self.cwnd;
        }
        // Never exceed what the send buffer could ever use; keeps numbers sane.
        self.cwnd = self.cwnd.min(16.0 * 1024.0 * 1024.0);
    }

    fn update_rtt(&mut self, r: SimDelta) {
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = SimDelta::from_nanos(r.as_nanos() / 2);
            }
            Some(srtt) => {
                let diff = if srtt > r { srtt - r } else { r - srtt };
                self.rttvar =
                    SimDelta::from_nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                self.srtt = Some(SimDelta::from_nanos(
                    (7 * srtt.as_nanos() + r.as_nanos()) / 8,
                ));
            }
        }
        let srtt = self.srtt.unwrap();
        let candidate = srtt + self.rttvar * 4;
        self.rto = candidate.max(self.cfg.rto_min).min(self.cfg.rto_max);
    }

    /// Karn's algorithm: a retransmission makes any outstanding RTT sample
    /// ambiguous (the completing ACK may have been triggered by either
    /// copy), so drop it. Every retransmit path funnels through here —
    /// fast retransmit, RTO go-back-N, FIN and SYN retransmissions. With
    /// the `karn_disable` bug switch the sample survives but is marked
    /// unclean, so the audit counter can convict it at acceptance.
    fn note_retransmit(&mut self) {
        if self.cfg.karn_disable {
            if let Some(s) = &mut self.rtt_sample {
                s.clean = false;
            }
        } else {
            self.rtt_sample = None;
        }
    }

    /// Always-on protocol self-audit, run after every externally driven
    /// state transition (segment arrival, timer, app read/write). Checks
    /// sequence-space ordering (`snd_una <= snd_nxt <= max_sent <=
    /// written + 1`, the `+ 1` being the FIN's sequence slot), congestion
    /// window floor (`cwnd >= mss`), receive-side sanity (`delivered <=
    /// rcv_nxt`), and monotonicity of `snd_una` and `delivered` against
    /// the values witnessed by the previous audit. Violations only bump
    /// `stats.invariant_violations` — the connection keeps running so a
    /// fuzzer can observe the count without the process aborting.
    fn audit(&mut self) {
        let ordered = self.snd_una <= self.snd_nxt
            && self.snd_nxt <= self.max_sent
            && self.max_sent <= self.written + 1;
        let monotone = self.snd_una >= self.audit_una && self.delivered >= self.audit_delivered;
        let cwnd_ok = self.cwnd >= self.cfg.mss as f64;
        let recv_ok = self.delivered <= self.rcv_nxt;
        if !(ordered && monotone && cwnd_ok && recv_ok) {
            self.stats.invariant_violations += 1;
        }
        self.audit_una = self.snd_una;
        self.audit_delivered = self.delivered;
    }

    /// Retransmit one segment starting at `snd_una`.
    fn retransmit_head(&mut self, _now: SimTime, outs: &mut Vec<Out>) {
        self.note_retransmit();
        if self.snd_una == 0 {
            // Retransmit SYN (or SYN/ACK).
            let flags = match self.state {
                State::SynSent => SegFlags {
                    syn: true,
                    ..Default::default()
                },
                _ => SegFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                },
            };
            outs.push(Out::Seg(SegOut {
                seq: 0,
                ack: if flags.ack { self.rcv_nxt } else { 0 },
                wnd: self.recv_window(),
                len: 0,
                flags,
                rtx: true,
            }));
            self.stats.rtx_segs += 1;
            return;
        }
        if self.fin_seq == Some(self.snd_una) {
            outs.push(Out::Seg(SegOut {
                seq: self.snd_una,
                ack: self.rcv_nxt,
                wnd: self.recv_window(),
                len: 0,
                flags: SegFlags {
                    fin: true,
                    ack: true,
                    ..Default::default()
                },
                rtx: true,
            }));
            self.stats.rtx_segs += 1;
            return;
        }
        let data_left = self.written.saturating_sub(self.snd_una);
        if data_left > 0 {
            let len = data_left.min(self.cfg.mss as u64) as u32;
            outs.push(Out::Seg(SegOut {
                seq: self.snd_una,
                ack: self.rcv_nxt,
                wnd: self.recv_window(),
                len,
                flags: SegFlags {
                    ack: true,
                    ..Default::default()
                },
                rtx: true,
            }));
            self.stats.rtx_segs += 1;
            self.stats.segs_sent += 1;
            self.stats.bytes_sent += len as u64;
        }
    }

    fn process_data(&mut self, seg: &SegIn, now: SimTime, outs: &mut Vec<Out>) {
        let mut advanced = false;
        if seg.len > 0 {
            let start = seg.seq;
            let end = seg.seq + seg.len as u64;
            if end <= self.rcv_nxt {
                // Entirely old: pure retransmission, re-ack.
            } else if start <= self.rcv_nxt {
                self.rcv_nxt = end;
                advanced = true;
                // Merge any out-of-order data that now fits.
                while let Some((&s, &e)) = self.ooo.first_key_value() {
                    if s > self.rcv_nxt {
                        break;
                    }
                    self.rcv_nxt = self.rcv_nxt.max(e);
                    self.ooo.remove(&s);
                }
            } else {
                // A hole: buffer out of order (bounded by the receive
                // window, which the sender respects).
                let entry = self.ooo.entry(start).or_insert(end);
                *entry = (*entry).max(end);
            }
        }
        if seg.flags.fin {
            let fin_seq = seg.seq + seg.len as u64;
            if self.peer_fin.is_none() {
                self.peer_fin = Some(fin_seq);
            }
        }
        // Consume the FIN's sequence slot once all data before it arrived.
        if let Some(f) = self.peer_fin {
            if self.rcv_nxt == f && !self.peer_fin_acked {
                self.rcv_nxt = f + 1;
                self.peer_fin_acked = true;
                advanced = true;
                if self.state == State::Established {
                    self.state = State::CloseWait;
                } else if self.state == State::FinWait {
                    // simultaneous / sequential close; closure check later
                }
                outs.push(Out::RemoteClosed);
            }
        }
        // ACK policy: out-of-order and duplicate segments are acknowledged
        // immediately (the dupacks drive fast retransmit at the peer), as is
        // a FIN. Fresh in-order data may be delayed-acked if configured.
        let fresh_in_order = advanced && seg.len > 0 && !seg.flags.fin;
        if !self.cfg.delayed_ack || !fresh_in_order {
            self.emit_ack(outs);
        } else if self.delack_pending {
            // Second unacknowledged segment: ack now (RFC 1122's every-2).
            self.emit_ack(outs);
        } else {
            self.delack_pending = true;
            self.delack_gen += 2;
            outs.push(Out::ArmTimer {
                at: now + self.cfg.delack_delay,
                gen: self.delack_gen,
            });
        }
        if advanced && self.readable_bytes() > 0 {
            outs.push(Out::Readable);
        }
    }

    fn check_fully_closed(&mut self, outs: &mut Vec<Out>) {
        let ours_done = self.fin_seq.is_some() && self.our_fin_acked;
        let theirs_done = self.peer_fin_acked;
        if ours_done && theirs_done && self.state != State::Closed {
            self.state = State::Closed;
            self.cancel_timer();
            outs.push(Out::Closed);
        }
    }

    fn emit_ack(&mut self, outs: &mut Vec<Out>) {
        self.clear_delack();
        let wnd = self.recv_window();
        self.advertised_wnd = wnd;
        outs.push(Out::Seg(SegOut {
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            wnd,
            len: 0,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
            rtx: false,
        }));
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    fn send_data(&mut self, now: SimTime, outs: &mut Vec<Out>) {
        if !matches!(
            self.state,
            State::Established | State::FinWait | State::CloseWait
        ) {
            return;
        }
        // Slow-start restart: collapse cwnd after a send-idle period longer
        // than the RTO (RFC 2861).
        if self.cfg.idle_restart
            && self.flight() == 0
            && self.written > self.snd_nxt
            && now.since(self.last_send) > self.rto
        {
            let restart = (self.cfg.init_cwnd_segs * self.cfg.mss) as f64;
            if self.cwnd > restart {
                self.cwnd = restart;
                self.stats.slow_start_restarts += 1;
                outs.push(Out::Cc {
                    kind: CcKind::SlowStartRestart,
                    cwnd_bytes: self.cwnd as u64,
                    rto: self.rto,
                });
            }
        }
        let mut sent_any = false;
        loop {
            let wnd = (self.cwnd as u64).min(self.snd_wnd);
            let flight = self.flight();
            if wnd <= flight {
                break;
            }
            let space = wnd - flight;
            let avail = self.written.saturating_sub(self.snd_nxt);
            let len = space.min(avail).min(self.cfg.mss as u64);
            if len == 0 {
                break;
            }
            let seq = self.snd_nxt;
            // Below the transmission high-water mark this is a go-back-N
            // retransmission (snd_nxt was rewound at an RTO), even though
            // it flows through the regular send path.
            let fresh = seq >= self.max_sent;
            outs.push(Out::Seg(SegOut {
                seq,
                ack: self.rcv_nxt,
                wnd: self.recv_window(),
                len: len as u32,
                flags: SegFlags {
                    ack: true,
                    ..Default::default()
                },
                rtx: !fresh,
            }));
            self.snd_nxt += len;
            self.max_sent = self.max_sent.max(self.snd_nxt);
            self.stats.segs_sent += 1;
            self.stats.bytes_sent += len;
            self.last_send = now;
            // Karn: time only segments transmitted for the first time. The
            // bug switch restores the historical behavior (arming on
            // re-sent bytes) but brands the sample unclean so the audit
            // counter convicts it when it completes.
            if self.rtt_sample.is_none() && (fresh || self.cfg.karn_disable) {
                self.rtt_sample = Some(RttSample {
                    seq: self.snd_nxt,
                    at: now,
                    clean: fresh,
                });
            }
            sent_any = true;
        }
        // Send the FIN once all data is out; it consumes one sequence slot.
        if self.fin_queued && self.fin_seq.is_none() && self.snd_nxt == self.written {
            let can_fit = (self.cwnd as u64).min(self.snd_wnd) > self.flight();
            if can_fit {
                outs.push(Out::Seg(SegOut {
                    seq: self.snd_nxt,
                    ack: self.rcv_nxt,
                    wnd: self.recv_window(),
                    len: 0,
                    flags: SegFlags {
                        fin: true,
                        ack: true,
                        ..Default::default()
                    },
                    rtx: false,
                }));
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt += 1;
                self.max_sent = self.max_sent.max(self.snd_nxt);
                if self.state == State::Established {
                    self.state = State::FinWait;
                }
                sent_any = true;
            }
        }
        if sent_any {
            // Data segments carry the current ack: any owed delayed ACK is
            // piggybacked.
            self.clear_delack();
            if !self.timer_armed {
                self.arm_timer(now, outs);
            }
        }
        // Zero-window deadlock guard: data waiting, nothing in flight, peer
        // window closed — keep the timer running to probe.
        if self.snd_wnd == 0
            && self.flight() == 0
            && self.written > self.snd_nxt
            && !self.timer_armed
        {
            self.arm_timer(now, outs);
        }
    }

    // ------------------------------------------------------------------
    // Timer
    // ------------------------------------------------------------------

    fn arm_timer(&mut self, now: SimTime, outs: &mut Vec<Out>) {
        self.timer_gen += 2;
        self.timer_armed = true;
        outs.push(Out::ArmTimer {
            at: now + self.rto,
            gen: self.timer_gen,
        });
    }

    fn cancel_timer(&mut self) {
        self.timer_gen += 2;
        self.timer_armed = false;
    }

    /// Any ACK we emit (pure or piggybacked) satisfies a pending delayed ACK.
    fn clear_delack(&mut self) {
        if self.delack_pending {
            self.delack_pending = false;
            self.delack_gen += 2;
        }
    }

    /// A timer fired: the retransmission timer (even generations) or the
    /// delayed-ACK timer (odd generations). Appends the actions to `outs`.
    pub(crate) fn on_timer_into(&mut self, gen: u64, now: SimTime, outs: &mut Vec<Out>) {
        self.on_timer_inner(gen, now, outs);
        self.audit();
    }

    fn on_timer_inner(&mut self, gen: u64, now: SimTime, outs: &mut Vec<Out>) {
        if gen % 2 == 1 {
            if gen == self.delack_gen && self.delack_pending && self.state != State::Closed {
                self.emit_ack(outs);
            }
            return;
        }
        if gen != self.timer_gen || !self.timer_armed || self.state == State::Closed {
            return;
        }
        self.timer_armed = false;
        if self.state == State::SynSent || self.state == State::SynRcvd {
            // Handshake retransmission.
            self.retransmit_head(now, outs);
            self.rto = (self.rto * 2).min(self.cfg.rto_max);
            self.arm_timer(now, outs);
            return;
        }
        let unacked = self.flight() > 0;
        if unacked {
            // Retransmission timeout: multiplicative back-off, collapse the
            // window, and go back N — rewind snd_nxt to snd_una so the whole
            // window is resent under slow start (cumulative ACKs for data
            // the receiver cached out of order pull snd_nxt forward again).
            self.stats.rtos += 1;
            let flight = self.flight() as f64;
            self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
            self.cwnd = self.cfg.mss as f64;
            self.in_recovery = false;
            self.dupacks = 0;
            self.recover = self.snd_nxt;
            self.snd_nxt = self.snd_una;
            if let Some(f) = self.fin_seq {
                if f >= self.snd_nxt {
                    // The FIN itself must be resent once data drains again.
                    self.fin_seq = None;
                    self.fin_queued = true;
                }
            }
            self.note_retransmit(); // Karn
            self.stats.rtx_segs += 1;
            self.send_data(now, outs);
            self.rto = (self.rto * 2).min(self.cfg.rto_max);
            outs.push(Out::Cc {
                kind: CcKind::Rto,
                cwnd_bytes: self.cwnd as u64,
                rto: self.rto,
            });
            self.arm_timer(now, outs);
        } else if self.snd_wnd == 0 && self.written > self.snd_nxt {
            // Persist: probe the zero window with one byte.
            let seq = self.snd_nxt;
            outs.push(Out::Seg(SegOut {
                seq,
                ack: self.rcv_nxt,
                wnd: self.recv_window(),
                len: 1,
                flags: SegFlags {
                    ack: true,
                    ..Default::default()
                },
                rtx: false,
            }));
            self.snd_nxt += 1;
            self.max_sent = self.max_sent.max(self.snd_nxt);
            self.stats.segs_sent += 1;
            self.stats.bytes_sent += 1;
            self.rto = (self.rto * 2).min(self.cfg.rto_max);
            self.arm_timer(now, outs);
        }
    }
}
