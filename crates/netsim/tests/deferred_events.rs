//! Reserved-key deferred scheduling in the network layer: per-channel wire
//! FIFOs and on-demand `TxDone`. The engine keys are reserved exactly where
//! the events used to be scheduled, so every case here states the outcome
//! the eager engine produced and asserts the deferred one reproduces it.

use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    run_partitioned, Dscp, FaultAction, FaultPlan, Framing, LinkCfg, Net, NetHandler, NodeId,
    Packet, Partition, QueueCfg, TopoBuilder, L4,
};
use mpichgq_sim::{SimDelta, SimTime};

/// Records `(arrival time, packet id)` of everything delivered.
#[derive(Default)]
struct Collect {
    got: Vec<(SimTime, u64)>,
}

impl NetHandler for Collect {
    fn deliver(&mut self, net: &mut Net, _host: NodeId, pkt: Packet) {
        self.got.push((net.now(), pkt.id));
    }
    fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

fn pkt(src: NodeId, dst: NodeId, ip_len: u32, dscp: Dscp) -> Packet {
    Packet {
        src,
        dst,
        src_port: 1,
        dst_port: 2,
        dscp,
        l4: L4::Udp,
        payload_len: ip_len - 28,
        id: 0,
        born: SimTime::ZERO,
    }
}

/// 8 Mb/s, no framing: a 1000-byte datagram serializes in exactly 1 ms.
fn link(delay: SimDelta) -> LinkCfg {
    LinkCfg {
        bandwidth_bps: 8_000_000,
        delay,
        framing: Framing::None,
    }
}

const MS: u64 = 1_000_000;

/// `h1 -- r -- h2`, 1 ms per link.
fn line() -> (Net, NodeId, NodeId, NodeId) {
    let mut b = TopoBuilder::new(1);
    let h1 = b.host("h1");
    let r = b.router("r");
    let h2 = b.host("h2");
    let q = QueueCfg::priority_default();
    b.link(h1, r, link(SimDelta::from_millis(1)), q);
    b.link(r, h2, link(SimDelta::from_millis(1)), q);
    (b.build(), h1, r, h2)
}

fn assert_wires_conserved(net: &mut Net) {
    let audit = net.audit();
    assert!(audit.conserved(), "{audit:?}");
    for c in &audit.chans {
        assert!(c.wire_conserved(), "wire identity broken: {c:?}");
    }
}

#[test]
fn idle_path_schedules_one_event_per_hop() {
    let (mut net, h1, _r, h2) = line();
    let mut h = Collect::default();
    net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    // Only the head of each wire FIFO is in the engine, and no `TxDone`:
    // nothing waits behind the one transmission.
    assert_eq!(net.pending_events(), 1);
    net.run_to_quiescence(&mut h);
    assert_eq!(h.got, vec![(SimTime::from_millis(4), 0)]);
    assert_eq!(net.events_processed(), 2, "two deliveries, no TxDone");
    net.publish_metrics();
    let m = &net.obs.metrics;
    assert_eq!(m.counter_value("engine.events_elided.txdone"), Some(2));
    assert_eq!(m.counter_value("engine.events_elided.timer"), Some(0));
}

#[test]
fn backlog_inserts_txdone_and_wire_fifo_tracks_packets_in_flight() {
    let (mut net, h1, _r, h2) = line();
    let mut h = Collect::default();
    for _ in 0..10 {
        net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    }
    // Step through the run in 100 us slices: at every instant each
    // channel's FIFO holds exactly tx_packets - rx_packets.
    for step in 1..=140 {
        net.run_until(&mut h, SimTime::from_nanos(step * MS / 10));
        assert_wires_conserved(&mut net);
    }
    assert_eq!(h.got.len(), 10);
    // Store-and-forward pipeline, as ever: last arrival at 13 ms.
    assert_eq!(h.got.last().unwrap().0, SimTime::from_millis(13));
    net.publish_metrics();
    // 20 transmissions. On the first hop nine had a successor queued when
    // they started. On the second each arrival coincides with the end of
    // the previous transmission, under a key reserved a hop earlier than
    // that TxDone's: it fires first, finds the wire busy and waits — so
    // those nine are needed too. Only the last on each hop is elided.
    assert_eq!(
        net.obs.metrics.counter_value("engine.events_elided.txdone"),
        Some(2)
    );
    assert_eq!(net.events_processed(), 20 + 18);
}

/// Three feeders into one router whose egress `x` (priority queue) is busy
/// with `p0` until exactly `t = 3 ms`, when a best-effort and an EF packet
/// arrive in that order. `feed_delay` and `send_at` place the feeders' tx
/// starts — where their delivery keys are reserved — before or after
/// `p0`'s tx start on `x` at 2 ms, where the `TxDone` key is reserved.
fn tie(feed_delay: SimDelta, send_at: SimTime) -> Vec<u64> {
    let mut b = TopoBuilder::new(1);
    let (a, e, c) = (b.host("be"), b.host("ef"), b.host("p0"));
    let r = b.router("r");
    let d = b.host("d");
    let q = QueueCfg::priority_default();
    b.link(a, r, link(feed_delay), q);
    b.link(e, r, link(feed_delay), q);
    b.link(c, r, link(SimDelta::from_millis(1)), q);
    b.link(r, d, link(SimDelta::from_millis(1)), q);
    let mut net = b.build();
    let mut h = Collect::default();
    // p0 (id 0): on `x` from 2 ms to 3 ms.
    net.send_ip(pkt(c, d, 1000, Dscp::BestEffort));
    net.run_until(&mut h, send_at);
    // 100-byte packets: 0.1 ms on the feeder wire.
    net.send_ip(pkt(a, d, 100, Dscp::BestEffort)); // id 1
    net.send_ip(pkt(e, d, 100, Dscp::Ef)); // id 2
    net.run_to_quiescence(&mut h);
    assert_eq!(h.got[0], (SimTime::from_millis(4), 0));
    assert_wires_conserved(&mut net);
    h.got.iter().map(|&(_, id)| id).collect()
}

#[test]
fn txdone_tie_enqueue_first_lets_ef_overtake() {
    // Feeders start at 1 ms (keys reserved before p0's TxDone key) and
    // take 0.1 + 1.9 ms. At 3 ms the eager engine fired: BE arrival (wire
    // busy, queued), EF arrival (queued), TxDone (priority pop: EF first).
    let order = tie(SimDelta::from_micros(1_900), SimTime::from_millis(1));
    assert_eq!(order, vec![0, 2, 1]);
}

#[test]
fn txdone_tie_txdone_first_starts_be_immediately() {
    // Feeders start at 2.8 ms (keys reserved after p0's TxDone key) and
    // take 0.1 + 0.1 ms. At 3 ms the eager engine fired: TxDone (queue
    // empty, wire idle), BE arrival (starts at once), EF arrival (wire busy
    // again, waits). The deferred engine never inserts that TxDone; the
    // cursor comparison alone must report the wire idle to the BE arrival.
    let order = tie(SimDelta::from_micros(100), SimTime::from_micros(2_800));
    assert_eq!(order, vec![0, 1, 2]);
}

#[test]
fn link_down_while_busy_leaves_no_stuck_channel() {
    let (mut net, h1, r, h2) = line();
    let mut h = Collect::default();
    let trunk = net.route(r, h2).unwrap();
    // Packet 0 is on r->h2 from 2 ms to 3 ms. The cut lands mid-transmission
    // with nothing queued (so no TxDone was inserted); packets 1 and 2
    // reach the router at 2.6 and 2.7 ms, while the link is down *and* the
    // wire still busy.
    net.install_fault_plan(FaultPlan::new(3).link_outage(
        trunk,
        SimTime::from_micros(2_500),
        SimDelta::from_millis(10),
    ));
    net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    net.run_until(&mut h, SimTime::from_micros(1_500));
    net.send_ip(pkt(h1, h2, 100, Dscp::BestEffort));
    net.send_ip(pkt(h1, h2, 100, Dscp::BestEffort));
    net.run_until(&mut h, SimTime::from_millis(12));
    assert_wires_conserved(&mut net);
    assert!(h.got.is_empty(), "packet 0 died on the cut wire");
    net.run_to_quiescence(&mut h);
    // LinkUp at 12.5 ms drains the queue back to back.
    let ids: Vec<u64> = h.got.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids, vec![1, 2]);
    assert_eq!(h.got[0].0, SimTime::from_micros(12_500 + 100 + 1_000));
    assert_eq!(net.pending_events(), 0);
    // The channel is usable afterwards: a fresh packet goes straight out.
    let t0 = net.now();
    net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    net.run_to_quiescence(&mut h);
    assert_eq!(h.got.last().unwrap().0, t0 + SimDelta::from_millis(4));
    assert_wires_conserved(&mut net);
}

#[test]
fn crash_while_busy_leaves_no_stuck_channel() {
    let (mut net, h1, _r, h2) = line();
    let mut h = Collect::default();
    // Five packets queued on h1's interface; the host dies 1.5 ms in, with
    // packet 1 mid-transmission and its TxDone inserted (three more wait).
    net.install_fault_plan(
        FaultPlan::new(3)
            .at(
                SimTime::from_micros(1_500),
                FaultAction::HostCrash { host: h1 },
            )
            .at(
                SimTime::from_millis(20),
                FaultAction::HostRestart { host: h1 },
            ),
    );
    for _ in 0..5 {
        net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    }
    net.run_until(&mut h, SimTime::from_millis(19));
    assert_wires_conserved(&mut net);
    assert_eq!(net.pending_events(), 1, "only the restart is left");
    net.run_until(&mut h, SimTime::from_millis(21));
    // The restarted host's interface is idle, not wedged behind a TxDone
    // that fired into the outage.
    net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    net.send_ip(pkt(h1, h2, 1000, Dscp::BestEffort));
    net.run_to_quiescence(&mut h);
    let after: Vec<SimTime> = h
        .got
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| t > SimTime::from_millis(20))
        .collect();
    assert_eq!(
        after,
        vec![SimTime::from_millis(25), SimTime::from_millis(26)]
    );
    assert_eq!(net.fault_stats().unwrap().dead_deliveries, 0);
    assert_wires_conserved(&mut net);
}

/// A cross-shard channel transmits in its sender's copy of the world and
/// keeps its wire FIFO in the receiver's: the wire identity holds for the
/// two copies' rows summed, at any barrier.
#[test]
fn cross_shard_wire_fifo_is_conserved_across_the_two_copies() {
    struct Ticker;
    impl NetHandler for Ticker {
        fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
        fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64) {
            net.send_ip(pkt(host, NodeId(token as u32), 540, Dscp::BestEffort));
            let at = net.now() + SimDelta::from_millis(1);
            net.set_host_timer(host, at, token);
        }
        fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
        fn control(&mut self, _n: &mut Net, _t: u64) {}
    }
    let topo = || {
        let mut t = TopoBuilder::new(7);
        let (h0, r0, h1, r1) = (t.host("h0"), t.router("r0"), t.host("h1"), t.router("r1"));
        let fast = LinkCfg::fast_ethernet(SimDelta::from_micros(10));
        let q = QueueCfg::droptail_default();
        t.link(h0, r0, fast, q);
        t.link(h1, r1, fast, q);
        t.link(r0, r1, LinkCfg::fast_ethernet(SimDelta::from_millis(5)), q);
        t
    };
    let part = Partition::by_min_delay(&topo(), SimDelta::from_millis(1)).unwrap();
    assert_eq!(part.shards(), 2);
    // Stop mid-stream so the WAN wires are full of packets in flight.
    let rows = run_partitioned(
        &part,
        2,
        SimTime::from_micros(52_300),
        |shard| {
            let mut net = topo().build();
            for (host, dst) in [(NodeId(0), 2u64), (NodeId(2), 0u64)] {
                if part.shard_of(host) == shard {
                    net.set_host_timer(host, SimTime::ZERO, dst);
                }
            }
            (net, Ticker)
        },
        |_, net, _| net.audit().chans,
    );
    // Rows of one channel in the two copies: a cross-shard channel is
    // transmitted in one and received in the other.
    let mut in_flight = 0;
    for (a, b) in rows[0].iter().zip(&rows[1]) {
        let tx = a.tx_packets + b.tx_packets;
        let rx = a.rx_packets + b.rx_packets;
        assert_eq!(a.wire_fifo + b.wire_fifo, tx - rx, "{a:?} {b:?}");
        if (a.tx_packets > 0) != (a.rx_packets > 0) {
            in_flight += a.wire_fifo + b.wire_fifo;
        }
    }
    assert!(in_flight >= 8, "WAN wires held only {in_flight} packets");
}
