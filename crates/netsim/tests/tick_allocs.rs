//! A timeline tick that creates no series does not touch the allocator.
//!
//! The network's metric walk states every indexed series (`iface*`,
//! `node*.rule*`, `node*.shaper*`) in parts, and a tick finds each one at
//! its position in the previous instant's order — so once a series exists,
//! sampling it builds no name. What is left is `Vec` growth of the sample
//! columns, and a column gets room for 16 samples at its first.

use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    Dscp, FlowSpec, Framing, LinkCfg, Net, NetHandler, NodeId, Packet, PolicingAction, Proto,
    QueueCfg, TokenBucket, TopoBuilder, L4,
};
use mpichgq_sim::{SimDelta, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the count lives in
// a `const`-initialised thread-local without a destructor, so touching it
// neither allocates nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Idle;

impl NetHandler for Idle {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

#[test]
fn a_tick_that_creates_no_series_allocates_nothing() {
    // h0 -- r -- h1, a drop policer at r's edge and a shaper at h0.
    let mut b = TopoBuilder::new(7);
    let (h0, r, h1) = (b.host("h0"), b.router("r"), b.host("h1"));
    let cfg = LinkCfg {
        bandwidth_bps: 100_000_000,
        delay: SimDelta::from_millis(1),
        framing: Framing::None,
    };
    b.link(h0, r, cfg, QueueCfg::priority_default());
    b.link(r, h1, cfg, QueueCfg::priority_default());
    let mut net = b.build();
    let flow = |port| FlowSpec::exact(h0, h1, Proto::Udp, 1, port);
    net.node_mut(r).classifier.install(
        flow(10),
        Dscp::Ef,
        Some(TokenBucket::new(2_000_000, 3_000)),
        PolicingAction::Drop,
    );
    net.install_shaper(h0, flow(20), TokenBucket::new(50_000_000, 30_000));
    net.enable_timeline(SimDelta::from_millis(10));

    // One burst, gone from every queue and wire well before the first
    // sampling instant: each interface, rule and shaper series is created
    // at instant 1, and nothing that happens later can create another.
    for port in [10, 10, 10, 10, 20, 20, 30, 30] {
        net.send_ip(Packet {
            src: h0,
            dst: h1,
            src_port: 1,
            dst_port: port,
            dscp: Dscp::BestEffort,
            l4: L4::Udp,
            payload_len: 972,
            id: 0,
            born: SimTime::ZERO,
        });
    }
    let mut h = Idle;
    net.run_until(&mut h, SimTime::from_millis(55));
    let tl = net.timeline().expect("sampler armed");
    let ifaces = tl.names().filter(|n| n.ends_with(".tx_packets")).count();
    assert_eq!(ifaces, 2, "both forward interfaces carried the burst");
    for c in ["node001.rule000.policed_pkts", "node000.shaper000.passed"] {
        assert_eq!(tl.counter(c).expect(c).0.len(), 5, "{c}: one per instant");
    }
    let g = "iface000.backlog_ef_bytes";
    assert_eq!(tl.gauge(g).expect(g).0.len(), 5, "{g}: one per instant");
    let series_before = tl.series_count();

    // Instants 6 and 7: samples 6 and 7 of columns with room for 16.
    let before = ALLOCS.with(Cell::get);
    net.run_until(&mut h, SimTime::from_millis(75));
    let allocs = ALLOCS.with(Cell::get) - before;

    let tl = net.timeline().expect("sampler armed");
    assert_eq!(tl.series_count(), series_before);
    assert_eq!(tl.counter("iface000.tx_packets").unwrap().0.len(), 7);
    assert_eq!(allocs, 0, "allocations over two steady-state ticks");
}
