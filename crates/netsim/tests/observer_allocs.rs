//! The two always-on observers cost no allocation per series or per packet
//! once warm.
//!
//! - The timeline sampler: after the instant that creates the series, an
//!   instant allocates the same handful whether the network has 4 or 32
//!   interfaces to sample. A column gets room for 16 samples at its first,
//!   and a series sampled at every instant keeps no timestamps of its own.
//! - The lifecycle tracer: `on_send`, `on_enqueue`, `on_tx_start` and
//!   `on_delivered` allocate nothing in steady state, with one packet held
//!   in a shaper for the whole run. The in-flight ring spills that packet
//!   instead of widening to cover every id sent since, so it stops growing.

use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    Dscp, FlowSpec, Framing, LinkCfg, Net, NetHandler, NodeId, Packet, Proto, QueueCfg,
    TokenBucket, TopoBuilder, L4,
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const LINK: LinkCfg = LinkCfg {
    bandwidth_bps: 100_000_000,
    delay: SimDelta::from_millis(1),
    framing: Framing::None,
};

fn udp(src: NodeId, dst: NodeId, dst_port: u16) -> Packet {
    Packet {
        src,
        dst,
        src_port: 1,
        dst_port,
        dscp: Dscp::BestEffort,
        l4: L4::Udp,
        payload_len: 972,
        id: 0,
        born: SimTime::ZERO,
    }
}

struct Idle;

impl NetHandler for Idle {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

/// Allocations of sampling instants 2..=16 of a star of `hosts` hosts
/// around one router, each host having sent one packet before instant 1.
/// Returns them with the number of series sampled.
fn steady_instant_allocs(hosts: u32) -> (u64, usize) {
    let mut b = TopoBuilder::new(3);
    let r = b.router("r");
    let hs: Vec<NodeId> = (0..hosts).map(|i| b.host(&format!("h{i}"))).collect();
    for &h in &hs {
        b.link(h, r, LINK, QueueCfg::priority_default());
    }
    let mut net = b.build();
    net.enable_timeline(SimDelta::from_millis(10));
    // Every uplink and every downlink carries one packet, all delivered
    // well before instant 1: each series exists from instant 1 on.
    for (i, &h) in hs.iter().enumerate() {
        net.send_ip(udp(h, hs[(i + 1) % hs.len()], 9));
    }
    let mut h = Idle;
    net.run_until(&mut h, SimTime::from_millis(15));
    let series = net.timeline().expect("sampler armed").series_count();
    let before = allocs();
    net.run_until(&mut h, SimTime::from_millis(165));
    let during = allocs() - before;
    let tl = net.timeline().expect("sampler armed");
    assert_eq!(tl.series_count(), series, "no series appeared later");
    let (t, _) = tl.counter("iface000.tx_packets").expect("uplink 0 sampled");
    assert_eq!(t.len(), 16);
    (during, series)
}

#[test]
fn a_steady_instant_allocates_independently_of_the_series_count() {
    let (few, few_series) = steady_instant_allocs(4);
    let (many, many_series) = steady_instant_allocs(32);
    assert!(
        many_series > 6 * few_series,
        "{few_series} vs {many_series}"
    );
    assert_eq!(few, many, "allocations grew with the number of series");
    // Instant 2 sizes the buffer that records this instant's write order
    // (instant 1's became the order to expect); nothing else allocates.
    assert_eq!(many, 1, "allocations over instants 2..=16");
}

/// Four 1000-byte packets every millisecond from h0 to h1.
struct Bursts {
    dst: NodeId,
}

impl NetHandler for Bursts {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64) {
        for _ in 0..4 {
            net.send_ip(udp(host, self.dst, 2));
        }
        net.set_host_timer(host, net.now() + SimDelta::from_millis(1), token);
    }
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

#[test]
fn a_warm_traced_run_allocates_nothing() {
    let mut b = TopoBuilder::new(5);
    let (h0, r, h1) = (b.host("h0"), b.router("r"), b.host("h1"));
    b.link(h0, r, LINK, QueueCfg::priority_default());
    b.link(r, h1, LINK, QueueCfg::priority_default());
    let mut net = b.build();
    // A span log that fills during warm-up: past it, spans are counted.
    net.enable_packet_tracing_with(256);
    // Port 9 gets 1 byte/s after a 1500-byte burst: the first packet
    // passes, the second waits ~500 s in the shaper — the whole run.
    let slow = FlowSpec::exact(h0, h1, Proto::Udp, 1, 9);
    net.install_shaper(h0, slow, TokenBucket::new(8, 1_500));
    net.send_ip(udp(h0, h1, 9));
    net.send_ip(udp(h0, h1, 9));
    net.set_host_timer(h0, SimTime::ZERO, 0);
    let mut h = Bursts { dst: h1 };

    // 1.5 s warm-up: 6,000 packets, so the parked one is far more than
    // the ring's span old, every histogram has seen its largest delay and
    // the calendar has settled its width.
    net.run_until(&mut h, SimTime::from_micros(1_500_100));
    let rebuilds = |net: &Net| net.scheduler_stats().rebuilds;
    let settled = rebuilds(&net);
    let delivered = |net: &Net| -> u64 {
        let flows = net.packet_tracer().unwrap().flows();
        flows.iter().map(|f| f.delivered).sum()
    };
    let before_pkts = delivered(&net);
    let before = allocs();
    // 8,000 more packets: a ring still covering packet 0 would have to
    // double past 8,192 entries on the way.
    net.run_until(&mut h, SimTime::from_micros(3_500_100));
    let run = allocs() - before;

    assert_eq!(
        rebuilds(&net),
        settled,
        "warm-up ended before the calendar settled"
    );
    assert_eq!(delivered(&net) - before_pkts, 8_000);
    assert_eq!(net.node(h0).shapers[0].queue.len(), 1, "one packet parked");
    let t = net.packet_tracer().unwrap();
    assert_eq!(t.spans().len(), 256);
    assert!(net.audit().conserved());
    assert_eq!(run, 0, "allocations over 8,000 traced packets");
}
