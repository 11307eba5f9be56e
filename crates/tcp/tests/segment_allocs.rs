//! Steady-state TCP segment processing does not allocate.
//!
//! `Stack` hands each connection input an emptied output buffer off a free
//! list instead of receiving a fresh `Vec<Out>` from it, so once the
//! buffers, queues and the calendar have grown to the flow's working size,
//! delivering a segment costs no allocation. Before the free list it cost
//! one per segment (≈ 1.0 on this flow).

use mpichgq_netsim::{Framing, LinkCfg, NodeId, QueueCfg, TopoBuilder};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, Sim, SockId, TcpCfg};
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

const PORT: u16 = 5001;

/// Keeps its socket's send buffer full for as long as the run lasts.
struct Greedy {
    dst: NodeId,
}

impl App for Greedy {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_connect(self.dst, PORT, TcpCfg::default(), DataMode::Counted);
    }
    fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {
        ctx.send(sock, u64::MAX);
    }
    fn on_writable(&mut self, sock: SockId, ctx: &mut Ctx) {
        ctx.send(sock, u64::MAX);
    }
}

struct Drain;

impl App for Drain {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(PORT, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
        ctx.recv(sock, u64::MAX);
    }
}

#[test]
fn a_delivered_segment_costs_no_allocation() {
    let mut b = TopoBuilder::new(5);
    let (a, z) = (b.host("a"), b.host("z"));
    let cfg = LinkCfg {
        bandwidth_bps: 100_000_000,
        delay: SimDelta::from_millis(2),
        framing: Framing::None,
    };
    b.link(a, z, cfg, QueueCfg::droptail_default());
    let mut sim = Sim::new(b.build());
    sim.spawn_app(z, Box::new(Drain));
    sim.spawn_app(a, Box::new(Greedy { dst: z }));

    let delivered = |sim: &Sim| {
        let c = sim.net.obs.metrics.counter_value("net.pkts.delivered");
        c.expect("live counter")
    };
    let run_to = |sim: &mut Sim, segments: u64| {
        while delivered(sim) < segments {
            assert!(sim.now() < SimTime::from_secs(60), "the flow stalled");
            sim.run_until(sim.now() + SimDelta::from_millis(10));
        }
    };
    // Warm-up: handshake, slow start, every buffer at its working size.
    run_to(&mut sim, 2_000);
    let (seg0, allocs0) = (delivered(&sim), ALLOCS.with(Cell::get));
    run_to(&mut sim, 22_000);
    let segments = delivered(&sim) - seg0;
    let allocs = ALLOCS.with(Cell::get) - allocs0;
    let per_segment = allocs as f64 / segments as f64;
    assert!(
        per_segment < 0.05,
        "{allocs} allocations over {segments} delivered segments = {per_segment:.3} each"
    );
}
