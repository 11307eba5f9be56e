//! Once warm, a run whose events carry their payload out of line — CPU
//! wake-ups and shaper releases — allocates nothing of its own: each event
//! takes a slot a fired one gave back.
//!
//! The CPU model does allocate: `Cpu::complete` and `Cpu::start_work`
//! return their schedule updates in a fresh `Vec`. So the claim is measured
//! as "the run allocates exactly what the same calls on a bare [`Cpu`]
//! allocate": zero beyond the model.

use mpichgq_dsrt::{CompleteOutcome, Cpu, ProcId};
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

/// One work item after another on one process: a completion every 250 µs.
const WORK: SimDelta = SimDelta::from_micros(250);
/// A burst of four 1000-byte packets every millisecond into a 5 MB/s,
/// 2000-byte shaper: two pass, two wait for a release.
const PERIOD: SimDelta = SimDelta::from_millis(1);
const BURST: usize = 4;

struct Shaped {
    dst: NodeId,
}

impl NetHandler for Shaped {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64) {
        for _ in 0..BURST {
            net.send_ip(Packet {
                src: host,
                dst: self.dst,
                src_port: 1,
                dst_port: 2,
                dscp: Dscp::BestEffort,
                l4: L4::Udp,
                payload_len: 972,
                id: 0,
                born: SimTime::ZERO,
            });
        }
        net.set_host_timer(host, net.now() + PERIOD, token);
    }
    fn cpu_done(&mut self, net: &mut Net, host: NodeId, proc: ProcId) {
        net.cpu_start_work(host, proc, WORK);
    }
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

/// Allocations of completions `skip + 1 ..= skip + count` of the work
/// chain above, and of the work item each one starts, on a bare [`Cpu`].
fn cpu_model_allocs(skip: u32, count: u32) -> u64 {
    let mut cpu = Cpu::new();
    let p = cpu.add_process();
    let (_, mut ups) = cpu.start_work(SimTime::ZERO, p, WORK);
    let mut before = 0;
    for i in 0..skip + count {
        if i == skip {
            before = allocs();
        }
        let u = ups[0];
        let CompleteOutcome::Done { .. } = cpu.complete(u.eta, u.work, u.gen) else {
            panic!("completion {i} went stale");
        };
        ups = cpu.start_work(u.eta, p, WORK).1;
    }
    allocs() - before
}

#[test]
fn a_warm_shaped_cpu_run_allocates_only_what_the_cpu_model_does() {
    let mut b = TopoBuilder::new(11);
    let (h0, r, h1) = (b.host("h0"), b.router("r"), b.host("h1"));
    let cfg = LinkCfg {
        bandwidth_bps: 100_000_000,
        delay: SimDelta::from_millis(1),
        framing: Framing::None,
    };
    b.link(h0, r, cfg, QueueCfg::priority_default());
    b.link(r, h1, cfg, QueueCfg::priority_default());
    let mut net = b.build();
    let flow = FlowSpec::host_pair(h0, h1, Proto::Udp);
    net.install_shaper(h0, flow, TokenBucket::new(40_000_000, 2_000));
    let pid = net.cpu_add_process(h0);
    net.cpu_start_work(h0, pid, WORK);
    net.set_host_timer(h0, SimTime::ZERO, 0);
    let mut h = Shaped { dst: h1 };

    // Completions 1..=800 and 200 bursts warm every queue, wire and table,
    // and let the calendar settle its width: a rebuild hands every bucket
    // a fresh `VecDeque`, which the next pushes grow. The limits sit off
    // the 250 µs grid so no completion falls on one.
    net.run_until(&mut h, SimTime::from_micros(200_100));
    let shaped = |net: &Net| net.node(h0).shapers[0].stats.delayed;
    let delayed = shaped(&net);
    let rebuilds = |net: &Net| net.scheduler_stats().map(|s| s.rebuilds);
    let settled = rebuilds(&net);
    let before = allocs();
    net.run_until(&mut h, SimTime::from_micros(230_100));
    let run = allocs() - before;

    assert_eq!(
        rebuilds(&net),
        settled,
        "warm-up ended before the calendar settled"
    );
    assert_eq!(shaped(&net) - delayed, 30 * 2, "two of each burst wait");
    assert!(net.audit().conserved());
    let model = cpu_model_allocs(800, 120);
    assert!(model > 0, "the CPU model allocates per call");
    assert_eq!(run, model, "allocations beyond the CPU model's own");
}
