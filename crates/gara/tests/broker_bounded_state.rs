//! What a long-lived broker holds follows its live reservations, not how
//! many it has ever granted.
//!
//! A `Gara` keeps a record (request, slot list, enforcement handle) only
//! while a reservation is `Pending` or `Active`; what outlives a finished
//! one is its final status, one byte in a `Vec` indexed by id. So the heap
//! a broker owns after 200 000 reserve → cancel / revoke / expire cycles at
//! a bounded standing population is the heap it owned after 20 000, plus
//! that byte per id.

use mpichgq_dsrt::ProcId;
use mpichgq_gara::{CpuRequest, Gara, NetworkRequest, Request, ResvId, StartSpec, Status};
use mpichgq_netsim::{
    topology::Dumbbell, DepthRule, MetricSink, Net, NetHandler, NodeId, Packet, PolicingAction,
    Proto, TimelineSource,
};
use mpichgq_sim::SimDelta;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    /// Heap bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live_add(bytes: isize) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the count lives in
// a `const`-initialised thread-local without a destructor, so touching it
// neither allocates nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        live_add(l.size() as isize);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        live_add(-(l.size() as isize));
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        live_add(new_size as isize - l.size() as isize);
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

/// Reads one gauge out of a [`TimelineSource`] tick.
struct Gauge(&'static str, Option<f64>);

impl MetricSink for Gauge {
    fn counter(&mut self, _name: &str, _total: u64) {}
    fn gauge(&mut self, name: &str, v: f64) {
        if name == self.0 {
            self.1 = Some(v);
        }
    }
}

/// Standing population the churn holds (the oldest handle is cancelled or
/// revoked once this many are out).
const STANDING: usize = 48;

struct Held {
    /// Heap bytes freed by dropping the broker.
    bytes: isize,
    deadline_entries: f64,
    standing_slots: f64,
}

/// Churn a broker through `cycles` reservations — network (a fifth shaped
/// at the source) and CPU; a sixth with a 50 ms lifetime, so they expire, a
/// sixth with a minute's, so their expiry entries go stale in the deadline
/// heap when they are cancelled; a seventh booked 20 ms ahead so they wait
/// `Pending` — and weigh it.
fn churn(cycles: u64) -> Held {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 11);
    let (mut net, src, dst) = (d.net, d.src, d.dst);
    let procs: Vec<ProcId> = (0..8).map(|_| net.cpu_add_process(src)).collect();
    let mut gara = Gara::new();
    gara.manage_core_links(&net, 0.5);
    let mut standing: VecDeque<ResvId> = VecDeque::with_capacity(STANDING + 1);
    let mut finished = [0u64; 3];
    for i in 0..cycles {
        let req = if i % 4 == 3 {
            Request::Cpu(CpuRequest {
                host: src,
                proc: procs[(i / 4) as usize % procs.len()],
                fraction: 0.01,
            })
        } else {
            Request::Network(NetworkRequest {
                src,
                dst,
                proto: Proto::Udp,
                src_port: None,
                dst_port: None,
                rate_bps: 10_000,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: i % 5 == 0,
            })
        };
        let start = match i % 7 {
            0 => StartSpec::At(net.now() + SimDelta::from_millis(20)),
            _ => StartSpec::Now,
        };
        let lifetime = match i % 6 {
            0 => Some(SimDelta::from_millis(50)),
            3 => Some(SimDelta::from_secs(60)),
            _ => None,
        };
        let id = gara
            .reserve(&mut net, req, start, lifetime)
            .expect("the standing population fits every table");
        standing.push_back(id);
        if standing.len() > STANDING {
            let oldest = standing.pop_front().expect("non-empty");
            match i % 2 {
                0 => gara.cancel(&mut net, oldest),
                _ => gara.revoke(&mut net, oldest),
            }
            let slot = match gara.status(oldest).expect("granted") {
                Status::Expired => 0,
                Status::Cancelled => 1,
                Status::Revoked => 2,
                live => panic!("{oldest:?} is {live:?} after cancel/revoke"),
            };
            finished[slot] += 1;
        }
        if i % 8 == 7 {
            let t = net.now() + SimDelta::from_millis(10);
            net.run_until(&mut Idle, t);
            gara.advance(&mut net);
        }
    }
    assert!(
        finished.iter().all(|&n| n > cycles / 8),
        "every terminal path is exercised: expired/cancelled/revoked = {finished:?}"
    );
    let gauge = |name| {
        let mut g = Gauge(name, None);
        gara.timeline_sample(net.now(), &mut g);
        g.1.expect(name)
    };
    let (deadline_entries, standing_slots) = (
        gauge("gara.deadlines.pending"),
        gauge("gara.slots.standing"),
    );
    let before = LIVE.with(Cell::get);
    drop(gara);
    Held {
        bytes: before - LIVE.with(Cell::get),
        deadline_entries,
        standing_slots,
    }
}

#[test]
fn a_brokers_heap_follows_its_live_reservations_not_its_history() {
    // Every cycle grants one reservation, so these are also the ids issued.
    let (few, many) = (20_000, 200_000);
    let (short, long) = (churn(few), churn(many));
    for run in [&short, &long] {
        let slots = run.standing_slots;
        assert!(0.0 < slots && slots <= STANDING as f64, "{slots} slots");
    }
    // The deadline heap is compacted once stale entries outnumber the live
    // records by a constant: it does not keep one per cancelled reservation.
    assert!(
        long.deadline_entries <= (2 * STANDING + 1024 + 1) as f64,
        "{} deadline entries for {STANDING} live reservations",
        long.deadline_entries
    );
    // One status byte per id ever issued, in a `Vec` whose capacity may run
    // to twice its length; everything else within a fixed slack.
    let per_id = 2 * (many - few) as isize;
    let slack = 8 * 1024;
    assert!(
        long.bytes <= short.bytes + per_id + slack,
        "broker holds {} B after {few} reservations, {} B after {many}: {:.1} B per extra one",
        short.bytes,
        long.bytes,
        (long.bytes - short.bytes) as f64 / (many - few) as f64
    );
}
