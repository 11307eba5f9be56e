//! Property: the calendar queue and the binary heap are observably
//! identical schedulers. Any interleaving of `schedule` / `pop` /
//! `pop_until` — including same-timestamp bursts, far-future timers, and
//! horizons that land between events — produces byte-identical pop
//! sequences, clocks, and processed counts. This equivalence is what lets
//! the calendar queue be the default backend.

use mpichgq_sim::{Engine, SchedulerKind, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Clone)]
enum Op {
    /// Schedule a burst of events `delta` ns after the current clock.
    /// `burst` > 1 exercises FIFO tie-breaking at one timestamp.
    Schedule { delta: u64, burst: u8 },
    /// Pop one event.
    Pop,
    /// Pop with a horizon `delta` ns past the current clock.
    PopUntil { delta: u64 },
    /// Reserve a key `delta` ns after the current clock and hold it.
    Reserve { delta: u64 },
    /// Insert the oldest held key if the cursor has not passed it,
    /// otherwise let it lapse (a key that never becomes an entry).
    InsertHeld,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..2_000, 1u8..6).prop_map(|(delta, burst)| Op::Schedule { delta, burst }),
        // Occasional far-future timers stress the calendar's fallback scan.
        (1_000_000_000u64..30_000_000_000, 1u8..2)
            .prop_map(|(delta, burst)| Op::Schedule { delta, burst }),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..3_000).prop_map(|delta| Op::PopUntil { delta }),
        (1u64..2_000).prop_map(|delta| Op::Reserve { delta }),
        (0u64..1).prop_map(|_| Op::InsertHeld),
    ]
}

/// One engine under test plus the keys it has reserved but not inserted.
struct Sut {
    e: Engine<u64>,
    held: VecDeque<(SimTime, u64, u64)>,
    payload: u64,
}

impl Sut {
    fn new(kind: SchedulerKind) -> Sut {
        Sut {
            e: Engine::with_scheduler(kind),
            held: Default::default(),
            payload: 0,
        }
    }
}

/// Run one op against an engine, returning an observation string capturing
/// everything externally visible about the step.
fn step(sut: &mut Sut, op: &Op) -> String {
    let Sut { e, held, payload } = sut;
    match op {
        Op::Schedule { delta, burst } => {
            for _ in 0..*burst {
                let at = SimTime::from_nanos(e.now().as_nanos().saturating_add(*delta));
                e.schedule(at, *payload);
                *payload += 1;
            }
            format!("sched len={}", e.len())
        }
        Op::Pop => format!("pop {:?} now={} peek={:?}", e.pop(), e.now(), e.peek_time()),
        Op::PopUntil { delta } => {
            let limit = SimTime::from_nanos(e.now().as_nanos().saturating_add(*delta));
            format!(
                "pop_until {:?} now={} peek={:?}",
                e.pop_until(limit),
                e.now(),
                e.peek_time()
            )
        }
        Op::Reserve { delta } => {
            let at = SimTime::from_nanos(e.now().as_nanos().saturating_add(*delta));
            held.push_back((at, e.reserve_seq(), *payload));
            *payload += 1;
            format!("reserve {:?}", held.back())
        }
        Op::InsertHeld => {
            let Some((at, seq, v)) = held.pop_front() else {
                return "insert none".into();
            };
            let live = (at, seq) > e.cursor();
            if live {
                e.schedule_keyed(at, seq, v);
            }
            format!("insert {at} {seq} live={live} len={}", e.len())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn calendar_matches_heap_observably(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut heap = Sut::new(SchedulerKind::Heap);
        let mut cal = Sut::new(SchedulerKind::Calendar);
        for (i, op) in ops.iter().enumerate() {
            let oh = step(&mut heap, op);
            let oc = step(&mut cal, op);
            prop_assert_eq!(&oh, &oc, "divergence at op {}: {:?}", i, op);
            prop_assert_eq!(heap.e.cursor(), cal.e.cursor());
        }
        // Drain both to the end: full pop sequences must match too.
        loop {
            let h = heap.e.pop();
            let c = cal.e.pop();
            prop_assert_eq!(h, c);
            prop_assert_eq!(heap.e.cursor(), cal.e.cursor());
            if h.is_none() {
                break;
            }
        }
        prop_assert_eq!(heap.e.processed(), cal.e.processed());
        prop_assert_eq!(heap.e.now(), cal.e.now());
    }

    /// The defining property of reserved-key deferred scheduling. One
    /// program schedules every event eagerly. The other reserves the same
    /// keys at the same points but, for the events marked `deferred`,
    /// keeps them in its own ordered store and has only the earliest of
    /// them in the queue — inserting the next when that one fires, the way
    /// a wire FIFO or a lazy timer does. Both pop the identical
    /// `(at, seq, ev)` sequence, on both backends.
    #[test]
    fn late_insertion_pops_where_eager_scheduling_would(
        prog in proptest::collection::vec((0u64..3, 1u64..2_000, 0u8..2), 1..300),
    ) {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut eager: Engine<u64> = Engine::with_scheduler(kind);
            let mut lazy: Engine<u64> = Engine::with_scheduler(kind);
            // Deferred keys not yet in `lazy`'s queue, and the one that is.
            let mut store = BTreeMap::<(SimTime, u64), u64>::new();
            let mut queued: Option<(SimTime, u64)> = None;
            let pop_both = |eager: &mut Engine<u64>,
                                lazy: &mut Engine<u64>,
                                store: &mut BTreeMap<(SimTime, u64), u64>,
                                queued: &mut Option<(SimTime, u64)>| {
                let (a, b) = (eager.pop(), lazy.pop());
                assert_eq!(a, b);
                assert_eq!(eager.cursor(), lazy.cursor());
                if a.is_some() && *queued == Some(lazy.cursor()) {
                    *queued = store.pop_first().map(|((at, seq), v)| {
                        lazy.schedule_keyed(at, seq, v);
                        (at, seq)
                    });
                }
                a.is_some()
            };
            for (v, &(what, delta, deferred)) in prog.iter().enumerate() {
                if what == 0 {
                    pop_both(&mut eager, &mut lazy, &mut store, &mut queued);
                    continue;
                }
                let at = SimTime::from_nanos(eager.now().as_nanos() + delta);
                eager.schedule(at, v as u64);
                if deferred == 0 {
                    lazy.schedule(at, v as u64);
                    continue;
                }
                let key = (at, lazy.reserve_seq());
                if queued.is_none_or(|q| key < q) {
                    // New earliest: it must be in the queue. The head it
                    // displaces stays there too (an early insert is
                    // harmless) and is simply no longer tracked.
                    lazy.schedule_keyed(key.0, key.1, v as u64);
                    queued = Some(key);
                } else {
                    store.insert(key, v as u64);
                }
            }
            while pop_both(&mut eager, &mut lazy, &mut store, &mut queued) {}
            prop_assert!(store.is_empty());
            prop_assert_eq!(eager.processed(), lazy.processed());
        }
    }
}

/// A dense deterministic workload with adversarial structure: interleaved
/// bursts, identical timestamps across bursts, and a resize-forcing ramp.
#[test]
fn calendar_matches_heap_on_dense_ramp() {
    let mut heap: Engine<u64> = Engine::with_scheduler(SchedulerKind::Heap);
    let mut cal: Engine<u64> = Engine::with_scheduler(SchedulerKind::Calendar);
    for e in [&mut heap, &mut cal] {
        // Multiplicative-hash timestamps: scattered, with collisions.
        for i in 0..50_000u64 {
            let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
            e.schedule(SimTime::from_nanos(t), i);
        }
    }
    loop {
        let h = heap.pop();
        assert_eq!(h, cal.pop());
        if h.is_none() {
            break;
        }
    }
    assert_eq!(heap.processed(), 50_000);
    assert_eq!(cal.processed(), 50_000);
}
