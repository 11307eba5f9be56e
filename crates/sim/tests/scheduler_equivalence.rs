//! Property: reserved-key deferred scheduling is observably the same as
//! eager scheduling. (The calendar queue itself is held to a binary-heap
//! reference by the unit tests in `engine.rs`.)

use mpichgq_sim::{Engine, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The defining property of reserved-key deferred scheduling. One
    /// program schedules every event eagerly. The other reserves the same
    /// keys at the same points but, for the events marked `deferred`,
    /// keeps them in its own ordered store and has only the earliest of
    /// them in the queue — inserting the next when that one fires, the way
    /// a wire FIFO or a lazy timer does. Both pop the identical
    /// `(at, seq, ev)` sequence.
    #[test]
    fn late_insertion_pops_where_eager_scheduling_would(
        prog in proptest::collection::vec((0u64..3, 1u64..2_000, 0u8..2), 1..300),
    ) {
        let mut eager: Engine<u64> = Engine::new();
        let mut lazy: Engine<u64> = Engine::new();
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
