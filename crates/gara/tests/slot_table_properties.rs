//! Property tests of the slot table: the bandwidth broker's core
//! invariant — committed capacity never exceeds the limit at any instant,
//! under arbitrary insert/remove/resize sequences.

use mpichgq_gara::{RejectReason, SlotId, SlotTable};
use mpichgq_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { start: u64, len: u64, amount: u64 },
    Remove { idx: usize },
    Resize { idx: usize, amount: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100, 1u64..50, 1u64..60).prop_map(|(start, len, amount)| Op::Insert {
            start,
            len,
            amount
        }),
        (any::<usize>()).prop_map(|idx| Op::Remove { idx }),
        (any::<usize>(), 1u64..60).prop_map(|(idx, amount)| Op::Resize { idx, amount }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn never_oversubscribed(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        const CAP: u64 = 100;
        let mut st = SlotTable::new(CAP);
        let mut held: Vec<SlotId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { start, len, amount } => {
                    let s = SimTime::from_secs(start);
                    let e = SimTime::from_secs(start + len);
                    if let Ok(id) = st.try_insert(s, e, amount) {
                        held.push(id);
                    }
                }
                Op::Remove { idx } => {
                    if !held.is_empty() {
                        let id = held.remove(idx % held.len());
                        assert!(st.remove(id));
                    }
                }
                Op::Resize { idx, amount } => {
                    if !held.is_empty() {
                        let id = held[idx % held.len()];
                        let _ = st.try_resize(id, amount);
                    }
                }
            }
            // Invariant: load at every whole second stays within capacity.
            for t in 0..160u64 {
                let load = st.load_at(SimTime::from_secs(t));
                prop_assert!(load <= CAP, "load {load} at t={t} exceeds capacity");
            }
        }
    }

    /// `available` is exact: a request for exactly the available amount is
    /// admitted; one unit more is rejected.
    #[test]
    fn available_is_tight(
        bookings in proptest::collection::vec((0u64..50, 1u64..30, 1u64..50), 0..12),
        qstart in 0u64..60,
        qlen in 1u64..30,
    ) {
        const CAP: u64 = 100;
        let mut st = SlotTable::new(CAP);
        for (start, len, amount) in bookings {
            let _ = st.try_insert(
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
                amount,
            );
        }
        let qs = SimTime::from_secs(qstart);
        let qe = SimTime::from_secs(qstart + qlen);
        let avail = st.available(qs, qe);
        prop_assert!(avail <= CAP);
        if avail > 0 {
            let id = st.try_insert(qs, qe, avail);
            prop_assert!(id.is_ok(), "exact-fit insert of {avail} rejected");
            st.remove(id.unwrap());
        }
        prop_assert!(st.try_insert(qs, qe, avail + 1).is_err(),
            "over-fit insert of {} admitted", avail + 1);
    }

    /// Removing everything restores full capacity everywhere.
    #[test]
    fn remove_all_restores_capacity(
        bookings in proptest::collection::vec((0u64..50, 1u64..30, 1u64..100), 1..12),
    ) {
        const CAP: u64 = 100;
        let mut st = SlotTable::new(CAP);
        let mut held = Vec::new();
        for (start, len, amount) in bookings {
            if let Ok(id) = st.try_insert(
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
                amount,
            ) {
                held.push(id);
            }
        }
        for id in held {
            assert!(st.remove(id));
        }
        prop_assert!(st.is_empty());
        prop_assert_eq!(st.available(SimTime::ZERO, SimTime::from_secs(1000)), CAP);
    }
}

/// What the table reports about itself, for "a refusal changed nothing".
fn census(st: &SlotTable) -> (usize, usize, u64, u64) {
    let day = SimTime::from_secs(86_400);
    (
        st.len(),
        st.boundary_count(),
        st.max_peak(),
        st.available(SimTime::ZERO, day),
    )
}

/// No amount reachable through the public API wraps the table's sums:
/// what is admitted is reported exactly, what cannot be accounted for is
/// refused with a reason and changes nothing. (Two `u64::MAX`
/// co-reservations on a `u64::MAX` table used to be admitted with a
/// reported peak of `u64::MAX - 1`.)
#[test]
fn huge_amounts_are_refused_or_reported_exactly() {
    let t = SimTime::from_secs;
    let is_out = |r: Result<_, mpichgq_gara::Rejected>, requested: u64| {
        let r = r.expect_err("refused");
        assert_eq!(
            (r.reason, r.requested),
            (RejectReason::AmountOutOfRange, requested)
        );
        r.available
    };
    let mut st = SlotTable::new(u64::MAX);
    let empty = census(&st);
    let pair = [(t(0), t(10), u64::MAX), (t(0), t(10), u64::MAX)];
    is_out(st.try_insert_batch(&pair).map(|_| ()), u64::MAX);
    is_out(st.try_insert(t(0), t(10), u64::MAX).map(|_| ()), u64::MAX);
    is_out(st.try_insert(t(20), t(30), u64::MAX).map(|_| ()), u64::MAX);
    assert_eq!(census(&st), empty);

    // A large amount that is admitted is read back to the unit.
    let big = u64::MAX / 8;
    let a = st.try_insert(t(0), t(10), big).unwrap();
    let b = st.try_insert(t(5), t(15), big).unwrap();
    assert_eq!((st.load_at(t(4)), st.load_at(t(5))), (big, 2 * big));
    assert_eq!((st.max_peak(), st.max_overcommit()), (2 * big, 0));
    assert_eq!(st.available(t(0), t(20)), u64::MAX - 2 * big);
    let held = census(&st);
    // The third would fit the capacity four times over: its refusal is the
    // domain's, and says how much it still has room for.
    let room = is_out(st.try_insert(t(20), t(30), big + 2).map(|_| ()), big + 2);
    assert_eq!(room, SlotTable::MAX_COMMITTED - 2 * big);
    assert_eq!(is_out(st.try_resize(a, u64::MAX), u64::MAX), room + big);
    assert!(!st.restore(b, u64::MAX));
    assert_eq!(census(&st), held);
    assert_eq!((st.amount_of(a), st.amount_of(b)), (Some(big), Some(big)));
    st.try_insert(t(20), t(30), room).unwrap();
    assert_eq!(st.load_at(t(25)), room);
}

/// The edge of the domain: all live amounts together may reach
/// `MAX_COMMITTED` and not pass it, under a capacity of exactly that much
/// (where the capacity is the answer) and under a larger one (where the
/// domain is).
#[test]
fn the_domain_ends_at_max_committed() {
    const MAX: u64 = SlotTable::MAX_COMMITTED;
    assert_eq!(MAX, (1 << 62) - 1);
    let t = SimTime::from_secs;
    for (capacity, reason) in [
        (MAX, RejectReason::OverCapacity),
        (MAX + 1, RejectReason::AmountOutOfRange),
    ] {
        let mut st = SlotTable::new(capacity);
        let r = st.try_insert(t(0), t(10), MAX + 1).unwrap_err();
        assert_eq!((r.reason, r.available), (reason, MAX));
        assert!(st.is_empty());
        let id = st.try_insert(t(0), t(10), MAX).unwrap();
        assert_eq!((st.max_peak(), st.load_at(t(9))), (MAX, MAX));
        assert_eq!(st.available(t(0), t(10)), capacity - MAX);
        let r = st.try_resize(id, MAX + 1).unwrap_err();
        assert_eq!((r.reason, r.available), (reason, MAX));
        assert!(!st.restore(id, MAX + 1));
        assert_eq!(st.amount_of(id), Some(MAX));
        // Disjoint in time, but one table's books.
        let r = st.try_insert(t(10), t(20), 1).unwrap_err();
        assert_eq!((r.reason, r.available), (RejectReason::AmountOutOfRange, 0));
        st.try_resize(id, MAX - 1).unwrap();
        st.try_insert(t(10), t(20), 1).unwrap();
        assert_eq!(
            (st.len(), st.boundary_count(), st.max_peak()),
            (2, 3, MAX - 1)
        );
    }
}
