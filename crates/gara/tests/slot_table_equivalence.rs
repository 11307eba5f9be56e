//! Equivalence of the interval-tree [`SlotTable`] against a naive
//! reference model — a flat slot list whose every query is a full
//! re-scan (the shape of the pre-PR-7 implementation). Both models are
//! driven through the same random churn of reserve / batch-reserve /
//! resize / free / capacity-change / compact operations and must agree
//! on every result, including the exact `Rejected { requested,
//! available, reason }` payloads and the saturating-`available`
//! behavior after a capacity lowering leaves the table overcommitted.

use mpichgq_gara::{RejectReason, Rejected, SlotId, SlotTable};
use mpichgq_sim::SimTime;
use proptest::prelude::*;

/// The reference model: a flat slot list, every peak query a full
/// re-scan of boundaries. Correct by inspection, O(n) per query.
#[derive(Debug, Default)]
struct NaiveTable {
    capacity: u64,
    next_id: u64,
    // (id, start, end, amount, tenant)
    slots: Vec<(u64, SimTime, SimTime, u64, u64)>,
}

impl NaiveTable {
    fn new(capacity: u64) -> Self {
        NaiveTable {
            capacity,
            ..Default::default()
        }
    }

    fn load_at(&self, t: SimTime) -> u64 {
        self.slots
            .iter()
            .filter(|&&(_, s, e, _, _)| s <= t && t < e)
            .map(|&(_, _, _, a, _)| a)
            .sum()
    }

    /// Peak load over `[start, end)`: the load can only change at slot
    /// boundaries, so evaluating at `start` and at every boundary
    /// strictly inside the interval covers every level the profile takes.
    fn peak_in(&self, start: SimTime, end: SimTime) -> u64 {
        let mut peak = self.load_at(start);
        for &(_, s, e, _, _) in &self.slots {
            for b in [s, e] {
                if b > start && b < end {
                    peak = peak.max(self.load_at(b));
                }
            }
        }
        peak
    }

    fn available(&self, start: SimTime, end: SimTime) -> u64 {
        self.capacity.saturating_sub(self.peak_in(start, end))
    }

    fn max_peak(&self) -> u64 {
        self.slots
            .iter()
            .map(|&(_, s, _, _, _)| self.load_at(s))
            .max()
            .unwrap_or(0)
    }

    fn insert_unchecked(&mut self, start: SimTime, end: SimTime, amount: u64, tenant: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.push((id, start, end, amount, tenant));
        id
    }

    fn try_insert_tenant(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
        tenant: u64,
    ) -> Result<u64, Rejected> {
        let peak = self.peak_in(start, end);
        if peak.saturating_add(amount) > self.capacity {
            return Err(Rejected {
                requested: amount,
                available: self.capacity.saturating_sub(peak),
                reason: RejectReason::OverCapacity,
            });
        }
        Ok(self.insert_unchecked(start, end, amount, tenant))
    }

    /// All-or-nothing batch admission, auditing in input order with the
    /// whole batch committed — the decision a sequential loop with
    /// rollback would make.
    fn try_insert_batch_tenant(
        &mut self,
        items: &[(SimTime, SimTime, u64)],
        tenant: u64,
    ) -> Result<Vec<u64>, Rejected> {
        let ids: Vec<u64> = items
            .iter()
            .map(|&(s, e, a)| self.insert_unchecked(s, e, a, tenant))
            .collect();
        for &(s, e, amount) in items {
            let peak = self.peak_in(s, e);
            if peak > self.capacity {
                let available = self.capacity.saturating_sub(peak.saturating_sub(amount));
                self.slots.retain(|&(id, ..)| !ids.contains(&id));
                return Err(Rejected {
                    requested: amount,
                    available,
                    reason: RejectReason::OverCapacity,
                });
            }
        }
        Ok(ids)
    }

    fn remove(&mut self, id: u64) -> bool {
        let before = self.slots.len();
        self.slots.retain(|&(sid, ..)| sid != id);
        self.slots.len() < before
    }

    fn try_resize(&mut self, id: u64, new_amount: u64) -> Result<(), Rejected> {
        let Some(i) = self.slots.iter().position(|&(sid, ..)| sid == id) else {
            return Err(Rejected {
                requested: new_amount,
                available: 0,
                reason: RejectReason::UnknownSlot,
            });
        };
        let (_, start, end, old, _) = self.slots[i];
        self.slots[i].3 = 0;
        let peak_others = self.peak_in(start, end);
        if peak_others.saturating_add(new_amount) > self.capacity {
            self.slots[i].3 = old;
            return Err(Rejected {
                requested: new_amount,
                available: self.capacity.saturating_sub(peak_others),
                reason: RejectReason::OverCapacity,
            });
        }
        self.slots[i].3 = new_amount;
        Ok(())
    }

    /// Same sweep the tree performs: sort by (tenant, start, end, id),
    /// fold end-abutting same-amount same-tenant runs into the earlier
    /// slot, report (absorbed, survivor) pairs.
    fn compact(&mut self) -> Vec<(u64, u64)> {
        let mut order = self.slots.clone();
        order.sort_by_key(|&(id, s, e, _, t)| (t, s, e, id));
        let mut merged = Vec::new();
        let mut i = 0;
        while i + 1 < order.len() {
            let (sid, _, s_end, s_amt, s_ten) = order[i];
            let (tid, t_start, t_end, t_amt, t_ten) = order[i + 1];
            if s_ten == t_ten && s_amt == t_amt && s_end == t_start {
                self.slots.retain(|&(id, ..)| id != tid);
                let surv = self.slots.iter_mut().find(|(id, ..)| *id == sid).unwrap();
                surv.2 = t_end;
                merged.push((tid, sid));
                order[i].2 = t_end;
                order.remove(i + 1);
            } else {
                i += 1;
            }
        }
        merged
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        start: u64,
        len: u64,
        amount: u64,
        tenant: u64,
    },
    InsertBatch {
        items: Vec<(u64, u64, u64)>,
        tenant: u64,
    },
    // Book a window abutting an existing slot's end with the same tenant
    // and amount — the adjacency `compact` folds; random draws never
    // produce it.
    Extend {
        idx: usize,
        len: u64,
    },
    Remove {
        idx: usize,
    },
    RemoveUnknown {
        id: u64,
    },
    Resize {
        idx: usize,
        amount: u64,
    },
    ResizeUnknown {
        id: u64,
        amount: u64,
    },
    SetCapacity {
        cap: u64,
    },
    Compact,
}

fn insert_strategy() -> impl Strategy<Value = Op> {
    (0u64..100, 1u64..40, 1u64..70, 0u64..4).prop_map(|(start, len, amount, tenant)| Op::Insert {
        start,
        len,
        amount,
        tenant,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's prop_oneof! is unweighted; repeating the insert arm
    // biases the mix toward a populated table.
    prop_oneof![
        insert_strategy(),
        insert_strategy(),
        insert_strategy(),
        (
            proptest::collection::vec((0u64..100, 1u64..40, 1u64..50), 1..5),
            0u64..4,
        )
            .prop_map(|(items, tenant)| Op::InsertBatch { items, tenant }),
        (any::<usize>(), 1u64..20).prop_map(|(idx, len)| Op::Extend { idx, len }),
        (any::<usize>(), 1u64..20).prop_map(|(idx, len)| Op::Extend { idx, len }),
        any::<usize>().prop_map(|idx| Op::Remove { idx }),
        (10_000u64..20_000).prop_map(|id| Op::RemoveUnknown { id }),
        (any::<usize>(), 1u64..70).prop_map(|(idx, amount)| Op::Resize { idx, amount }),
        (10_000u64..20_000, 1u64..70).prop_map(|(id, amount)| Op::ResizeUnknown { id, amount }),
        // Includes lowering below the committed peak: the table goes
        // overcommitted and `available` must saturate to 0 identically
        // in both models until enough load drains.
        (20u64..200).prop_map(|cap| Op::SetCapacity { cap }),
        Just(Op::Compact),
    ]
}

fn sec(t: u64) -> SimTime {
    SimTime::from_secs(t)
}

/// Compare every observable the two models share, at a churn step.
fn assert_observables_agree(st: &SlotTable, nv: &NaiveTable, held: &[(SlotId, u64)]) {
    prop_assert_eq!(st.len(), nv.slots.len(), "slot counts diverged");
    prop_assert_eq!(st.max_peak(), nv.max_peak(), "max_peak diverged");
    prop_assert_eq!(
        st.max_overcommit(),
        nv.max_peak().saturating_sub(nv.capacity),
        "max_overcommit diverged"
    );
    for t in (0..220).step_by(7) {
        prop_assert_eq!(
            st.load_at(sec(t)),
            nv.load_at(sec(t)),
            "load_at({}) diverged",
            t
        );
    }
    for (qs, qe) in [(0, 50), (25, 90), (0, 220), (140, 141)] {
        prop_assert_eq!(
            st.available(sec(qs), sec(qe)),
            nv.available(sec(qs), sec(qe)),
            "available([{}, {})) diverged",
            qs,
            qe
        );
    }
    for &(tree_id, naive_id) in held {
        let want = nv
            .slots
            .iter()
            .find(|&&(id, ..)| id == naive_id)
            .map(|&(_, _, _, a, t)| (a, t));
        prop_assert_eq!(
            st.amount_of(tree_id).zip(st.tenant_of(tree_id)),
            want,
            "slot {:?} amount/tenant diverged",
            tree_id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The interval tree and the naive full-re-scan model make identical
    /// decisions — same admitted ids in the same order, bit-identical
    /// `Rejected` payloads, same compaction merges — under arbitrary
    /// churn including capacity lowering into overcommit.
    #[test]
    fn tree_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        const CAP: u64 = 100;
        let mut st = SlotTable::new(CAP);
        let mut nv = NaiveTable::new(CAP);
        // Live slots as (tree id, naive id) pairs; the two id sequences
        // are compared for lockstep equality as they are handed out.
        let mut held: Vec<(SlotId, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { start, len, amount, tenant } => {
                    let (s, e) = (sec(start), sec(start + len));
                    let a = st.try_insert_tenant(s, e, amount, tenant);
                    let b = nv.try_insert_tenant(s, e, amount, tenant);
                    match (a, b) {
                        (Ok(tid), Ok(nid)) => {
                            prop_assert_eq!(tid, SlotId(nid), "insert ids diverged");
                            held.push((tid, nid));
                        }
                        (Err(ra), Err(rb)) => prop_assert_eq!(ra, rb, "insert rejections diverged"),
                        (a, b) => prop_assert!(false, "insert decisions diverged: {a:?} vs {b:?}"),
                    }
                }
                Op::InsertBatch { items, tenant } => {
                    let items: Vec<(SimTime, SimTime, u64)> = items
                        .iter()
                        .map(|&(s, l, a)| (sec(s), sec(s + l), a))
                        .collect();
                    let a = st.try_insert_batch_tenant(&items, tenant);
                    let b = nv.try_insert_batch_tenant(&items, tenant);
                    match (a, b) {
                        (Ok(tids), Ok(nids)) => {
                            prop_assert_eq!(tids.len(), nids.len());
                            for (&tid, &nid) in tids.iter().zip(&nids) {
                                prop_assert_eq!(tid, SlotId(nid), "batch ids diverged");
                                held.push((tid, nid));
                            }
                        }
                        (Err(ra), Err(rb)) => prop_assert_eq!(ra, rb, "batch rejections diverged"),
                        (a, b) => prop_assert!(false, "batch decisions diverged: {a:?} vs {b:?}"),
                    }
                }
                Op::Extend { idx, len } => {
                    if !held.is_empty() {
                        let (_, nid) = held[idx % held.len()];
                        let &(_, _, end, amount, tenant) = nv
                            .slots
                            .iter()
                            .find(|&&(id, ..)| id == nid)
                            .expect("held slot exists in the naive model");
                        let e2 = SimTime::from_nanos(end.as_nanos() + len * 1_000_000_000);
                        let a = st.try_insert_tenant(end, e2, amount, tenant);
                        let b = nv.try_insert_tenant(end, e2, amount, tenant);
                        match (a, b) {
                            (Ok(tid), Ok(nid2)) => {
                                prop_assert_eq!(tid, SlotId(nid2), "extend ids diverged");
                                held.push((tid, nid2));
                            }
                            (Err(ra), Err(rb)) => {
                                prop_assert_eq!(ra, rb, "extend rejections diverged")
                            }
                            (a, b) => {
                                prop_assert!(false, "extend decisions diverged: {a:?} vs {b:?}")
                            }
                        }
                    }
                }
                Op::Remove { idx } => {
                    if !held.is_empty() {
                        let (tid, nid) = held.remove(idx % held.len());
                        prop_assert!(st.remove(tid));
                        prop_assert!(nv.remove(nid));
                    }
                }
                Op::RemoveUnknown { id } => {
                    prop_assert!(!st.remove(SlotId(id)));
                    prop_assert!(!nv.remove(id));
                }
                Op::Resize { idx, amount } => {
                    if !held.is_empty() {
                        let (tid, nid) = held[idx % held.len()];
                        let a = st.try_resize(tid, amount);
                        let b = nv.try_resize(nid, amount);
                        prop_assert_eq!(a, b, "resize outcomes diverged");
                    }
                }
                Op::ResizeUnknown { id, amount } => {
                    let a = st.try_resize(SlotId(id), amount);
                    let b = nv.try_resize(id, amount);
                    prop_assert_eq!(a, b, "unknown-slot resize diverged");
                    prop_assert_eq!(
                        a,
                        Err(Rejected {
                            requested: amount,
                            available: 0,
                            reason: RejectReason::UnknownSlot,
                        })
                    );
                }
                Op::SetCapacity { cap } => {
                    st.set_capacity(cap);
                    nv.capacity = cap;
                    prop_assert_eq!(st.capacity(), cap);
                }
                Op::Compact => {
                    let a = st.compact();
                    let b = nv.compact();
                    let b: Vec<(SlotId, SlotId)> =
                        b.into_iter().map(|(x, y)| (SlotId(x), SlotId(y))).collect();
                    prop_assert_eq!(&a, &b, "compaction merges diverged");
                    // Drop absorbed handles from the held set.
                    for (absorbed, _) in a {
                        held.retain(|&(tid, _)| tid != absorbed);
                    }
                }
            }
            assert_observables_agree(&st, &nv, &held);
        }
    }

    /// The capacity-lowering edge in isolation: fill the table, lower
    /// capacity below the committed peak, and check that admission,
    /// resize, and `available` all report through the saturating path
    /// identically in both models while overcommitted.
    #[test]
    fn overcommit_after_capacity_lowering_matches(
        bookings in proptest::collection::vec((0u64..60, 1u64..30, 10u64..60), 2..10),
        new_cap in 1u64..40,
        probe in (0u64..80, 1u64..30, 1u64..80),
    ) {
        const CAP: u64 = 100;
        let mut st = SlotTable::new(CAP);
        let mut nv = NaiveTable::new(CAP);
        for (start, len, amount) in bookings {
            let (s, e) = (sec(start), sec(start + len));
            let a = st.try_insert(s, e, amount);
            let b = nv.try_insert_tenant(s, e, amount, 0);
            prop_assert_eq!(a.is_ok(), b.is_ok());
        }
        if st.max_peak() <= new_cap {
            // Not overcommitted for this draw; nothing edge-shaped to pin.
            return;
        }
        st.set_capacity(new_cap);
        nv.capacity = new_cap;
        prop_assert_eq!(st.max_overcommit(), nv.max_peak() - new_cap);

        let (ps, plen, pamt) = probe;
        let (qs, qe) = (sec(ps), sec(ps + plen));
        prop_assert_eq!(st.available(qs, qe), nv.available(qs, qe));
        let a = st.try_insert(qs, qe, pamt);
        let b = nv.try_insert_tenant(qs, qe, pamt, 0);
        match (a, b) {
            (Ok(tid), Ok(nid)) => prop_assert_eq!(tid, SlotId(nid)),
            (Err(ra), Err(rb)) => {
                // An overcommitted window must report zero available, not
                // wrap around: the saturating edge this test pins down.
                if nv.peak_in(qs, qe) > new_cap {
                    prop_assert_eq!(ra.available, 0);
                }
                prop_assert_eq!(ra, rb);
            }
            (a, b) => prop_assert!(false, "probe decisions diverged: {a:?} vs {b:?}"),
        }
    }
}

/// `compact()` at scale returns exactly the `(absorbed, survivor)`
/// sequence of the original quadratic sweep. 2 000 four-segment chains
/// and 2 000 single windows over 250 tenants: same-tenant windows that
/// start inside a chain sort between its segments and block the merge,
/// and one chain in eight changes amount half way, so the pin covers the
/// blocked and the broken cases as well as the clean folds. Length and
/// hash were recorded from the `order.remove(i + 1)` sweep before it was
/// replaced.
#[test]
fn compact_sequence_at_scale_is_pinned() {
    const HORIZON: u64 = 86_400_000_000_000;
    const PINNED_MERGES: usize = 5_535;
    const PINNED_SEQUENCE_HASH: u64 = 0xaf63_fb9a_ffd4_3a81;
    let mut rng = mpichgq_sim::SimRng::new(0x0510_77AB);
    let mut st = SlotTable::new(u64::MAX / 4);
    for i in 0..4_000u64 {
        let tenant = rng.below(250);
        let start = rng.below(HORIZON);
        let amount = rng.range(1, 1_000);
        if i % 2 == 0 {
            let seg = rng.range(1_000_000, HORIZON / 400);
            for k in 0..4 {
                let a = if i % 16 == 0 && k >= 2 {
                    amount + 1
                } else {
                    amount
                };
                let s = SimTime::from_nanos(start + k * seg);
                let e = SimTime::from_nanos(start + (k + 1) * seg);
                st.try_insert_tenant(s, e, a, tenant).unwrap();
            }
        } else {
            let len = rng.range(1_000_000, HORIZON / 100);
            let (s, e) = (SimTime::from_nanos(start), SimTime::from_nanos(start + len));
            st.try_insert_tenant(s, e, amount, tenant).unwrap();
        }
    }
    assert_eq!(st.len(), 10_000);
    let before = st.boundary_count();
    let peak = st.max_peak();
    let merged = st.compact();
    assert_eq!(merged.len(), PINNED_MERGES);
    let bytes: Vec<u8> = merged
        .iter()
        .flat_map(|&(absorbed, survivor)| [absorbed.0, survivor.0])
        .flat_map(u64::to_le_bytes)
        .collect();
    assert_eq!(mpichgq_sim::fnv1a(&bytes), PINNED_SEQUENCE_HASH);
    assert_eq!(st.len(), 10_000 - PINNED_MERGES);
    assert_eq!(before - st.boundary_count(), PINNED_MERGES);
    assert_eq!(st.max_peak(), peak, "compaction changed the load profile");
    assert!(st.compact().is_empty(), "a second pass finds nothing");
}

/// Reference for the production-fan-out case below. [`NaiveTable`] pays a
/// full slot scan per boundary per query, which 5 000 standing slots make
/// unaffordable; this one keeps the boundary deltas in an ordered map and
/// answers every query with one linear pass over it.
#[derive(Debug, Default)]
struct FlatTable {
    capacity: u64,
    next_id: u64,
    // id -> (start, end, amount, tenant)
    slots: std::collections::BTreeMap<u64, (SimTime, SimTime, u64, u64)>,
    // instant -> (net load change, endpoints located there)
    edges: std::collections::BTreeMap<SimTime, (i128, u32)>,
}

impl FlatTable {
    fn edge(&mut self, at: SimTime, delta: i128, refs: i32) {
        let e = self.edges.entry(at).or_insert((0, 0));
        e.0 += delta;
        e.1 = (e.1 as i32 + refs) as u32;
        if e.1 == 0 {
            assert_eq!(e.0, 0);
            self.edges.remove(&at);
        }
    }

    fn load_at(&self, t: SimTime) -> u64 {
        self.edges.range(..=t).map(|(_, e)| e.0).sum::<i128>() as u64
    }

    fn peak_in(&self, start: SimTime, end: SimTime) -> u64 {
        let mut load = self.load_at(start) as i128;
        let mut peak = load;
        for (&at, e) in self.edges.range(start..end) {
            if at > start {
                load += e.0;
                peak = peak.max(load);
            }
        }
        peak as u64
    }

    fn max_peak(&self) -> u64 {
        let mut load = 0i128;
        let loads = self.edges.values().map(|e| {
            load += e.0;
            load
        });
        loads.max().unwrap_or(0).max(0) as u64
    }

    fn insert_unchecked(&mut self, start: SimTime, end: SimTime, amount: u64, tenant: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.edge(start, amount as i128, 1);
        self.edge(end, -(amount as i128), 1);
        self.slots.insert(id, (start, end, amount, tenant));
        id
    }

    fn try_insert_tenant(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
        tenant: u64,
    ) -> Result<u64, Rejected> {
        let peak = self.peak_in(start, end);
        if peak.saturating_add(amount) > self.capacity {
            return Err(Rejected {
                requested: amount,
                available: self.capacity.saturating_sub(peak),
                reason: RejectReason::OverCapacity,
            });
        }
        Ok(self.insert_unchecked(start, end, amount, tenant))
    }

    fn try_insert_batch(
        &mut self,
        items: &[(SimTime, SimTime, u64)],
    ) -> Result<Vec<u64>, Rejected> {
        let ids: Vec<u64> = items
            .iter()
            .map(|&(s, e, a)| self.insert_unchecked(s, e, a, 0))
            .collect();
        for &(s, e, amount) in items {
            let peak = self.peak_in(s, e);
            if peak > self.capacity {
                for id in ids {
                    self.remove(id);
                }
                return Err(Rejected {
                    requested: amount,
                    available: self.capacity.saturating_sub(peak.saturating_sub(amount)),
                    reason: RejectReason::OverCapacity,
                });
            }
        }
        Ok(ids)
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some((start, end, amount, _)) = self.slots.remove(&id) else {
            return false;
        };
        self.edge(start, -(amount as i128), -1);
        self.edge(end, amount as i128, -1);
        true
    }

    fn try_resize(&mut self, id: u64, new_amount: u64) -> Result<(), Rejected> {
        let (start, end, old, tenant) = self.slots[&id];
        // Lift the slot out, ask, put either amount back.
        self.edge(start, -(old as i128), 0);
        self.edge(end, old as i128, 0);
        let peak_others = self.peak_in(start, end);
        let refused = peak_others.saturating_add(new_amount) > self.capacity;
        let now = if refused { old } else { new_amount };
        self.edge(start, now as i128, 0);
        self.edge(end, -(now as i128), 0);
        self.slots.insert(id, (start, end, now, tenant));
        if refused {
            return Err(Rejected {
                requested: new_amount,
                available: self.capacity.saturating_sub(peak_others),
                reason: RejectReason::OverCapacity,
            });
        }
        Ok(())
    }

    /// The documented sweep, written against a sorted list: fold each
    /// slot into the run's survivor while it abuts it, else start a run.
    fn compact(&mut self) -> Vec<(u64, u64)> {
        let mut order: Vec<(u64, u64, SimTime, SimTime, u64)> = self
            .slots
            .iter()
            .map(|(&id, &(s, e, a, t))| (t, a, s, e, id))
            .collect();
        order.sort_by_key(|&(t, _, s, e, id)| (t, s, e, id));
        let mut merged = Vec::new();
        let mut run: Option<(u64, u64, SimTime, u64)> = None; // tenant, amount, end, survivor
        for (t, a, s, e, id) in order {
            match run {
                Some((rt, ra, rend, surv)) if (rt, ra, rend) == (t, a, s) => {
                    self.edge(s, 0, -2);
                    self.slots.remove(&id);
                    self.slots.get_mut(&surv).unwrap().1 = e;
                    merged.push((id, surv));
                    run = Some((t, a, e, surv));
                }
                _ => run = Some((t, a, e, id)),
            }
        }
        merged
    }
}

/// The case the 1..80-op sequences above never reach: at the production
/// fan-out, a table three levels deep (5 000+ standing slots on ~10 000
/// distinct boundaries, so leaves and first-level inner nodes have both
/// split many times), churned with capacity binding — resizes, batches
/// and compaction interleaved — then drained until the tree is gone.
#[test]
fn production_fan_out_tree_matches_flat_model() {
    const HORIZON: u64 = 86_400_000_000_000;
    let ns = SimTime::from_nanos;
    let mut rng = mpichgq_sim::SimRng::new(0x00FA_7B7E);
    let mut st = SlotTable::new(u64::MAX / 4);
    let mut fl = FlatTable {
        capacity: u64::MAX / 4,
        ..FlatTable::default()
    };
    let mut held: Vec<u64> = Vec::new();
    let window = |rng: &mut mpichgq_sim::SimRng| {
        let start = rng.below(HORIZON);
        (ns(start), ns(start + rng.range(1_000_000, HORIZON / 50)))
    };
    let insert = |st: &mut SlotTable,
                  fl: &mut FlatTable,
                  held: &mut Vec<u64>,
                  (s, e): (SimTime, SimTime),
                  amount: u64,
                  tenant: u64| {
        let got = st.try_insert_tenant(s, e, amount, tenant);
        let want = fl.try_insert_tenant(s, e, amount, tenant);
        assert_eq!(got, want.map(SlotId), "insert diverged");
        held.extend(want.ok());
        want.is_ok()
    };

    // Standing population: mostly scattered windows, one in five renewed
    // once from its end (a foldable pair sharing one boundary).
    while held.len() < 5_200 {
        let (s, e) = window(&mut rng);
        let (amount, tenant) = (rng.range(1, 1_000), rng.below(40));
        insert(&mut st, &mut fl, &mut held, (s, e), amount, tenant);
        if rng.chance(0.2) {
            let e2 = ns(e.as_nanos() + rng.range(1_000_000, HORIZON / 50));
            insert(&mut st, &mut fl, &mut held, (e, e2), amount, tenant);
        }
    }
    assert!(
        st.boundary_count() > 9_000,
        "boundaries were meant to be distinct"
    );
    assert_eq!(st.boundary_count(), fl.edges.len());

    // Make capacity bind: lowered under the standing peak, so part of the
    // day is overcommitted (refusals there report 0 available) and the
    // rest has little headroom.
    let cap = st.max_peak() / 5 * 4;
    st.set_capacity(cap);
    fl.capacity = cap;
    assert_eq!(st.max_overcommit(), fl.max_peak() - cap);
    let (mut refused, mut folded) = (0, 0);
    for op in 0..3_000u32 {
        match op % 8 {
            0..=2 => {
                let w = window(&mut rng);
                let (amount, tenant) = (rng.range(1, 400), rng.below(40));
                if !insert(&mut st, &mut fl, &mut held, w, amount, tenant) {
                    refused += 1;
                }
            }
            3 | 4 => {
                let id = held.swap_remove(rng.below(held.len() as u64) as usize);
                assert!(st.remove(SlotId(id)));
                assert!(fl.remove(id));
            }
            5 | 6 => {
                let id = held[rng.below(held.len() as u64) as usize];
                let amount = rng.range(1, 1_200);
                let want = fl.try_resize(id, amount);
                assert_eq!(st.try_resize(SlotId(id), amount), want, "resize diverged");
                refused += want.is_err() as u32;
            }
            _ if op % 500 == 7 => {
                let want = fl.compact();
                let got: Vec<(u64, u64)> = st.compact().iter().map(|&(a, s)| (a.0, s.0)).collect();
                assert_eq!(got, want, "compaction diverged");
                folded += want.len();
                held.retain(|id| fl.slots.contains_key(id));
            }
            _ => {
                let items: Vec<(SimTime, SimTime, u64)> = (0..4)
                    .map(|_| {
                        let (s, e) = window(&mut rng);
                        (s, e, rng.range(1, 150))
                    })
                    .collect();
                let want = fl.try_insert_batch(&items);
                let got = st.try_insert_batch(&items);
                assert_eq!(
                    got,
                    want.clone()
                        .map(|ids| ids.into_iter().map(SlotId).collect())
                );
                refused += want.is_err() as u32;
                held.extend(want.unwrap_or_default());
            }
        }
        assert_eq!(st.len(), fl.slots.len());
        assert_eq!(st.boundary_count(), fl.edges.len());
        assert_eq!(st.max_peak(), fl.max_peak());
        let (s, e) = window(&mut rng);
        assert_eq!(st.load_at(s), fl.load_at(s));
        assert_eq!(st.available(s, e), cap.saturating_sub(fl.peak_in(s, e)));
    }
    assert!(refused > 300, "capacity never bound ({refused} refusals)");
    assert!(
        folded > 200,
        "compaction had nothing to fold ({folded} merges)"
    );

    // Drain: every node must be handed back.
    while let Some(id) = held.pop() {
        assert!(st.remove(SlotId(id)));
        assert!(fl.remove(id));
        if held.len().is_multiple_of(256) {
            assert_eq!(st.max_peak(), fl.max_peak());
            assert_eq!(st.boundary_count(), fl.edges.len());
        }
    }
    assert_eq!(st.boundary_count(), 0);
    assert!(st.is_empty());
    assert_eq!(st.max_peak(), 0);
    assert_eq!(st.available(ns(0), ns(HORIZON)), cap);
    // And the emptied table is a working table.
    let id = st.try_insert(ns(5), ns(10), cap).unwrap();
    assert_eq!(st.try_insert(ns(9), ns(20), 1).unwrap_err().available, 0);
    assert!(st.remove(id));
}

/// Writes placed where a slot's two boundaries meet the tree differently:
/// one descent serves both (`SlotTable`'s pair write), so what matters is
/// where the two paths part and whether a leaf on either splits or goes.
/// The unit tests pin each case at fan-out 4 by looking at the nodes; here
/// the production fan-out is steered into them by interval shape — a
/// microsecond long (one leaf), a few dozen boundaries long (neighbouring
/// leaves), half the horizon (different children of the root), bursts of
/// abutting microsecond slots poured into one spot (the start's leaf
/// splits under the pair, the end lands in the new sibling) and freed
/// again wholesale (leaves empty around the ends of long slots that
/// stay), and slots on a coarse grid, whose boundaries many share, resized
/// by `restore`. Every answer is compared with the flat model after every
/// operation, at the written instants and at random ones.
#[test]
fn pair_writes_of_every_shape_match_flat_model_at_production_fan_out() {
    const HORIZON: u64 = 4_000_000; // microseconds
    const GRID: u64 = 50_000;
    let us = SimTime::from_micros;
    let mut rng = mpichgq_sim::SimRng::new(0x2B0D);
    let mut st = SlotTable::new(u64::MAX / 8);
    let mut fl = FlatTable {
        capacity: u64::MAX / 8,
        ..FlatTable::default()
    };
    // (id, start, end), and the bursts as lists of ids.
    let mut held: Vec<(u64, u64, u64)> = Vec::new();
    let mut bursts: Vec<Vec<u64>> = Vec::new();
    let (mut shapes, mut deepest) = ([0u32; 8], 0);
    let check = |st: &SlotTable, fl: &FlatTable, rng: &mut mpichgq_sim::SimRng, at: [u64; 2]| {
        assert_eq!(st.len(), fl.slots.len());
        assert_eq!(st.boundary_count(), fl.edges.len());
        assert_eq!(st.max_peak(), fl.max_peak());
        let [s, e] = at;
        let near = [s.saturating_sub(1), s, s + 1, e.saturating_sub(1), e, e + 1];
        let far = [rng.below(HORIZON), rng.below(HORIZON)];
        for &x in near.iter().chain(&far) {
            assert_eq!(st.load_at(us(x)), fl.load_at(us(x)), "load at {x}");
        }
        for (a, b) in [
            (s, e),
            (s + 1, e),
            (s, e + 1),
            (far[0], e),
            (s, far[1]),
            (0, HORIZON),
        ] {
            let (a, b) = (a.min(b), a.max(b));
            let want = fl.capacity.saturating_sub(fl.peak_in(us(a), us(b)));
            assert_eq!(st.available(us(a), us(b)), want, "headroom of [{a}, {b})");
        }
    };
    for op in 0..2_600u32 {
        // Grow to a three-level table first, then hold it there.
        let grow = held.len() < 1_000 && op < 2_200;
        let shape = match rng.below(10) {
            k @ 0..=4 if grow || k == 0 => k as usize,
            5 if grow => 5,
            6 if !bursts.is_empty() => 6,
            7 | 8 if !held.is_empty() => 7,
            _ if !held.is_empty() => 0xF,
            _ => 0,
        };
        let mut insert = |st: &mut SlotTable, fl: &mut FlatTable, amount: u64, s: u64, e: u64| {
            let got = st.try_insert(us(s), us(e), amount);
            let want = fl.try_insert_tenant(us(s), us(e), amount, 0);
            assert_eq!(got, want.map(SlotId), "insert over [{s}, {e}) diverged");
            held.push((want.unwrap(), s, e));
            want.unwrap()
        };
        let at = match shape {
            // One microsecond; a few dozen boundaries; half the horizon;
            // on the grid; anywhere.
            0..=4 => {
                let start = rng.below(HORIZON / 2);
                let (s, e) = match shape {
                    0 => (start, start + 1),
                    1 => (start, start + rng.range(1, 40) * HORIZON / 2_000),
                    2 => (start, start + HORIZON / 2 - rng.below(1_000)),
                    3 => {
                        let s = start / GRID * GRID;
                        (s, s + GRID * rng.range(1, 4))
                    }
                    _ => (start, start + rng.range(1, HORIZON / 2)),
                };
                insert(&mut st, &mut fl, rng.range(1, 1_000), s, e);
                [s, e]
            }
            // A burst: forty abutting one-microsecond slots, ascending or
            // descending, each write checked.
            5 => {
                let base = rng.below(HORIZON - 100);
                let up = rng.chance(0.5);
                let ids = (0..40)
                    .map(|i| {
                        let s = base + 2 * if up { i } else { 39 - i };
                        let id = insert(&mut st, &mut fl, rng.range(1, 1_000), s, s + 2);
                        check(&st, &fl, &mut rng, [s, s + 2]);
                        id
                    })
                    .collect();
                bursts.push(ids);
                [base, base + 80]
            }
            // Free a whole burst.
            6 => {
                let ids = bursts.swap_remove(rng.below(bursts.len() as u64) as usize);
                let mut at = [0, 0];
                for id in ids {
                    let k = held.iter().position(|h| h.0 == id).unwrap();
                    let (_, s, e) = held.swap_remove(k);
                    assert!(st.remove(SlotId(id)) && fl.remove(id));
                    check(&st, &fl, &mut rng, [s, e]);
                    at = [s, e];
                }
                at
            }
            // Set a slot's amount, admission or no admission.
            7 => {
                let (id, s, e) = held[rng.below(held.len() as u64) as usize];
                let amount = rng.range(0, 2_000);
                if rng.chance(0.5) {
                    let want = fl.try_resize(id, amount);
                    assert_eq!(st.try_resize(SlotId(id), amount), want);
                } else {
                    assert!(st.restore(SlotId(id), amount));
                    let slot = fl.slots[&id];
                    fl.edge(slot.0, amount as i128 - slot.2 as i128, 0);
                    fl.edge(slot.1, slot.2 as i128 - amount as i128, 0);
                    fl.slots.insert(id, (slot.0, slot.1, amount, slot.3));
                }
                [s, e]
            }
            _ => {
                let (id, s, e) = held.swap_remove(rng.below(held.len() as u64) as usize);
                bursts.iter_mut().for_each(|b| b.retain(|&x| x != id));
                assert!(st.remove(SlotId(id)) && fl.remove(id));
                [s, e]
            }
        };
        shapes[shape.min(7)] += 1;
        deepest = deepest.max(st.boundary_count());
        check(&st, &fl, &mut rng, at);
    }
    assert!(
        shapes.iter().all(|&n| n >= 20),
        "every shape of write is exercised: {shapes:?}"
    );
    assert!(
        deepest > 1_500,
        "a three-level table ({deepest} boundaries)"
    );
    while let Some((id, s, e)) = held.pop() {
        assert!(st.remove(SlotId(id)) && fl.remove(id));
        if held.len().is_multiple_of(64) {
            check(&st, &fl, &mut rng, [s, e]);
        }
    }
    assert_eq!((st.len(), st.boundary_count(), st.max_peak()), (0, 0, 0));
}
