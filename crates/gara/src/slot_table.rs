//! Slot tables: interval-based capacity accounting for admission control.
//!
//! "This manager uses a slot table to keep track of reservations and invokes
//! resource-specific operations to enforce reservations." (§4.2, citing
//! Degermark et al. and the LBNL bandwidth broker design.)
//!
//! A [`SlotTable`] tracks allocations of a scalar capacity (bits/s of EF
//! bandwidth on a link, percent of a CPU, MB/s of a storage server) over
//! time intervals, supporting immediate and *advance* reservations with
//! all-or-nothing admission.
//!
//! # Implementation (DESIGN.md §14)
//!
//! The table is an augmented B+tree keyed on the *time boundaries* of
//! reservations. A boundary carries the net load change at that instant
//! (`+amount` at a slot's start, `-amount` at its end); leaves hold up
//! to 32 of them in three parallel arrays, and an inner node holds, for
//! each of up to 32 children, a separator key and the child's
//! `(sum, max prefix sum)` over its deltas in key order. The committed
//! load at any instant is a prefix sum of boundary deltas, so:
//!
//! * peak load over an interval ([`SlotTable::available`], admission)
//!   is a range query — prefix sum up to the interval's start plus the
//!   max prefix of the boundaries strictly inside it — that reads one
//!   node per level along each bound and scans contiguous entries in it;
//! * admit / free / resize are boundary updates: one descent, after
//!   which the nodes on the path re-derive their aggregates. A full node
//!   splits in half; a node that empties is freed. Nodes never borrow or
//!   merge, so a drained region stays sparse until it empties;
//! * the global peak ([`SlotTable::max_peak`]) is the whole tree's
//!   max-prefix aggregate, kept beside the root, `O(1)`;
//! * capacity changes ([`SlotTable::set_capacity`]) are `O(1)` — the
//!   tree stores loads, not headroom.
//!
//! Three levels cover 100k standing slots, where the balanced binary
//! tree this replaced went ~22 nodes deep with a cache miss at each.
//!
//! Batch admission ([`SlotTable::try_insert_batch`]) admits a vector of
//! co-reservations all-or-nothing in one pass over the tree, and
//! compaction ([`SlotTable::compact`]) merges a tenant's adjacent
//! same-amount slots in one sorted sweep, so long-running reservations
//! that are repeatedly extended do not grow the boundary set without
//! bound.

use mpichgq_sim::{FxHashMap, SimTime};

/// Identifies an allocation within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Slot {
    start: SimTime,
    end: SimTime,
    amount: u64,
    tenant: u64,
}

/// Why an admission or resize attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RejectReason {
    /// The interval lacks capacity at its tightest instant.
    #[default]
    OverCapacity,
    /// [`SlotTable::try_resize`] named a slot this table does not hold.
    UnknownSlot,
    /// The interval ends at or before its start: it would hold nothing.
    EmptyInterval,
}

/// Admission failure: how much was free at the worst point of the interval.
///
/// `available` is reported with saturating arithmetic: if existing slots
/// already exceed capacity (possible transiently after a capacity-lowering
/// [`SlotTable::set_capacity`]), it reads 0 rather than wrapping.
/// `requested` always carries the amount that was asked for, for
/// [`RejectReason::UnknownSlot`] refusals as much as capacity ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    pub requested: u64,
    pub available: u64,
    pub reason: RejectReason,
}

impl Rejected {
    fn empty_interval(requested: u64) -> Rejected {
        Rejected {
            requested,
            available: 0,
            reason: RejectReason::EmptyInterval,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            RejectReason::OverCapacity => write!(
                f,
                "reservation of {} rejected; only {} available in the interval",
                self.requested, self.available
            ),
            RejectReason::UnknownSlot => {
                write!(f, "resize to {} rejected: no such slot", self.requested)
            }
            RejectReason::EmptyInterval => write!(
                f,
                "reservation of {} rejected: empty interval",
                self.requested
            ),
        }
    }
}
impl std::error::Error for Rejected {}

// ---------------------------------------------------------------------
// The boundary tree
// ---------------------------------------------------------------------

/// Fan-out: boundaries per leaf, children per inner node. At 32 a
/// 100k-slot table is three levels deep and a node's keys span four cache
/// lines (16 and 64 both measured slower, DESIGN.md §14). Unit tests run
/// at 4 so that small tables already split inner nodes.
#[cfg(not(test))]
const B: usize = 32;
#[cfg(test)]
const B: usize = 4;

const NIL: u32 = u32::MAX;

/// `(sum, max_prefix)` of a run of boundary deltas in key order:
/// `max_prefix` is the largest sum of its first k deltas, k >= 1.
type Agg = (i128, i128);

/// The empty run. Its `max_prefix` stands for minus infinity; halved so
/// that adding a real sum to it cannot overflow.
const EMPTY: Agg = (0, i128::MIN / 2);

/// Concatenate two runs, `a` first.
fn cat(a: Agg, b: Agg) -> Agg {
    (a.0 + b.0, a.1.max(a.0 + b.1))
}

fn insert_at<T: Copy>(a: &mut [T; B], len: usize, i: usize, v: T) {
    a.copy_within(i..len, i + 1);
    a[i] = v;
}

fn remove_at<T: Copy>(a: &mut [T; B], len: usize, i: usize) {
    a.copy_within(i + 1..len, i);
}

/// Up to `B` boundary instants in key order. A boundary carries the net
/// load change across every slot endpoint at that instant and how many
/// endpoints reference it (it is dropped when the last endpoint goes
/// away, even if its net delta is zero).
#[derive(Debug, Clone)]
struct Leaf {
    len: usize,
    key: [SimTime; B],
    delta: [i128; B],
    refs: [u32; B],
}

impl Leaf {
    const NEW: Leaf = Leaf {
        len: 0,
        key: [SimTime::ZERO; B],
        delta: [0; B],
        refs: [0; B],
    };

    fn agg(&self) -> Agg {
        self.agg_of(0, self.len)
    }

    fn agg_of(&self, lo: usize, hi: usize) -> Agg {
        let mut run = EMPTY;
        for &d in &self.delta[lo..hi] {
            run = cat(run, (d, d));
        }
        run
    }

    fn insert(&mut self, i: usize, key: SimTime, delta: i128, refs: u32) {
        insert_at(&mut self.key, self.len, i, key);
        insert_at(&mut self.delta, self.len, i, delta);
        insert_at(&mut self.refs, self.len, i, refs);
        self.len += 1;
    }

    /// Move the upper half of a full leaf into a new one.
    fn split(&mut self) -> Leaf {
        let mut r = Leaf::NEW;
        r.len = B - B / 2;
        r.key[..r.len].copy_from_slice(&self.key[B / 2..]);
        r.delta[..r.len].copy_from_slice(&self.delta[B / 2..]);
        r.refs[..r.len].copy_from_slice(&self.refs[B / 2..]);
        self.len = B / 2;
        r
    }
}

/// Up to `B` children in key order. Child `i` holds the keys in
/// `[sep[i], sep[i + 1])`; `sep[0]` is not consulted, child 0 takes
/// everything below `sep[1]`. `agg[i]` is child `i`'s whole-subtree
/// aggregate, so a query reads one node per level and never a child it
/// does not descend into.
#[derive(Debug, Clone)]
struct Inner {
    len: usize,
    sep: [SimTime; B],
    child: [u32; B],
    agg: [Agg; B],
}

impl Inner {
    const NEW: Inner = Inner {
        len: 0,
        sep: [SimTime::ZERO; B],
        child: [NIL; B],
        agg: [EMPTY; B],
    };

    fn agg(&self) -> Agg {
        self.agg[..self.len]
            .iter()
            .fold(EMPTY, |run, &a| cat(run, a))
    }

    /// The child whose key range contains `key`.
    fn child_for(&self, key: SimTime) -> usize {
        self.sep[1..self.len].partition_point(|&s| s <= key)
    }

    fn insert(&mut self, i: usize, sep: SimTime, child: u32, agg: Agg) {
        insert_at(&mut self.sep, self.len, i, sep);
        insert_at(&mut self.child, self.len, i, child);
        insert_at(&mut self.agg, self.len, i, agg);
        self.len += 1;
    }

    /// Move the upper half of a full node into a new one.
    fn split(&mut self) -> Inner {
        let mut r = Inner::NEW;
        r.len = B - B / 2;
        r.sep[..r.len].copy_from_slice(&self.sep[B / 2..]);
        r.child[..r.len].copy_from_slice(&self.child[B / 2..]);
        r.agg[..r.len].copy_from_slice(&self.agg[B / 2..]);
        self.len = B / 2;
        r
    }
}

/// Index-addressed node storage with a free list.
#[derive(Debug, Clone)]
struct Arena<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    const NEW: Arena<T> = Arena {
        items: Vec::new(),
        free: Vec::new(),
    };

    fn alloc(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = v;
                i
            }
            None => {
                self.items.push(v);
                (self.items.len() - 1) as u32
            }
        }
    }
}

/// What one level of [`SlotTable::apply`] reports to the level above.
enum Up {
    /// The node is still there; this is its aggregate now.
    Kept(Agg),
    /// The node lost its last entry and was freed.
    Emptied,
    /// The node was full and split: its own aggregate, then the first
    /// key, index and aggregate of the new right sibling.
    Split(Agg, SimTime, u32, Agg),
}

/// Capacity-over-time bookkeeping with all-or-nothing admission.
#[derive(Debug, Clone)]
pub struct SlotTable {
    capacity: u64,
    slots: FxHashMap<u64, Slot>,
    next_id: u64,
    leaves: Arena<Leaf>,
    inners: Arena<Inner>,
    /// `NIL` while the table holds no boundary; a leaf while `height` is
    /// 0, an inner node above that.
    root: u32,
    height: u32,
    root_agg: Agg,
    boundaries: usize,
    /// Scratch for [`SlotTable::apply`]: the `(inner node, child taken)`
    /// pairs of its descent.
    path: Vec<(u32, usize)>,
}

impl SlotTable {
    pub fn new(capacity: u64) -> Self {
        SlotTable {
            capacity,
            slots: FxHashMap::default(),
            next_id: 0,
            leaves: Arena::NEW,
            inners: Arena::NEW,
            root: NIL,
            height: 0,
            root_agg: EMPTY,
            boundaries: 0,
            path: Vec::new(),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Reconfigure the capacity in place, keeping every existing slot.
    /// Lowering it below the committed peak leaves the table transiently
    /// overcommitted — admission of *new* load is refused until enough
    /// slots end or are removed, and auditors can quantify the overshoot
    /// via [`SlotTable::max_overcommit`]. `O(1)`: the tree stores loads,
    /// not remaining headroom.
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    // -- tree plumbing -------------------------------------------------

    /// Add `delta` (and `refs_delta` endpoint references) at boundary
    /// `key`, creating the boundary if absent, dropping it when its last
    /// reference goes away. One descent; the nodes on its path re-derive
    /// their aggregates on the way back up, a full node splits in half
    /// and an emptied one is freed (no borrowing or merging: a sparse
    /// node costs memory, never correctness).
    fn apply(&mut self, key: SimTime, delta: i128, refs_delta: i32) {
        if self.root == NIL {
            self.root = self.leaves.alloc(Leaf::NEW);
        }
        let mut n = self.root;
        for _ in 0..self.height {
            let x = &self.inners.items[n as usize];
            let i = x.child_for(key);
            self.path.push((n, i));
            n = x.child[i];
        }
        let mut up = self.apply_leaf(n, key, delta, refs_delta);
        while let Some((p, i)) = self.path.pop() {
            up = self.apply_inner(p, i, up);
        }
        match up {
            Up::Kept(a) => self.root_agg = a,
            Up::Emptied => (self.root, self.height, self.root_agg) = (NIL, 0, EMPTY),
            Up::Split(la, sep, right, ra) => {
                let mut top = Inner::NEW;
                top.insert(0, SimTime::ZERO, self.root, la);
                top.insert(1, sep, right, ra);
                self.root = self.inners.alloc(top);
                self.height += 1;
                self.root_agg = cat(la, ra);
            }
        }
    }

    fn apply_leaf(&mut self, n: u32, key: SimTime, delta: i128, refs_delta: i32) -> Up {
        let l = &mut self.leaves.items[n as usize];
        let pos = l.key[..l.len].partition_point(|&k| k < key);
        if pos < l.len && l.key[pos] == key {
            l.delta[pos] += delta;
            l.refs[pos] = (l.refs[pos] as i64 + refs_delta as i64) as u32;
            if l.refs[pos] == 0 {
                debug_assert_eq!(l.delta[pos], 0, "freed boundary with nonzero delta");
                remove_at(&mut l.key, l.len, pos);
                remove_at(&mut l.delta, l.len, pos);
                remove_at(&mut l.refs, l.len, pos);
                l.len -= 1;
                self.boundaries -= 1;
                if l.len == 0 {
                    self.leaves.free.push(n);
                    return Up::Emptied;
                }
            }
            return Up::Kept(l.agg());
        }
        debug_assert!(refs_delta > 0, "releasing a boundary that was never added");
        self.boundaries += 1;
        if l.len < B {
            l.insert(pos, key, delta, refs_delta as u32);
            return Up::Kept(l.agg());
        }
        let mut r = l.split();
        if pos <= B / 2 {
            l.insert(pos, key, delta, refs_delta as u32);
        } else {
            r.insert(pos - B / 2, key, delta, refs_delta as u32);
        }
        let (la, sep, ra) = (l.agg(), r.key[0], r.agg());
        Up::Split(la, sep, self.leaves.alloc(r), ra)
    }

    /// Fold what child `i` of inner node `p` reported into `p`.
    fn apply_inner(&mut self, p: u32, i: usize, up: Up) -> Up {
        let x = &mut self.inners.items[p as usize];
        match up {
            Up::Kept(a) => x.agg[i] = a,
            Up::Emptied => {
                remove_at(&mut x.sep, x.len, i);
                remove_at(&mut x.child, x.len, i);
                remove_at(&mut x.agg, x.len, i);
                x.len -= 1;
                if x.len == 0 {
                    self.inners.free.push(p);
                    return Up::Emptied;
                }
            }
            Up::Split(la, sep, right, ra) => {
                x.agg[i] = la;
                if x.len == B {
                    let mut r = x.split();
                    if i < B / 2 {
                        x.insert(i + 1, sep, right, ra);
                    } else {
                        r.insert(i + 1 - B / 2, sep, right, ra);
                    }
                    let (xa, sep, ra) = (x.agg(), r.sep[0], r.agg());
                    return Up::Split(xa, sep, self.inners.alloc(r), ra);
                }
                x.insert(i + 1, sep, right, ra);
            }
        }
        Up::Kept(x.agg())
    }

    /// Committed load just after every boundary `<= t` has applied —
    /// i.e. the load at instant `t`. One read-only descent.
    fn prefix_le(&self, t: SimTime) -> i128 {
        if self.root == NIL {
            return 0;
        }
        let mut acc = 0i128;
        let mut n = self.root;
        for _ in 0..self.height {
            let x = &self.inners.items[n as usize];
            let i = x.child_for(t);
            acc += x.agg[..i].iter().map(|a| a.0).sum::<i128>();
            n = x.child[i];
        }
        let l = &self.leaves.items[n as usize];
        let hi = l.key[..l.len].partition_point(|&k| k <= t);
        acc + l.delta[..hi].iter().sum::<i128>()
    }

    /// Peak committed load over `[start, end)` (all slots), read-only:
    /// the load at `start` plus the best prefix of the boundary deltas
    /// strictly inside the interval.
    fn peak_in(&self, start: SimTime, end: SimTime) -> u64 {
        if self.root == NIL {
            return 0;
        }
        let base = self.prefix_le(start);
        // An empty interval (a caller's `available(t, t)`) reads as the
        // instant `start`.
        let inside = if start < end {
            self.range_agg(self.height, self.root, Some(start), Some(end))
        } else {
            EMPTY
        };
        let peak = base + inside.1.max(0);
        debug_assert!(peak >= 0, "negative committed load");
        peak.max(0) as u64
    }

    /// Aggregate over the keys of subtree `n` (`level` 0 is a leaf) that
    /// lie above `s` and below `e`, both exclusive, `None` for unbounded.
    /// Children strictly between the two boundary children contribute
    /// their stored aggregates; each bound is followed down one path.
    fn range_agg(&self, level: u32, n: u32, s: Option<SimTime>, e: Option<SimTime>) -> Agg {
        if level == 0 {
            let l = &self.leaves.items[n as usize];
            let keys = &l.key[..l.len];
            let lo = s.map_or(0, |s| keys.partition_point(|&k| k <= s));
            let hi = e.map_or(l.len, |e| keys.partition_point(|&k| k < e));
            return l.agg_of(lo, hi);
        }
        let x = &self.inners.items[n as usize];
        let a = s.map(|s| x.child_for(s));
        let b = e.map(|e| x.sep[1..x.len].partition_point(|&k| k < e));
        if let (Some(a), Some(b)) = (a, b) {
            if a == b {
                return self.range_agg(level - 1, x.child[a], s, e);
            }
        }
        let mut run = EMPTY;
        let mut lo = 0;
        if let Some(a) = a {
            run = self.range_agg(level - 1, x.child[a], s, None);
            lo = a + 1;
        }
        for &whole in &x.agg[lo..b.unwrap_or(x.len)] {
            run = cat(run, whole);
        }
        if let Some(b) = b {
            run = cat(run, self.range_agg(level - 1, x.child[b], None, e));
        }
        run
    }

    // -- the admission API ---------------------------------------------

    /// Free capacity at the tightest instant of `[start, end)` (0 when the
    /// interval is already committed at or over capacity).
    pub fn available(&self, start: SimTime, end: SimTime) -> u64 {
        let peak = self.peak_in(start, end);
        self.capacity.saturating_sub(peak)
    }

    /// Peak committed amount over all time (the all-slots high-water
    /// mark). `O(1)`: the whole tree's max-prefix aggregate.
    pub fn max_peak(&self) -> u64 {
        self.root_agg.1.max(0) as u64
    }

    /// How far the committed peak exceeds capacity (0 when within bounds).
    /// Nonzero only transiently, after a capacity-lowering
    /// [`SlotTable::set_capacity`]; admission never creates overcommit.
    pub fn max_overcommit(&self) -> u64 {
        self.max_peak().saturating_sub(self.capacity)
    }

    /// Admit `amount` over `[start, end)` or reject without side effects.
    /// An interval with `start >= end` is refused as
    /// [`RejectReason::EmptyInterval`].
    pub fn try_insert(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
    ) -> Result<SlotId, Rejected> {
        self.try_insert_tenant(start, end, amount, 0)
    }

    /// [`SlotTable::try_insert`] with a tenant tag; slots of the same
    /// tenant are the unit [`SlotTable::compact`] may merge.
    pub fn try_insert_tenant(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
        tenant: u64,
    ) -> Result<SlotId, Rejected> {
        if start >= end {
            return Err(Rejected::empty_interval(amount));
        }
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

    /// Insert a slot's boundaries and bookkeeping without admission.
    fn insert_unchecked(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
        tenant: u64,
    ) -> SlotId {
        let id = self.next_id;
        self.next_id += 1;
        self.apply(start, amount as i128, 1);
        self.apply(end, -(amount as i128), 1);
        self.slots.insert(
            id,
            Slot {
                start,
                end,
                amount,
                tenant,
            },
        );
        SlotId(id)
    }

    /// All-or-nothing admission of a vector of co-reservations in one
    /// pass: every item is admitted, or none is and the first item (in
    /// input order) whose interval would exceed capacity is reported.
    /// The reported `available` counts the other items of the batch as
    /// committed load, exactly as a sequential admit-with-rollback loop
    /// would have seen them. An empty item refuses the batch before any
    /// capacity is looked at ([`RejectReason::EmptyInterval`], the first
    /// such item in input order).
    pub fn try_insert_batch(
        &mut self,
        items: &[(SimTime, SimTime, u64)],
    ) -> Result<Vec<SlotId>, Rejected> {
        self.try_insert_batch_tenant(items, 0)
    }

    /// [`SlotTable::try_insert_batch`] with a tenant tag on every slot.
    pub fn try_insert_batch_tenant(
        &mut self,
        items: &[(SimTime, SimTime, u64)],
        tenant: u64,
    ) -> Result<Vec<SlotId>, Rejected> {
        if let Some(&(_, _, amount)) = items.iter().find(|&&(start, end, _)| start >= end) {
            return Err(Rejected::empty_interval(amount));
        }
        // Optimistically commit every boundary, then audit each item's
        // interval against the combined load; roll back all on the first
        // offender. One O(log n) peak query per item either way — the
        // win over a sequential loop is that no interval is re-scanned
        // per mate and rollback never re-runs admission.
        let ids: Vec<SlotId> = items
            .iter()
            .map(|&(s, e, amount)| self.insert_unchecked(s, e, amount, tenant))
            .collect();
        for (i, &(s, e, amount)) in items.iter().enumerate() {
            let peak = self.peak_in(s, e);
            if peak > self.capacity {
                let available = self.capacity.saturating_sub(peak.saturating_sub(amount));
                for id in ids {
                    self.remove(id);
                }
                return Err(Rejected {
                    requested: items[i].2,
                    available,
                    reason: RejectReason::OverCapacity,
                });
            }
        }
        Ok(ids)
    }

    /// Remove an allocation; returns whether it existed.
    pub fn remove(&mut self, id: SlotId) -> bool {
        let Some(s) = self.slots.remove(&id.0) else {
            return false;
        };
        self.apply(s.start, -(s.amount as i128), -1);
        self.apply(s.end, s.amount as i128, -1);
        true
    }

    /// Change the amount of an existing allocation (reservation modify).
    /// On rejection the original allocation is kept unchanged. An unknown
    /// slot id is reported as [`RejectReason::UnknownSlot`], distinct from
    /// a genuine capacity refusal; either way `requested` carries
    /// `new_amount`.
    pub fn try_resize(&mut self, id: SlotId, new_amount: u64) -> Result<(), Rejected> {
        let Some(&slot) = self.slots.get(&id.0) else {
            return Err(Rejected {
                requested: new_amount,
                available: 0,
                reason: RejectReason::UnknownSlot,
            });
        };
        // The slot's own load is constant over its own interval, so what
        // everyone else commits there peaks at `peak - amount`: one
        // read-only query decides, and a refusal touches nothing.
        let peak_others = self.peak_in(slot.start, slot.end) - slot.amount;
        if peak_others.saturating_add(new_amount) > self.capacity {
            return Err(Rejected {
                requested: new_amount,
                available: self.capacity.saturating_sub(peak_others),
                reason: RejectReason::OverCapacity,
            });
        }
        self.restore(id, new_amount);
        Ok(())
    }

    /// Set a slot's amount without admission control. This is the rollback
    /// primitive: restoring a previously admitted amount must never fail,
    /// even if capacity was reconfigured in between. Returns whether the
    /// slot existed.
    pub fn restore(&mut self, id: SlotId, amount: u64) -> bool {
        let Some(&slot) = self.slots.get(&id.0) else {
            return false;
        };
        self.apply(slot.start, amount as i128 - slot.amount as i128, 0);
        self.apply(slot.end, slot.amount as i128 - amount as i128, 0);
        self.slots.get_mut(&id.0).unwrap().amount = amount;
        true
    }

    /// Merge adjacent same-amount slots of the same tenant: whenever one
    /// slot ends exactly where the next (same tenant, same amount) begins,
    /// the pair collapses into the earlier slot and the later [`SlotId`]
    /// is retired. Long-running reservations that are extended by booking
    /// adjacent windows therefore keep the boundary tree flat. Returns
    /// `(absorbed, survivor)` pairs so holders can remap their handles;
    /// the committed load profile is unchanged.
    pub fn compact(&mut self) -> Vec<(SlotId, SlotId)> {
        let mut order: Vec<(u64, Slot)> = self.slots.iter().map(|(&id, &s)| (id, s)).collect();
        // Deterministic sweep order regardless of hash-map iteration.
        order.sort_unstable_by_key(|&(id, s)| (s.tenant, s.start, s.end, id));
        let mut merged = Vec::new();
        // One forward sweep: `order[head]` is the survivor the current
        // slot may chain onto, grown in place as it absorbs.
        let mut head = 0;
        for i in 1..order.len() {
            let (sid, s) = order[head];
            let (tid, t) = order[i];
            if s.tenant == t.tenant && s.amount == t.amount && s.end == t.start {
                // The shared boundary carries +amount and -amount from the
                // pair; both endpoints retire together.
                self.apply(s.end, 0, -2);
                self.slots.remove(&tid);
                self.slots.get_mut(&sid).unwrap().end = t.end;
                order[head].1.end = t.end;
                merged.push((SlotId(tid), SlotId(sid)));
            } else {
                head = i;
            }
        }
        merged
    }

    /// Current amount of an allocation, if it exists.
    pub fn amount_of(&self, id: SlotId) -> Option<u64> {
        self.slots.get(&id.0).map(|s| s.amount)
    }

    /// Tenant tag of an allocation, if it exists.
    pub fn tenant_of(&self, id: SlotId) -> Option<u64> {
        self.slots.get(&id.0).map(|s| s.tenant)
    }

    /// Committed amount at instant `t`. `O(log n)`.
    pub fn load_at(&self, t: SimTime) -> u64 {
        let v = self.prefix_le(t);
        debug_assert!(v >= 0, "negative committed load");
        v.max(0) as u64
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Live boundary nodes in the tree (distinct slot-endpoint instants).
    /// Compaction exists to keep this from growing without bound under
    /// adjacent-extension churn; `bench_gara` reports it per table size.
    pub fn boundary_count(&self) -> usize {
        self.boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn admits_up_to_capacity() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(10), 60).unwrap();
        st.try_insert(t(0), t(10), 40).unwrap();
        let err = st.try_insert(t(0), t(10), 1).unwrap_err();
        assert_eq!(err.available, 0);
    }

    #[test]
    fn non_overlapping_intervals_are_independent() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(10), 100).unwrap();
        st.try_insert(t(10), t(20), 100).unwrap();
        assert_eq!(st.load_at(t(5)), 100);
        assert_eq!(st.load_at(t(15)), 100);
        // Endpoint is exclusive: a reservation ending at 10 frees 10.
        assert_eq!(st.available(t(9), t(10)), 0);
        // An empty interval reads as the instant itself, in every build.
        assert_eq!(st.available(t(10), t(10)), 0);
        assert_eq!(st.available(t(20), t(20)), 100);
    }

    #[test]
    fn empty_interval_is_refused_and_leaves_the_table_unchanged() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(10), 60).unwrap();
        let unchanged = |st: &SlotTable| {
            st.check_structure();
            assert_eq!((st.len(), st.boundary_count(), st.max_peak()), (1, 2, 60));
            assert_eq!(st.next_id, 1, "a refusal consumes no slot id");
        };
        let empty = |requested| Rejected {
            requested,
            available: 0,
            reason: RejectReason::EmptyInterval,
        };
        // Single: equal and inverted bounds, fitting or not.
        assert_eq!(st.try_insert(t(5), t(5), 7), Err(empty(7)));
        assert_eq!(st.try_insert_tenant(t(9), t(3), 500, 2), Err(empty(500)));
        unchanged(&st);
        // Batch, first item empty.
        let batch = [(t(4), t(4), 1), (t(20), t(30), 2)];
        assert_eq!(st.try_insert_batch(&batch), Err(empty(1)));
        unchanged(&st);
        // Batch, a middle item empty: reported ahead of the over-capacity
        // item before it and the second empty item after it.
        let batch = [
            (t(0), t(10), 41),
            (t(20), t(30), 2),
            (t(40), t(35), 3),
            (t(50), t(50), 4),
        ];
        assert_eq!(st.try_insert_batch_tenant(&batch, 9), Err(empty(3)));
        unchanged(&st);
        assert_eq!(
            empty(3).to_string(),
            "reservation of 3 rejected: empty interval"
        );
    }

    #[test]
    fn advance_reservation_blocks_future_window() {
        let mut st = SlotTable::new(100);
        // Book the future.
        st.try_insert(t(100), t(200), 80).unwrap();
        // An open-ended request crossing it must fit under the peak.
        assert!(st.try_insert(t(0), t(300), 30).is_err());
        st.try_insert(t(0), t(300), 20).unwrap();
    }

    #[test]
    fn remove_frees_capacity() {
        let mut st = SlotTable::new(100);
        let id = st.try_insert(t(0), t(10), 100).unwrap();
        assert!(st.try_insert(t(0), t(10), 1).is_err());
        assert!(st.remove(id));
        assert!(!st.remove(id));
        st.try_insert(t(0), t(10), 100).unwrap();
    }

    #[test]
    fn resize_checks_against_others_only() {
        let mut st = SlotTable::new(100);
        let a = st.try_insert(t(0), t(10), 60).unwrap();
        st.try_insert(t(0), t(10), 40).unwrap();
        // Growing a is impossible (0 free), shrinking fine, regrow to 60 fine.
        assert!(st.try_resize(a, 61).is_err());
        st.try_resize(a, 10).unwrap();
        st.try_resize(a, 60).unwrap();
        assert_eq!(st.load_at(t(5)), 100);
    }

    #[test]
    fn rejection_reports_tightest_point() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(5), t(6), 90).unwrap();
        let err = st.try_insert(t(0), t(10), 20).unwrap_err();
        assert_eq!(err.available, 10);
    }

    #[test]
    fn overcommitted_table_reports_zero_available_not_underflow() {
        // Regression: `capacity - peak` underflowed (panicking in debug,
        // wrapping to ~u64::MAX available in release) whenever existing
        // slots exceeded a lowered capacity.
        let mut st = SlotTable::new(100);
        let a = st.try_insert(t(0), t(10), 80).unwrap();
        st.set_capacity(60);
        assert_eq!(st.max_overcommit(), 20);
        assert_eq!(st.available(t(0), t(10)), 0);
        let err = st.try_insert(t(0), t(10), 1).unwrap_err();
        assert_eq!(err.available, 0);
        assert_eq!(err.reason, RejectReason::OverCapacity);
        // Growing the overcommitted slot is refused with a saturated report;
        // shrinking it back under the new capacity is allowed.
        let err = st.try_resize(a, 81).unwrap_err();
        assert_eq!(err.available, 60);
        assert_eq!(err.reason, RejectReason::OverCapacity);
        st.try_resize(a, 50).unwrap();
        assert_eq!(st.max_overcommit(), 0);
    }

    #[test]
    fn resize_of_unknown_slot_is_distinguished() {
        let mut st = SlotTable::new(100);
        let a = st.try_insert(t(0), t(10), 100).unwrap();
        let err = st.try_resize(SlotId(999), 10).unwrap_err();
        assert_eq!(err.reason, RejectReason::UnknownSlot);
        // The UnknownSlot refusal still reports what was asked for.
        assert_eq!(err.requested, 10);
        assert_eq!(err.available, 0);
        // A genuine capacity refusal keeps its own reason.
        st.remove(a);
        let a = st.try_insert(t(0), t(10), 50).unwrap();
        st.try_insert(t(0), t(10), 50).unwrap();
        let err = st.try_resize(a, 51).unwrap_err();
        assert_eq!(err.reason, RejectReason::OverCapacity);
    }

    #[test]
    fn restore_is_infallible_even_over_capacity() {
        let mut st = SlotTable::new(100);
        let a = st.try_insert(t(0), t(10), 80).unwrap();
        st.set_capacity(10);
        // try_resize would refuse; restore (rollback) must not.
        assert!(st.try_resize(a, 80).is_err());
        assert!(st.restore(a, 80));
        assert_eq!(st.amount_of(a), Some(80));
        assert!(!st.restore(SlotId(999), 5));
    }

    #[test]
    fn max_peak_tracks_staircase() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(4), 30).unwrap();
        st.try_insert(t(2), t(6), 30).unwrap();
        st.try_insert(t(3), t(5), 30).unwrap();
        assert_eq!(st.max_peak(), 90);
        assert_eq!(st.max_overcommit(), 0);
    }

    #[test]
    fn staircase_peak_detection() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(4), 30).unwrap();
        st.try_insert(t(2), t(6), 30).unwrap();
        st.try_insert(t(3), t(5), 30).unwrap();
        // Peak is 90 in [3,4).
        assert_eq!(st.available(t(0), t(10)), 10);
        assert!(st.try_insert(t(0), t(10), 11).is_err());
        st.try_insert(t(0), t(10), 10).unwrap();
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let mut st = SlotTable::new(100);
        st.try_insert(t(0), t(10), 50).unwrap();
        // Combined 60 over the committed 50 exceeds 100: nothing lands.
        let err = st
            .try_insert_batch(&[(t(0), t(5), 30), (t(2), t(8), 30)])
            .unwrap_err();
        assert_eq!(err.reason, RejectReason::OverCapacity);
        assert_eq!(err.requested, 30);
        // The other mate (30) plus the standing 50 leave 20 at the pinch.
        assert_eq!(err.available, 20);
        assert_eq!(st.len(), 1);
        assert_eq!(st.max_peak(), 50);
        // Disjoint mates that each fit are admitted together.
        let ids = st
            .try_insert_batch(&[(t(0), t(5), 50), (t(5), t(10), 50)])
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(st.load_at(t(2)), 100);
        assert_eq!(st.load_at(t(7)), 100);
    }

    #[test]
    fn batch_matches_sequential_admission_decision() {
        // Batch admits exactly when a sequential loop over the same items
        // would: combined load within capacity at every instant.
        let items = [(t(0), t(4), 40), (t(2), t(6), 40), (t(3), t(5), 20)];
        let mut batch = SlotTable::new(100);
        let mut seq = SlotTable::new(100);
        let b = batch.try_insert_batch(&items);
        let mut ok = true;
        let mut held = Vec::new();
        for &(s, e, a) in &items {
            match seq.try_insert(s, e, a) {
                Ok(id) => held.push(id),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        assert_eq!(b.is_ok(), ok);
        assert_eq!(batch.max_peak(), seq.max_peak());
    }

    #[test]
    fn compact_merges_adjacent_same_amount_slots_of_a_tenant() {
        let mut st = SlotTable::new(100);
        let a = st.try_insert_tenant(t(0), t(10), 40, 7).unwrap();
        let b = st.try_insert_tenant(t(10), t(20), 40, 7).unwrap();
        let c = st.try_insert_tenant(t(20), t(30), 40, 7).unwrap();
        // Different tenant and different amount stay untouched.
        let other = st.try_insert_tenant(t(30), t(40), 40, 8).unwrap();
        let thinner = st.try_insert_tenant(t(40), t(50), 30, 7).unwrap();
        let before = st.boundary_count();
        let merged = st.compact();
        assert_eq!(
            merged,
            vec![(b, a), (c, a)],
            "the chain folds into the earliest slot"
        );
        assert_eq!(st.len(), 3);
        assert!(st.boundary_count() < before);
        assert_eq!(st.amount_of(a), Some(40));
        assert_eq!(st.amount_of(b), None);
        assert_eq!(st.amount_of(c), None);
        assert_eq!(st.amount_of(other), Some(40));
        assert_eq!(st.amount_of(thinner), Some(30));
        // The load profile is unchanged.
        for s in 0..50 {
            let expect = if s < 30 || (30..40).contains(&s) {
                40
            } else {
                30
            };
            assert_eq!(st.load_at(t(s)), expect, "load changed at t={s}");
        }
        // And the merged slot behaves like one long reservation.
        st.try_resize(a, 60).unwrap();
        assert_eq!(st.load_at(t(15)), 60);
    }

    #[test]
    fn compact_keeps_overlapping_slots_apart() {
        let mut st = SlotTable::new(100);
        st.try_insert_tenant(t(0), t(10), 40, 1).unwrap();
        st.try_insert_tenant(t(5), t(15), 40, 1).unwrap();
        assert!(st.compact().is_empty(), "overlap is not adjacency");
        assert_eq!(st.len(), 2);
        assert_eq!(st.load_at(t(7)), 80);
    }

    #[test]
    fn boundary_nodes_are_shared_and_reclaimed() {
        let mut st = SlotTable::new(100);
        let a = st.try_insert(t(0), t(10), 30).unwrap();
        let b = st.try_insert(t(0), t(10), 30).unwrap();
        // Shared endpoints collapse onto two boundary nodes.
        assert_eq!(st.boundary_count(), 2);
        st.remove(a);
        assert_eq!(st.boundary_count(), 2);
        st.remove(b);
        assert_eq!(st.boundary_count(), 0);
        assert!(st.is_empty());
        assert_eq!(st.max_peak(), 0);
    }

    impl SlotTable {
        /// Walk every reachable node and assert the tree's invariants:
        /// keys strictly ascending across leaves, separators bounding
        /// their children, every stored aggregate equal to the recomputed
        /// one, no reachable empty node, no leaked node, and
        /// `boundary_count()` equal to the leaves' total length.
        fn check_structure(&self) {
            if self.root == NIL {
                assert_eq!((self.height, self.boundaries), (0, 0));
                assert_eq!(self.root_agg, EMPTY);
                assert_eq!(self.leaves.items.len(), self.leaves.free.len());
                assert_eq!(self.inners.items.len(), self.inners.free.len());
                return;
            }
            let mut keys = Vec::new();
            let mut nodes = (0, 0);
            let agg = self.check_node(self.height, self.root, None, None, &mut keys, &mut nodes);
            assert_eq!(agg, self.root_agg, "root aggregate is stale");
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
            assert_eq!(keys.len(), self.boundary_count());
            let live = |a: usize, free: &[u32]| a - free.len();
            assert_eq!(nodes.0, live(self.leaves.items.len(), &self.leaves.free));
            assert_eq!(nodes.1, live(self.inners.items.len(), &self.inners.free));
        }

        /// Check subtree `n`, whose keys must lie in `[lo, hi)`; returns
        /// its aggregate recomputed from the leaves up.
        fn check_node(
            &self,
            level: u32,
            n: u32,
            lo: Option<SimTime>,
            hi: Option<SimTime>,
            keys: &mut Vec<SimTime>,
            nodes: &mut (usize, usize),
        ) -> Agg {
            if level == 0 {
                let l = &self.leaves.items[n as usize];
                assert!(
                    (1..=B).contains(&l.len),
                    "reachable leaf of {} entries",
                    l.len
                );
                assert!(
                    !self.leaves.free.contains(&n),
                    "reachable leaf is on the free list"
                );
                nodes.0 += 1;
                let mut run = EMPTY;
                for j in 0..l.len {
                    assert!(
                        lo.is_none_or(|lo| lo <= l.key[j]),
                        "key below its separator"
                    );
                    assert!(
                        hi.is_none_or(|hi| l.key[j] < hi),
                        "key at or above the next separator"
                    );
                    assert!(l.refs[j] > 0, "boundary without endpoints");
                    keys.push(l.key[j]);
                    run = cat(run, (l.delta[j], l.delta[j]));
                }
                return run;
            }
            let x = &self.inners.items[n as usize];
            assert!(
                (1..=B).contains(&x.len),
                "reachable inner node of {} children",
                x.len
            );
            assert!(
                !self.inners.free.contains(&n),
                "reachable inner node is on the free list"
            );
            nodes.1 += 1;
            let mut run = EMPTY;
            for i in 0..x.len {
                let clo = if i == 0 { lo } else { Some(x.sep[i]) };
                let chi = if i + 1 < x.len {
                    Some(x.sep[i + 1])
                } else {
                    hi
                };
                let agg = self.check_node(level - 1, x.child[i], clo, chi, keys, nodes);
                assert_eq!(agg, x.agg[i], "stored child aggregate is stale");
                run = cat(run, agg);
            }
            run
        }
    }

    /// The flat reference for [`churn_matches_flat_model_and_keeps_the_tree_sound`]:
    /// live slots in a list, every answer a full scan.
    #[derive(Default)]
    struct Flat {
        cap: u64,
        // (id, start, end, amount, tenant), seconds
        slots: Vec<(SlotId, u64, u64, u64, u64)>,
    }

    impl Flat {
        fn load_at(&self, at: u64) -> u64 {
            let covers = |&&(_, s, e, _, _): &&(SlotId, u64, u64, u64, u64)| s <= at && at < e;
            self.slots.iter().filter(covers).map(|s| s.3).sum()
        }

        /// The load only changes at slot boundaries.
        fn peak_in(&self, start: u64, end: u64) -> u64 {
            let inside = |b: &u64| start < *b && *b < end;
            let edges = self.slots.iter().flat_map(|s| [s.1, s.2]).filter(inside);
            edges.chain([start]).map(|b| self.load_at(b)).max().unwrap()
        }

        fn boundaries(&self) -> usize {
            let mut edges: Vec<u64> = self.slots.iter().flat_map(|s| [s.1, s.2]).collect();
            edges.sort_unstable();
            edges.dedup();
            edges.len()
        }

        fn admit(&self, start: u64, end: u64, amount: u64) -> Result<(), Rejected> {
            let peak = self.peak_in(start, end);
            if peak + amount > self.cap {
                return Err(Rejected {
                    requested: amount,
                    available: self.cap.saturating_sub(peak),
                    reason: RejectReason::OverCapacity,
                });
            }
            Ok(())
        }
    }

    #[test]
    fn churn_matches_flat_model_and_keeps_the_tree_sound() {
        // 24 000 operations at fan-out 4: a population of a few hundred
        // boundaries keeps the tree five or more levels deep, so leaf and
        // inner splits, frees at empty and root growth all happen often.
        // Times are whole seconds out of 2 000, so boundaries are shared
        // and re-created constantly.
        let mut rng = mpichgq_sim::SimRng::new(0xB7EE);
        let mut st = SlotTable::new(2_000);
        let mut flat = Flat {
            cap: 2_000,
            ..Flat::default()
        };
        let (mut deepest, mut refused, mut folded) = (0, 0, 0);
        for op in 0..24_000u32 {
            // Grow for the first third, hold, then drain to empty.
            let target = if op < 16_000 { 250 } else { 0 };
            let grow = flat.slots.len() < target;
            match rng.below(10) {
                0..=4 if grow || rng.chance(0.3) => {
                    // One time in five, renew a standing slot: the same
                    // tenant and amount from its end on, what `compact` folds.
                    let (start, amount, tenant) = if !flat.slots.is_empty() && rng.chance(0.2) {
                        let (_, _, e, a, ten) =
                            flat.slots[rng.below(flat.slots.len() as u64) as usize];
                        (e, a, ten)
                    } else {
                        (rng.below(2_000), rng.range(1, 400), rng.below(6))
                    };
                    let end = start + rng.range(1, 120);
                    let got = st.try_insert_tenant(t(start), t(end), amount, tenant);
                    assert_eq!(got.map(|_| ()), flat.admit(start, end, amount));
                    match got {
                        Ok(id) => flat.slots.push((id, start, end, amount, tenant)),
                        Err(_) => refused += 1,
                    }
                }
                5 if grow => {
                    // All-or-nothing pair; the model admits them in turn.
                    let items: Vec<(u64, u64, u64)> = (0..2)
                        .map(|_| {
                            let start = rng.below(2_000);
                            (start, start + rng.range(1, 120), rng.range(1, 400))
                        })
                        .collect();
                    let timed: Vec<_> = items.iter().map(|&(s, e, a)| (t(s), t(e), a)).collect();
                    let got = st.try_insert_batch(&timed);
                    let before = flat.slots.len();
                    for (k, &(s, e, a)) in items.iter().enumerate() {
                        flat.slots.push((SlotId(u64::MAX - k as u64), s, e, a, 0));
                    }
                    let fits = items
                        .iter()
                        .all(|&(s, e, _)| flat.peak_in(s, e) <= flat.cap);
                    assert_eq!(got.is_ok(), fits);
                    flat.slots.truncate(before);
                    if let Ok(ids) = got {
                        for (id, &(s, e, a)) in ids.into_iter().zip(&items) {
                            flat.slots.push((id, s, e, a, 0));
                        }
                    }
                }
                6 if !flat.slots.is_empty() => {
                    let k = rng.below(flat.slots.len() as u64) as usize;
                    let (id, start, end, old, _) = flat.slots[k];
                    let amount = rng.range(1, 600);
                    flat.slots[k].3 = 0;
                    let want = flat.admit(start, end, amount);
                    flat.slots[k].3 = if want.is_ok() { amount } else { old };
                    assert_eq!(st.try_resize(id, amount), want);
                }
                7 if op % 16 == 7 => {
                    for (absorbed, survivor) in st.compact() {
                        folded += 1;
                        let gone = flat.slots.iter().position(|s| s.0 == absorbed).unwrap();
                        let (_, s, e, a, ten) = flat.slots.swap_remove(gone);
                        let keep = flat.slots.iter_mut().find(|s| s.0 == survivor).unwrap();
                        assert_eq!((keep.2, keep.3, keep.4), (s, a, ten), "illegal merge");
                        keep.2 = e;
                    }
                    assert!(st.compact().is_empty(), "compaction left a foldable pair");
                }
                _ if !flat.slots.is_empty() => {
                    let k = rng.below(flat.slots.len() as u64) as usize;
                    assert!(st.remove(flat.slots.swap_remove(k).0));
                }
                _ => {}
            }
            st.check_structure();
            deepest = deepest.max(st.height);
            assert_eq!(st.len(), flat.slots.len());
            assert_eq!(st.boundary_count(), flat.boundaries());
            let at = rng.below(2_100);
            assert_eq!(st.load_at(t(at)), flat.load_at(at));
            let end = at + rng.range(1, 300);
            assert_eq!(
                st.available(t(at), t(end)),
                flat.cap.saturating_sub(flat.peak_in(at, end))
            );
            let peak = flat
                .slots
                .iter()
                .map(|s| flat.load_at(s.1))
                .max()
                .unwrap_or(0);
            assert_eq!(st.max_peak(), peak);
        }
        assert!(
            deepest >= 4,
            "the churn never built a deep tree (height {deepest})"
        );
        assert!(refused > 500, "capacity never bound ({refused} refusals)");
        assert!(
            folded > 100,
            "compaction had nothing to fold ({folded} merges)"
        );
        assert!(st.is_empty() && st.root == NIL);
    }

    #[test]
    fn deep_tables_stay_exact() {
        // A few thousand staggered slots: the tree's point and peak
        // queries must agree with brute-force summation everywhere.
        let mut st = SlotTable::new(1_000_000);
        let mut held: Vec<(SlotId, u64, u64, u64)> = Vec::new();
        for i in 0..2_000u64 {
            let s = (i * 37) % 500;
            let e = s + 3 + (i % 11);
            let amount = 100 + (i % 17) * 10;
            if let Ok(id) = st.try_insert(t(s), t(e), amount) {
                held.push((id, s, e, amount));
            }
        }
        let mut brute_peak = 0;
        for probe in 0..520u64 {
            let brute: u64 = held
                .iter()
                .filter(|&&(_, s, e, _)| s <= probe && probe < e)
                .map(|&(_, _, _, a)| a)
                .sum();
            assert_eq!(st.load_at(t(probe)), brute, "load differs at t={probe}");
            brute_peak = brute_peak.max(brute);
        }
        assert_eq!(st.max_peak(), brute_peak);
        assert!(st.max_peak() <= 1_000_000);
        // Remove everything; the tree must drain completely.
        for (id, ..) in held {
            assert!(st.remove(id));
        }
        assert_eq!(st.boundary_count(), 0);
        assert_eq!(st.max_peak(), 0);
    }
}
