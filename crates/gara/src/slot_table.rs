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
//!   max prefix of the boundaries strictly inside it — made in one
//!   descent: the two bounds share a path from the root, the prefix sum
//!   is gathered along the start bound's, and every node is read once;
//! * admit / free / resize move a slot's two boundaries in one descent
//!   per slot: the ancestors the boundaries share are located and
//!   re-derive their aggregate once, each leaf is searched once per key.
//!   A full node splits in half and a node that empties is freed, both
//!   through the single-boundary update ([`SlotTable::compact`]'s too).
//!   Nodes never borrow or merge, so a drained region stays sparse until
//!   it empties;
//! * the global peak ([`SlotTable::max_peak`]) is the whole tree's
//!   max-prefix aggregate, kept beside the root, `O(1)`;
//! * capacity changes ([`SlotTable::set_capacity`]) are `O(1)` — the
//!   tree stores loads, not headroom.
//!
//! Sums are `i64` and exact: the amounts of all live slots together
//! never pass [`SlotTable::MAX_COMMITTED`] — every entry point that puts
//! an amount into the tree refuses first — so no load, and no difference
//! of two loads, leaves the type (the proof is beside `cat`).
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
    /// The amount fits the capacity but would take the amounts of all
    /// live slots together past [`SlotTable::MAX_COMMITTED`].
    AmountOutOfRange,
}

/// Admission failure: how much was free at the worst point of the interval.
///
/// `available` is reported with saturating arithmetic: if existing slots
/// already exceed capacity (possible transiently after a capacity-lowering
/// [`SlotTable::set_capacity`]), it reads 0 rather than wrapping. For
/// [`RejectReason::AmountOutOfRange`] it is the largest amount the table's
/// domain still had room for.
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

    fn out_of_range(requested: u64, room: u64) -> Rejected {
        Rejected {
            requested,
            available: room,
            reason: RejectReason::AmountOutOfRange,
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
            RejectReason::AmountOutOfRange => write!(
                f,
                "reservation of {} rejected: the table can account for {} more",
                self.requested, self.available
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
type Agg = (i64, i64);

/// The empty run. Its `max_prefix` stands for minus infinity; halved so
/// that adding a real sum to it cannot overflow.
const EMPTY: Agg = (0, i64::MIN / 2);

/// Concatenate two runs, `a` first.
///
/// Exact in `i64`. Let `T <= MAX_COMMITTED = 2^62 - 1` be the sum of the
/// amounts of all live slots. The load at an instant is the sum of the
/// amounts of the slots covering it, so it lies in `[0, T]`. The deltas
/// of the boundaries in a run of consecutive keys sum to the load after
/// the run minus the load before it, so the sum of any run — and
/// `max_prefix`, the sum of one of its prefixes — lies in `[-T, T]`.
/// Between the two single-boundary updates of a slot that splits or
/// empties a leaf, the tree holds that slot half applied: an insert's
/// `+amount` without its end (loads in `[0, T]`, `T` already counting
/// it), or a remove's `-amount` at the end without its start (loads in
/// `[-amount, T - amount]`, `T` still counting it); differences stay in
/// `[-T, T]`. Both sums below add two such values, or one and `EMPTY`'s
/// `-2^62`: magnitude under `2^63`.
fn cat(a: Agg, b: Agg) -> Agg {
    debug_assert!(
        a.0.checked_add(b.0).is_some() && a.0.checked_add(b.1).is_some(),
        "boundary sums left the table's domain: {a:?} ++ {b:?}"
    );
    (a.0 + b.0, a.1.max(a.0 + b.1))
}

fn sum_of(run: &[Agg]) -> i64 {
    run.iter().map(|a| a.0).sum()
}

fn insert_at<T: Copy>(a: &mut [T; B], len: usize, i: usize, v: T) {
    a.copy_within(i..len, i + 1);
    a[i] = v;
}

fn remove_at<T: Copy>(a: &mut [T; B], len: usize, i: usize) {
    a.copy_within(i + 1..len, i);
}

// Node reads per operation, for the unit test that holds a query and a
// write to one descent each. Compiled out of every other build.
#[cfg(test)]
thread_local! {
    static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A descent has arrived at a node.
#[inline(always)]
fn visit() {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + 1));
}

/// One boundary update: add `delta` and `refs` endpoint references at
/// `key`, creating the boundary if absent, dropping it when its last
/// reference goes away.
#[derive(Debug, Clone, Copy)]
struct Edge {
    key: SimTime,
    delta: i64,
    refs: i32,
}

/// What [`Leaf::edit`] did.
enum Edit {
    /// Applied in place; the leaf's boundary count changed by this much.
    Done(isize),
    /// Not applied: the boundary is the leaf's last and would go.
    Empties,
    /// Not applied: the leaf is full and the boundary, absent, belongs at
    /// this position.
    Full(usize),
}

/// Up to `B` boundary instants in key order. A boundary carries the net
/// load change across every slot endpoint at that instant and how many
/// endpoints reference it (it is dropped when the last endpoint goes
/// away, even if its net delta is zero).
#[derive(Debug, Clone)]
struct Leaf {
    len: usize,
    key: [SimTime; B],
    delta: [i64; B],
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

    fn insert(&mut self, i: usize, e: Edge) {
        insert_at(&mut self.key, self.len, i, e.key);
        insert_at(&mut self.delta, self.len, i, e.delta);
        insert_at(&mut self.refs, self.len, i, e.refs as u32);
        self.len += 1;
    }

    /// Apply `e` unless that would split or empty the leaf.
    fn edit(&mut self, e: Edge) -> Edit {
        let pos = self.key[..self.len].partition_point(|&k| k < e.key);
        if pos < self.len && self.key[pos] == e.key {
            let refs = self.refs[pos].wrapping_add_signed(e.refs);
            if refs > 0 {
                self.delta[pos] += e.delta;
                self.refs[pos] = refs;
                return Edit::Done(0);
            }
            debug_assert_eq!(
                self.delta[pos] + e.delta,
                0,
                "freed boundary with nonzero delta"
            );
            if self.len == 1 {
                return Edit::Empties;
            }
            remove_at(&mut self.key, self.len, pos);
            remove_at(&mut self.delta, self.len, pos);
            remove_at(&mut self.refs, self.len, pos);
            self.len -= 1;
            return Edit::Done(-1);
        }
        debug_assert!(e.refs > 0, "releasing a boundary that was never added");
        if self.len == B {
            return Edit::Full(pos);
        }
        self.insert(pos, e);
        Edit::Done(1)
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
    /// Sum of the amounts of all live slots, at most
    /// [`SlotTable::MAX_COMMITTED`]: what keeps the tree's `i64` sums
    /// exact.
    committed: u64,
    leaves: Arena<Leaf>,
    inners: Arena<Inner>,
    /// `NIL` while the table holds no boundary; a leaf while `height` is
    /// 0, an inner node above that.
    root: u32,
    height: u32,
    root_agg: Agg,
    boundaries: usize,
}

impl SlotTable {
    /// The most the amounts of all live slots may add up to, `2^62 - 1`.
    /// The load at any instant is a sum over some of the live slots, so
    /// this bounds every load the table can hold, whatever its capacity
    /// and whatever [`SlotTable::restore`] is asked for. An amount that
    /// would pass it is refused ([`RejectReason::AmountOutOfRange`]).
    pub const MAX_COMMITTED: u64 = u64::MAX / 4;

    pub fn new(capacity: u64) -> Self {
        SlotTable {
            capacity,
            slots: FxHashMap::default(),
            next_id: 0,
            committed: 0,
            leaves: Arena::NEW,
            inners: Arena::NEW,
            root: NIL,
            height: 0,
            root_agg: EMPTY,
            boundaries: 0,
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

    /// Apply one edge. One descent; the nodes on its path re-derive
    /// their aggregates on the way back up, a full node splits in half
    /// and an emptied one is freed (no borrowing or merging: a sparse
    /// node costs memory, never correctness).
    fn apply(&mut self, e: Edge) {
        if self.root == NIL {
            self.root = self.leaves.alloc(Leaf::NEW);
        }
        match self.apply_at(self.height, self.root, e) {
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

    fn apply_at(&mut self, level: u32, n: u32, e: Edge) -> Up {
        visit();
        if level == 0 {
            return self.apply_leaf(n, e);
        }
        let x = &self.inners.items[n as usize];
        let i = x.child_for(e.key);
        let up = self.apply_at(level - 1, x.child[i], e);
        self.apply_inner(n, i, up)
    }

    fn apply_leaf(&mut self, n: u32, e: Edge) -> Up {
        let l = &mut self.leaves.items[n as usize];
        match l.edit(e) {
            Edit::Done(grew) => {
                self.boundaries = self.boundaries.wrapping_add_signed(grew);
                Up::Kept(l.agg())
            }
            Edit::Empties => {
                self.boundaries -= 1;
                self.leaves.free.push(n);
                Up::Emptied
            }
            Edit::Full(pos) => {
                self.boundaries += 1;
                let mut r = l.split();
                if pos <= B / 2 {
                    l.insert(pos, e);
                } else {
                    r.insert(pos - B / 2, e);
                }
                let (la, sep, ra) = (l.agg(), r.key[0], r.agg());
                Up::Split(la, sep, self.leaves.alloc(r), ra)
            }
        }
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

    /// Apply a slot's two edges — `delta` at `start`, `-delta` at `end`,
    /// `refs` at both — in one descent: a node on both paths is searched
    /// for both keys on one visit and re-derives its aggregate once, below
    /// the point where the paths part each goes its own way. An edge that
    /// would split or empty a
    /// leaf — one slot in 14 while a table grows from empty, one in 300
    /// under churn at a standing population — goes through
    /// [`SlotTable::apply`] instead, after whatever came before it in
    /// `s`, `e` order: the tree is the one two `apply`s build.
    fn apply_pair(&mut self, start: SimTime, end: SimTime, delta: i64, refs: i32) {
        debug_assert!(start < end);
        let s = Edge {
            key: start,
            delta,
            refs,
        };
        let e = Edge {
            key: end,
            delta: -delta,
            refs,
        };
        let done = match self.root {
            NIL => None,
            root => self.pair(self.height, root, s, e),
        };
        match done {
            Some((a, true)) => self.root_agg = a,
            Some((_, false)) => self.apply(e),
            None => {
                self.apply(s);
                self.apply(e);
            }
        }
    }

    /// [`Leaf::edit`] with the boundary census kept: whether `e` was
    /// applied (it is not, and nothing changes, where that would split or
    /// empty leaf `n`).
    fn edit_in_place(&mut self, n: u32, e: Edge) -> bool {
        let Edit::Done(grew) = self.leaves.items[n as usize].edit(e) else {
            return false;
        };
        self.boundaries = self.boundaries.wrapping_add_signed(grew);
        true
    }

    /// Apply `s` and `e` below `n`, stopping — nothing half done inside a
    /// node — at the first that would split or empty a leaf: `None` if
    /// that is `s`, else `n`'s aggregate now and whether `e` went in too.
    fn pair(&mut self, level: u32, n: u32, s: Edge, e: Edge) -> Option<(Agg, bool)> {
        visit();
        if level == 0 {
            let ended = self.edit_in_place(n, s).then(|| self.edit_in_place(n, e))?;
            return Some((self.leaves.items[n as usize].agg(), ended));
        }
        let x = &self.inners.items[n as usize];
        let i = x.child_for(s.key);
        let j = i + x.sep[i + 1..x.len].partition_point(|&k| k <= e.key);
        let (ci, cj) = (x.child[i], x.child[j]);
        let (a, ended) = if i == j {
            self.pair(level - 1, ci, s, e)?
        } else {
            let a = self.single(level - 1, ci, s)?;
            let b = self.single(level - 1, cj, e);
            if let Some(b) = b {
                self.inners.items[n as usize].agg[j] = b;
            }
            (a, b.is_some())
        };
        let x = &mut self.inners.items[n as usize];
        x.agg[i] = a;
        Some((x.agg(), ended))
    }

    /// Apply one edge below `n` and return `n`'s aggregate, or touch
    /// nothing and return `None` if it would split or empty the leaf.
    fn single(&mut self, level: u32, n: u32, e: Edge) -> Option<Agg> {
        visit();
        if level == 0 {
            return self
                .edit_in_place(n, e)
                .then(|| self.leaves.items[n as usize].agg());
        }
        let x = &self.inners.items[n as usize];
        let i = x.child_for(e.key);
        let a = self.single(level - 1, x.child[i], e)?;
        let x = &mut self.inners.items[n as usize];
        x.agg[i] = a;
        Some(x.agg())
    }

    /// Committed load just after every boundary `<= t` has applied —
    /// i.e. the load at instant `t`. One read-only descent.
    fn prefix_le(&self, t: SimTime) -> i64 {
        if self.root == NIL {
            return 0;
        }
        let mut acc = 0;
        let mut n = self.root;
        for _ in 0..self.height {
            visit();
            let x = &self.inners.items[n as usize];
            let i = x.child_for(t);
            acc += sum_of(&x.agg[..i]);
            n = x.child[i];
        }
        visit();
        let l = &self.leaves.items[n as usize];
        let hi = l.key[..l.len].partition_point(|&k| k <= t);
        acc + l.delta[..hi].iter().sum::<i64>()
    }

    /// Peak committed load over `[start, end)` (all slots), read-only:
    /// the load at `start` plus the best prefix of the boundary deltas
    /// strictly inside the interval, both from one descent. While the two
    /// bounds lie under the same child there is one path; where they part,
    /// the children strictly between contribute their stored aggregates
    /// and each bound is followed down alone. The load at `start` is the
    /// sum of everything left of its path.
    fn peak_in(&self, start: SimTime, end: SimTime) -> u64 {
        if start >= end {
            // An empty interval (a caller's `available(t, t)`) reads as
            // the instant `start`.
            return self.load_at(start);
        }
        if self.root == NIL {
            return 0;
        }
        let (mut level, mut n, mut base) = (self.height, self.root, 0);
        let inside = loop {
            visit();
            if level == 0 {
                let l = &self.leaves.items[n as usize];
                let lo = l.key[..l.len].partition_point(|&k| k <= start);
                let hi = lo + l.key[lo..l.len].partition_point(|&k| k < end);
                base += l.delta[..lo].iter().sum::<i64>();
                break l.agg_of(lo, hi);
            }
            let x = &self.inners.items[n as usize];
            let a = x.child_for(start);
            let b = a + x.sep[a + 1..x.len].partition_point(|&k| k < end);
            base += sum_of(&x.agg[..a]);
            if a < b {
                let mut run = self.above(level - 1, x.child[a], start, &mut base);
                for &whole in &x.agg[a + 1..b] {
                    run = cat(run, whole);
                }
                break self.below(level - 1, x.child[b], end, run);
            }
            (level, n) = (level - 1, x.child[a]);
        };
        let peak = base + inside.1.max(0);
        debug_assert!(base >= 0 && peak >= 0, "negative committed load");
        peak as u64
    }

    /// Aggregate over the keys of subtree `n` (`level` 0 is a leaf) above
    /// `s`; the deltas at or below `s` are added to `base`.
    fn above(&self, mut level: u32, mut n: u32, s: SimTime, base: &mut i64) -> Agg {
        // What the levels passed so far hold right of the path.
        let mut right = EMPTY;
        loop {
            visit();
            if level == 0 {
                let l = &self.leaves.items[n as usize];
                let lo = l.key[..l.len].partition_point(|&k| k <= s);
                *base += l.delta[..lo].iter().sum::<i64>();
                return cat(l.agg_of(lo, l.len), right);
            }
            let x = &self.inners.items[n as usize];
            let a = x.child_for(s);
            *base += sum_of(&x.agg[..a]);
            let here = x.agg[a + 1..x.len]
                .iter()
                .fold(EMPTY, |run, &w| cat(run, w));
            right = cat(here, right);
            (level, n) = (level - 1, x.child[a]);
        }
    }

    /// `left` followed by the aggregate over the keys of subtree `n` below
    /// `e`.
    fn below(&self, mut level: u32, mut n: u32, e: SimTime, mut left: Agg) -> Agg {
        loop {
            visit();
            if level == 0 {
                let l = &self.leaves.items[n as usize];
                let hi = l.key[..l.len].partition_point(|&k| k < e);
                return cat(left, l.agg_of(0, hi));
            }
            let x = &self.inners.items[n as usize];
            let b = x.sep[1..x.len].partition_point(|&k| k < e);
            for &whole in &x.agg[..b] {
                left = cat(left, whole);
            }
            (level, n) = (level - 1, x.child[b]);
        }
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

    /// What [`SlotTable::MAX_COMMITTED`] leaves for further amounts.
    fn room(&self) -> u64 {
        Self::MAX_COMMITTED - self.committed
    }

    /// Admit `amount` over `[start, end)` or reject without side effects.
    /// An interval with `start >= end` is refused as
    /// [`RejectReason::EmptyInterval`], an amount that fits the capacity
    /// but not the table's domain as [`RejectReason::AmountOutOfRange`].
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
        if amount > self.room() {
            return Err(Rejected::out_of_range(amount, self.room()));
        }
        Ok(self.insert_unchecked(start, end, amount, tenant))
    }

    /// Insert a slot's boundaries and bookkeeping without admission. The
    /// caller has checked `amount <= self.room()`.
    fn insert_unchecked(
        &mut self,
        start: SimTime,
        end: SimTime,
        amount: u64,
        tenant: u64,
    ) -> SlotId {
        let id = self.next_id;
        self.next_id += 1;
        self.committed += amount;
        self.apply_pair(start, end, amount as i64, 1);
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
    /// such item in input order); so does, after that, the first item
    /// whose amount the table's domain has no room left for
    /// ([`RejectReason::AmountOutOfRange`]).
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
        let mut room = self.room();
        for &(_, _, amount) in items {
            if amount > room {
                return Err(Rejected::out_of_range(amount, room));
            }
            room -= amount;
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
        self.committed -= s.amount;
        self.apply_pair(s.start, s.end, -(s.amount as i64), -1);
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
        if !self.restore(id, new_amount) {
            let room = self.room() + slot.amount;
            return Err(Rejected::out_of_range(new_amount, room));
        }
        Ok(())
    }

    /// Set a slot's amount without admission control. This is the rollback
    /// primitive: restoring a previously admitted amount must not fail
    /// because capacity was reconfigured in between. Returns whether the
    /// slot existed and the table's domain has room for the amount
    /// ([`SlotTable::MAX_COMMITTED`]); nothing changes otherwise.
    pub fn restore(&mut self, id: SlotId, amount: u64) -> bool {
        let Some(slot) = self.slots.get_mut(&id.0) else {
            return false;
        };
        let Slot {
            start,
            end,
            amount: old,
            ..
        } = *slot;
        let others = self.committed - old;
        if amount > Self::MAX_COMMITTED - others {
            return false;
        }
        slot.amount = amount;
        self.committed = others + amount;
        let grow = amount as i64 - old as i64;
        self.apply_pair(start, end, grow, 0);
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
                self.apply(Edge {
                    key: s.end,
                    delta: 0,
                    refs: -2,
                });
                self.slots.remove(&tid);
                self.committed -= t.amount;
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
            let live: u64 = self.slots.values().map(|s| s.amount).sum();
            assert_eq!(self.committed, live, "live-amount total is stale");
            assert!(live <= Self::MAX_COMMITTED, "table outside its domain");
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

    #[test]
    fn amounts_beyond_the_domain_are_refused_and_nothing_wraps() {
        const MAX: u64 = SlotTable::MAX_COMMITTED;
        let out = |requested, room| Rejected {
            requested,
            available: room,
            reason: RejectReason::AmountOutOfRange,
        };
        let unchanged = |st: &SlotTable, len, boundaries, peak| {
            st.check_structure();
            let now = (st.len(), st.boundary_count(), st.max_peak());
            assert_eq!(now, (len, boundaries, peak));
        };
        let mut st = SlotTable::new(u64::MAX);
        // The over-admission this domain exists for: the pair used to go
        // into the tree as 2^65 - 2 and come back out `as u64`, a peak of
        // 2^64 - 2 under a capacity of 2^64 - 1 — admitted.
        let pair = [(t(0), t(10), u64::MAX), (t(0), t(10), u64::MAX)];
        assert_eq!(st.try_insert_batch(&pair), Err(out(u64::MAX, MAX)));
        // The item reported is the one the running total stops at.
        let pair = [(t(0), t(10), MAX - 5), (t(20), t(30), 6)];
        assert_eq!(st.try_insert_batch_tenant(&pair, 3), Err(out(6, 5)));
        // Singly, over overlapping and over disjoint intervals.
        for (start, end) in [(0, 10), (5, 15), (20, 30)] {
            let got = st.try_insert(t(start), t(end), u64::MAX);
            assert_eq!(got, Err(out(u64::MAX, MAX)));
        }
        assert_eq!(st.try_insert(t(0), t(10), MAX + 1), Err(out(MAX + 1, MAX)));
        unchanged(&st, 0, 0, 0);
        assert_eq!(st.next_id, 0, "a refusal consumes no slot id");
        assert_eq!(
            out(6, 5).to_string(),
            "reservation of 6 rejected: the table can account for 5 more"
        );

        // The edge: exactly MAX is admitted and read back exactly.
        let a = st.try_insert(t(0), t(10), MAX).unwrap();
        assert_eq!((st.load_at(t(5)), st.load_at(t(10))), (MAX, 0));
        assert_eq!(st.available(t(0), t(10)), u64::MAX - MAX);
        assert_eq!(st.max_overcommit(), 0);
        // One unit more is not, wherever it lies, by any entry point.
        assert_eq!(st.try_insert(t(5), t(30), 1), Err(out(1, 0)));
        assert_eq!(st.try_insert(t(20), t(30), 1), Err(out(1, 0)));
        assert_eq!(st.try_insert_batch(&[(t(20), t(30), 1)]), Err(out(1, 0)));
        assert_eq!(st.try_resize(a, MAX + 1), Err(out(MAX + 1, MAX)));
        assert_eq!(st.try_resize(a, u64::MAX), Err(out(u64::MAX, MAX)));
        assert!(!st.restore(a, MAX + 1) && !st.restore(a, u64::MAX));
        unchanged(&st, 1, 2, MAX);
        assert_eq!(st.amount_of(a), Some(MAX));

        // Room is what the other slots leave, for resize and restore too.
        st.try_resize(a, MAX - 1).unwrap();
        let b = st.try_insert(t(20), t(30), 1).unwrap();
        assert_eq!(st.try_resize(b, 2), Err(out(2, 1)));
        assert!(!st.restore(b, 2));
        unchanged(&st, 2, 4, MAX - 1);
        assert!(st.restore(a, MAX - 2) && st.restore(b, 2));
        assert_eq!((st.load_at(t(0)), st.load_at(t(20))), (MAX - 2, 2));
        // Folding two slots into one gives their second amount back.
        assert!(st.remove(a) && st.restore(b, MAX / 2));
        st.try_insert(t(30), t(40), MAX / 2).unwrap();
        assert_eq!(st.try_insert(t(50), t(60), 2), Err(out(2, 1)));
        assert_eq!(st.compact().len(), 1);
        st.try_insert(t(50), t(60), MAX / 2 + 1).unwrap();
        unchanged(&st, 2, 4, MAX / 2 + 1);

        // A capacity the amount does not fit is still the first answer.
        let mut small = SlotTable::new(100);
        let err = small.try_insert(t(0), t(10), u64::MAX).unwrap_err();
        assert_eq!(
            (err.reason, err.available),
            (RejectReason::OverCapacity, 100)
        );
        let id = small.try_insert(t(0), t(10), 60).unwrap();
        let err = small.try_resize(id, u64::MAX).unwrap_err();
        assert_eq!(
            (err.reason, err.available),
            (RejectReason::OverCapacity, 100)
        );
        unchanged(&small, 1, 2, 60);
    }

    /// Quarter seconds: the populations below sit on whole seconds, so
    /// every leaf has fresh instants between any two of its keys.
    fn q(quarters: u64) -> SimTime {
        SimTime::from_millis(250 * quarters)
    }

    /// Node reads made by `f`.
    fn visits<R>(f: impl FnOnce() -> R) -> (usize, R) {
        VISITS.with(|v| v.set(0));
        let r = f();
        (VISITS.with(|v| v.get()), r)
    }

    impl SlotTable {
        /// The nodes from the root to the leaf `key` lives in or would go
        /// to, and that leaf's length.
        fn path_to(&self, key: SimTime) -> (Vec<u32>, usize) {
            let mut path = vec![self.root];
            for _ in 0..self.height {
                let x = &self.inners.items[*path.last().unwrap() as usize];
                path.push(x.child[x.child_for(key)]);
            }
            let len = self.leaves.items[*path.last().unwrap() as usize].len;
            (path, len)
        }

        /// How many nodes the paths to two keys share, from the root down.
        fn shared(&self, a: SimTime, b: SimTime) -> usize {
            let (pa, pb) = (self.path_to(a).0, self.path_to(b).0);
            pa.iter().zip(&pb).take_while(|(x, y)| x == y).count()
        }
    }

    /// A table of `n` slots on whole seconds below `HORIZON / 4` (flat
    /// model in quarter seconds), capacity out of the way.
    const HORIZON: u64 = 800;
    fn populated(seed: u64, n: usize) -> (SlotTable, Flat) {
        let mut rng = mpichgq_sim::SimRng::new(seed);
        let mut st = SlotTable::new(1_000_000);
        let mut flat = Flat {
            cap: 1_000_000,
            ..Flat::default()
        };
        for _ in 0..n {
            let start = 4 * rng.below(HORIZON / 4 - 40);
            let (end, amount) = (start + 4 * rng.range(1, 40), rng.range(1, 50));
            let id = st.try_insert(q(start), q(end), amount).unwrap();
            flat.slots.push((id, start, end, amount, 0));
        }
        (st, flat)
    }

    /// Structure, and every answer the table gives against the flat
    /// model's: the load at each quarter second, the peak, and the
    /// headroom of intervals of every scale from every fifth instant.
    fn agree(st: &SlotTable, flat: &Flat) {
        st.check_structure();
        assert_eq!(st.len(), flat.slots.len());
        assert_eq!(st.boundary_count(), flat.boundaries());
        let loads: Vec<u64> = (0..=HORIZON).map(|at| flat.load_at(at)).collect();
        for (at, &load) in loads.iter().enumerate() {
            assert_eq!(st.load_at(q(at as u64)), load, "load at {at}");
        }
        assert_eq!(st.max_peak(), loads.iter().copied().max().unwrap());
        for start in (0..HORIZON).step_by(5) {
            for len in [0, 1, 3, 17, 90, HORIZON] {
                // Loads only change on quarter seconds.
                let peak = loads[start as usize..(start + len.max(1)).min(HORIZON + 1) as usize]
                    .iter()
                    .max()
                    .unwrap();
                assert_eq!(
                    st.available(q(start), q(start + len)),
                    flat.cap - peak,
                    "headroom of [{start}, {start} + {len})"
                );
            }
        }
    }

    /// The first `(start, end)` in quarter seconds, neither on a whole
    /// second (so both boundaries are new), that `want` accepts.
    fn fresh_interval(want: impl Fn(u64, u64) -> bool) -> (u64, u64) {
        let fresh = || (1..HORIZON).filter(|x| x % 4 != 0);
        fresh()
            .flat_map(|s| fresh().filter(move |&e| e > s).map(move |e| (s, e)))
            .find(|&(s, e)| want(s, e))
            .expect("the population offers no such interval")
    }

    #[test]
    fn a_slots_two_boundaries_move_in_one_descent_wherever_they_lie() {
        let (mut st, mut flat) = populated(0x51DE, 70);
        let h = st.height as usize;
        assert!(h >= 3, "the table was meant to be deep (height {h})");
        agree(&st, &flat);
        // Admit over `(s, e)`, which must take `nodes` node reads to
        // write, then resize, restore and free it again the same way.
        let cycle = |st: &mut SlotTable, flat: &mut Flat, (s, e): (u64, u64), nodes: usize| {
            let (query, headroom) = visits(|| st.available(q(s), q(e)));
            assert!(query <= 2 * (h + 1), "{query} reads for one query");
            assert_eq!(headroom, flat.cap - flat.peak_in(s, e));
            let (n, id) = visits(|| st.try_insert(q(s), q(e), 7).unwrap());
            assert_eq!(n - query, nodes, "reads for the write over [{s}, {e})");
            flat.slots.push((id, s, e, 7, 0));
            agree(st, flat);
            assert_eq!(visits(|| st.try_resize(id, 9).unwrap()).0, query + nodes);
            flat.slots.last_mut().unwrap().3 = 9;
            agree(st, flat);
            assert_eq!(visits(|| st.restore(id, 2)), (nodes, true));
            flat.slots.last_mut().unwrap().3 = 2;
            agree(st, flat);
            assert_eq!(visits(|| st.remove(id)), (nodes, true));
            flat.slots.pop();
            agree(st, flat);
        };
        // Both in one leaf that has room for two: one path.
        let one_leaf =
            fresh_interval(|s, e| st.shared(q(s), q(e)) == h + 1 && st.path_to(q(s)).1 + 2 <= B);
        cycle(&mut st, &mut flat, one_leaf, h + 1);
        // In two leaves of one parent; under different children of the
        // root; and every depth of parting in between.
        let room = |st: &SlotTable, x: u64| st.path_to(q(x)).1 < B;
        for together in (1..=h).rev() {
            let parted = fresh_interval(|s, e| {
                st.shared(q(s), q(e)) == together && room(&st, s) && room(&st, e)
            });
            cycle(
                &mut st,
                &mut flat,
                parted,
                together + 2 * (h + 1 - together),
            );
        }
    }

    #[test]
    fn a_write_that_splits_or_empties_a_leaf_builds_the_tree_two_updates_build() {
        let (mut st, mut flat) = populated(0xB0B, 70);
        let leaf_of = |st: &SlotTable, x: u64| *st.path_to(q(x)).0.last().unwrap();
        // Both boundaries into one full leaf, the end above its middle:
        // the start's split leaves the end to the new right sibling.
        let (s, e) = fresh_interval(|s, e| {
            let (path, len) = st.path_to(q(s));
            let l = &st.leaves.items[*path.last().unwrap() as usize];
            len == B && leaf_of(&st, e) == leaf_of(&st, s) && q(e) > l.key[B / 2]
        });
        let (leaves, id) = (st.leaves.items.len() - st.leaves.free.len(), st.next_id);
        flat.slots
            .push((st.try_insert(q(s), q(e), 11).unwrap(), s, e, 11, 0));
        assert_eq!(st.leaves.items.len() - st.leaves.free.len(), leaves + 1);
        assert_ne!(leaf_of(&st, s), leaf_of(&st, e));
        agree(&st, &flat);
        // A full end leaf under a start that fits: the start is written by
        // the pair descent, the end by its own.
        let (s, e) = fresh_interval(|s, e| st.path_to(q(s)).1 < B && st.path_to(q(e)).1 == B);
        flat.slots
            .push((st.try_insert(q(s), q(e), 13).unwrap(), s, e, 13, 0));
        agree(&st, &flat);
        assert_eq!(st.next_id, id + 2);

        // Drain until leaves hold single boundaries, then free slots whose
        // start is alone in its leaf while the end is not, and the reverse.
        let lone = |st: &SlotTable, flat: &Flat, x: u64| {
            let ends = flat.slots.iter().filter(|s| s.1 == x || s.2 == x).count();
            ends == 1 && st.path_to(q(x)).1 == 1
        };
        let mut emptied = [0, 0];
        let mut rng = mpichgq_sim::SimRng::new(7);
        while !flat.slots.is_empty() {
            let found = flat.slots.iter().position(|&(_, s, e, ..)| {
                lone(&st, &flat, s) != lone(&st, &flat, e) && leaf_of(&st, s) != leaf_of(&st, e)
            });
            let k = found.unwrap_or(rng.below(flat.slots.len() as u64) as usize);
            if found.is_some() {
                emptied[lone(&st, &flat, flat.slots[k].1) as usize] += 1;
            }
            let (id, ..) = flat.slots.swap_remove(k);
            let leaves = st.leaves.items.len() - st.leaves.free.len();
            assert!(st.remove(id));
            let now = st.leaves.items.len() - st.leaves.free.len();
            assert!(found.is_none() || now == leaves - 1, "one leaf goes");
            agree(&st, &flat);
        }
        assert!(
            emptied[0] >= 3 && emptied[1] >= 3,
            "leaves emptied by an end / a start alone: {emptied:?}"
        );
        assert!(st.root == NIL);
    }

    #[test]
    fn restore_moves_boundaries_other_slots_share() {
        let (mut st, mut flat) = populated(0xC0DE, 40);
        // Three slots on one interval, one ending where it starts and one
        // starting where it ends.
        let (s, e) = (400, 480);
        for (start, end, amount) in [
            (s, e, 5),
            (s, e, 6),
            (s, e, 7),
            (s - 40, s, 8),
            (e, e + 40, 9),
        ] {
            let id = st.try_insert(q(start), q(end), amount).unwrap();
            flat.slots.push((id, start, end, amount, 0));
        }
        let boundaries = st.boundary_count();
        for (k, amount) in [(1, 60), (2, 0), (1, 1), (0, 5), (3, 80), (4, 0)] {
            let at = flat.slots.len() - 5 + k;
            assert!(st.restore(flat.slots[at].0, amount));
            flat.slots[at].3 = amount;
            agree(&st, &flat);
            assert_eq!(st.boundary_count(), boundaries);
        }
    }

    #[test]
    fn an_admission_is_one_read_descent_and_one_write_descent() {
        // Three levels, as a production table has at 1k to 30k slots.
        let mut st = SlotTable::new(1_000_000);
        let mut next = 0;
        while st.height < 2 {
            st.try_insert(q(4 * next), q(4 * next + 12), 3).unwrap();
            next += 1;
        }
        let h = st.height as usize;
        let mut shapes = [0; 4];
        for s in (1..4 * next).filter(|x| x % 4 != 0) {
            for e in (s + 1..4 * next + 12).filter(|x| x % 4 != 0) {
                let shared = st.shared(q(s), q(e));
                let fits = match shared == h + 1 {
                    true => st.path_to(q(s)).1 + 2 <= B,
                    false => st.path_to(q(s)).1 < B && st.path_to(q(e)).1 < B,
                };
                if !fits {
                    continue;
                }
                shapes[shared] += 1;
                let (query, _) = visits(|| st.available(q(s), q(e)));
                let (both, id) = visits(|| st.try_insert(q(s), q(e), 1).unwrap());
                let (free, _) = visits(|| st.remove(id));
                // Each shared node once, each of the others once.
                let descent = shared + 2 * (h + 1 - shared);
                assert_eq!((query, both - query, free), (descent, descent, descent));
                assert!(descent <= 2 * (h + 1));
                // The instant and the point query: one path.
                assert_eq!(visits(|| st.available(q(s), q(s))).0, h + 1);
                assert_eq!(visits(|| st.load_at(q(e))).0, h + 1);
            }
        }
        assert!(
            shapes[1..].iter().all(|&n| n > 0),
            "paths parting at every level: {shapes:?}"
        );
    }
}
