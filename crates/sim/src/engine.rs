//! The discrete-event engine: a time-ordered event queue.
//!
//! The engine is deliberately minimal and generic over the event type `E`;
//! the world model (nodes, links, stacks) lives in higher crates and drives
//! the engine with a pop-dispatch loop. Ties in time are broken by insertion
//! order (a monotonic sequence number), which makes runs deterministic.
//!
//! The queue is a calendar queue in the style of Brown (CACM 1988) — a
//! power-of-two ring of time buckets with amortized O(1) enqueue/dequeue,
//! the structure ns-2 adopted for exactly this packet-event workload.
//! Bucket count follows occupancy; bucket width follows the two costs it
//! trades, measured over a window of dequeues (scan steps per dequeue,
//! entries shifted per enqueue). The unit tests hold it to a `BinaryHeap`
//! reference — the O(log n) structure with the same contract (earliest
//! `(time, seq)` pops first) — which exists only under `cfg(test)`.
//!
//! There is no cancellation. What keeps the pending set small instead is
//! **reserved-key deferred scheduling**: an event's `(at, seq)` key is
//! allocated eagerly, where it becomes known ([`Engine::reserve_seq`]), but
//! the entry is inserted lazily ([`Engine::schedule_keyed`]) — only once
//! it can matter, or never. An owner that holds many future events of
//! which only the earliest can fire next (a wire's in-flight packets, a
//! timer that is re-armed on every ACK) keeps them in its own storage and
//! has one entry in the queue; [`Engine::cursor`] tells it whether a key
//! it never inserted has been passed. The invariant: sequence numbers are
//! consumed exactly as eager scheduling would consume them and every
//! inserted entry carries the key it would have had, so the pop order of
//! the events that do something is unchanged — only the no-ops are gone.

use crate::time::SimTime;
use std::collections::VecDeque;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

/// Cached location of the minimum pending entry in a [`CalendarQueue`],
/// kept eagerly up to date so `peek_time` is O(1) and non-mutating.
#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    seq: u64,
    bucket: usize,
}

/// Calendar queue: a ring of `nbuckets` (power of two) buckets, each
/// covering a `2^wlog`-nanosecond window of the time axis; an event at `t`
/// lives in bucket `(t >> wlog) & (nbuckets - 1)`. Entries within a bucket
/// are kept sorted ascending by `(at, seq)`, so the bucket front is the
/// bucket minimum, and — because equal timestamps always map to the same
/// bucket — FIFO tie order is preserved structurally.
///
/// A two-tier variant (far-future events parked in an overflow heap) was
/// prototyped and benchmarked during development; it lost to this simple
/// single-tier design on every engine workload measured — the migration
/// double-handling and geometry feedback loops cost more than the sparse
/// mid-bucket inserts they avoided — so the simple design stays.
struct CalendarQueue<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    /// log2 of the bucket width in nanoseconds.
    wlog: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    len: usize,
    head: Option<Head>,
    /// The tuning window (see [`CalendarQueue::retune`]): dequeues since it
    /// opened, the bucket windows their scans examined, and the entries
    /// that mid-bucket inserts had to shift.
    win_pops: u64,
    win_scan: u64,
    win_shift: u64,
    stats: CalendarStats,
}

/// Lifetime operation counters of an [`Engine`]'s calendar queue, read
/// out as the `engine.calendar.*` metrics; diagnostics, not physics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalendarStats {
    /// Full re-bucketing passes.
    pub rebuilds: u64,
    /// Pops that fell through the one-year scan to a direct search.
    pub fallbacks: u64,
    /// Total bucket windows examined across all pop scans.
    pub scan_steps: u64,
    /// Pushes that could not append and had to binary-search the bucket.
    pub slow_pushes: u64,
}

const MIN_BUCKETS: usize = 32;
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^10 ns ≈ 1 µs, a typical packet-event gap.
const INIT_WLOG: u32 = 10;
const MAX_WLOG: u32 = 44; // ~4.8 hours per bucket; beyond this, width stops helping.
/// Shortest tuning window, in dequeues; a ring above a quarter of this
/// gets four per bucket, so re-bucketing stays amortized O(1).
const MIN_WINDOW: u64 = 1024;

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            wlog: INIT_WLOG,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            head: None,
            win_pops: 0,
            win_scan: 0,
            win_shift: 0,
            stats: CalendarStats::default(),
        }
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.as_nanos() >> self.wlog) & self.mask) as usize
    }

    fn push(&mut self, e: Entry<E>) {
        let idx = self.bucket_of(e.at);
        if self.head.is_none_or(|h| (e.at, e.seq) < (h.at, h.seq)) {
            self.head = Some(Head {
                at: e.at,
                seq: e.seq,
                bucket: idx,
            });
        }
        let b = &mut self.buckets[idx];
        // Fast path: appending in sorted position (monotone seq means equal
        // timestamps always append, preserving FIFO ties).
        if b.back()
            .is_none_or(|last| (last.at, last.seq) < (e.at, e.seq))
        {
            b.push_back(e);
        } else {
            self.stats.slow_pushes += 1;
            let pos = b.partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
            self.win_shift += pos.min(b.len() - pos) as u64;
            b.insert(pos, e);
        }
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.wlog);
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let h = self.head?;
        let e = self.buckets[h.bucket]
            .pop_front()
            .expect("head points at empty bucket");
        debug_assert!(e.at == h.at && e.seq == h.seq);
        self.len -= 1;
        self.head = self.find_next(e.at);
        self.win_pops += 1;
        let nb = self.buckets.len();
        if self.win_pops >= MIN_WINDOW.max(4 * nb as u64) || self.win_scan >= 64 * nb as u64 {
            self.retune();
        } else if self.len < nb / 8 && nb > MIN_BUCKETS {
            self.rebuild(self.wlog);
        }
        Some(e)
    }

    /// Close the tuning window and re-bucket if the width no longer fits.
    ///
    /// The width trades two costs, and the window measures both. Buckets
    /// too narrow make a dequeue scan several bucket windows for the next
    /// entry — in the limit a whole empty year, then the direct search.
    /// Buckets too wide make an enqueue shift many entries to keep its
    /// bucket sorted. The width moves only when one cost is out of bounds
    /// (a quarter of a scan step per dequeue beyond the first; 32 entries
    /// shifted per dequeue) and the other is not, by as many octaves as
    /// the excess calls for — so where it settles is a property
    /// of the workload, not of the instant it was sized at, and holds for
    /// a population too shallow ever to resize the ring (DESIGN.md §8). A
    /// few dozen entries cannot crowd a bucket: their ring widens into, in
    /// effect, one short sorted list, the fastest structure at that size.
    fn retune(&mut self) {
        let narrow = 4 * self.win_scan.saturating_sub(self.win_pops) / self.win_pops;
        let wide = self.win_shift / self.win_pops / 16;
        self.win_pops = 0;
        self.win_scan = 0;
        self.win_shift = 0;
        let wlog = if narrow >= 1 && wide < 2 {
            (self.wlog + narrow.ilog2() + 1).min(MAX_WLOG)
        } else if wide >= 2 && narrow < 1 {
            self.wlog.saturating_sub(wide.ilog2())
        } else {
            self.wlog
        };
        if wlog != self.wlog {
            self.rebuild(wlog);
        }
    }

    /// Locate the minimum remaining entry, starting the scan at the bucket
    /// window containing `from` (the timestamp just dequeued; all remaining
    /// entries are ≥ `from`). Scans at most one full ring revolution of
    /// windows in increasing time order, then falls back to a direct
    /// min-of-fronts search for far-future events.
    fn find_next(&mut self, from: SimTime) -> Option<Head> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let virt = from.as_nanos() >> self.wlog;
        for k in 0..nb {
            // Windows are scanned in increasing time order, so the first
            // bucket front that falls inside its window is the global min.
            self.stats.scan_steps += 1;
            self.win_scan += 1;
            let Some(v) = virt.checked_add(k) else { break };
            let i = (v & self.mask) as usize;
            let top: u128 = ((v as u128) + 1) << self.wlog;
            if let Some(f) = self.buckets[i].front() {
                if (f.at.as_nanos() as u128) < top {
                    return Some(Head {
                        at: f.at,
                        seq: f.seq,
                        bucket: i,
                    });
                }
            }
        }
        // Nothing within one ring revolution: direct search. Frequent hits
        // here mean the bucket width is too small for the event spacing;
        // the year just scanned counts against it in the tuning window.
        self.stats.fallbacks += 1;
        let mut best: Option<Head> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(f) = b.front() {
                if best.is_none_or(|h| (f.at, f.seq) < (h.at, h.seq)) {
                    best = Some(Head {
                        at: f.at,
                        seq: f.seq,
                        bucket: i,
                    });
                }
            }
        }
        best
    }

    /// Re-bucket every entry into `2^wlog`-ns buckets, their count
    /// proportional to occupancy.
    fn rebuild(&mut self, wlog: u32) {
        self.stats.rebuilds += 1;
        let nbuckets = self
            .len
            .max(MIN_BUCKETS)
            .next_power_of_two()
            .min(MAX_BUCKETS);
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.extend(b.drain(..));
        }
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.wlog = wlog;
        self.head = None;
        let len = entries.len();
        for e in entries {
            let idx = self.bucket_of(e.at);
            if self.head.is_none_or(|h| (e.at, e.seq) < (h.at, h.seq)) {
                self.head = Some(Head {
                    at: e.at,
                    seq: e.seq,
                    bucket: idx,
                });
            }
            let b = &mut self.buckets[idx];
            if b.back()
                .is_none_or(|last| (last.at, last.seq) < (e.at, e.seq))
            {
                b.push_back(e);
            } else {
                let pos = b.partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
                b.insert(pos, e);
            }
        }
        self.len = len;
    }
}

/// A deterministic discrete-event queue.
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// Sequence number of the event being dispatched; `u64::MAX` while
    /// none is (see [`Engine::cursor`]).
    cur_seq: u64,
    queue: CalendarQueue<E>,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// An empty engine with its clock at zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            cur_seq: u64::MAX,
            queue: CalendarQueue::new(),
            processed: 0,
        }
    }

    /// The calendar queue's operation counters. Diagnostic use only.
    #[doc(hidden)]
    pub fn calendar_stats(&self) -> CalendarStats {
        self.queue.stats
    }

    /// Current simulation time: the timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `ev` at absolute time `at`.
    ///
    /// Panics if `at` is in the past: the simulation never travels backwards.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let seq = self.reserve_seq();
        self.queue.push(Entry { at, seq, ev });
    }

    /// Allocate the sequence number [`Engine::schedule`] would have used,
    /// without inserting anything. Pair with [`Engine::schedule_keyed`].
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Insert `ev` under a key `(at, seq)` whose `seq` came from
    /// [`Engine::reserve_seq`]. The event pops exactly where a
    /// `schedule(at, ev)` made at reservation time would have popped.
    ///
    /// Panics if the key is not after [`Engine::cursor`] while an event is
    /// being dispatched, or if `at` is in the past.
    pub fn schedule_keyed(&mut self, at: SimTime, seq: u64, ev: E) {
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        assert!(
            at >= self.now && (self.cur_seq == u64::MAX || (at, seq) > (self.now, self.cur_seq)),
            "keyed insert behind the cursor: key=({at}, {seq}) cursor=({}, {})",
            self.now,
            self.cur_seq
        );
        self.queue.push(Entry { at, seq, ev });
    }

    /// The `(time, seq)` key of the event being dispatched. A reserved key
    /// below the cursor has been passed: had it been inserted, it would
    /// already have fired. While no event is being dispatched — before the
    /// first pop, and once `pop`/`pop_until` has returned `None`, i.e.
    /// everything due has fired — `seq` reads `u64::MAX`, so every key at
    /// or before `now()` compares as passed. (A key reserved *at* `now()`
    /// outside dispatch is the one case that convention misjudges; users
    /// comparing against the cursor reserve strictly-future keys.)
    #[inline]
    pub fn cursor(&self) -> (SimTime, u64) {
        (self.now, self.cur_seq)
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.head.map(|h| h.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Some(e) = self.queue.pop() else {
            self.cur_seq = u64::MAX;
            return None;
        };
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.cur_seq = e.seq;
        self.processed += 1;
        Some((e.at, e.ev))
    }

    /// Pop the next event only if it is due at or before `limit`.
    ///
    /// If the next event is later than `limit`, the clock advances to `limit`
    /// and `None` is returned (so that `now()` reflects the horizon reached).
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => {
                // A horizon behind the clock leaves same-instant events
                // pending, so the cursor stays on the last dispatched key.
                if self.now <= limit {
                    self.now = limit;
                    self.cur_seq = u64::MAX;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDelta;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    // The reference queue is a `BinaryHeap` of the same entries. It is a
    // max-heap, so the order is inverted: the earliest `(at, seq)` pops first.
    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// What [`Engine`] asks of its queue, so one driver runs the calendar
    /// queue and the heap reference alike.
    trait Pending {
        fn put(&mut self, e: Entry<u64>);
        fn take(&mut self) -> Option<Entry<u64>>;
        fn front(&self) -> Option<(SimTime, u64)>;
        fn count(&self) -> usize;
    }

    impl Pending for CalendarQueue<u64> {
        fn put(&mut self, e: Entry<u64>) {
            self.push(e)
        }
        fn take(&mut self) -> Option<Entry<u64>> {
            self.pop()
        }
        fn front(&self) -> Option<(SimTime, u64)> {
            self.head.map(|h| (h.at, h.seq))
        }
        fn count(&self) -> usize {
            self.len
        }
    }

    impl Pending for BinaryHeap<Entry<u64>> {
        fn put(&mut self, e: Entry<u64>) {
            self.push(e)
        }
        fn take(&mut self) -> Option<Entry<u64>> {
            self.pop()
        }
        fn front(&self) -> Option<(SimTime, u64)> {
            self.peek().map(|e| (e.at, e.seq))
        }
        fn count(&self) -> usize {
            self.len()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Push a burst of entries `delta` ns after the clock. `burst` > 1
        /// exercises FIFO tie-breaking at one timestamp.
        Push { delta: u64, burst: u8 },
        /// Pop one entry.
        Pop,
        /// Pop with a horizon `delta` ns past the clock.
        PopUntil { delta: u64 },
        /// Reserve a key `delta` ns after the clock and hold it.
        Reserve { delta: u64 },
        /// Insert the oldest held key if the cursor has not passed it,
        /// otherwise let it lapse (a key that never becomes an entry).
        InsertHeld,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..2_000, 1u8..6).prop_map(|(delta, burst)| Op::Push { delta, burst }),
            // Occasional far-future timers stress the calendar's fallback scan.
            (1_000_000_000u64..30_000_000_000, 1u8..2)
                .prop_map(|(delta, burst)| Op::Push { delta, burst }),
            (0u64..1).prop_map(|_| Op::Pop),
            (0u64..3_000).prop_map(|delta| Op::PopUntil { delta }),
            (1u64..2_000).prop_map(|delta| Op::Reserve { delta }),
            (0u64..1).prop_map(|_| Op::InsertHeld),
        ]
    }

    /// One queue driven the way [`Engine`] drives its own: sequence numbers
    /// in order, a clock that only moves forward, pushes at or after the
    /// last popped time, and reserved keys inserted only past the cursor.
    struct Driver<Q> {
        q: Q,
        now: SimTime,
        /// Sequence number of the last popped entry; `u64::MAX` once a pop
        /// or a horizon has found nothing due.
        cursor: u64,
        seq: u64,
        held: VecDeque<(SimTime, u64)>,
    }

    impl<Q: Pending> Driver<Q> {
        fn new(q: Q) -> Self {
            Driver {
                q,
                now: SimTime::ZERO,
                cursor: u64::MAX,
                seq: 0,
                held: VecDeque::new(),
            }
        }

        fn next_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        fn after(&self, delta: u64) -> SimTime {
            SimTime::from_nanos(self.now.as_nanos().saturating_add(delta))
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let Some(e) = self.q.take() else {
                self.cursor = u64::MAX;
                return None;
            };
            assert!(e.at >= self.now, "time went backwards");
            (self.now, self.cursor) = (e.at, e.seq);
            Some((e.at, e.ev))
        }

        /// Apply `op`, returning everything it made observable.
        fn step(&mut self, op: &Op) -> String {
            match *op {
                Op::Push { delta, burst } => {
                    let at = self.after(delta);
                    for _ in 0..burst {
                        let seq = self.next_seq();
                        self.q.put(Entry { at, seq, ev: seq });
                    }
                    format!("push len={}", self.q.count())
                }
                Op::Pop => format!("pop {:?} front={:?}", self.pop(), self.q.front()),
                Op::PopUntil { delta } => {
                    let limit = self.after(delta);
                    let got = match self.q.front() {
                        Some((t, _)) if t <= limit => self.pop(),
                        _ => {
                            (self.now, self.cursor) = (limit, u64::MAX);
                            None
                        }
                    };
                    format!(
                        "pop_until {got:?} now={} front={:?}",
                        self.now,
                        self.q.front()
                    )
                }
                Op::Reserve { delta } => {
                    let key = (self.after(delta), self.next_seq());
                    self.held.push_back(key);
                    format!("reserve {:?}", self.held.back())
                }
                Op::InsertHeld => {
                    let Some((at, seq)) = self.held.pop_front() else {
                        return "insert none".into();
                    };
                    let live = (at, seq) > (self.now, self.cursor);
                    if live {
                        self.q.put(Entry { at, seq, ev: seq });
                    }
                    format!("insert {at} {seq} live={live} len={}", self.q.count())
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The calendar queue and the heap are observably identical: any
        /// interleaving of pushes, pops and horizons — same-timestamp
        /// bursts, far-future timers, horizons that land between entries,
        /// reserved keys inserted late or never — yields the same pops,
        /// clocks and lengths.
        #[test]
        fn calendar_matches_heap_observably(
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let mut heap = Driver::new(BinaryHeap::new());
            let mut cal = Driver::new(CalendarQueue::new());
            for (i, op) in ops.iter().enumerate() {
                let (oh, oc) = (heap.step(op), cal.step(op));
                prop_assert_eq!(&oh, &oc, "divergence at op {}: {:?}", i, op);
            }
            // Drain both to the end: full pop sequences must match too.
            loop {
                let h = heap.pop();
                prop_assert_eq!(h, cal.pop());
                if h.is_none() {
                    break;
                }
            }
        }
    }

    /// A dense deterministic workload with adversarial structure:
    /// scattered timestamps with collisions, and a resize-forcing ramp.
    #[test]
    fn calendar_matches_heap_on_dense_ramp() {
        let mut heap = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        for i in 0..50_000u64 {
            // Multiplicative-hash timestamps: scattered, with collisions.
            let at = SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % 1_000_000);
            heap.push(Entry { at, seq: i, ev: i });
            cal.push(Entry { at, seq: i, ev: i });
        }
        let mut n = 0;
        while let Some(h) = heap.pop() {
            let c = cal.pop().expect("the calendar ran dry before the heap");
            assert_eq!((h.at, h.seq, h.ev), (c.at, c.seq, c.ev));
            n += 1;
        }
        assert!(cal.pop().is_none());
        assert_eq!(n, 50_000);
    }

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(3), 3);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        let t = SimTime::from_millis(5);
        for v in 0..10 {
            e.schedule(t, v);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_limit_and_advances_clock() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(10), 10);
        assert_eq!(e.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(
            e.pop_until(SimTime::from_secs(10)),
            Some((SimTime::from_secs(10), 10))
        );
    }

    #[test]
    fn pop_until_on_empty_advances_to_limit() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.pop_until(SimTime::from_secs(7)), None);
        assert_eq!(e.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(2), 1);
        e.pop();
        e.schedule(SimTime::from_secs(1), 2);
    }

    #[test]
    fn keyed_insert_pops_at_its_reserved_position() {
        let mut e = Engine::new();
        let t = SimTime::from_millis(5);
        e.schedule(t, 0);
        let held = e.reserve_seq();
        e.schedule(t, 2);
        // Inserted last, pops second: the key decides, not the insert.
        e.schedule_keyed(t, held, 1);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn cursor_is_the_dispatched_key_and_reads_max_when_idle() {
        let mut e = Engine::new();
        assert_eq!(e.cursor(), (SimTime::ZERO, u64::MAX));
        let t = SimTime::from_secs(1);
        e.schedule(t, 0);
        e.schedule(t, 1);
        e.pop();
        assert_eq!(e.cursor(), (t, 0));
        // A horizon behind the clock fires nothing and leaves the
        // same-instant event pending: the cursor must not jump past it.
        assert_eq!(e.pop_until(SimTime::ZERO), None);
        assert_eq!(e.cursor(), (t, 0));
        e.pop();
        assert_eq!(e.cursor(), (t, 1));
        assert_eq!(e.pop_until(SimTime::from_secs(2)), None);
        assert_eq!(e.cursor(), (SimTime::from_secs(2), u64::MAX));
        assert_eq!(e.pop(), None);
        assert_eq!(e.cursor(), (SimTime::from_secs(2), u64::MAX));
    }

    #[test]
    #[should_panic(expected = "behind the cursor")]
    fn keyed_insert_behind_the_cursor_panics() {
        let mut e: Engine<u32> = Engine::new();
        let t = SimTime::from_secs(1);
        let early = e.reserve_seq();
        e.schedule(t, 0);
        e.pop();
        e.schedule_keyed(t, early, 1);
    }

    #[test]
    fn calendar_handles_far_future_and_resize() {
        let mut e: Engine<u64> = Engine::new();
        // Dense near-term burst (forces growth), one far-future timer
        // (forces the direct-search fallback), and interleaved pops.
        for i in 0..10_000u64 {
            e.schedule(SimTime::from_nanos(i * 3), i);
        }
        e.schedule(SimTime::from_secs(3_600), u64::MAX);
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, v)) = e.pop() {
            assert!(t >= last.0);
            last = (t, v);
            n += 1;
        }
        assert_eq!(n, 10_001);
        assert_eq!(last, (SimTime::from_secs(3_600), u64::MAX));
    }

    /// A population too shallow to ever resize the ring must still get its
    /// bucket width fitted: 16 events hopping 20 µs at a time never leave
    /// a year of 32 × 1 µs empty (so never fall back), yet every pop scans
    /// through the gap until the tuning window widens the buckets.
    #[test]
    fn calendar_fits_its_width_to_a_shallow_population() {
        let mut e: Engine<u64> = Engine::new();
        for i in 0..16u64 {
            e.schedule(SimTime::from_nanos(1_250 * i), i);
        }
        let hop = |e: &mut Engine<u64>, pops: u64| {
            let before = e.calendar_stats().scan_steps;
            for _ in 0..pops {
                let (t, v) = e.pop().unwrap();
                e.schedule(t + SimDelta::from_nanos(20_000 + 7 * v), v);
            }
            e.calendar_stats().scan_steps - before
        };
        assert!(
            hop(&mut e, 1_000) > 1_500,
            "the initial width should not fit"
        );
        hop(&mut e, 4_000);
        assert!(hop(&mut e, 4_000) <= 5_000, "more than 1.25 steps per pop");
        assert_eq!(e.len(), 16);
    }

    /// One event in flight: every pop empties the queue and scans nothing,
    /// so a window closes with fewer scan steps than pops.
    #[test]
    fn calendar_tuning_window_survives_an_emptying_queue() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::ZERO, 0);
        for _ in 0..3 * MIN_WINDOW {
            let (t, v) = e.pop().unwrap();
            e.schedule(t + SimDelta::from_nanos(5), v);
        }
        assert_eq!(e.calendar_stats().rebuilds, 0);
    }

    #[test]
    fn calendar_handles_max_timestamp() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::MAX, 1);
        e.schedule(SimTime::ZERO, 0);
        assert_eq!(e.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(e.pop(), Some((SimTime::MAX, 1)));
        assert_eq!(e.pop(), None);
    }
}
