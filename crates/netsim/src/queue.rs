//! Router output queues: per-interface queue disciplines.
//!
//! "Priority Queuing is used on the egress port of edge routers ... Priority
//! queueing ensures that all packets associated with reservations are sent
//! before any other packets. When there are no packets in the priority
//! queue, other packets are allowed to use the entire available bandwidth."
//! (§5.1)
//!
//! The paper's 2000-era configuration — strict-priority EF over drop-tail
//! best-effort — remains the default ([`QueueCfg::priority_default`]), and is
//! bit-identical to the pre-trait implementation. On top of it this module
//! adds the composable discipline space from the DiffServ follow-on work:
//!
//! * **schedulers** ([`SchedKind`]): strict priority, weighted fair queuing
//!   (start-time/finish-tag virtual clock, SCFQ-style), and deficit round
//!   robin (per-class quantum = weight × 1500 B);
//! * **droppers** ([`DropperCfg`]): drop-tail, RED (EWMA of the class
//!   backlog against min/max thresholds), and WRED (one RED curve per AF
//!   drop precedence sharing the class's EWMA);
//! * a third traffic class, **Assured Forwarding** ([`Dscp::Af`]), carrying
//!   three drop precedences between EF and best-effort.
//!
//! [`Queue`], the value the network core holds per interface, is an enum
//! over the three families of [`QueueCfg`]: the drop-tail and
//! strict-priority bodies compile into the transmit loop, the scheduler ×
//! dropper engine stays out of line (DESIGN.md §15). RED's
//! probabilistic drops draw from a per-queue [`SimRng`] seeded from the
//! topology seed and the channel index ([`Queue::with_seed`]), so
//! disciplines are shard-local state and parallel runs stay bit-identical
//! at any thread count.

use crate::packet::{Dscp, Packet};
use mpichgq_sim::SimRng;
use std::collections::VecDeque;

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    Queued,
    /// Dropped because the target queue was full (tail drop).
    DroppedFull,
    /// Dropped early by RED/WRED before the queue filled. The network core
    /// folds these into the same loss ledger as tail drops (conservation is
    /// unchanged) but traces them with a distinct label.
    DroppedEarly,
}

/// Counters kept by every queue, split by traffic class.
///
/// `enq_*`/`drop_*` count successful enqueues and tail drops; `early_*`
/// count RED/WRED early drops (disjoint from `drop_*`). `early_af` is
/// further split by AF drop precedence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub enq_be: u64,
    pub enq_ef: u64,
    pub enq_af: u64,
    pub drop_be: u64,
    pub drop_ef: u64,
    pub drop_af: u64,
    pub dequeued: u64,
    pub bytes_dequeued: u64,
    /// High-water marks of the per-class backlogs, in bytes. A drop-tail
    /// queue is single-class; its mark is reported as best-effort.
    pub hw_be_bytes: u64,
    pub hw_ef_bytes: u64,
    pub hw_af_bytes: u64,
    /// Strict-priority violations: a best-effort or AF packet was dequeued
    /// while an EF packet was waiting under a strict-priority scheduler.
    /// Structurally impossible with the current `pop` ordering — the
    /// counter exists so the qcheck invariant battery can convict any
    /// future regression of the EF-first guarantee. WFQ/DRR interleave
    /// classes by design and never count here.
    pub prio_inversions: u64,
    /// RED/WRED early drops by class (AF split by drop precedence).
    pub early_be: u64,
    pub early_ef: u64,
    pub early_af: [u64; 3],
    /// Scheduler self-audit violations: WFQ virtual time moved backwards
    /// or the DRR rotation guard overflowed. Structurally impossible by
    /// construction (see DESIGN.md §15); any nonzero value is a bug.
    pub sched_violations: u64,
}

impl QueueStats {
    /// Total early (RED/WRED) drops across classes and precedences.
    #[inline]
    pub fn early_total(&self) -> u64 {
        self.early_be + self.early_ef + self.early_af.iter().sum::<u64>()
    }
}

/// Class indices used by the generic scheduler: EF=0, AF=1, BE=2.
const EF: usize = 0;
const AF: usize = 1;
const BE: usize = 2;

#[inline]
fn class_of(dscp: Dscp) -> usize {
    match dscp {
        Dscp::Ef => EF,
        Dscp::Af(_) => AF,
        Dscp::BestEffort => BE,
    }
}

#[inline]
fn prec_of(dscp: Dscp) -> usize {
    match dscp {
        Dscp::Af(p) => p.index(),
        _ => 0,
    }
}

/// A byte-capacity-bounded FIFO.
#[derive(Debug)]
struct Fifo {
    q: VecDeque<Packet>,
    cap_bytes: u64,
    cur_bytes: u64,
}

impl Fifo {
    fn new(cap_bytes: u64) -> Self {
        Fifo {
            q: VecDeque::new(),
            cap_bytes,
            cur_bytes: 0,
        }
    }
    /// Admit `pkt` if it fits; a packet that does not is dropped here.
    fn try_push(&mut self, pkt: Packet) -> bool {
        let len = pkt.ip_len() as u64;
        if self.cur_bytes + len > self.cap_bytes {
            return false;
        }
        self.cur_bytes += len;
        self.q.push_back(pkt);
        true
    }
    // The packet stays in its `Option` on the way out: unwrapping it and
    // wrapping it again copies it twice where callers inline this.
    fn pop(&mut self) -> Option<Packet> {
        let p = self.q.pop_front();
        if let Some(p) = &p {
            self.cur_bytes -= p.ip_len() as u64;
        }
        p
    }
}

/// Random Early Detection parameters for one class (or one AF drop
/// precedence under WRED). All arithmetic is integer/fixed-point so drop
/// decisions are bit-identical across platforms.
///
/// The average queue depth is a packet-clocked EWMA of the class backlog in
/// bytes: `avg += (cur - avg) >> ewma_shift` in 16-bit fixed point, updated
/// on every enqueue attempt. Below `min_bytes` nothing is dropped; above
/// `max_bytes` everything is dropped; in between the drop probability ramps
/// linearly from 0 to `max_p_permille`/1000.
///
/// ```
/// use mpichgq_netsim::RedCfg;
/// let red = RedCfg::new(30_000, 90_000).max_p_permille(200).ewma_shift(9);
/// assert_eq!(red.min_bytes, 30_000);
/// assert_eq!(red.max_p_permille, 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedCfg {
    /// No early drops while the average backlog is below this.
    pub min_bytes: u64,
    /// Every arrival is dropped while the average backlog is at or above
    /// this.
    pub max_bytes: u64,
    /// Drop probability (in 1/1000) as the average reaches `max_bytes`.
    pub max_p_permille: u32,
    /// EWMA weight exponent: `w_q = 2^-ewma_shift` (RFC 2309 suggests 9).
    pub ewma_shift: u32,
}

impl RedCfg {
    /// A RED curve between `min_bytes` and `max_bytes` with the classic
    /// defaults: max drop probability 10%, EWMA weight 2⁻⁹.
    pub fn new(min_bytes: u64, max_bytes: u64) -> RedCfg {
        RedCfg {
            min_bytes,
            max_bytes,
            max_p_permille: 100,
            ewma_shift: 9,
        }
    }
    pub fn max_p_permille(mut self, p: u32) -> RedCfg {
        self.max_p_permille = p.min(1000);
        self
    }
    pub fn ewma_shift(mut self, shift: u32) -> RedCfg {
        self.ewma_shift = shift.min(16);
        self
    }
    /// A WRED ramp over the three AF drop precedences: low precedence keeps
    /// the full `[min, max]` band, higher precedences start dropping at
    /// 2/3 and 1/3 of `min_bytes` with 2× and 4× the drop probability —
    /// i.e. out-of-profile (remarked) packets go first under congestion.
    ///
    /// ```
    /// use mpichgq_netsim::RedCfg;
    /// let ramp = RedCfg::wred_ramp(30_000, 90_000);
    /// assert!(ramp[2].min_bytes < ramp[0].min_bytes);
    /// assert!(ramp[2].max_p_permille > ramp[0].max_p_permille);
    /// ```
    pub fn wred_ramp(min_bytes: u64, max_bytes: u64) -> [RedCfg; 3] {
        let base = RedCfg::new(min_bytes, max_bytes);
        [
            base,
            RedCfg::new(min_bytes * 2 / 3, max_bytes).max_p_permille(base.max_p_permille * 2),
            RedCfg::new(min_bytes / 3, max_bytes).max_p_permille(base.max_p_permille * 4),
        ]
    }
}

/// Drop policy applied to one class's queue before packets are admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropperCfg {
    /// Admit until the byte capacity is hit, then tail-drop.
    DropTail,
    /// One RED curve for every packet in the class.
    Red(RedCfg),
    /// One RED curve per AF drop precedence (index =
    /// [`AfPrec::index`](crate::packet::AfPrec::index));
    /// non-AF packets use entry 0. The EWMA parameters are taken from
    /// entry 0 so all precedences share one average over the single queue.
    Wred([RedCfg; 3]),
}

/// Per-class configuration: byte capacity, scheduling weight, and dropper.
///
/// ```
/// use mpichgq_netsim::{ClassCfg, RedCfg};
/// let af = ClassCfg::new(150_000)
///     .weight(3)
///     .wred(RedCfg::wred_ramp(30_000, 120_000));
/// assert_eq!(af.weight, 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClassCfg {
    pub cap_bytes: u64,
    /// Relative service share under WFQ/DRR (ignored by strict priority).
    pub weight: u32,
    pub dropper: DropperCfg,
}

impl ClassCfg {
    pub fn new(cap_bytes: u64) -> ClassCfg {
        ClassCfg {
            cap_bytes,
            weight: 1,
            dropper: DropperCfg::DropTail,
        }
    }
    pub fn weight(mut self, w: u32) -> ClassCfg {
        self.weight = w.max(1);
        self
    }
    pub fn red(mut self, red: RedCfg) -> ClassCfg {
        self.dropper = DropperCfg::Red(red);
        self
    }
    pub fn wred(mut self, curves: [RedCfg; 3]) -> ClassCfg {
        self.dropper = DropperCfg::Wred(curves);
        self
    }
}

/// Which scheduler serves the three classes of a [`SchedCfg`] queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Strict priority: EF, then AF, then best-effort.
    Sp,
    /// Weighted fair queuing (SCFQ virtual-time approximation).
    Wfq,
    /// Deficit round robin with quantum = weight × 1500 bytes.
    Drr,
}

/// A three-class (EF/AF/BE) discipline: a scheduler over per-class queues,
/// each with its own capacity, weight, and dropper.
///
/// ```
/// use mpichgq_netsim::{ClassCfg, Queue, QueueCfg, RedCfg, SchedCfg};
/// let cfg = SchedCfg::wfq()
///     .ef(ClassCfg::new(500_000).weight(8))
///     .af(ClassCfg::new(150_000).weight(3).wred(RedCfg::wred_ramp(30_000, 120_000)))
///     .be(ClassCfg::new(150_000).weight(1).red(RedCfg::new(30_000, 120_000)));
/// let q = Queue::with_seed(QueueCfg::Sched(cfg), 42);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SchedCfg {
    pub kind: SchedKind,
    pub ef: ClassCfg,
    pub af: ClassCfg,
    pub be: ClassCfg,
}

impl SchedCfg {
    fn with_kind(kind: SchedKind) -> SchedCfg {
        SchedCfg {
            kind,
            ef: ClassCfg::new(1_000_000).weight(8),
            af: ClassCfg::new(150_000).weight(3),
            be: ClassCfg::new(150_000).weight(1),
        }
    }
    /// Strict priority over three classes (EF > AF > BE).
    pub fn sp() -> SchedCfg {
        SchedCfg::with_kind(SchedKind::Sp)
    }
    /// Weighted fair queuing with default weights 8/3/1.
    pub fn wfq() -> SchedCfg {
        SchedCfg::with_kind(SchedKind::Wfq)
    }
    /// Deficit round robin with default weights 8/3/1.
    pub fn drr() -> SchedCfg {
        SchedCfg::with_kind(SchedKind::Drr)
    }
    pub fn ef(mut self, c: ClassCfg) -> SchedCfg {
        self.ef = c;
        self
    }
    pub fn af(mut self, c: ClassCfg) -> SchedCfg {
        self.af = c;
        self
    }
    pub fn be(mut self, c: ClassCfg) -> SchedCfg {
        self.be = c;
        self
    }
}

/// Configuration for an interface queue.
// Built once per interface at topology construction and consumed by
// `Queue::with_seed`; the `Sched` variant's size is irrelevant there.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum QueueCfg {
    /// Single class, drop-tail (plain router, no QoS).
    DropTail { cap_bytes: u64 },
    /// Strict-priority EF queue over a best-effort drop-tail queue (the
    /// paper's configuration). AF traffic, if any, gets its own queue
    /// sized like best-effort and is served between EF and BE.
    Priority {
        ef_cap_bytes: u64,
        be_cap_bytes: u64,
    },
    /// Fully parameterized three-class discipline (scheduler × droppers).
    Sched(SchedCfg),
}

impl QueueCfg {
    /// 100 full-size packets of best-effort buffering — a typical late-90s
    /// router default — and a deeper EF queue (EF load is admission-limited,
    /// so its queue is sized to absorb policed bursts, not to police).
    pub fn priority_default() -> QueueCfg {
        QueueCfg::Priority {
            ef_cap_bytes: 1_000_000,
            be_cap_bytes: 150_000,
        }
    }
    pub fn droptail_default() -> QueueCfg {
        QueueCfg::DropTail { cap_bytes: 150_000 }
    }
}

/// The queue discipline on one outgoing interface: classify-and-admit on
/// [`Queue::enqueue`], pick-and-serve on [`Queue::pop`], with backlog
/// introspection for the transmit loop and [`QueueStats`] for
/// observability and the qcheck invariant battery.
///
/// Every discipline is deterministic: RED's randomness draws from state
/// seeded at construction ([`Queue::with_seed`]), never from global
/// sources — that is what keeps N-thread sharded runs bit-identical.
#[derive(Debug)]
pub struct Queue(Discipline);

/// The three families of [`QueueCfg`], concrete so that the transmit
/// loop's calls on the two the paper's routers use are direct and inline.
// Every arm is boxed. Inline, a `Queue` would be 288 B (the size of
// `SpQueue`), and a world's queues one block large enough that building
// and dropping worlds back to back makes the allocator give the heap top
// back and fault it in again (`sharded_islands` `setup_s` +20 %, five times
// the page faults). Boxed, construction costs what it always did and
// forwarding reads level with inline arms (DESIGN.md §15).
#[derive(Debug)]
enum Discipline {
    DropTail(Box<DropTailQueue>),
    Priority(Box<SpQueue>),
    Sched(Box<SchedQueue>),
}

/// `$body` once per [`Discipline`] arm, with `$q` bound to the arm's queue:
/// the three types share their method and field names.
macro_rules! each_arm {
    ($d:expr, $q:ident => $body:expr) => {
        match $d {
            Discipline::DropTail($q) => $body,
            Discipline::Priority($q) => $body,
            Discipline::Sched($q) => $body,
        }
    };
}

impl Queue {
    /// Build the discipline described by `cfg` with RNG seed 0. Equivalent
    /// to [`Queue::with_seed`]`(cfg, 0)`; only RED/WRED consult the seed.
    pub fn new(cfg: QueueCfg) -> Self {
        Queue::with_seed(cfg, 0)
    }

    /// Build the discipline described by `cfg`, seeding the queue-local
    /// RNG used for probabilistic (RED/WRED) drop decisions. The topology
    /// builder derives the seed from the topology seed and the channel
    /// index, so a shard rebuilding its slice of the network reproduces
    /// the exact drop stream.
    pub fn with_seed(cfg: QueueCfg, seed: u64) -> Self {
        Queue(match cfg {
            QueueCfg::DropTail { cap_bytes } => {
                Discipline::DropTail(Box::new(DropTailQueue::new(cap_bytes)))
            }
            QueueCfg::Priority {
                ef_cap_bytes,
                be_cap_bytes,
            } => Discipline::Priority(Box::new(SpQueue::new(ef_cap_bytes, be_cap_bytes))),
            QueueCfg::Sched(sched) => Discipline::Sched(Box::new(SchedQueue::new(sched, seed))),
        })
    }

    /// Admit, early-drop, or tail-drop one packet.
    #[inline]
    pub fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        each_arm!(&mut self.0, q => q.enqueue(pkt))
    }

    /// Dequeue the next packet to transmit according to the scheduler.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        each_arm!(&mut self.0, q => q.pop())
    }

    /// True when no packet is queued in any class.
    #[inline]
    pub fn is_empty(&self) -> bool {
        each_arm!(&self.0, q => q.is_empty())
    }

    /// Packets currently queued (all classes).
    #[inline]
    pub fn len(&self) -> u64 {
        each_arm!(&self.0, q => q.len())
    }

    /// Bytes currently queued (all classes).
    #[inline]
    pub fn backlog_bytes(&self) -> u64 {
        each_arm!(&self.0, q => q.class_backlog_bytes().iter().sum())
    }

    /// Bytes currently queued per class, `[EF, AF, BE]`. A drop-tail queue
    /// reports its whole backlog as best-effort (mirroring how
    /// [`QueueStats`] attributes its high-water mark).
    #[inline]
    pub fn class_backlog_bytes(&self) -> [u64; 3] {
        each_arm!(&self.0, q => q.class_backlog_bytes())
    }

    /// Snapshot of the per-class counters.
    pub fn stats(&self) -> QueueStats {
        each_arm!(&self.0, q => q.stats)
    }
}

#[inline]
fn note_enq(stats: &mut QueueStats, class: usize) {
    match class {
        EF => stats.enq_ef += 1,
        AF => stats.enq_af += 1,
        _ => stats.enq_be += 1,
    }
}

#[inline]
fn note_pop(stats: &mut QueueStats, p: &Packet) {
    stats.dequeued += 1;
    stats.bytes_dequeued += p.ip_len() as u64;
}

/// A per-class queue admitted a packet and now holds `backlog` bytes.
#[inline]
fn note_admit(stats: &mut QueueStats, class: usize, backlog: u64) {
    note_enq(stats, class);
    let hw = match class {
        EF => &mut stats.hw_ef_bytes,
        AF => &mut stats.hw_af_bytes,
        _ => &mut stats.hw_be_bytes,
    };
    *hw = (*hw).max(backlog);
}

#[inline]
fn note_drop(stats: &mut QueueStats, class: usize) {
    match class {
        EF => stats.drop_ef += 1,
        AF => stats.drop_af += 1,
        _ => stats.drop_be += 1,
    }
}

#[inline]
fn note_early(stats: &mut QueueStats, class: usize, prec: usize) {
    match class {
        EF => stats.early_ef += 1,
        AF => stats.early_af[prec] += 1,
        _ => stats.early_be += 1,
    }
}

/// Single class, drop-tail: the plain (non-QoS) router interface.
#[derive(Debug)]
struct DropTailQueue {
    fifo: Fifo,
    stats: QueueStats,
}

impl DropTailQueue {
    fn new(cap_bytes: u64) -> Self {
        DropTailQueue {
            fifo: Fifo::new(cap_bytes),
            stats: QueueStats::default(),
        }
    }

    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        let class = class_of(pkt.dscp);
        if !self.fifo.try_push(pkt) {
            note_drop(&mut self.stats, class);
            return Enqueue::DroppedFull;
        }
        note_enq(&mut self.stats, class);
        // Single shared FIFO: the whole-queue high-water mark is reported
        // as best-effort regardless of the packet's class.
        self.stats.hw_be_bytes = self.stats.hw_be_bytes.max(self.fifo.cur_bytes);
        Enqueue::Queued
    }

    #[inline]
    fn pop(&mut self) -> Option<Packet> {
        let p = self.fifo.pop();
        if let Some(p) = &p {
            note_pop(&mut self.stats, p);
        }
        p
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.fifo.q.is_empty()
    }

    fn len(&self) -> u64 {
        self.fifo.q.len() as u64
    }

    fn class_backlog_bytes(&self) -> [u64; 3] {
        [0, 0, self.fifo.cur_bytes]
    }
}

/// Strict-priority EF queue over a best-effort drop-tail queue — the
/// paper's §5.1 configuration, extended with a third queue for AF traffic
/// served between EF and best-effort. With no AF traffic offered, behavior
/// and counters are identical to the original two-queue implementation.
#[derive(Debug)]
struct SpQueue {
    /// One FIFO per class, indexed `[EF, AF, BE]`: service order.
    fifos: [Fifo; 3],
    stats: QueueStats,
}

impl SpQueue {
    fn new(ef_cap_bytes: u64, be_cap_bytes: u64) -> Self {
        SpQueue {
            // AF is admission-limited like EF but jitter-tolerant: size its
            // queue like best-effort.
            fifos: [ef_cap_bytes, be_cap_bytes, be_cap_bytes].map(Fifo::new),
            stats: QueueStats::default(),
        }
    }

    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        let class = class_of(pkt.dscp);
        let target = &mut self.fifos[class];
        if !target.try_push(pkt) {
            note_drop(&mut self.stats, class);
            return Enqueue::DroppedFull;
        }
        note_admit(&mut self.stats, class, target.cur_bytes);
        Enqueue::Queued
    }

    #[inline]
    fn pop(&mut self) -> Option<Packet> {
        // Pick the queue, then move the packet out once.
        let c = [EF, AF].into_iter().find(|&c| !self.fifos[c].q.is_empty());
        let p = self.fifos[c.unwrap_or(BE)].pop();
        if let Some(p) = &p {
            if p.dscp != Dscp::Ef && !self.fifos[EF].q.is_empty() {
                self.stats.prio_inversions += 1;
            }
            note_pop(&mut self.stats, p);
        }
        p
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.fifos.iter().all(|f| f.q.is_empty())
    }

    fn len(&self) -> u64 {
        self.fifos.iter().map(|f| f.q.len() as u64).sum()
    }

    fn class_backlog_bytes(&self) -> [u64; 3] {
        self.fifos.each_ref().map(|f| f.cur_bytes)
    }
}

/// Fixed-point scale for WFQ virtual time (tags are `len × SCALE / weight`).
const WFQ_SCALE: u64 = 1 << 8;
/// DRR quantum per unit of weight: one full-size packet.
const DRR_QUANTUM_UNIT: u64 = 1_500;
/// DRR rotation guard: more visits than this for one dequeue means the
/// deficit bookkeeping broke (counted in [`QueueStats::sched_violations`]).
const DRR_GUARD: u32 = 64 * 3;

#[derive(Debug)]
struct ClassState {
    fifo: Fifo,
    cfg: ClassCfg,
    /// WFQ finish tag of each queued packet, parallel to `fifo.q`.
    tags: VecDeque<u64>,
    /// RED EWMA of the class backlog in bytes, 16-bit fixed point.
    avg_fp: u64,
    /// DRR state.
    quantum: u64,
    deficit: u64,
}

impl ClassState {
    /// The builders' clamps (`weight ≥ 1`, `ewma_shift ≤ 16`,
    /// `max_p_permille ≤ 1000`) are applied here, once, so a config written
    /// as a struct literal gets the domain a built one has: a zero DRR
    /// quantum would trip the rotation guard on every pop, and a shift past
    /// 63 overflows the EWMA.
    fn new(cfg: ClassCfg) -> Self {
        let curve = |r: RedCfg| r.max_p_permille(r.max_p_permille).ewma_shift(r.ewma_shift);
        let cfg = ClassCfg {
            weight: cfg.weight.max(1),
            dropper: match cfg.dropper {
                DropperCfg::DropTail => DropperCfg::DropTail,
                DropperCfg::Red(r) => DropperCfg::Red(curve(r)),
                DropperCfg::Wred(rs) => DropperCfg::Wred(rs.map(curve)),
            },
            ..cfg
        };
        ClassState {
            fifo: Fifo::new(cfg.cap_bytes),
            cfg,
            tags: VecDeque::new(),
            avg_fp: 0,
            quantum: cfg.weight as u64 * DRR_QUANTUM_UNIT,
            deficit: 0,
        }
    }

    /// Update the EWMA and decide whether RED/WRED early-drops this
    /// arrival. Consumes at most one RNG draw (only in the linear-ramp
    /// region), keeping the drop stream deterministic per queue.
    fn red_decide(&mut self, prec: usize, rng: &mut SimRng) -> bool {
        let (ewma_shift, red) = match self.cfg.dropper {
            DropperCfg::DropTail => return false,
            DropperCfg::Red(r) => (r.ewma_shift, r),
            DropperCfg::Wred(rs) => (rs[0].ewma_shift, rs[prec]),
        };
        let cur_fp = self.fifo.cur_bytes << 16;
        if cur_fp >= self.avg_fp {
            self.avg_fp += (cur_fp - self.avg_fp) >> ewma_shift;
        } else {
            self.avg_fp -= (self.avg_fp - cur_fp) >> ewma_shift;
        }
        let avg = self.avg_fp >> 16;
        if avg < red.min_bytes {
            return false;
        }
        if avg >= red.max_bytes {
            return true;
        }
        let span = red.max_bytes - red.min_bytes;
        let p = red.max_p_permille as u64 * (avg - red.min_bytes) / span;
        rng.range(0, 1000) < p
    }
}

/// The generic three-class engine: SP/WFQ/DRR over per-class FIFOs with
/// per-class drop-tail/RED/WRED admission.
#[derive(Debug)]
struct SchedQueue {
    classes: [ClassState; 3],
    kind: SchedKind,
    stats: QueueStats,
    rng: SimRng,
    /// WFQ virtual time: the finish tag of the last packet served.
    vtime: u64,
    /// WFQ per-class finish tag of the last enqueued packet.
    last_finish: [u64; 3],
    /// DRR round-robin pointer and whether the current class was already
    /// credited its quantum on this visit.
    current: usize,
    credited: bool,
}

impl SchedQueue {
    fn new(cfg: SchedCfg, seed: u64) -> Self {
        SchedQueue {
            classes: [
                ClassState::new(cfg.ef),
                ClassState::new(cfg.af),
                ClassState::new(cfg.be),
            ],
            kind: cfg.kind,
            stats: QueueStats::default(),
            rng: SimRng::new(seed),
            vtime: 0,
            last_finish: [0; 3],
            current: 0,
            credited: false,
        }
    }

    /// Strict priority: lowest nonempty class index.
    fn pick_sp(&mut self) -> Option<usize> {
        let c = (0..3).find(|&i| !self.classes[i].fifo.q.is_empty())?;
        if c != EF && !self.classes[EF].fifo.q.is_empty() {
            self.stats.prio_inversions += 1;
        }
        Some(c)
    }

    /// SCFQ: serve the minimum head finish tag (ties to the lower class
    /// index) and advance virtual time to it. Because arrivals are stamped
    /// `start = max(vtime, last_finish[class])`, every tag in the system
    /// is ≥ vtime; a smaller one is a bookkeeping bug and is counted.
    fn pick_wfq(&mut self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for c in 0..3 {
            if let Some(&tag) = self.classes[c].tags.front() {
                if best.is_none_or(|(bt, _)| tag < bt) {
                    best = Some((tag, c));
                }
            }
        }
        let (tag, c) = best?;
        if tag < self.vtime {
            self.stats.sched_violations += 1;
        }
        self.vtime = self.vtime.max(tag);
        self.classes[c].tags.pop_front();
        Some(c)
    }

    /// DRR: visit classes round-robin, crediting `quantum` once per fresh
    /// visit; serve the head while it fits in the deficit. The pointer
    /// stays on a class between pops until its head no longer fits.
    fn pick_drr(&mut self) -> Option<usize> {
        if (0..3).all(|i| self.classes[i].fifo.q.is_empty()) {
            return None;
        }
        let mut visits = 0u32;
        loop {
            if visits > DRR_GUARD {
                // Structurally unreachable (quantum ≥ one full-size packet
                // per round); convict the regression and degrade to a
                // linear scan rather than spinning.
                self.stats.sched_violations += 1;
                return (0..3).find(|&i| !self.classes[i].fifo.q.is_empty());
            }
            let c = self.current;
            if self.classes[c].fifo.q.is_empty() {
                self.classes[c].deficit = 0;
                self.advance();
                visits += 1;
                continue;
            }
            if !self.credited {
                let cs = &mut self.classes[c];
                cs.deficit = cs.deficit.saturating_add(cs.quantum);
                self.credited = true;
            }
            let head = self.classes[c].fifo.q.front().map(|p| p.ip_len() as u64)?;
            if head <= self.classes[c].deficit {
                self.classes[c].deficit -= head;
                return Some(c);
            }
            self.advance();
            visits += 1;
        }
    }

    fn advance(&mut self) {
        self.current = (self.current + 1) % 3;
        self.credited = false;
    }

    // Out of line: inlined, the generic engine would bloat the transmit
    // loop that the default disciplines run through.
    #[inline(never)]
    fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        let class = class_of(pkt.dscp);
        let prec = prec_of(pkt.dscp);
        let len = pkt.ip_len() as u64;
        if self.classes[class].red_decide(prec, &mut self.rng) {
            note_early(&mut self.stats, class, prec);
            return Enqueue::DroppedEarly;
        }
        let cs = &mut self.classes[class];
        if !cs.fifo.try_push(pkt) {
            note_drop(&mut self.stats, class);
            return Enqueue::DroppedFull;
        }
        if self.kind == SchedKind::Wfq {
            let start = self.vtime.max(self.last_finish[class]);
            let finish = start + len * WFQ_SCALE / cs.cfg.weight as u64;
            self.last_finish[class] = finish;
            cs.tags.push_back(finish);
        }
        note_admit(&mut self.stats, class, cs.fifo.cur_bytes);
        Enqueue::Queued
    }

    #[inline(never)]
    fn pop(&mut self) -> Option<Packet> {
        let c = match self.kind {
            SchedKind::Sp => self.pick_sp(),
            SchedKind::Wfq => self.pick_wfq(),
            SchedKind::Drr => self.pick_drr(),
        }?;
        let p = self.classes[c].fifo.pop();
        if let Some(p) = &p {
            note_pop(&mut self.stats, p);
        }
        p
    }

    fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.fifo.q.is_empty())
    }

    fn len(&self) -> u64 {
        self.classes.iter().map(|c| c.fifo.q.len() as u64).sum()
    }

    fn class_backlog_bytes(&self) -> [u64; 3] {
        self.classes.each_ref().map(|c| c.fifo.cur_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AfPrec, NodeId, L4};
    use mpichgq_sim::SimTime;

    fn pkt(dscp: Dscp, payload: u32) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 1,
            dst_port: 2,
            dscp,
            l4: L4::Udp,
            payload_len: payload,
            id: 0,
            born: SimTime::ZERO,
        }
    }

    #[test]
    fn droptail_enforces_byte_capacity() {
        let mut q = Queue::new(QueueCfg::DropTail { cap_bytes: 3_000 });
        // Each packet: 28 + 972 = 1000 bytes.
        for _ in 0..3 {
            assert_eq!(q.enqueue(pkt(Dscp::BestEffort, 972)), Enqueue::Queued);
        }
        assert_eq!(q.enqueue(pkt(Dscp::BestEffort, 972)), Enqueue::DroppedFull);
        assert_eq!(q.stats().drop_be, 1);
        assert_eq!(q.backlog_bytes(), 3_000);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = Queue::new(QueueCfg::droptail_default());
        for i in 0..5 {
            let mut p = pkt(Dscp::BestEffort, 100);
            p.id = i;
            q.enqueue(p);
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().id, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn priority_serves_ef_first() {
        let mut q = Queue::new(QueueCfg::priority_default());
        let mut be = pkt(Dscp::BestEffort, 100);
        be.id = 1;
        let mut ef = pkt(Dscp::Ef, 100);
        ef.id = 2;
        q.enqueue(be);
        q.enqueue(ef);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 1);
    }

    #[test]
    fn be_flood_does_not_displace_ef() {
        let mut q = Queue::new(QueueCfg::Priority {
            ef_cap_bytes: 10_000,
            be_cap_bytes: 2_000,
        });
        for _ in 0..10 {
            q.enqueue(pkt(Dscp::BestEffort, 972));
        }
        assert!(q.stats().drop_be > 0);
        assert_eq!(q.enqueue(pkt(Dscp::Ef, 972)), Enqueue::Queued);
        assert_eq!(q.stats().drop_ef, 0);
        assert_eq!(q.pop().unwrap().dscp, Dscp::Ef);
    }

    #[test]
    fn ef_queue_has_its_own_capacity() {
        let mut q = Queue::new(QueueCfg::Priority {
            ef_cap_bytes: 1_000,
            be_cap_bytes: 1_000,
        });
        assert_eq!(q.enqueue(pkt(Dscp::Ef, 972)), Enqueue::Queued);
        assert_eq!(q.enqueue(pkt(Dscp::Ef, 972)), Enqueue::DroppedFull);
        assert_eq!(q.stats().drop_ef, 1);
    }

    #[test]
    fn empty_priority_queue_lets_be_use_everything() {
        let mut q = Queue::new(QueueCfg::priority_default());
        q.enqueue(pkt(Dscp::BestEffort, 500));
        assert_eq!(q.pop().unwrap().dscp, Dscp::BestEffort);
    }

    #[test]
    fn sp_queue_serves_af_between_ef_and_be() {
        let mut q = Queue::new(QueueCfg::priority_default());
        q.enqueue(pkt(Dscp::BestEffort, 100));
        q.enqueue(pkt(Dscp::Af(AfPrec::Low), 100));
        q.enqueue(pkt(Dscp::Ef, 100));
        assert_eq!(q.pop().unwrap().dscp, Dscp::Ef);
        assert_eq!(q.pop().unwrap().dscp, Dscp::Af(AfPrec::Low));
        assert_eq!(q.pop().unwrap().dscp, Dscp::BestEffort);
        let st = q.stats();
        assert_eq!((st.enq_ef, st.enq_af, st.enq_be), (1, 1, 1));
        assert_eq!(st.prio_inversions, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 128, ..proptest::ProptestConfig::default() })]

        /// The strict-priority arm and the generic engine under `Sp` are
        /// one discipline: over any stream of enqueues and pops with EF,
        /// AF and best-effort mixed, equal capacities give the same
        /// verdicts, the same pops and the same counters.
        #[test]
        fn sched_sp_matches_the_priority_arm(
            ef_cap in 1_500u64..20_000,
            be_cap in 1_500u64..20_000,
            ops in proptest::collection::vec((0u8..4, 0u8..5, 0u32..1_473), 1..400),
        ) {
            let mut prio = Queue::new(QueueCfg::Priority { ef_cap_bytes: ef_cap, be_cap_bytes: be_cap });
            let be = ClassCfg::new(be_cap);
            let cfg = SchedCfg::sp().ef(ClassCfg::new(ef_cap)).af(be).be(be);
            let mut sched = Queue::new(QueueCfg::Sched(cfg));
            for (id, (op, class, payload)) in ops.into_iter().enumerate() {
                if op == 3 {
                    let (a, b) = (prio.pop(), sched.pop());
                    assert_eq!(a.map(|p| p.id), b.map(|p| p.id));
                    continue;
                }
                let dscp = match class {
                    0 => Dscp::Ef,
                    1 => Dscp::BestEffort,
                    2 => Dscp::Af(AfPrec::Low),
                    3 => Dscp::Af(AfPrec::Medium),
                    _ => Dscp::Af(AfPrec::High),
                };
                let mut p = pkt(dscp, payload);
                p.id = id as u64;
                assert_eq!(prio.enqueue(p.clone()), sched.enqueue(p));
                assert_eq!(prio.class_backlog_bytes(), sched.class_backlog_bytes());
            }
            while let Some(p) = prio.pop() {
                assert_eq!(Some(p.id), sched.pop().map(|p| p.id));
            }
            assert!(sched.is_empty());
            assert_eq!(prio.stats(), sched.stats());
        }
    }

    /// A DRR class written as a struct literal with weight 0 is served as
    /// the builder would serve it (weight 1), not as a zero quantum that
    /// trips the rotation guard on every pop.
    #[test]
    fn literal_zero_weight_is_clamped_like_the_builder() {
        let zero = ClassCfg {
            weight: 0,
            ..ClassCfg::new(1_000_000)
        };
        let run = |ef: ClassCfg| {
            let mut q = Queue::new(QueueCfg::Sched(SchedCfg::drr().ef(ef)));
            for i in 0..10 {
                let dscp = [Dscp::Ef, Dscp::BestEffort][i % 2];
                q.enqueue(pkt(dscp, 972));
            }
            let order: Vec<Dscp> = std::iter::from_fn(|| q.pop().map(|p| p.dscp)).collect();
            (order, q.stats())
        };
        let (order, st) = run(zero);
        assert_eq!(order.len(), 10);
        assert_eq!(
            st.sched_violations, 0,
            "an input error is not an invariant breach"
        );
        assert_eq!((order, st), run(ClassCfg::new(1_000_000).weight(0)));
    }

    /// RED curves written as struct literals get the builder's clamps.
    #[test]
    fn literal_red_curves_are_clamped_like_the_builder() {
        let base = RedCfg::new(2_000, 100_000);
        let cases = [
            // A shift of 64 overflows in a debug build and wraps to 0 in a
            // release one, early-dropping most arrivals; clamped, it is 16.
            (
                RedCfg {
                    ewma_shift: 64,
                    ..base
                },
                base.ewma_shift(64),
            ),
            // A drop probability above 1000‰ is 1000‰.
            (
                RedCfg {
                    max_p_permille: 5_000,
                    ewma_shift: 2,
                    ..base
                },
                base.ewma_shift(2).max_p_permille(5_000),
            ),
        ];
        let run = |red: RedCfg, wred: bool| {
            let be = ClassCfg::new(1_000_000);
            let be = if wred { be.wred([red; 3]) } else { be.red(red) };
            let mut q = Queue::with_seed(QueueCfg::Sched(SchedCfg::sp().be(be)), 3);
            let verdicts: Vec<Enqueue> = (0..50)
                .map(|_| q.enqueue(pkt(Dscp::BestEffort, 972)))
                .collect();
            (verdicts, q.stats())
        };
        for (literal, built) in cases {
            for wred in [false, true] {
                assert_eq!(run(literal, wred), run(built, wred), "{literal:?}");
            }
        }
        assert_eq!(run(cases[0].1, false).1.early_be, 0, "2^-16 barely moves");
        assert!(run(cases[1].1, false).1.early_be > 0, "the ramp is reached");
    }

    #[test]
    fn wfq_shares_service_by_weight() {
        // EF weight 3, BE weight 1, equal-size packets: over a busy period
        // EF should get ~3x the service.
        let cfg = SchedCfg::wfq()
            .ef(ClassCfg::new(1_000_000).weight(3))
            .be(ClassCfg::new(1_000_000).weight(1));
        let mut q = Queue::new(QueueCfg::Sched(cfg));
        for _ in 0..40 {
            q.enqueue(pkt(Dscp::Ef, 972));
            q.enqueue(pkt(Dscp::BestEffort, 972));
        }
        let mut ef_served = 0;
        for _ in 0..16 {
            if q.pop().unwrap().dscp == Dscp::Ef {
                ef_served += 1;
            }
        }
        assert_eq!(ef_served, 12, "weight-3 EF should take 3/4 of the slots");
        assert_eq!(q.stats().sched_violations, 0);
    }

    #[test]
    fn wfq_is_work_conserving() {
        let mut q = Queue::new(QueueCfg::Sched(SchedCfg::wfq()));
        q.enqueue(pkt(Dscp::BestEffort, 500));
        assert_eq!(q.pop().unwrap().dscp, Dscp::BestEffort);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drr_interleaves_by_quantum() {
        // Equal weights, equal packet sizes: DRR alternates between the
        // backlogged classes one quantum (one packet) at a time.
        let cfg = SchedCfg::drr()
            .ef(ClassCfg::new(1_000_000).weight(1))
            .be(ClassCfg::new(1_000_000).weight(1));
        let mut q = Queue::new(QueueCfg::Sched(cfg));
        for _ in 0..10 {
            q.enqueue(pkt(Dscp::Ef, 1_472));
            q.enqueue(pkt(Dscp::BestEffort, 1_472));
        }
        let mut served = Vec::new();
        for _ in 0..6 {
            served.push(q.pop().unwrap().dscp);
        }
        let ef = served.iter().filter(|d| **d == Dscp::Ef).count();
        assert_eq!(ef, 3, "equal weights should split service evenly");
        assert_eq!(q.stats().sched_violations, 0);
    }

    #[test]
    fn red_drops_early_under_sustained_backlog() {
        let cfg = SchedCfg::sp().be(ClassCfg::new(1_000_000).red(
            RedCfg::new(2_000, 10_000)
                .max_p_permille(1000)
                .ewma_shift(2),
        ));
        let mut q = Queue::with_seed(QueueCfg::Sched(cfg), 7);
        let mut early = 0;
        for _ in 0..200 {
            if q.enqueue(pkt(Dscp::BestEffort, 972)) == Enqueue::DroppedEarly {
                early += 1;
            }
        }
        assert!(early > 0, "RED never early-dropped under heavy backlog");
        assert_eq!(q.stats().early_be, early);
        // Early drops are not tail drops.
        assert_eq!(q.stats().drop_be, 0);
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let cfg = SchedCfg::sp()
            .be(ClassCfg::new(1_000_000).red(RedCfg::new(2_000, 10_000).ewma_shift(2)));
        let run = |seed| {
            let mut q = Queue::with_seed(QueueCfg::Sched(cfg), seed);
            (0..300)
                .map(|_| q.enqueue(pkt(Dscp::BestEffort, 972)) == Enqueue::DroppedEarly)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed must give the same drop stream");
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn wred_drops_high_precedence_first() {
        let cfg = SchedCfg::sp().af(ClassCfg::new(1_000_000)
            .wred(RedCfg::wred_ramp(3_000, 50_000).map(|r| r.ewma_shift(1))));
        let mut q = Queue::with_seed(QueueCfg::Sched(cfg), 11);
        let mut early = [0u64; 3];
        for i in 0..600 {
            let prec = match i % 3 {
                0 => AfPrec::Low,
                1 => AfPrec::Medium,
                _ => AfPrec::High,
            };
            if q.enqueue(pkt(Dscp::Af(prec), 972)) == Enqueue::DroppedEarly {
                early[prec.index()] += 1;
            }
            if i % 2 == 0 {
                q.pop();
            }
        }
        assert_eq!(q.stats().early_af, early);
        assert!(
            early[2] > early[0],
            "high drop precedence should be dropped more: {early:?}"
        );
    }
}
