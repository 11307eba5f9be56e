//! The network world: nodes, channels, event dispatch.
//!
//! [`Net`] owns everything below the transport layer: links and their
//! queues, routers with DiffServ edge classifiers, per-host CPUs (the DSRT
//! model) and egress shapers. Transport protocols and applications live
//! *above* it, in an object implementing [`NetHandler`]; `Net` hands
//! host-level occurrences (packet arrivals, timers, CPU completions) up to
//! the handler and never calls into itself re-entrantly, which keeps the
//! borrow structure simple and the event order deterministic.

use crate::classifier::FlowSpec;
use crate::classifier::{Classifier, Verdict};
use crate::faults::{FaultAction, FaultLayer, FaultPlan, FaultStats, FaultVerdict};
use crate::lifecycle::{PacketTracer, Span, SpanKind, DEFAULT_MAX_SPANS};
use crate::link::{Chan, ChanId, LinkCfg};
use crate::packet::{NodeId, Packet};
use crate::queue::{Enqueue, Queue, QueueCfg, QueueStats};
use crate::shaper::{ShapeOutcome, Shaper};
use crate::tokenbucket::TokenBucket;
use mpichgq_dsrt::{AdmissionError, CompleteOutcome, Cpu, ProcId, Update, WorkId};
use mpichgq_obs::{CounterId, JsonWriter, MetricSink, Obs, Scope, Tick, Timeline};
use mpichgq_sim::{fnv1a, Engine, Fnv, Recorder, SimDelta, SimRng, SimTime};
use std::collections::VecDeque;

/// What kind of node this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Host,
    Router,
}

/// A host or router.
pub struct Node {
    pub kind: NodeKind,
    pub name: String,
    /// Outgoing channels, in creation order.
    pub ifaces: Vec<ChanId>,
    /// Edge-ingress classifier (routers; applied to packets arriving on
    /// channels flagged `edge_ingress`).
    pub classifier: Classifier,
    /// Host CPU model (hosts).
    pub cpu: Cpu,
    /// Egress traffic shapers (hosts).
    pub shapers: Vec<Shaper>,
    next_shaper_id: u64,
}

impl Node {
    fn new(kind: NodeKind, name: String) -> Self {
        Node {
            kind,
            name,
            ifaces: Vec::new(),
            classifier: Classifier::new(),
            cpu: Cpu::new(),
            shapers: Vec::new(),
            next_shaper_id: 0,
        }
    }
}

/// Internal event type: 16 bytes, so an engine entry is 32. The three
/// events whose payload is wider keep it out of line — a CPU wake-up and a
/// shaper release in a [`ColdTable`], a fault's action in the
/// [`FaultLayer`] — and carry its index.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Transmission of the head packet on `chan` finished.
    TxDone { chan: ChanId },
    /// The head of `chan`'s wire FIFO arrives at `chan.to`.
    Deliver { chan: ChanId },
    /// A transport/application timer on a host.
    HostTimer { host: NodeId, token: u64 },
    /// A CPU work item may have completed ([`CpuWake`] in `slot`).
    CpuDone { slot: u32 },
    /// A host egress shaper can release queued packets ([`ShaperWake`] in
    /// `slot`).
    ShaperRelease { slot: u32 },
    /// Scenario-script control point.
    Control { token: u64 },
    /// Scripted fault `idx` of the installed [`FaultPlan`]s fires.
    Fault { idx: u32 },
    /// A windowed `CpuThrottle` lapsed: re-derive the host's effective
    /// rate from the windows still active (restoring the baseline once
    /// the last one is gone).
    ThrottleExpire { host: NodeId },
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// What an [`Ev::CpuDone`] wakes: `host`'s work item `work` at schedule
/// generation `gen`.
#[derive(Debug, Clone, Copy)]
struct CpuWake {
    host: NodeId,
    work: WorkId,
    gen: u64,
}

/// What an [`Ev::ShaperRelease`] wakes: shaper `shaper` on `host` at
/// release generation `gen`.
#[derive(Debug, Clone, Copy)]
struct ShaperWake {
    host: NodeId,
    shaper: u64,
    gen: u64,
}

/// Payloads of pending events too wide for [`Ev`], indexed by the event's
/// `slot`. An event's slot is freed when it fires — a stale one included —
/// and freed slots are reused last-in first-out, so the table never holds
/// more entries than there were such events pending at once.
#[derive(Debug)]
struct ColdTable<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Copy> ColdTable<T> {
    fn new() -> Self {
        ColdTable {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `v` for an event about to be scheduled; returns its slot.
    fn put(&mut self, v: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = v;
            return slot;
        }
        let slot =
            u32::try_from(self.slots.len()).expect("fewer than 2^32 such events pending at once");
        self.slots.push(v);
        slot
    }

    /// The payload of the event firing with `slot`, whose slot is free again.
    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize]
    }
}

/// Upper layers (transport stacks, scenario controllers) implement this.
pub trait NetHandler {
    /// A packet addressed to `host` arrived.
    fn deliver(&mut self, net: &mut Net, host: NodeId, pkt: Packet);
    /// A timer set via [`Net::set_host_timer`] fired.
    fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64);
    /// A CPU work item of `proc` on `host` completed.
    fn cpu_done(&mut self, net: &mut Net, host: NodeId, proc: ProcId);
    /// A control point set via [`Net::schedule_control`] was reached.
    fn control(&mut self, net: &mut Net, token: u64);
    /// A timeline sampling tick at `at` (see [`Net::enable_timeline`]).
    /// Called after the network's own samples for that tick; the handler
    /// writes its upper-layer series to `sink`, each stamped `at`. The
    /// network is shared, not mutable: a probe can read it but cannot
    /// schedule, send or refill anything, so sampling never perturbs the
    /// event stream. Default: no-op.
    fn timeline_sample(&mut self, net: &Net, at: SimTime, sink: &mut dyn MetricSink) {
        let _ = (net, at, sink);
    }
    /// A `HostCrash` fault took `host` down. The network has already
    /// silenced the host (egress purged, tx/rx gated); the handler kills
    /// everything it runs there — applications, sockets, CPU work — and
    /// notifies peers. Default: no-op.
    fn host_crashed(&mut self, net: &mut Net, host: NodeId) {
        let _ = (net, host);
    }
    /// A `HostRestart` fault brought `host` back. The handler re-creates
    /// whatever should survive a reboot (e.g. respawning a checkpointed
    /// MPI rank). Default: no-op.
    fn host_restarted(&mut self, net: &mut Net, host: NodeId) {
        let _ = (net, host);
    }
}

/// A service that contributes series to the sampling timeline. Upper
/// layers (the TCP stack's service registry, in practice) route
/// [`NetHandler::timeline_sample`] ticks to every registered source,
/// which reads its own state and writes to the tick's sink.
pub trait TimelineSource {
    /// Write this source's series for the tick at `at` to `sink`.
    fn timeline_sample(&self, at: SimTime, sink: &mut dyn MetricSink);
}

/// Global drop accounting, by cause.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropStats {
    /// Dropped by an edge policer (out of profile).
    pub policed: u64,
    /// Dropped at an interface queue — tail drops plus RED/WRED early
    /// drops (the conservation ledger treats both as the same loss cause).
    pub queue_full: u64,
    /// Of `queue_full`, how many were RED/WRED early drops. Informational
    /// subcount; not a separate ledger column.
    pub(crate) red_early: u64,
    /// Arrived at a host that was not the destination (routing bug guard).
    pub misrouted: u64,
}

/// One interface's row of the conservation ledger (see [`Net::audit`]).
#[derive(Debug, Clone, Copy)]
pub struct ChanAudit {
    pub chan: ChanId,
    /// Packets accepted into the interface queue (all classes).
    pub enqueued: u64,
    /// Packets popped from the queue for transmission.
    pub dequeued: u64,
    /// Packets waiting in the queue right now.
    pub queued_pkts: u64,
    /// Packets whose serialization started.
    pub tx_packets: u64,
    /// Packets whose propagation completed (counted before fault verdicts).
    pub rx_packets: u64,
    /// Packets held in this copy of the world's wire FIFO for the channel.
    pub wire_fifo: u64,
    /// Packets popped from the queue by a `HostCrash` purge instead of a
    /// transmission (accounted as `faults.drops.host_down`).
    pub purged: u64,
    pub prio_inversions: u64,
}

impl ChanAudit {
    /// Packets currently serialized onto this wire.
    pub fn wire_in_flight(&self) -> u64 {
        self.tx_packets.saturating_sub(self.rx_packets)
    }

    /// The wire identity: the FIFO holds exactly the packets serialized and
    /// not yet arrived. Per row in a monolithic world; a cross-shard
    /// channel transmits in one copy and keeps its FIFO in the other, so
    /// there it holds for the two copies' rows summed (once the barrier
    /// has drained the outbox). Not part of [`ChanAudit::conserved`], which
    /// must keep holding for ledgers merged by callers that predate the
    /// FIFO.
    pub fn wire_conserved(&self) -> bool {
        self.wire_fifo == self.wire_in_flight()
    }

    /// The per-interface identity: every packet accepted into the queue was
    /// either popped or is still queued, every pop started a transmission
    /// (or was a crash purge), and nothing arrived off the wire that was
    /// never put on it.
    pub fn conserved(&self) -> bool {
        self.enqueued == self.dequeued + self.queued_pkts
            && self.dequeued == self.tx_packets + self.purged
            && self.rx_packets <= self.tx_packets
    }
}

/// Instantaneous cross-layer packet ledger produced by [`Net::audit`].
#[derive(Debug, Clone)]
pub struct NetAudit {
    /// Packets injected at hosts ([`Net::send_ip`]).
    pub sent: u64,
    /// Packets handed to the destination host's transport.
    pub delivered: u64,
    /// Dropped by an edge policer.
    pub policed: u64,
    /// Dropped by a full interface queue.
    pub queue_full: u64,
    /// Dropped for lack of a route or a wrong-host arrival.
    pub misrouted: u64,
    /// Dropped by injected faults (link down, loss, corruption, host down).
    pub fault_drops: u64,
    /// Waiting in interface queues right now.
    pub queued_pkts: u64,
    /// Waiting in host egress shapers right now.
    pub shaper_pkts: u64,
    /// Serialized onto wires right now.
    pub wire_pkts: u64,
    /// Strict-priority violations observed by any queue.
    pub prio_inversions: u64,
    /// Scheduler self-audit violations (WFQ virtual time regressed, DRR
    /// rotation guard overflowed) observed by any queue.
    pub sched_violations: u64,
    /// Token-bucket levels observed outside `[0, depth]`.
    pub bucket_violations: u64,
    pub chans: Vec<ChanAudit>,
}

impl NetAudit {
    /// Where every injected packet is accounted right now.
    pub fn accounted(&self) -> u64 {
        self.delivered
            + self.policed
            + self.queue_full
            + self.misrouted
            + self.fault_drops
            + self.queued_pkts
            + self.shaper_pkts
            + self.wire_pkts
    }

    /// The global identity plus every per-interface ledger row.
    pub fn conserved(&self) -> bool {
        self.sent == self.accounted() && self.chans.iter().all(|c| c.conserved())
    }
}

/// Hop-count shortest-path next hops, stored for **core** nodes only.
///
/// A *leaf* is a host whose one outgoing channel goes to a router and
/// whose one incoming channel comes back from it; every other node is
/// core. Each core node owns one row of `n` entries, indexed by
/// destination node id: `next_hop[base + to]` is the outgoing channel
/// index, or [`RouteTable::NONE`]. A leaf keeps its uplink and borrows its
/// router's row, which answers whether `to` is reachable at all. A leaf
/// destination's column holds its router's column, except in the router's
/// own row, where it holds the downlink. The table is c·n entries for c
/// core nodes instead of n². A lookup is one range compare, one per-node
/// record and one table load.
pub(crate) struct RouteTable {
    hops: Vec<Hop>,
    next_hop: Vec<u32>,
}

/// One node's way into [`RouteTable::next_hop`].
#[derive(Clone, Copy)]
struct Hop {
    /// Offset of the row this node reads: its own, or its router's.
    base: usize,
    /// A leaf's one outgoing channel; [`RouteTable::NONE`] for core nodes.
    uplink: u32,
    /// A leaf's router; unused for core nodes.
    router: u32,
}

impl RouteTable {
    const NONE: u32 = u32::MAX;

    #[inline]
    fn get(&self, from: NodeId, to: NodeId) -> Option<ChanId> {
        let (from, to) = (from.0 as usize, to.0 as usize);
        if from.max(to) >= self.hops.len() {
            return None; // a bad `to` would otherwise alias into the next row
        }
        let hop = self.hops[from];
        let raw = self.next_hop[hop.base + to];
        if hop.uplink == Self::NONE {
            return (raw != Self::NONE).then_some(ChanId(raw));
        }
        // A leaf leaves by its uplink whenever its router reaches `to`
        // (its own column in that row is the downlink, not a way out).
        (to != from && (raw != Self::NONE || to == hop.router as usize))
            .then_some(ChanId(hop.uplink))
    }
}

/// Pre-resolved registry ids for the per-packet counters, so the hot path
/// pays one vector add per increment (no name lookups).
struct NetCounters {
    pkts_sent: CounterId,
    pkts_delivered: CounterId,
}

impl NetCounters {
    fn register(obs: &mut Obs) -> NetCounters {
        NetCounters {
            pkts_sent: obs.metrics.counter("net.pkts.sent"),
            pkts_delivered: obs.metrics.counter("net.pkts.delivered"),
        }
    }
}

/// `iface*.early_af{precedence}`, one leaf per AF drop precedence.
const EARLY_AF: [&str; 3] = ["early_af0", "early_af1", "early_af2"];

/// A counter of machinery that may never have run (AF, AQM): no key until
/// it did, so snapshots of runs that predate it stay byte-identical.
fn gated_counter<S: MetricSink>(sink: &mut S, name: &str, total: u64) {
    if total > 0 {
        sink.counter(name, total);
    }
}

/// [`gated_counter`] for a series of an indexed scope.
fn gated_counter_in<S: MetricSink>(sink: &mut S, scope: Scope, leaf: &'static str, total: u64) {
    if total > 0 {
        sink.counter_in(scope, leaf, total);
    }
}

/// One cross-shard packet handoff (see [`crate::shard`]): produced by the
/// sender-owning shard in `try_start_tx`, exchanged at the next safe-time
/// barrier, and drained onto the channel's wire FIFO in the destination
/// shard under the deterministic merge rule `(at, src_shard, seq)`.
#[derive(Debug)]
pub(crate) struct XMsg {
    /// Absolute delivery time: `tx_start + serialization + propagation`.
    pub(crate) at: SimTime,
    /// Shard that produced the message (merge-rule tie-break #2).
    pub(crate) src_shard: u32,
    /// Monotonic per-source-shard sequence (merge-rule tie-break #3).
    pub(crate) seq: u64,
    pub(crate) chan: ChanId,
    pub(crate) pkt: Packet,
}

/// Shard identity of a partitioned [`Net`] copy: which shard this copy
/// executes, the global node→shard map, and the outbox of cross-shard
/// deliveries produced since the last barrier. Boxed and `None` for
/// ordinary monolithic worlds, so the unpartitioned hot path pays one
/// pointer-null branch at the single handoff site.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    shard: u32,
    shard_of: std::sync::Arc<[u32]>,
    outbox: Vec<XMsg>,
    next_seq: u64,
    /// Parallel-engine self-profiling totals, updated at each window
    /// barrier via [`Net::shard_window_mark`]. All of them are pure
    /// functions of simulated state (the window schedule is lock-step),
    /// so they are invariant in the worker-thread count.
    windows: u64,
    windows_skipped: u64,
    cross_in: u64,
}

/// Multi-window SLO burn-rate thresholds. Burn is the deadline-miss rate
/// over a trailing window divided by the error budget: burn 1.0 means the
/// run is missing deadlines exactly as fast as the budget allows.
const BURN_FAST_TICKS: u64 = 5;
const BURN_SLOW_TICKS: u64 = 30;
const BURN_BUDGET: f64 = 0.01;
const BURN_ALERT: f64 = 1.0;

/// Hysteresis state for one burn window's alert threshold.
#[derive(Debug, Default)]
struct BurnEdge {
    over: bool,
}

impl BurnEdge {
    /// Update with this tick's burn; returns `Some(entered)` on an alert
    /// edge (crossing [`BURN_ALERT`] in either direction).
    fn update(&mut self, burn: f64) -> Option<bool> {
        let over = burn >= BURN_ALERT;
        let edge = over != self.over;
        self.over = over;
        edge.then_some(over)
    }
}

/// Deadline-miss burn rate over the trailing `window_ns` ending at
/// `at_ns`, read off the sampled `slo.misses` and `net.pkts.delivered`
/// step functions: `(Δmisses / Δdelivered) / BURN_BUDGET`, or `0.0` when
/// nothing was delivered in the window.
fn burn_over(tl: &Timeline, at_ns: u64, window_ns: u64) -> f64 {
    let t0 = at_ns.saturating_sub(window_ns);
    let miss = tl
        .counter_at("slo.misses", at_ns)
        .saturating_sub(tl.counter_at("slo.misses", t0));
    let delivered = tl
        .counter_at("net.pkts.delivered", at_ns)
        .saturating_sub(tl.counter_at("net.pkts.delivered", t0));
    if delivered == 0 {
        0.0
    } else {
        (miss as f64 / delivered as f64) / BURN_BUDGET
    }
}

/// Sampler state (see [`Net::enable_timeline`]). Boxed and `None` until
/// sampling is armed, so the disabled hot path pays one pointer-null
/// branch per `run_until` call — never per event.
#[derive(Debug)]
struct TimelineCtx {
    tl: Timeline,
    interval_ns: u64,
    /// Next unsampled grid boundary.
    next_ns: u64,
    /// Last instant actually sampled (grid boundary or finalize).
    last_ns: Option<u64>,
    fast: BurnEdge,
    slow: BurnEdge,
}

/// Engine-facing state of one channel: what is on its wire and until when
/// its transmitter is busy. Lives beside [`Chan`], not in it — route
/// construction strides over the `Chan`s and slows with every byte there.
#[derive(Debug, Default)]
struct Wire {
    /// Packets serialized onto the wire, each under the `(deliver_at, seq)`
    /// key reserved at its tx start. Keys are monotone per channel, so only
    /// the head owns an engine event (`Ev::Deliver`); firing it keys the
    /// next head.
    fifo: VecDeque<(SimTime, u64, Packet)>,
    /// Engine key `(busy_until, txdone_seq)` of the `TxDone` ending the
    /// latest transmission, reserved at its start. The transmitter is busy
    /// until the engine's cursor reaches that key, whether or not the event
    /// was ever inserted.
    busy_until: SimTime,
    txdone_seq: u64,
    /// Whether that `TxDone` is in the engine. It goes in only once a
    /// packet waits behind the transmission.
    txdone_scheduled: bool,
}

/// The simulated network.
pub struct Net {
    engine: Engine<Ev>,
    nodes: Vec<Node>,
    chans: Vec<Chan>,
    queues: Vec<Queue>,
    wires: Vec<Wire>,
    routes: RouteTable,
    /// Reusable buffer for shaper releases (no per-event allocation).
    shaper_scratch: Vec<Packet>,
    cpu_wakes: ColdTable<CpuWake>,
    shaper_wakes: ColdTable<ShaperWake>,
    pub recorder: Recorder,
    pub rng: SimRng,
    pub drops: DropStats,
    /// Shared observability bundle: live counters, the flight recorder,
    /// and the registry that [`Net::publish_metrics`] snapshots into.
    pub obs: Obs,
    ctrs: NetCounters,
    next_pkt_id: u64,
    /// `TxDone` keys that became engine events (the rest were elided).
    txdone_inserted: u64,
    /// Host-timer keys superseded before they were ever inserted
    /// ([`Net::host_timer_elided`]).
    timers_elided: u64,
    /// Fault-injection state; `None` (one branch per delivery) until
    /// [`Net::install_fault_plan`] is called.
    faults: Option<Box<FaultLayer>>,
    /// Packet-lifecycle tracer; `None` (one branch per hook site) until
    /// [`Net::enable_packet_tracing`] is called.
    lifecycle: Option<Box<PacketTracer>>,
    /// Set when this `Net` is one shard of a partitioned world
    /// ([`crate::shard`]); `None` for monolithic worlds.
    shard: Option<Box<ShardCtx>>,
    /// Fixed-interval time-series sampler; `None` (sampling off, provably
    /// free) until [`Net::enable_timeline`] is called.
    timeline: Option<Box<TimelineCtx>>,
}

impl Net {
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        chans: Vec<Chan>,
        queues: Vec<Queue>,
        routes: RouteTable,
        seed: u64,
    ) -> Self {
        let mut obs = Obs::new();
        let ctrs = NetCounters::register(&mut obs);
        Net {
            engine: Engine::new(),
            nodes,
            wires: chans.iter().map(|_| Wire::default()).collect(),
            chans,
            queues,
            routes,
            shaper_scratch: Vec::new(),
            cpu_wakes: ColdTable::new(),
            shaper_wakes: ColdTable::new(),
            recorder: Recorder::new(),
            rng: SimRng::new(seed),
            drops: DropStats::default(),
            obs,
            ctrs,
            next_pkt_id: 0,
            txdone_inserted: 0,
            timers_elided: 0,
            faults: None,
            lifecycle: None,
            shard: None,
            timeline: None,
        }
    }

    /// Mark this copy as shard `shard` of a partitioned world. Only events
    /// for nodes this shard owns may ever enter its engine; the one
    /// mechanism that would violate that — a transmission whose channel
    /// lands on a foreign node — is diverted into the outbox instead (see
    /// `try_start_tx` and [`crate::shard`]).
    pub(crate) fn set_shard_ctx(&mut self, shard: u32, shard_of: std::sync::Arc<[u32]>) {
        assert_eq!(
            shard_of.len(),
            self.nodes.len(),
            "shard map covers a different topology"
        );
        assert!(
            self.shard.is_none(),
            "net is already bound to shard {}",
            self.shard.as_ref().unwrap().shard
        );
        assert!(
            self.lifecycle.is_none(),
            "packet lifecycle tracing is not shard-safe; trace a monolithic run"
        );
        self.shard = Some(Box::new(ShardCtx {
            shard,
            shard_of,
            outbox: Vec::new(),
            next_seq: 0,
            windows: 0,
            windows_skipped: 0,
            cross_in: 0,
        }));
    }

    /// Drain the cross-shard deliveries produced since the last call.
    pub(crate) fn take_outbox(&mut self) -> Vec<XMsg> {
        self.shard
            .as_mut()
            .map(|s| std::mem::take(&mut s.outbox))
            .unwrap_or_default()
    }

    /// Put one cross-shard delivery received at a barrier on its wire. The
    /// caller presents messages in merge order (so per channel in time
    /// order); `at` is always at or beyond the window edge, hence `> now`,
    /// so this can never schedule into the past.
    pub(crate) fn inject_cross(&mut self, m: XMsg) {
        if let Some(sc) = self.shard.as_deref_mut() {
            sc.cross_in += 1;
        }
        self.put_on_wire(m.chan, m.at, m.pkt);
    }

    /// Record one parallel-engine window barrier for this shard: bump the
    /// self-profiling totals and, with sampling on, push the `shard{i}.*`
    /// series at the window edge `at_ns`. `injected` is the number of
    /// cross-shard messages drained from the inbox at this barrier;
    /// `skipped` is how many whole idle windows the schedule jumped since
    /// the previous barrier. No-op for monolithic worlds.
    pub(crate) fn shard_window_mark(&mut self, at_ns: u64, injected: u64, skipped: u64) {
        let Some(sc) = self.shard.as_deref_mut() else {
            return;
        };
        sc.windows += 1;
        sc.windows_skipped += skipped;
        let shard = sc.shard;
        let Some(mut ctx) = self.timeline.take() else {
            return;
        };
        let mut tick = ctx.tl.tick(at_ns);
        self.walk_shard(&mut tick);
        let p = format!("shard{shard:02}");
        tick.gauge(&format!("{p}.inbox_depth"), injected as f64);
        tick.gauge(&format!("{p}.pending_events"), self.engine.len() as f64);
        self.timeline = Some(ctx);
    }

    /// Earliest pending event time, if any — drives the shard engine's
    /// idle-window skip.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.engine.peek_time()
    }

    /// FNV-1a digest of the world's externally observable physics: clock,
    /// per-channel wire counters, and drop ledger. Two runs of the same
    /// world are physically identical iff these digests match per shard;
    /// the parallel-engine determinism gates compare them across thread
    /// counts. The event count is deliberately not folded in: it is a
    /// schedule-cost figure ([`Net::events_processed`]) that engine work may
    /// lower without touching physics, and gates that want it compare it
    /// alongside.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.now().as_nanos());
        h.u64(self.chans.len() as u64);
        for c in &self.chans {
            h.u64(c.tx_packets);
            h.u64(c.tx_bytes_wire);
            h.u64(c.rx_packets);
        }
        h.u64(self.drops.policed);
        h.u64(self.drops.queue_full);
        h.u64(self.drops.misrouted);
        h.u64(self.obs.metrics.counter_value("net.pkts.sent").unwrap_or(0));
        h.u64(
            self.obs
                .metrics
                .counter_value("net.pkts.delivered")
                .unwrap_or(0),
        );
        h.finish()
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Events dispatched so far: what the run cost to schedule, not what
    /// it simulated (see [`Net::state_fingerprint`]).
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// `TxDone` keys reserved at a tx start whose transmission ended with
    /// nobody waiting, so the event was never inserted.
    fn txdone_elided(&self) -> u64 {
        let cur = self.engine.cursor();
        let started: u64 = self.chans.iter().map(|c| c.tx_packets).sum();
        // Still transmitting, not inserted yet: may go either way.
        let undecided = self
            .wires
            .iter()
            .filter(|w| !w.txdone_scheduled && (w.busy_until, w.txdone_seq) > cur)
            .count() as u64;
        started - self.txdone_inserted - undecided
    }

    /// The event queue's operation counters, for diagnostics.
    #[doc(hidden)]
    pub fn scheduler_stats(&self) -> mpichgq_sim::CalendarStats {
        self.engine.calendar_stats()
    }

    /// Number of events currently pending in the engine: the things that
    /// can happen next, not the packets in flight (those wait on their
    /// wires; see [`NetAudit::wire_pkts`]) nor the timers ever armed.
    pub fn pending_events(&self) -> usize {
        self.engine.len()
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn chan(&self, id: ChanId) -> &Chan {
        &self.chans[id.0 as usize]
    }

    pub fn queue_stats(&self, id: ChanId) -> QueueStats {
        self.queues[id.0 as usize].stats()
    }

    /// The outgoing channel `from` uses to reach `to`, if any.
    #[inline]
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<ChanId> {
        self.routes.get(from, to)
    }

    /// The sum of per-hop propagation delays from `a` to `b` (no queueing or
    /// serialization) — what the QoS agent uses for `bandwidth × delay`
    /// bucket sizing.
    pub fn path_delay(&self, a: NodeId, b: NodeId) -> Option<mpichgq_sim::SimDelta> {
        self.nodes.get(a.0.max(b.0) as usize)?; // no such node (`a == b` asks no route)
        let mut cur = a;
        let mut total = mpichgq_sim::SimDelta::ZERO;
        let mut hops = 0;
        while cur != b {
            let chan = self.route(cur, b)?;
            let c = &self.chans[chan.0 as usize];
            total += c.cfg.delay;
            cur = c.to;
            hops += 1;
            if hops > self.nodes.len() {
                return None; // routing loop guard
            }
        }
        Some(total)
    }

    /// The ordered list of channels a packet from `a` to `b` traverses.
    pub fn path_chans(&self, a: NodeId, b: NodeId) -> Option<Vec<ChanId>> {
        self.nodes.get(a.0.max(b.0) as usize)?; // as in `path_delay`
        let mut cur = a;
        let mut out = Vec::new();
        while cur != b {
            let chan = self.route(cur, b)?;
            out.push(chan);
            cur = self.chans[chan.0 as usize].to;
            if out.len() > self.nodes.len() {
                return None;
            }
        }
        Some(out)
    }

    /// All directed channels, for resource-manager registration sweeps.
    pub fn chan_ids(&self) -> impl Iterator<Item = ChanId> {
        (0..self.chans.len() as u32).map(ChanId)
    }

    /// Flag a channel as edge ingress, so the downstream router classifies
    /// arrivals on it. Host→router channels are flagged automatically; use
    /// this for inter-domain router links, where "the ingress router of a
    /// domain \[polices\] the premium aggregate" (§5.1).
    pub fn set_edge_ingress(&mut self, chan: ChanId, flag: bool) {
        self.chans[chan.0 as usize].edge_ingress = flag;
    }

    /// Allocate a fresh packet id (for tracing).
    pub(crate) fn alloc_pkt_id(&mut self) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a [`FaultPlan`]: every scripted action is scheduled through
    /// the engine and fires in event order at its scripted time. The first
    /// installed plan's seed initializes the fault layer's private RNG;
    /// further plans add actions to the same layer.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        if let Some(sc) = self.shard.as_deref() {
            // A channel's fault state is consulted on both sides of the
            // wire (tx gate in the owner-of-`from` copy, delivery verdict
            // in the owner-of-`to` copy), so faults on cross-shard channels
            // would need replicated state. Reject them instead of silently
            // diverging.
            for &(_, action) in plan.actions() {
                let chan = match action {
                    FaultAction::LinkDown(c) | FaultAction::LinkUp(c) => Some(c),
                    FaultAction::LossBurst { chan, .. }
                    | FaultAction::CorruptBurst { chan, .. } => Some(chan),
                    FaultAction::CpuThrottle { host, .. }
                    | FaultAction::HostCrash { host }
                    | FaultAction::HostRestart { host } => {
                        assert_eq!(
                            sc.shard_of[host.0 as usize], sc.shard,
                            "fault plan targets host {} owned by shard {}, \
                             but this net is shard {}; install the plan on the \
                             owning shard",
                            host.0, sc.shard_of[host.0 as usize], sc.shard
                        );
                        None
                    }
                };
                if let Some(c) = chan {
                    let ch = &self.chans[c.0 as usize];
                    let (sf, st) = (
                        sc.shard_of[ch.from.0 as usize],
                        sc.shard_of[ch.to.0 as usize],
                    );
                    assert!(
                        sf == sc.shard && st == sc.shard,
                        "fault plan targets chan {} ({} -> {}, shards {} -> {}), \
                         which is not fully owned by shard {}; faults on \
                         cross-shard links are not shard-safe",
                        c.0,
                        ch.from.0,
                        ch.to.0,
                        sf,
                        st,
                        sc.shard
                    );
                }
            }
        }
        for &(_, action) in plan.actions() {
            if let FaultAction::HostCrash { host } | FaultAction::HostRestart { host } = action {
                assert_eq!(
                    self.nodes[host.0 as usize].kind,
                    NodeKind::Host,
                    "HostCrash/HostRestart targets node {} ({}), which is a \
                     router; only hosts crash",
                    host.0,
                    self.nodes[host.0 as usize].name
                );
            }
        }
        let (n_chans, n_nodes) = (self.chans.len(), self.nodes.len());
        let f = self
            .faults
            .get_or_insert_with(|| Box::new(FaultLayer::new(plan.seed(), n_chans, n_nodes)));
        for &(at, action) in plan.actions() {
            let idx = f.add_action(action);
            self.engine.schedule(at, Ev::Fault { idx });
        }
    }

    /// Drop accounting of the fault layer, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Whether `host` is currently crashed by a `HostCrash` fault.
    pub(crate) fn host_is_down(&self, host: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.host_is_down(host))
    }

    /// Fire action `idx` of the installed plans.
    fn apply_fault<H: NetHandler>(&mut self, idx: u32, h: &mut H) {
        let now = self.now();
        let Some(f) = self.faults.as_mut() else {
            return; // plan-scheduled events always find the layer installed
        };
        match f.action(idx) {
            FaultAction::LinkDown(chan) => {
                f.set_down(chan, true);
                self.obs
                    .trace
                    .record(now, "fault.link_down", chan.0 as u64, 0);
            }
            FaultAction::LinkUp(chan) => {
                f.set_down(chan, false);
                self.obs
                    .trace
                    .record(now, "fault.link_up", chan.0 as u64, 0);
                // Resume draining whatever queued up during the outage.
                self.try_start_tx(chan);
            }
            FaultAction::LossBurst {
                chan,
                per_mille,
                duration,
            } => {
                f.set_loss(chan, per_mille, now + duration);
                self.obs
                    .trace
                    .record(now, "fault.loss_burst", chan.0 as u64, per_mille as i64);
            }
            FaultAction::CorruptBurst {
                chan,
                per_mille,
                duration,
            } => {
                f.set_corrupt(chan, per_mille, now + duration);
                self.obs
                    .trace
                    .record(now, "fault.corrupt_burst", chan.0 as u64, per_mille as i64);
            }
            FaultAction::CpuThrottle {
                host,
                per_mille,
                duration,
            } => {
                self.obs
                    .trace
                    .record(now, "fault.cpu_throttle", host.0 as u64, per_mille as i64);
                f.set_throttle(host, per_mille, duration.map(|d| now + d));
                if let Some(d) = duration {
                    self.engine.schedule(now + d, Ev::ThrottleExpire { host });
                }
                let eff = f.effective_throttle(host, now);
                self.cpu_set_throttle(host, eff as f64 / 1000.0);
            }
            FaultAction::HostCrash { host } => self.host_crash(host, h),
            FaultAction::HostRestart { host } => self.host_restart(host, h),
        }
    }

    /// Take `host` down: silence its egress (purge queued and shaper-held
    /// packets into the `drops.host_down` ledger column), gate its future
    /// tx/rx, and hand the crash up to the handler so applications die.
    /// A crash of an already-dead host is a no-op.
    fn host_crash<H: NetHandler>(&mut self, host: NodeId, h: &mut H) {
        let now = self.now();
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if !f.set_host_down(host, true) {
            return;
        }
        self.obs
            .trace
            .record(now, "fault.host_crash", host.0 as u64, 0);
        let mut purged: u64 = 0;
        // Egress interface queues: pop (so the queue ledger still balances)
        // and charge each packet to the crash instead of a transmission.
        let ifaces = self.nodes[host.0 as usize].ifaces.clone();
        for chan in ifaces {
            while let Some(pkt) = self.queues[chan.0 as usize].pop() {
                self.chans[chan.0 as usize].purged += 1;
                purged += 1;
                self.obs.trace.record(
                    now,
                    "fault.drop.host_down",
                    chan.0 as u64,
                    pkt.ip_len() as i64,
                );
                if let Some(t) = self.lifecycle.as_deref_mut() {
                    t.on_drop(now, pkt.id, SpanKind::DropFault, chan.0);
                }
            }
        }
        // Shaper backlogs die with the host. Bumping the generation lazily
        // cancels any armed release event.
        for s in &mut self.nodes[host.0 as usize].shapers {
            s.gen += 1;
            s.armed = false;
            for pkt in std::mem::take(&mut s.queue) {
                purged += 1;
                self.obs.trace.record(
                    now,
                    "fault.drop.host_down",
                    host.0 as u64,
                    pkt.ip_len() as i64,
                );
                if let Some(t) = self.lifecycle.as_deref_mut() {
                    t.on_drop(now, pkt.id, SpanKind::DropFault, u32::MAX);
                }
            }
        }
        self.faults
            .as_mut()
            .expect("checked above")
            .stats
            .drops_host_down += purged;
        h.host_crashed(self, host);
    }

    /// Bring a crashed `host` back: tx/rx gates lift, the effective CPU
    /// throttle is re-applied, and the handler runs its restart hooks.
    /// Restarting a live host is a no-op.
    fn host_restart<H: NetHandler>(&mut self, host: NodeId, h: &mut H) {
        let now = self.now();
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if !f.set_host_down(host, false) {
            return;
        }
        self.obs
            .trace
            .record(now, "fault.host_restart", host.0 as u64, 0);
        let eff = self
            .faults
            .as_mut()
            .expect("checked above")
            .effective_throttle(host, now);
        self.cpu_set_throttle(host, eff as f64 / 1000.0);
        h.host_restarted(self, host);
    }

    // ------------------------------------------------------------------
    // Packet-lifecycle tracing + SLO conformance
    // ------------------------------------------------------------------

    /// Turn on packet-lifecycle tracing with the default span bound.
    /// Until this (or [`Net::set_deadline_matching`]) is called, every
    /// lifecycle hook is a single predictable branch.
    pub fn enable_packet_tracing(&mut self) {
        self.enable_packet_tracing_with(DEFAULT_MAX_SPANS);
    }

    /// Turn on packet-lifecycle tracing, retaining at most `max_spans`
    /// lifecycle spans (histograms and SLO counters are unbounded either
    /// way; spans past the bound are counted, not kept). Re-enabling
    /// keeps existing tracer state.
    ///
    /// `max_spans == 0` is valid: the span log never allocates and every
    /// span counts in `trace.spans_dropped`, while flows, delay, jitter
    /// and queue-wait histograms, deadline misses and `slo.miss` events
    /// update as usual. qcheck's fuzz scenarios trace this way; the
    /// Chrome trace export then holds only process-name metadata and the
    /// `otherData` summary.
    pub fn enable_packet_tracing_with(&mut self, max_spans: usize) {
        // A cross-shard packet's span would start in the sender's tracer
        // and end in the receiver's — neither copy sees a whole lifecycle,
        // so tracing a shard would publish misleading SLO numbers.
        assert!(
            self.shard.is_none(),
            "packet lifecycle tracing is not shard-safe; trace a monolithic run"
        );
        if self.lifecycle.is_none() {
            self.lifecycle = Some(Box::new(PacketTracer::new(max_spans)));
        }
    }

    /// The lifecycle tracer, if tracing is enabled.
    pub fn packet_tracer(&self) -> Option<&PacketTracer> {
        self.lifecycle.as_deref()
    }

    /// Install a delivery deadline for every flow matching `spec` (current
    /// and future; a flow's first matching rule wins). Deliveries later
    /// than `deadline` after [`Packet::born`] count as SLO misses: per-flow
    /// miss counters and miss-streak high-water marks update, and a
    /// `slo.miss` event (key = flow index, value = delay in ns) lands in
    /// the flight recorder. Enables lifecycle tracing if it was off.
    pub fn set_deadline_matching(&mut self, spec: FlowSpec, deadline: SimDelta) {
        self.enable_packet_tracing();
        self.lifecycle
            .as_deref_mut()
            .expect("just enabled")
            .add_deadline_rule(spec, deadline.as_nanos());
    }

    /// Export the lifecycle span log as a Chrome trace-event JSON document
    /// (loadable in Perfetto / `chrome://tracing`; one process per channel,
    /// then one per flow for flow-scoped spans). With tracing disabled this
    /// returns an empty-but-valid trace document.
    pub fn chrome_trace_json(&self) -> String {
        match &self.lifecycle {
            Some(t) => {
                let names: Vec<String> = self.nodes.iter().map(|n| n.name.clone()).collect();
                // One reservation: the span events, which are nearly all of
                // the document, plus room for the metadata and summary.
                let mut w = JsonWriter::with_capacity(
                    t.spans().len() * crate::lifecycle::CHROME_TRACE_BYTES_PER_SPAN + 4096,
                );
                t.write_chrome_trace(&mut w, &self.chans, &names);
                w.finish()
            }
            None => {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.key("traceEvents");
                w.begin_array();
                w.end_array();
                w.key("displayTimeUnit");
                w.string("ms");
                w.end_object();
                w.finish()
            }
        }
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// The one idle-interface gate: every interface that ever enqueued or
    /// dropped a packet, with its queue statistics. Idle interfaces appear
    /// in no read-out, which keeps snapshots readable.
    fn active_ifaces(&self) -> impl Iterator<Item = (usize, &Queue, QueueStats)> {
        self.queues.iter().enumerate().filter_map(|(i, q)| {
            let st = q.stats();
            let seen = st.enq_be
                + st.enq_ef
                + st.enq_af
                + st.drop_be
                + st.drop_ef
                + st.drop_af
                + st.early_total();
            (seen > 0).then_some((i, q, st))
        })
    }

    /// The metric catalog below the transport layer, stated once: engine
    /// totals, drop causes, fault counters, per-interface queue counters
    /// and high-water marks, per-rule policer counters and token-bucket
    /// levels, per-shaper pacing state, SLO misses. [`Net::publish_metrics`]
    /// walks it into the registry and the sampler walks it into each tick,
    /// so the two agree by construction. `&self` and a sink that only
    /// takes values: reading cannot move what is read.
    fn walk_metrics<S: MetricSink>(&self, at: SimTime, sink: &mut S) {
        sink.counter("engine.events_processed", self.engine.processed());
        sink.gauge("engine.pending_events", self.engine.len() as f64);
        sink.counter("engine.events_elided.txdone", self.txdone_elided());
        sink.counter("engine.events_elided.timer", self.timers_elided);
        let cs = self.engine.calendar_stats();
        sink.counter("engine.calendar.rebuilds", cs.rebuilds);
        sink.counter("engine.calendar.fallbacks", cs.fallbacks);
        sink.counter("engine.calendar.scan_steps", cs.scan_steps);
        sink.counter("engine.calendar.slow_pushes", cs.slow_pushes);
        sink.counter("net.drops.policed", self.drops.policed);
        sink.counter("net.drops.queue_full", self.drops.queue_full);
        sink.counter("net.drops.misrouted", self.drops.misrouted);
        gated_counter(sink, "net.drops.red_early", self.drops.red_early);
        if let Some(f) = &self.faults {
            sink.counter("faults.drops.link_down", f.stats.drops_link_down);
            sink.counter("faults.drops.loss", f.stats.drops_loss);
            sink.counter("faults.drops.corrupt", f.stats.drops_corrupt);
            sink.counter("faults.link_downs", f.stats.link_downs);
            sink.counter("faults.link_ups", f.stats.link_ups);
            // Host-fault keys appear only once a crash actually happened,
            // so legacy snapshots stay byte-identical.
            if f.stats.host_crashes + f.stats.host_restarts > 0 {
                sink.counter("faults.drops.host_down", f.stats.drops_host_down);
                sink.counter("faults.host_crashes", f.stats.host_crashes);
                sink.counter("faults.host_restarts", f.stats.host_restarts);
            }
        }

        let mut early = [0u64; 3]; // qdisc.* aggregates: [ef, af, be]
        let mut sched_violations = 0u64;
        for (i, q, st) in self.active_ifaces() {
            early[0] += st.early_ef;
            early[1] += st.early_af.iter().sum::<u64>();
            early[2] += st.early_be;
            sched_violations += st.sched_violations;
            let c = &self.chans[i];
            let p = Scope::new("iface", i as u64);
            sink.counter_in(p, "enq_ef", st.enq_ef);
            sink.counter_in(p, "enq_be", st.enq_be);
            sink.counter_in(p, "drop_ef", st.drop_ef);
            sink.counter_in(p, "drop_be", st.drop_be);
            sink.counter_in(p, "dequeued", st.dequeued);
            sink.counter_in(p, "bytes_dequeued", st.bytes_dequeued);
            sink.counter_in(p, "tx_packets", c.tx_packets);
            sink.counter_in(p, "tx_bytes_wire", c.tx_bytes_wire);
            sink.counter_in(p, "rx_packets", c.rx_packets);
            sink.counter_in(p, "prio_inversions", st.prio_inversions);
            sink.gauge_in(p, "hw_ef_bytes", st.hw_ef_bytes as f64);
            sink.gauge_in(p, "hw_be_bytes", st.hw_be_bytes as f64);
            sink.gauge_in(p, "backlog_bytes", q.backlog_bytes() as f64);
            sink.gauge_in(p, "backlog_pkts", q.len() as f64);
            gated_counter_in(sink, p, "enq_af", st.enq_af);
            gated_counter_in(sink, p, "drop_af", st.drop_af);
            if st.hw_af_bytes > 0 {
                sink.gauge_in(p, "hw_af_bytes", st.hw_af_bytes as f64);
            }
            gated_counter_in(sink, p, "early_ef", st.early_ef);
            gated_counter_in(sink, p, "early_be", st.early_be);
            for (leaf, &n) in EARLY_AF.iter().zip(&st.early_af) {
                gated_counter_in(sink, p, leaf, n);
            }
            gated_counter_in(sink, p, "sched_violations", st.sched_violations);
        }
        gated_counter(sink, "qdisc.early_drops.ef", early[0]);
        gated_counter(sink, "qdisc.early_drops.af", early[1]);
        gated_counter(sink, "qdisc.early_drops.be", early[2]);
        gated_counter(sink, "qdisc.sched_violations", sched_violations);

        let bucket_level = |sink: &mut S, p: Scope, tb: &TokenBucket| {
            sink.gauge_in(p, "bucket_level_bytes", tb.peek_available(at));
        };
        let shard = self.shard.as_deref();
        for (n, node) in self.nodes.iter().enumerate() {
            // Node-local series come from the copy that executes the node:
            // a foreign copy's rules and shapers sit idle at their initial
            // state and would publish a second, wrong reading of the node.
            if shard.is_some_and(|sc| sc.shard_of[n] != sc.shard) {
                continue;
            }
            let node_scope = Scope::new("node", n as u64);
            let cs = node.classifier.stats();
            if cs.marked_ef + cs.demoted + cs.marked_af + cs.remarked > 0 {
                sink.counter_in(node_scope, "marked_ef", cs.marked_ef);
                sink.counter_in(node_scope, "demoted", cs.demoted);
                gated_counter_in(sink, node_scope, "marked_af", cs.marked_af);
                gated_counter_in(sink, node_scope, "remarked", cs.remarked);
            }
            for r in node.classifier.rules() {
                let p = node_scope.sub("rule", r.id);
                sink.counter_in(p, "conformant_pkts", r.stats.conformant_pkts);
                sink.counter_in(p, "conformant_bytes", r.stats.conformant_bytes);
                sink.counter_in(p, "policed_pkts", r.stats.policed_pkts);
                sink.counter_in(p, "policed_bytes", r.stats.policed_bytes);
                if let Some(tb) = &r.policer {
                    bucket_level(sink, p, tb);
                }
            }
            for s in &node.shapers {
                let p = node_scope.sub("shaper", s.id);
                sink.counter_in(p, "passed", s.stats.passed);
                sink.counter_in(p, "delayed", s.stats.delayed);
                sink.gauge_in(p, "backlog_bytes", s.backlog_bytes() as f64);
                sink.gauge_in(p, "backlog_pkts", s.queue.len() as f64);
                let max_backlog = s.stats.max_backlog_bytes as f64;
                sink.gauge_in(p, "max_backlog_bytes", max_backlog);
                bucket_level(sink, p, &s.bucket);
            }
        }

        if let Some(t) = &self.lifecycle {
            sink.counter("slo.misses", t.total_misses());
        }
    }

    /// The parallel-engine self-profiling totals of this shard copy
    /// (nothing for a monolithic world).
    fn walk_shard<S: MetricSink>(&self, sink: &mut S) {
        let Some(sc) = self.shard.as_deref() else {
            return;
        };
        let p = format!("shard{:02}", sc.shard);
        sink.counter(&format!("{p}.windows"), sc.windows);
        sink.counter(&format!("{p}.windows_skipped"), sc.windows_skipped);
        sink.counter(&format!("{p}.events"), self.engine.processed());
        sink.counter(&format!("{p}.cross_out"), sc.next_seq);
        sink.counter(&format!("{p}.cross_in"), sc.cross_in);
    }

    /// Publish every component-local statistic into the shared registry:
    /// the metric walk (`walk_metrics`, the one the sampler also takes),
    /// then what only a snapshot carries — the shard totals and the
    /// lifecycle tracer's histograms. Live counters (packets sent/delivered,
    /// anything other layers incremented) are already there; this makes the
    /// registry a complete picture of the run at the moment of the call.
    pub fn publish_metrics(&mut self) {
        // The walk borrows all of `self`; it never reads the registry.
        let mut m = std::mem::take(&mut self.obs.metrics);
        self.walk_metrics(self.now(), &mut m);
        self.walk_shard(&mut m);
        if let Some(t) = &self.lifecycle {
            t.publish(&mut m);
        }
        self.obs.metrics = m;
    }

    /// [`Net::publish_metrics`] followed by a full JSON snapshot — what the
    /// experiment binaries write to `results/<experiment>/metrics.json`.
    /// With lifecycle tracing on, the snapshot carries per-flow delay and
    /// jitter histograms plus per-class queue-wait histograms under
    /// `"histograms"`, and the deadline-conformance report under `"slo"`.
    pub fn metrics_json(&mut self) -> String {
        self.publish_metrics();
        match &self.lifecycle {
            Some(t) => {
                let mut w = JsonWriter::new();
                t.write_slo_json(&mut w);
                let slo = w.finish();
                self.obs.snapshot_json_with(&[("slo", &slo)])
            }
            None => self.obs.snapshot_json(),
        }
    }

    // ------------------------------------------------------------------
    // Time-series sampling
    // ------------------------------------------------------------------

    /// Arm the fixed-interval time-series sampler. From the next grid
    /// boundary on, every [`Net::run_until`] stops the clock at each
    /// multiple of `interval` it crosses and records one sample of every
    /// instrumented series. The boundaries are pure clock stops: no events
    /// are scheduled, the pop order is untouched, and nothing consults the
    /// RNG, so an armed run executes the exact event sequence a disarmed
    /// run would. Until this is called, sampling costs one pointer-null
    /// branch per `run_until` call.
    pub fn enable_timeline(&mut self, interval: SimDelta) {
        let i = interval.as_nanos();
        assert!(i > 0, "timeline interval must be positive");
        assert!(
            self.timeline.is_none(),
            "timeline sampling is already enabled"
        );
        let next_ns = (self.now().as_nanos() / i + 1) * i;
        self.timeline = Some(Box::new(TimelineCtx {
            tl: Timeline::new(i),
            interval_ns: i,
            next_ns,
            last_ns: None,
            fast: BurnEdge::default(),
            slow: BurnEdge::default(),
        }));
    }

    /// Whether the time-series sampler is armed.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    /// The timeline sampled so far, if the sampler is armed.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_deref().map(|c| &c.tl)
    }

    /// Serialize the sampled timeline as deterministic JSON (the
    /// `results/<experiment>/timeline.json` document), if armed.
    pub fn timeline_json(&self) -> Option<String> {
        self.timeline.as_deref().map(|c| c.tl.to_json())
    }

    /// Take one final sample at `at` unless the grid already sampled that
    /// exact instant — so every series ends precisely at the end of the
    /// run regardless of grid alignment. Call once, after the final
    /// [`Net::run_until`].
    pub fn timeline_finalize<H: NetHandler>(&mut self, h: &mut H, at: SimTime) {
        let at_ns = at.as_nanos();
        let sampled = self.timeline.as_deref().map(|c| c.last_ns);
        if sampled.is_some_and(|last| last != Some(at_ns)) {
            self.timeline_sample_tick(h, at_ns);
        }
    }

    /// One sample tick at grid boundary (or finalize instant) `at_ns`:
    /// core netsim series, then registry sweep, then handler probes, then
    /// the SLO burn-rate windows.
    fn timeline_sample_tick<H: NetHandler>(&mut self, h: &mut H, at_ns: u64) {
        // Out of `self` for the tick: the walk and the probes read all of
        // `&self` while they write the timeline.
        let Some(mut ctx) = self.timeline.take() else {
            return;
        };
        ctx.last_ns = Some(at_ns);
        let at = SimTime::from_nanos(at_ns);
        self.sample_core(at, &mut ctx.tl.tick(at_ns));
        // Live counters and gauges (anything other layers increment in
        // place) are always current in the registry; sweeping them after
        // the explicit pushes means explicitly sampled series are already
        // marked live and skipped.
        for (name, v) in self.obs.metrics.counters() {
            ctx.tl.sweep_counter(name, at_ns, v);
        }
        for (name, v) in self.obs.metrics.gauges() {
            ctx.tl.sweep_gauge(name, at_ns, v);
        }
        h.timeline_sample(self, at, &mut ctx.tl.tick(at_ns));
        self.timeline_burn_tick(&mut ctx, at);
        self.timeline = Some(ctx);
    }

    /// One tick of the network's own series: [`Net::walk_metrics`], then
    /// what only a time series carries — per-class queue occupancy.
    /// Instantaneous queue composition is exactly what a fixed-interval
    /// series is for, while a point-in-time registry gauge of it would be
    /// noise.
    fn sample_core(&self, at: SimTime, tick: &mut Tick<'_>) {
        self.walk_metrics(at, tick);
        for (i, q, _) in self.active_ifaces() {
            let (p, cb) = (Scope::new("iface", i as u64), q.class_backlog_bytes());
            tick.gauge_in(p, "backlog_ef_bytes", cb[0] as f64);
            tick.gauge_in(p, "backlog_af_bytes", cb[1] as f64);
            tick.gauge_in(p, "backlog_be_bytes", cb[2] as f64);
        }
    }

    /// Compute the multi-window SLO burn rates off the just-sampled series
    /// and record threshold crossings in the flight recorder. Burn is the
    /// deadline-miss rate over a trailing window divided by the error
    /// budget ([`BURN_BUDGET`]); the fast window reacts in
    /// [`BURN_FAST_TICKS`] intervals, the slow window smooths over
    /// [`BURN_SLOW_TICKS`].
    fn timeline_burn_tick(&mut self, ctx: &mut TimelineCtx, at: SimTime) {
        if self.lifecycle.is_none() {
            return;
        }
        let at_ns = at.as_nanos();
        let fast = burn_over(&ctx.tl, at_ns, ctx.interval_ns * BURN_FAST_TICKS);
        let slow = burn_over(&ctx.tl, at_ns, ctx.interval_ns * BURN_SLOW_TICKS);
        ctx.tl.push_gauge("slo.burn.fast", at_ns, fast);
        ctx.tl.push_gauge("slo.burn.slow", at_ns, slow);
        for (edge, burn, key) in [(&mut ctx.fast, fast, 1), (&mut ctx.slow, slow, 2)] {
            if let Some(entered) = edge.update(burn) {
                let kind = if entered { "slo.burn" } else { "slo.burn.ok" };
                self.obs.trace.record(at, kind, key, (burn * 1000.0) as i64);
            }
        }
    }

    /// Take a cross-layer conservation snapshot (the qcheck invariant
    /// battery's raw material). Valid at *any* instant, not just after a
    /// drain: every packet ever injected by [`Net::send_ip`] is, right now,
    /// exactly one of delivered / dropped-for-a-named-cause / waiting in a
    /// shaper or interface queue / serialized onto a wire. Read-only: an
    /// audited run and an unaudited one stay bit-identical.
    pub fn audit(&self) -> NetAudit {
        let now = self.now();
        let mut chans = Vec::with_capacity(self.chans.len());
        let mut queued_pkts = 0u64;
        let mut wire_pkts = 0u64;
        let mut prio_inversions = 0u64;
        let mut sched_violations = 0u64;
        for (i, c) in self.chans.iter().enumerate() {
            let q = &self.queues[i];
            let st = q.stats();
            let ca = ChanAudit {
                chan: ChanId(i as u32),
                enqueued: st.enq_be + st.enq_ef + st.enq_af,
                dequeued: st.dequeued,
                queued_pkts: q.len(),
                tx_packets: c.tx_packets,
                rx_packets: c.rx_packets,
                wire_fifo: self.wires[i].fifo.len() as u64,
                purged: c.purged,
                prio_inversions: st.prio_inversions,
            };
            queued_pkts += ca.queued_pkts;
            wire_pkts += ca.wire_in_flight();
            prio_inversions += ca.prio_inversions;
            sched_violations += st.sched_violations;
            chans.push(ca);
        }
        let mut shaper_pkts = 0u64;
        let mut bucket_violations = 0u64;
        let mut check = |tb: &TokenBucket| {
            if !(0.0..=tb.depth_bytes() as f64).contains(&tb.peek_available(now)) {
                bucket_violations += 1;
            }
        };
        for node in &self.nodes {
            let policers = node.classifier.rules().filter_map(|r| r.policer.as_ref());
            policers.for_each(&mut check);
            for s in &node.shapers {
                shaper_pkts += s.queue.len() as u64;
                check(&s.bucket);
            }
        }
        let fault_drops = self
            .faults
            .as_ref()
            .map(|f| {
                f.stats.drops_link_down
                    + f.stats.drops_loss
                    + f.stats.drops_corrupt
                    + f.stats.drops_host_down
            })
            .unwrap_or(0);
        NetAudit {
            sent: self.obs.metrics.counter_value("net.pkts.sent").unwrap_or(0),
            delivered: self
                .obs
                .metrics
                .counter_value("net.pkts.delivered")
                .unwrap_or(0),
            policed: self.drops.policed,
            queue_full: self.drops.queue_full,
            misrouted: self.drops.misrouted,
            fault_drops,
            queued_pkts,
            shaper_pkts,
            wire_pkts,
            prio_inversions,
            sched_violations,
            bucket_violations,
            chans,
        }
    }

    // ------------------------------------------------------------------
    // Transport-facing API
    // ------------------------------------------------------------------

    /// Inject `pkt` at its source host. The packet passes the host's egress
    /// shapers, then is routed toward `pkt.dst`.
    pub fn send_ip(&mut self, mut pkt: Packet) {
        let src = pkt.src;
        debug_assert_eq!(self.nodes[src.0 as usize].kind, NodeKind::Host);
        // A dead host sources nothing: the packet is never counted as sent,
        // so the conservation ledger never owes it anywhere. (The handler
        // killed the host's apps at crash time; this gate catches stragglers
        // driven by cross-host state.)
        if self.host_is_down(src) {
            return;
        }
        pkt.id = self.alloc_pkt_id();
        self.obs.metrics.inc(self.ctrs.pkts_sent, 1);
        let now = self.now();
        pkt.born = now;
        if let Some(t) = self.lifecycle.as_deref_mut() {
            t.on_send(now, &pkt);
        }
        // Egress shaping (first matching shaper wins). Single scan: the
        // match position doubles as the index for the mutable borrow.
        let node = &mut self.nodes[src.0 as usize];
        if let Some(pos) = node.shapers.iter().position(|s| s.spec.matches(&pkt)) {
            let s = &mut node.shapers[pos];
            let sid = s.id;
            let pid = pkt.id;
            match s.offer(now, pkt) {
                ShapeOutcome::PassThrough(p) => self.forward_from(src, p),
                ShapeOutcome::Queued { arm_at } => {
                    if let Some(t) = self.lifecycle.as_deref_mut() {
                        t.on_shaped(now, pid);
                    }
                    if let Some(at) = arm_at {
                        let gen = s.gen;
                        self.schedule_shaper_release(at, src, sid, gen);
                    }
                }
            }
        } else {
            self.forward_from(src, pkt);
        }
    }

    /// Arm a host-level timer; the handler receives (`host`, `token`).
    pub fn set_host_timer(&mut self, host: NodeId, at: SimTime, token: u64) {
        self.engine.schedule(at, Ev::HostTimer { host, token });
    }

    /// Reserve the engine key a [`Net::set_host_timer`] call made now would
    /// get, without arming anything — for callers that re-arm a timer far
    /// more often than it fires and insert (via
    /// [`Net::set_host_timer_keyed`]) only the arm that can fire next.
    #[inline]
    pub fn reserve_host_timer(&mut self) -> u64 {
        self.engine.reserve_seq()
    }

    /// Arm a host-level timer under a key from [`Net::reserve_host_timer`].
    pub fn set_host_timer_keyed(&mut self, host: NodeId, at: SimTime, seq: u64, token: u64) {
        self.engine
            .schedule_keyed(at, seq, Ev::HostTimer { host, token });
    }

    /// Record that a reserved host-timer key was superseded without ever
    /// having been inserted (`engine.events_elided.timer`).
    #[inline]
    pub fn host_timer_elided(&mut self) {
        self.timers_elided += 1;
    }

    /// The engine key `(time, seq)` of the event being dispatched; see
    /// [`mpichgq_sim::Engine::cursor`].
    #[inline]
    pub fn cursor(&self) -> (SimTime, u64) {
        self.engine.cursor()
    }

    /// Arm a scenario control point.
    pub fn schedule_control(&mut self, at: SimTime, token: u64) {
        self.engine.schedule(at, Ev::Control { token });
    }

    // ------------------------------------------------------------------
    // CPU (DSRT) API
    // ------------------------------------------------------------------

    pub fn cpu_add_process(&mut self, host: NodeId) -> ProcId {
        self.nodes[host.0 as usize].cpu.add_process()
    }

    pub fn cpu_spawn_hog(&mut self, host: NodeId) -> ProcId {
        let now = self.now();
        let (pid, ups) = self.nodes[host.0 as usize].cpu.spawn_hog(now);
        self.apply_cpu_updates(host, ups);
        pid
    }

    pub fn cpu_remove_process(&mut self, host: NodeId, pid: ProcId) {
        let now = self.now();
        let ups = self.nodes[host.0 as usize].cpu.remove_process(now, pid);
        self.apply_cpu_updates(host, ups);
    }

    pub fn cpu_set_reservation(
        &mut self,
        host: NodeId,
        pid: ProcId,
        fraction: Option<f64>,
    ) -> Result<(), AdmissionError> {
        let now = self.now();
        let ups = self.nodes[host.0 as usize]
            .cpu
            .set_reservation(now, pid, fraction)?;
        self.apply_cpu_updates(host, ups);
        Ok(())
    }

    pub fn cpu_start_work(
        &mut self,
        host: NodeId,
        pid: ProcId,
        cpu_time: mpichgq_sim::SimDelta,
    ) -> WorkId {
        let now = self.now();
        let (wid, ups) = self.nodes[host.0 as usize]
            .cpu
            .start_work(now, pid, cpu_time);
        self.apply_cpu_updates(host, ups);
        wid
    }

    pub fn cpu_share_of(&self, host: NodeId, pid: ProcId) -> f64 {
        self.nodes[host.0 as usize].cpu.share_of(pid)
    }

    /// Throttle `host`'s whole CPU to `factor` of its capacity (`1.0`
    /// restores full speed) — see [`mpichgq_dsrt::Cpu::set_throttle`].
    pub(crate) fn cpu_set_throttle(&mut self, host: NodeId, factor: f64) {
        let now = self.now();
        let ups = self.nodes[host.0 as usize].cpu.set_throttle(now, factor);
        self.apply_cpu_updates(host, ups);
    }

    fn apply_cpu_updates(&mut self, host: NodeId, updates: Vec<Update>) {
        for u in updates {
            let slot = self.cpu_wakes.put(CpuWake {
                host,
                work: u.work,
                gen: u.gen,
            });
            self.engine.schedule(u.eta, Ev::CpuDone { slot });
        }
    }

    fn schedule_shaper_release(&mut self, at: SimTime, host: NodeId, shaper: u64, gen: u64) {
        let slot = self.shaper_wakes.put(ShaperWake { host, shaper, gen });
        self.engine.schedule(at, Ev::ShaperRelease { slot });
    }

    // ------------------------------------------------------------------
    // QoS configuration API (used by GARA resource managers)
    // ------------------------------------------------------------------

    /// Install an egress shaper on `host`; returns its id.
    pub fn install_shaper(&mut self, host: NodeId, spec: FlowSpec, bucket: TokenBucket) -> u64 {
        let node = &mut self.nodes[host.0 as usize];
        let id = node.next_shaper_id;
        node.next_shaper_id += 1;
        node.shapers.push(Shaper::new(id, spec, bucket));
        id
    }

    /// Remove a shaper, forwarding anything still queued inside it.
    pub fn remove_shaper(&mut self, host: NodeId, id: u64) -> bool {
        let node = &mut self.nodes[host.0 as usize];
        let Some(pos) = node.shapers.iter().position(|s| s.id == id) else {
            return false;
        };
        let s = node.shapers.remove(pos);
        for p in s.queue {
            self.forward_from(host, p);
        }
        true
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Run until `limit`, dispatching host-level events to `h`. The clock
    /// ends exactly at `limit` (or the last event, whichever is later).
    ///
    /// With the sampler armed the loop first stops at each timeline grid
    /// boundary `<= limit`, samples there and advances the grid. The grid
    /// is a pure function of the clock, not of call granularity: a shard's
    /// windows or an audit's slices stopping at arbitrary limits sample
    /// the instants one `run_until(t_end)` would.
    pub fn run_until<H: NetHandler>(&mut self, h: &mut H, limit: SimTime) {
        loop {
            let grid = match self.timeline.as_deref() {
                Some(c) if c.next_ns <= limit.as_nanos() => Some(c.next_ns),
                _ => None,
            };
            let stop = grid.map_or(limit, SimTime::from_nanos);
            while let Some((_, ev)) = self.engine.pop_until(stop) {
                self.dispatch(ev, h);
            }
            let Some(at_ns) = grid else {
                return;
            };
            self.timeline_sample_tick(h, at_ns);
            if let Some(c) = self.timeline.as_deref_mut() {
                c.next_ns = at_ns + c.interval_ns;
            }
        }
    }

    /// Run until the event queue drains (useful in tests).
    pub fn run_to_quiescence<H: NetHandler>(&mut self, h: &mut H) {
        while let Some((_, ev)) = self.engine.pop() {
            self.dispatch(ev, h);
        }
    }

    fn dispatch<H: NetHandler>(&mut self, ev: Ev, h: &mut H) {
        match ev {
            // The cursor is on the channel's key: the wire reads idle.
            Ev::TxDone { chan } => self.try_start_tx(chan),
            Ev::Deliver { chan } => {
                let fifo = &mut self.wires[chan.0 as usize].fifo;
                let (_, _, pkt) = fifo.pop_front().expect("Deliver for an empty wire");
                if let Some(&(at, seq, _)) = fifo.front() {
                    self.engine.schedule_keyed(at, seq, Ev::Deliver { chan });
                }
                // Off the wire: from here the packet is either delivered,
                // forwarded, or accounted to a named drop cause — never
                // silently in flight. The conservation audit depends on
                // this increment preceding the fault verdict.
                self.chans[chan.0 as usize].rx_packets += 1;
                if let Some(f) = self.faults.as_mut() {
                    let now = self.engine.now();
                    // A dead endpoint trumps every per-channel verdict: a
                    // crashed sender's in-flight packets vanish, and a
                    // crashed receiver hears nothing. The probabilistic
                    // loss/corruption draws are skipped entirely, so the
                    // private RNG stream is untouched by the outage.
                    let (cf, ct) = {
                        let c = &self.chans[chan.0 as usize];
                        (c.from, c.to)
                    };
                    let verdict = if f.host_is_down(cf) || f.host_is_down(ct) {
                        f.note_host_down_drop();
                        FaultVerdict::DropHostDown
                    } else {
                        f.deliver_verdict(now, chan)
                    };
                    if verdict != FaultVerdict::Deliver {
                        self.obs.trace.record(
                            now,
                            verdict.trace_kind(),
                            chan.0 as u64,
                            pkt.ip_len() as i64,
                        );
                        if let Some(t) = self.lifecycle.as_deref_mut() {
                            t.on_drop(now, pkt.id, SpanKind::DropFault, chan.0);
                        }
                        return;
                    }
                }
                self.on_deliver(chan, pkt, h)
            }
            Ev::HostTimer { host, token } => {
                // Timers armed before a crash stay scheduled; they fire into
                // the void while the host is down. (The stack additionally
                // drops stale tokens after a restart — its demux maps were
                // cleared at crash time.)
                if self.host_is_down(host) {
                    return;
                }
                h.host_timer(self, host, token)
            }
            Ev::CpuDone { slot } => {
                let CpuWake { host, work, gen } = self.cpu_wakes.take(slot);
                if self.host_is_down(host) {
                    return;
                }
                let now = self.now();
                match self.nodes[host.0 as usize].cpu.complete(now, work, gen) {
                    CompleteOutcome::Stale => {}
                    CompleteOutcome::Done { proc, updates } => {
                        self.apply_cpu_updates(host, updates);
                        h.cpu_done(self, host, proc);
                    }
                }
            }
            Ev::ShaperRelease { slot } => {
                let ShaperWake { host, shaper, gen } = self.shaper_wakes.take(slot);
                if self.host_is_down(host) {
                    return; // the crash purge bumped the gen anyway
                }
                let now = self.now();
                let node = &mut self.nodes[host.0 as usize];
                let Some(s) = node.shapers.iter_mut().find(|s| s.id == shaper) else {
                    return;
                };
                // Drain into the reusable scratch buffer; `forward_from`
                // never touches it, so taking it out of `self` is safe.
                let mut pkts = std::mem::take(&mut self.shaper_scratch);
                pkts.clear();
                let next = s.release_into(now, gen, &mut pkts);
                if let Some(at) = next {
                    let g = s.gen;
                    self.schedule_shaper_release(at, host, shaper, g);
                }
                for p in pkts.drain(..) {
                    self.forward_from(host, p);
                }
                self.shaper_scratch = pkts;
            }
            Ev::Control { token } => h.control(self, token),
            Ev::Fault { idx } => self.apply_fault(idx, h),
            Ev::ThrottleExpire { host } => {
                let now = self.now();
                let Some(f) = self.faults.as_mut() else {
                    return;
                };
                let eff = f.effective_throttle(host, now);
                self.obs
                    .trace
                    .record(now, "fault.cpu_throttle", host.0 as u64, eff as i64);
                self.cpu_set_throttle(host, eff as f64 / 1000.0);
            }
        }
    }

    fn on_deliver<H: NetHandler>(&mut self, chan: ChanId, mut pkt: Packet, h: &mut H) {
        let arrival = &self.chans[chan.0 as usize];
        let node_id = arrival.to;
        let edge = arrival.edge_ingress;
        match self.nodes[node_id.0 as usize].kind {
            NodeKind::Router => {
                if edge {
                    let now = self.now();
                    match self.nodes[node_id.0 as usize]
                        .classifier
                        .classify(now, &mut pkt)
                    {
                        Verdict::Forward => {}
                        Verdict::Drop => {
                            self.drops.policed += 1;
                            self.obs.trace.record(
                                now,
                                "drop.policed",
                                node_id.0 as u64,
                                pkt.ip_len() as i64,
                            );
                            if let Some(t) = self.lifecycle.as_deref_mut() {
                                t.on_drop(now, pkt.id, SpanKind::DropPoliced, chan.0);
                            }
                            return;
                        }
                    }
                }
                self.forward_from(node_id, pkt);
            }
            NodeKind::Host => {
                if pkt.dst == node_id {
                    // Tripwire, not a gate: the dispatch-time host-down drop
                    // must make this unreachable for a dead host. The qcheck
                    // `dead_host_delivery` invariant convicts any regression.
                    if let Some(f) = self.faults.as_mut() {
                        if f.host_is_down(node_id) {
                            f.stats.dead_deliveries += 1;
                        }
                    }
                    self.obs.metrics.inc(self.ctrs.pkts_delivered, 1);
                    if let Some(t) = self.lifecycle.as_deref_mut() {
                        let now = self.engine.now();
                        t.on_delivered(now, &pkt, &mut self.obs.trace);
                    }
                    h.deliver(self, node_id, pkt);
                } else {
                    self.drop_misrouted(pkt.id, chan.0);
                }
            }
        }
    }

    #[inline]
    fn forward_from(&mut self, node: NodeId, pkt: Packet) {
        let Some(chan) = self.route(node, pkt.dst) else {
            return self.drop_misrouted(pkt.id, Span::NO_CHAN);
        };
        let len = pkt.ip_len();
        let pid = pkt.id;
        match self.queues[chan.0 as usize].enqueue(pkt) {
            Enqueue::Queued => {
                if let Some(t) = self.lifecycle.as_deref_mut() {
                    let now = self.engine.now();
                    t.on_enqueue(now, pid);
                }
                self.try_start_tx(chan)
            }
            Enqueue::DroppedFull => {
                self.drops.queue_full += 1;
                let now = self.now();
                self.obs
                    .trace
                    .record(now, "drop.queue_full", chan.0 as u64, len as i64);
                if let Some(t) = self.lifecycle.as_deref_mut() {
                    t.on_drop(now, pid, SpanKind::DropQueueFull, chan.0);
                }
            }
            // RED/WRED early drops share the queue-loss ledger column (so
            // conservation identities and fingerprints are discipline-
            // independent) but trace under their own label.
            Enqueue::DroppedEarly => {
                self.drops.queue_full += 1;
                self.drops.red_early += 1;
                let now = self.now();
                self.obs
                    .trace
                    .record(now, "drop.red_early", chan.0 as u64, len as i64);
                if let Some(t) = self.lifecycle.as_deref_mut() {
                    t.on_drop(now, pid, SpanKind::DropRedEarly, chan.0);
                }
            }
        }
    }

    /// A packet with nowhere to go: no route from the node it is at, or
    /// delivered to a host it was not addressed to (hosts do not forward).
    /// `chan` is the channel it arrived on, or [`Span::NO_CHAN`].
    #[cold]
    fn drop_misrouted(&mut self, pkt_id: u64, chan: u32) {
        self.drops.misrouted += 1;
        if let Some(t) = self.lifecycle.as_deref_mut() {
            t.on_drop(self.engine.now(), pkt_id, SpanKind::DropMisrouted, chan);
        }
    }

    fn try_start_tx(&mut self, chan: ChanId) {
        let w = &self.wires[chan.0 as usize];
        // Busy until the cursor reaches the reserved `TxDone` key — in the
        // `now == busy_until` tie that is exactly the order in which this
        // event and an eagerly scheduled `TxDone` would have fired.
        if (w.busy_until, w.txdone_seq) > self.engine.cursor() {
            self.insert_txdone_if_awaited(chan);
            return;
        }
        // A cut channel transmits nothing; queued packets wait for LinkUp.
        // A crashed host's interfaces transmit nothing either (its queues
        // were purged at crash time; this also stops a race with packets
        // enqueued in the same instant).
        if let Some(f) = &self.faults {
            if f.is_down(chan) || f.host_is_down(self.chans[chan.0 as usize].from) {
                return;
            }
        }
        let Some(pkt) = self.queues[chan.0 as usize].pop() else {
            return;
        };
        let now = self.engine.now();
        let c = &mut self.chans[chan.0 as usize];
        let ser = c.serialization(pkt.ip_len());
        c.tx_packets += 1;
        c.tx_bytes_wire += c.cfg.framing.wire_bytes(pkt.ip_len()) as u64;
        let delay = c.cfg.delay;
        let to = c.to;
        // The key is reserved where the `TxDone` used to be scheduled; the
        // event goes in now only if the queue is still backed up.
        let w = &mut self.wires[chan.0 as usize];
        w.busy_until = now + ser;
        w.txdone_seq = self.engine.reserve_seq();
        w.txdone_scheduled = false;
        self.insert_txdone_if_awaited(chan);
        if let Some(t) = self.lifecycle.as_deref_mut() {
            t.on_tx_start(now, &pkt, chan, ser.as_nanos(), delay.as_nanos());
        }
        let deliver_at = now + ser + delay;
        match self.shard.as_deref_mut() {
            // The cross-shard handoff: the delivery lands on a node a
            // foreign shard owns, so it leaves as an outbox message instead
            // of an engine event. `deliver_at >= now + delay >= window end`
            // (lookahead bound), so the receiver sees it strictly in its
            // future.
            Some(sc) if sc.shard_of[to.0 as usize] != sc.shard => {
                let seq = sc.next_seq;
                sc.next_seq += 1;
                sc.outbox.push(XMsg {
                    at: deliver_at,
                    src_shard: sc.shard,
                    seq,
                    chan,
                    pkt,
                });
            }
            _ => self.put_on_wire(chan, deliver_at, pkt),
        }
    }

    /// `chan` is transmitting. If a packet waits behind the transmission
    /// and its `TxDone` is not yet an event, make it one, under the key
    /// reserved at the tx start.
    fn insert_txdone_if_awaited(&mut self, chan: ChanId) {
        let w = &mut self.wires[chan.0 as usize];
        if !w.txdone_scheduled && !self.queues[chan.0 as usize].is_empty() {
            w.txdone_scheduled = true;
            self.txdone_inserted += 1;
            self.engine
                .schedule_keyed(w.busy_until, w.txdone_seq, Ev::TxDone { chan });
        }
    }

    /// Reserve `pkt`'s delivery key where its `Ev::Deliver` used to be
    /// scheduled and append it to `chan`'s wire FIFO; the event itself is
    /// inserted now only if the packet is the new head.
    fn put_on_wire(&mut self, chan: ChanId, at: SimTime, pkt: Packet) {
        let seq = self.engine.reserve_seq();
        let fifo = &mut self.wires[chan.0 as usize].fifo;
        debug_assert!(
            fifo.back().is_none_or(|&(last, _, _)| last <= at),
            "transmissions on chan {} overlap",
            chan.0
        );
        if fifo.is_empty() {
            self.engine.schedule_keyed(at, seq, Ev::Deliver { chan });
        }
        fifo.push_back((at, seq, pkt));
    }
}

/// Builds topologies: add nodes, connect them, then [`TopoBuilder::build`].
pub struct TopoBuilder {
    nodes: Vec<Node>,
    chans: Vec<Chan>,
    queues: Vec<Queue>,
    seed: u64,
}

impl TopoBuilder {
    pub fn new(seed: u64) -> Self {
        TopoBuilder {
            nodes: Vec::new(),
            chans: Vec::new(),
            queues: Vec::new(),
            seed,
        }
    }

    pub fn host(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(NodeKind::Host, name.to_owned()));
        id
    }

    pub fn router(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes
            .push(Node::new(NodeKind::Router, name.to_owned()));
        id
    }

    /// Connect `a` and `b` with a symmetric full-duplex link. Host-to-router
    /// links are flagged as edge ingress on the router side. Returns the two
    /// directed channels `(a→b, b→a)`.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg: LinkCfg,
        queue: QueueCfg,
    ) -> (ChanId, ChanId) {
        let ab = self.add_chan(a, b, cfg, queue);
        let ba = self.add_chan(b, a, cfg, queue);
        (ab, ba)
    }

    /// Connect with different per-direction configurations.
    pub fn link_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg_ab: LinkCfg,
        q_ab: QueueCfg,
        cfg_ba: LinkCfg,
        q_ba: QueueCfg,
    ) -> (ChanId, ChanId) {
        let ab = self.add_chan(a, b, cfg_ab, q_ab);
        let ba = self.add_chan(b, a, cfg_ba, q_ba);
        (ab, ba)
    }

    fn add_chan(&mut self, from: NodeId, to: NodeId, cfg: LinkCfg, queue: QueueCfg) -> ChanId {
        let id = ChanId(self.chans.len() as u32);
        let edge_ingress = self.nodes[from.0 as usize].kind == NodeKind::Host
            && self.nodes[to.0 as usize].kind == NodeKind::Router;
        self.chans.push(Chan {
            from,
            to,
            cfg,
            edge_ingress,
            tx_packets: 0,
            tx_bytes_wire: 0,
            rx_packets: 0,
            purged: 0,
        });
        // Seed each queue's discipline RNG (RED/WRED draws) from the
        // topology seed and the channel index alone, so a shard worker
        // rebuilding its slice of the topology reproduces the exact
        // per-interface drop streams (DESIGN.md §15 shard-locality).
        let mut seed_bytes = [0u8; 16];
        seed_bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed_bytes[8..].copy_from_slice(&(id.0 as u64).to_le_bytes());
        self.queues
            .push(Queue::with_seed(queue, fnv1a(&seed_bytes)));
        self.nodes[from.0 as usize].ifaces.push(id);
        id
    }

    /// Number of nodes added so far (partition maps must cover them all).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-channel `(from, to, propagation delay)` triples, for partition
    /// validation and lookahead computation (see [`crate::shard`]).
    pub(crate) fn chan_meta(&self) -> impl Iterator<Item = (usize, usize, SimDelta)> + '_ {
        self.chans
            .iter()
            .map(|c| (c.from.0 as usize, c.to.0 as usize, c.cfg.delay))
    }

    /// Compute hop-count shortest-path routes and freeze the topology. A
    /// node's next hop is its first discovery in a reverse BFS from the
    /// destination, and a popped node's incoming channels are visited in
    /// ascending channel index — that tie-break is a contract (DESIGN.md §7).
    /// A leaf (a host whose one link goes to a router) is discovered only
    /// from its router and discovers nothing itself, so the BFS runs from and
    /// over the c other (core) nodes alone, O(c·(c+E)), into c rows of
    /// next hops; a leaf borrows its router's row.
    pub fn build(self) -> Net {
        let n = self.nodes.len();
        let chans = &self.chans;
        // Counting sort of channel indices by `to`: node v's incoming
        // channels are `incoming[start[v]..start[v + 1]]`, ascending.
        let mut start = vec![0usize; n + 1];
        for c in chans {
            start[c.to.0 as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut incoming = vec![u32::MAX; chans.len()];
        for (ci, c) in chans.iter().enumerate() {
            let slot = &mut next[c.to.0 as usize];
            incoming[*slot] = ci as u32;
            *slot += 1;
        }
        debug_assert!(
            {
                let mut seen = vec![false; incoming.len()];
                incoming
                    .iter()
                    .all(|&ci| !std::mem::replace(&mut seen[ci as usize], true))
            },
            "a channel is missing from the incoming index, so from routing"
        );
        // Leaves as `(leaf, router, downlink)`; every other node is core and
        // owns row `core.len()` at the time it is met.
        let mut leaves: Vec<(usize, usize, u32)> = Vec::new();
        let mut core: Vec<usize> = Vec::new();
        let mut hops = Vec::with_capacity(n);
        for (v, node) in self.nodes.iter().enumerate() {
            let into = &incoming[start[v]..start[v + 1]];
            let leaf = match (node.kind, &node.ifaces[..], into) {
                (NodeKind::Host, &[up], &[down]) => {
                    let router = chans[up.0 as usize].to.0 as usize;
                    let back = chans[down as usize].from.0 as usize;
                    (self.nodes[router].kind == NodeKind::Router && back == router)
                        .then_some((up.0, router, down))
                }
                _ => None,
            };
            hops.push(match leaf {
                Some((uplink, router, down)) => {
                    leaves.push((v, router, down));
                    Hop {
                        base: usize::MAX, // the router's, once rows are numbered
                        uplink,
                        router: router as u32,
                    }
                }
                None => {
                    core.push(v);
                    Hop {
                        base: (core.len() - 1) * n,
                        uplink: RouteTable::NONE,
                        router: v as u32,
                    }
                }
            });
        }
        for &(leaf, router, _) in &leaves {
            hops[leaf].base = hops[router].base;
        }
        // A row's entry doubles as the BFS's visited mark: a core node is
        // discovered exactly when its entry for `dst` is set (`dst` itself
        // is never set, so it is checked by id).
        let mut next_hop = vec![RouteTable::NONE; core.len() * n];
        let mut frontier: Vec<u32> = Vec::with_capacity(core.len());
        for &dst in &core {
            frontier.clear();
            frontier.push(dst as u32);
            let mut head = 0;
            while let Some(&cur) = frontier.get(head) {
                head += 1;
                let cur = cur as usize;
                for &ci in &incoming[start[cur]..start[cur + 1]] {
                    let pred = chans[ci as usize].from.0 as usize;
                    let hop = hops[pred];
                    if hop.uplink != RouteTable::NONE || pred == dst {
                        continue; // a leaf, or the destination itself
                    }
                    let entry = &mut next_hop[hop.base + dst];
                    if *entry == RouteTable::NONE {
                        *entry = ci;
                        frontier.push(pred as u32);
                    }
                }
            }
        }
        // Leaf columns: a leaf is reached through its router, and from the
        // router itself by the downlink.
        for (row, &own) in next_hop.chunks_exact_mut(n.max(1)).zip(&core) {
            for &(leaf, router, down) in &leaves {
                row[leaf] = if router == own { down } else { row[router] };
            }
        }
        let routes = RouteTable { hops, next_hop };
        Net::from_parts(self.nodes, self.chans, self.queues, routes, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Framing;
    use crate::packet::{Dscp, L4};
    use mpichgq_sim::SimDelta;

    struct Collect {
        got: Vec<(SimTime, NodeId, u64)>,
        timers: Vec<(SimTime, u64)>,
    }
    impl Collect {
        fn new() -> Self {
            Collect {
                got: Vec::new(),
                timers: Vec::new(),
            }
        }
    }
    impl NetHandler for Collect {
        fn deliver(&mut self, net: &mut Net, host: NodeId, pkt: Packet) {
            self.got.push((net.now(), host, pkt.id));
        }
        fn host_timer(&mut self, net: &mut Net, _host: NodeId, token: u64) {
            self.timers.push((net.now(), token));
        }
        fn cpu_done(&mut self, _net: &mut Net, _host: NodeId, _proc: ProcId) {}
        fn control(&mut self, _net: &mut Net, _token: u64) {}
    }

    fn line_topology() -> (Net, NodeId, NodeId) {
        // h1 -- r -- h2, 8 Mb/s, 1 ms per link, no framing overhead.
        let mut b = TopoBuilder::new(1);
        let h1 = b.host("h1");
        let r = b.router("r");
        let h2 = b.host("h2");
        let cfg = LinkCfg {
            bandwidth_bps: 8_000_000,
            delay: SimDelta::from_millis(1),
            framing: Framing::None,
        };
        b.link(h1, r, cfg, QueueCfg::droptail_default());
        b.link(r, h2, cfg, QueueCfg::droptail_default());
        (b.build(), h1, h2)
    }

    fn udp(src: NodeId, dst: NodeId, payload: u32) -> Packet {
        Packet {
            src,
            dst,
            src_port: 1,
            dst_port: 2,
            dscp: Dscp::BestEffort,
            l4: L4::Udp,
            payload_len: payload,
            id: 0,
            born: SimTime::ZERO,
        }
    }

    #[test]
    fn end_to_end_latency_is_serialization_plus_delay() {
        let (mut net, h1, h2) = line_topology();
        let mut h = Collect::new();
        // ip_len = 28 + 972 = 1000 bytes; at 8 Mb/s, serialization = 1 ms.
        net.send_ip(udp(h1, h2, 972));
        net.run_to_quiescence(&mut h);
        assert_eq!(h.got.len(), 1);
        // 1 ms ser + 1 ms delay + 1 ms ser + 1 ms delay = 4 ms.
        assert_eq!(h.got[0].0, SimTime::from_millis(4));
        assert_eq!(h.got[0].1, h2);
    }

    #[test]
    fn pipeline_keeps_link_busy() {
        let (mut net, h1, h2) = line_topology();
        let mut h = Collect::new();
        for _ in 0..10 {
            net.send_ip(udp(h1, h2, 972));
        }
        net.run_to_quiescence(&mut h);
        assert_eq!(h.got.len(), 10);
        // Last packet: 10 ms of back-to-back serialization on hop 1, the
        // store-and-forward router adds one serialization, plus 2 ms delay.
        assert_eq!(h.got.last().unwrap().0, SimTime::from_millis(13));
    }

    #[test]
    fn host_timer_fires() {
        let (mut net, _h1, _h2) = line_topology();
        let mut h = Collect::new();
        net.set_host_timer(NodeId(0), SimTime::from_millis(5), 42);
        net.run_to_quiescence(&mut h);
        assert_eq!(h.timers, vec![(SimTime::from_millis(5), 42)]);
    }

    #[test]
    fn routing_loops_and_unreachable_are_guarded() {
        // Two disconnected hosts.
        let mut b = TopoBuilder::new(1);
        let h1 = b.host("h1");
        let _h2 = b.host("h2");
        let h3 = b.host("h3");
        let mut net = b.build();
        let mut h = Collect::new();
        net.send_ip(udp(h1, h3, 100));
        net.run_to_quiescence(&mut h);
        assert!(h.got.is_empty());
        assert_eq!(net.drops.misrouted, 1);
        assert!(net.path_delay(h1, h3).is_none());
    }

    #[test]
    fn misrouted_drops_end_their_lifecycle() {
        // h1 -- h2 -- h3: h2 is a host and forwards nothing, so h1's packet
        // to h3 dies on arrival at h2. h4 is on no link: no route at all.
        let mut b = TopoBuilder::new(1);
        let (h1, h2, h3, h4) = (b.host("h1"), b.host("h2"), b.host("h3"), b.host("h4"));
        let cfg = LinkCfg {
            bandwidth_bps: 8_000_000,
            delay: SimDelta::from_millis(1),
            framing: Framing::None,
        };
        b.link(h1, h2, cfg, QueueCfg::droptail_default());
        b.link(h2, h3, cfg, QueueCfg::droptail_default());
        let mut net = b.build();
        net.enable_packet_tracing();
        let hop = net.route(h1, h2).expect("h1 reaches h2");
        assert_eq!(net.route(h1, h3), Some(hop), "h3 lies beyond h2");
        net.send_ip(udp(h1, h3, 100)); // id 0
        net.send_ip(udp(h1, h4, 100)); // id 1
        net.run_to_quiescence(&mut Collect::new());
        assert_eq!(net.drops.misrouted, 2);
        assert!(net.audit().conserved());
        let t = net.packet_tracer().unwrap();
        let drops: Vec<_> = t
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::DropMisrouted)
            .map(|s| (s.pkt, s.chan, s.ts_ns))
            .collect();
        // The unroutable one dies at once, the other on arrival at h2
        // (128 bytes at 8 Mb/s + 1 ms on the wire).
        assert_eq!(drops, [(1, Span::NO_CHAN, 0), (0, hop.0, 1_128_000)]);
        assert_eq!(SpanKind::DropMisrouted.label(), "drop.misrouted");
        assert_eq!(
            t.in_flight(),
            0,
            "a misrouted packet is no longer in flight"
        );
    }

    #[test]
    fn out_of_range_node_ids_have_no_route() {
        // h1 -- r -- h2: n = 3. Before the range check `route(h1, NodeId(3))`
        // read row 1, column 0 — the r→h1 channel — and a bad `from` panicked.
        let (mut net, h1, h2) = line_topology();
        let n = net.node_count() as u32;
        for bad in [NodeId(n), NodeId(n + 1), NodeId(u32::MAX)] {
            for good in [h1, NodeId(1), h2] {
                assert_eq!(net.route(good, bad), None, "{good:?} -> {bad:?}");
                assert_eq!(net.route(bad, good), None, "{bad:?} -> {good:?}");
                assert!(net.path_delay(good, bad).is_none());
                assert!(net.path_delay(bad, good).is_none());
                assert!(net.path_chans(good, bad).is_none());
                assert!(net.path_chans(bad, good).is_none());
            }
            // A node that does not exist is no distance from itself either
            // (the walk below the range check never runs when `a == b`).
            assert!(net.path_delay(bad, bad).is_none(), "{bad:?}");
            assert!(net.path_chans(bad, bad).is_none(), "{bad:?}");
        }
        assert_eq!(net.path_delay(h1, h1), Some(SimDelta::ZERO));
        assert_eq!(net.path_chans(h1, h1), Some(vec![]));
        let mut h = Collect::new();
        net.send_ip(udp(h1, NodeId(n + 1), 100));
        net.run_to_quiescence(&mut h);
        assert!(h.got.is_empty());
        assert_eq!(net.drops.misrouted, 1);
        assert!(net.audit().conserved());
    }

    /// 64 routers in a line with 32 single-homed hosts each: only the
    /// routers own rows, so the table is 64 × 2,112 entries, not 2,112².
    #[test]
    fn single_homed_hosts_own_no_route_row() {
        let mut b = TopoBuilder::new(9);
        let lan = LinkCfg::fast_ethernet(SimDelta::from_micros(50));
        let wan = LinkCfg::atm_vc(622_080_000, SimDelta::from_millis(20));
        let mut prev = None;
        for r in 0..64 {
            let router = b.router(&format!("r{r}"));
            if let Some(p) = prev {
                b.link(p, router, wan, QueueCfg::priority_default());
            }
            prev = Some(router);
            for h in 0..32 {
                let host = b.host(&format!("h{r}.{h}"));
                b.link(host, router, lan, QueueCfg::droptail_default());
            }
        }
        let net = b.build();
        assert_eq!(net.node_count(), 2_112);
        let routes = &net.routes;
        assert_eq!(routes.next_hop.len(), 64 * 2_112, "not 64 rows of 2,112");
        let bases: std::collections::BTreeSet<usize> = routes.hops.iter().map(|h| h.base).collect();
        assert!(bases.into_iter().eq((0..64).map(|r| r * 2_112)));
        let leaves = routes.hops.iter().filter(|h| h.uplink != RouteTable::NONE);
        assert_eq!(leaves.count(), 64 * 32);
    }

    #[test]
    fn path_delay_sums_hops() {
        let (net, h1, h2) = line_topology();
        assert_eq!(net.path_delay(h1, h2).unwrap(), SimDelta::from_millis(2));
        assert_eq!(net.path_delay(h1, h1).unwrap(), SimDelta::ZERO);
    }

    #[test]
    fn edge_policing_drops_out_of_profile_traffic() {
        let (mut net, h1, h2) = line_topology();
        let router = NodeId(1);
        // Police h1->h2 UDP at 8 Kb/s with a 2000-byte bucket; mark EF.
        net.node_mut(router).classifier.install(
            FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp),
            Dscp::Ef,
            Some(TokenBucket::new(8_000, 2_000)),
            crate::classifier::PolicingAction::Drop,
        );
        let mut h = Collect::new();
        for _ in 0..5 {
            net.send_ip(udp(h1, h2, 972)); // 1000-byte datagrams
        }
        net.run_to_quiescence(&mut h);
        // Bucket admits 2 packets; 3 are policed.
        assert_eq!(h.got.len(), 2);
        assert_eq!(net.drops.policed, 3);
    }

    #[test]
    fn shaper_delays_instead_of_dropping() {
        let (mut net, h1, h2) = line_topology();
        let router = NodeId(1);
        net.node_mut(router).classifier.install(
            FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp),
            Dscp::Ef,
            Some(TokenBucket::new(80_000, 2_000)),
            crate::classifier::PolicingAction::Drop,
        );
        // Shape at the same rate at the host: nothing should be policed.
        net.install_shaper(
            h1,
            FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp),
            TokenBucket::new(80_000, 2_000),
        );
        let mut h = Collect::new();
        for _ in 0..5 {
            net.send_ip(udp(h1, h2, 972));
        }
        net.run_to_quiescence(&mut h);
        assert_eq!(h.got.len(), 5, "shaped packets must all arrive");
        assert_eq!(net.drops.policed, 0);
    }

    #[test]
    fn cpu_done_reaches_handler() {
        struct CpuH {
            done_at: Option<SimTime>,
        }
        impl NetHandler for CpuH {
            fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
            fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
            fn cpu_done(&mut self, net: &mut Net, _host: NodeId, _proc: ProcId) {
                self.done_at = Some(net.now());
            }
            fn control(&mut self, _n: &mut Net, _t: u64) {}
        }
        let (mut net, h1, _h2) = line_topology();
        let pid = net.cpu_add_process(h1);
        net.cpu_spawn_hog(h1);
        net.cpu_start_work(h1, pid, SimDelta::from_secs(1));
        let mut h = CpuH { done_at: None };
        net.run_to_quiescence(&mut h);
        // 1 cpu-second at 50% share = 2 seconds.
        assert_eq!(h.done_at, Some(SimTime::from_secs(2)));
    }

    #[test]
    fn link_outage_queues_survivors_and_drops_in_flight() {
        let (mut net, h1, h2) = line_topology();
        let mut h = Collect::new();
        let trunk = net.route(NodeId(1), h2).unwrap(); // r -> h2
                                                       // Three packets at t=0; packet 1 starts serializing on r->h2 at
                                                       // 2 ms with its delivery due at 4 ms. Cutting the channel over
                                                       // [2.5 ms, 20 ms) catches that packet in flight while packets 2
                                                       // and 3 are still queued behind the cut.
        net.install_fault_plan(FaultPlan::new(5).link_outage(
            trunk,
            SimTime::from_micros(2_500),
            mpichgq_sim::SimDelta::from_micros(17_500),
        ));
        for _ in 0..3 {
            net.send_ip(udp(h1, h2, 972));
        }
        net.run_to_quiescence(&mut h);
        let st = net.fault_stats().unwrap();
        // Packet 1 was transmitting on r->h2 when the cut hit (Deliver at
        // 4 ms): lost in flight. Packets 2 and 3 waited in the queue and
        // arrived after the link came back.
        assert_eq!(st.drops_link_down, 1, "{st:?}");
        assert_eq!(h.got.len(), 2);
        assert!(h.got[0].0 >= SimTime::from_millis(20));
        assert_eq!(st.link_downs, 1);
        assert_eq!(st.link_ups, 1);
    }

    #[test]
    fn loss_burst_drops_some_corruption_accounted_separately() {
        let run = |seed: u64| {
            let (mut net, h1, h2) = line_topology();
            let mut h = Collect::new();
            let chan = net.route(NodeId(1), h2).unwrap();
            net.install_fault_plan(
                FaultPlan::new(seed)
                    .at(
                        SimTime::ZERO,
                        FaultAction::LossBurst {
                            chan,
                            per_mille: 400,
                            duration: mpichgq_sim::SimDelta::from_secs(1),
                        },
                    )
                    .at(
                        SimTime::from_secs(2),
                        FaultAction::CorruptBurst {
                            chan,
                            per_mille: 1000,
                            duration: mpichgq_sim::SimDelta::from_secs(1),
                        },
                    ),
            );
            for _ in 0..50 {
                net.send_ip(udp(h1, h2, 972));
            }
            // One packet inside the corruption window.
            net.run_until(&mut h, SimTime::from_millis(2_400));
            net.send_ip(udp(h1, h2, 972));
            net.run_to_quiescence(&mut h);
            let st = net.fault_stats().unwrap();
            (h.got.len(), st)
        };
        let (delivered, st) = run(11);
        assert!(st.drops_loss > 5 && st.drops_loss < 45, "{st:?}");
        assert_eq!(st.drops_corrupt, 1);
        assert_eq!(delivered, 50 - st.drops_loss as usize);
        // Same seed, same plan: bit-identical outcome.
        assert_eq!(run(11), (delivered, st));
        // Different seed: same accounting structure, different draws are
        // permitted (no assertion on equality).
        let (_, st2) = run(12);
        assert_eq!(st2.drops_corrupt, 1);
    }

    #[test]
    fn cpu_throttle_fault_slows_and_restores_work() {
        struct CpuH {
            done_at: Option<SimTime>,
        }
        impl NetHandler for CpuH {
            fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
            fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
            fn cpu_done(&mut self, net: &mut Net, _host: NodeId, _proc: ProcId) {
                self.done_at = Some(net.now());
            }
            fn control(&mut self, _n: &mut Net, _t: u64) {}
        }
        let (mut net, h1, _h2) = line_topology();
        let pid = net.cpu_add_process(h1);
        // 2.5 cpu-s solo. Throttled to 50% over [1s, 3s): 1 cpu-s by t=1,
        // 1 more over the throttle window, and the last 0.5 cpu-s at full
        // speed after restore = done at 3.5 s.
        net.install_fault_plan(
            FaultPlan::new(1)
                .at(
                    SimTime::from_secs(1),
                    FaultAction::CpuThrottle {
                        host: h1,
                        per_mille: 500,
                        duration: None,
                    },
                )
                .at(
                    SimTime::from_secs(3),
                    FaultAction::CpuThrottle {
                        host: h1,
                        per_mille: 1000,
                        duration: None,
                    },
                ),
        );
        net.cpu_start_work(h1, pid, SimDelta::from_millis(2_500));
        let mut h = CpuH { done_at: None };
        net.run_to_quiescence(&mut h);
        assert_eq!(h.done_at, Some(SimTime::from_millis(3_500)));
    }

    #[test]
    fn windowed_cpu_throttle_restores_baseline_through_the_event_loop() {
        struct CpuH {
            done_at: Option<SimTime>,
        }
        impl NetHandler for CpuH {
            fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
            fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
            fn cpu_done(&mut self, net: &mut Net, _host: NodeId, _proc: ProcId) {
                self.done_at = Some(net.now());
            }
            fn control(&mut self, _n: &mut Net, _t: u64) {}
        }
        let (mut net, h1, _h2) = line_topology();
        let pid = net.cpu_add_process(h1);
        // Two overlapping windows: [1s,3s)@500 and [2s,4s)@250. Effective:
        // full until 1 s, 50% over [1,2), 25% over [2,3) (min of both), 25%
        // over [3,4), full after — the *baseline*, though the 500‰ window
        // was still notionally "older". 2.5 cpu-s of work: 1 by t=1, 0.5
        // over [1,2), 0.25 over [2,3), 0.25 over [3,4), and the last 0.5 at
        // full speed = done at 4.5 s.
        net.install_fault_plan(
            FaultPlan::new(1)
                .at(
                    SimTime::from_secs(1),
                    FaultAction::CpuThrottle {
                        host: h1,
                        per_mille: 500,
                        duration: Some(SimDelta::from_secs(2)),
                    },
                )
                .at(
                    SimTime::from_secs(2),
                    FaultAction::CpuThrottle {
                        host: h1,
                        per_mille: 250,
                        duration: Some(SimDelta::from_secs(2)),
                    },
                ),
        );
        net.cpu_start_work(h1, pid, SimDelta::from_millis(2_500));
        let mut h = CpuH { done_at: None };
        net.run_to_quiescence(&mut h);
        assert_eq!(h.done_at, Some(SimTime::from_millis(4_500)));
    }

    #[test]
    fn host_crash_silences_and_restart_revives_with_conservation() {
        let (mut net, h1, h2) = line_topology();
        let mut h = Collect::new();
        net.install_fault_plan(
            FaultPlan::new(5)
                .at(SimTime::from_millis(3), FaultAction::HostCrash { host: h1 })
                .at(
                    SimTime::from_millis(50),
                    FaultAction::HostRestart { host: h1 },
                ),
        );
        // Ten packets: at 1 ms serialization each, one is on the wire and
        // the rest are queued on h1's iface when the crash hits at t=3 ms.
        for _ in 0..10 {
            net.send_ip(udp(h1, h2, 972));
        }
        // A packet toward the dead host is dropped on arrival, not
        // delivered — and the sender's ledger still balances.
        net.set_host_timer(h2, SimTime::from_millis(10), 7);
        net.run_until(&mut h, SimTime::from_millis(10));
        net.send_ip(udp(h2, h1, 972));
        // While down, the dead host sources nothing.
        net.send_ip(udp(h1, h2, 972));
        net.run_until(&mut h, SimTime::from_millis(49));
        let st = net.fault_stats().unwrap();
        assert_eq!(st.host_crashes, 1);
        assert!(net.host_is_down(h1));
        // Deliveries stopped at the crash: 2 packets had fully left h1's
        // queue by t=3 ms (tx at 1 and 2 ms); in-flight ones died.
        assert!(h.got.len() < 10, "crash must cut the stream short");
        assert!(st.drops_host_down > 0, "{st:?}");
        assert_eq!(st.dead_deliveries, 0);
        // Conservation holds mid-outage.
        let audit = net.audit();
        assert!(audit.conserved(), "{audit:?}");
        // Restart: the host sources and sinks again.
        net.run_until(&mut h, SimTime::from_millis(60));
        assert!(!net.host_is_down(h1));
        let before = h.got.len();
        net.send_ip(udp(h1, h2, 972));
        net.send_ip(udp(h2, h1, 972));
        net.run_to_quiescence(&mut h);
        assert_eq!(h.got.len(), before + 2);
        let st = net.fault_stats().unwrap();
        assert_eq!(st.host_restarts, 1);
        assert_eq!(st.dead_deliveries, 0);
        let audit = net.audit();
        assert!(audit.conserved(), "{audit:?}");
        // The purge shows up on h1's egress interface row.
        let purged: u64 = audit.chans.iter().map(|c| c.purged).sum();
        assert!(purged > 0);
    }

    #[test]
    fn dead_host_timers_are_suppressed() {
        let (mut net, h1, _h2) = line_topology();
        let mut h = Collect::new();
        net.install_fault_plan(
            FaultPlan::new(1).at(SimTime::from_millis(1), FaultAction::HostCrash { host: h1 }),
        );
        net.set_host_timer(h1, SimTime::from_millis(5), 1);
        net.run_to_quiescence(&mut h);
        assert!(h.timers.is_empty(), "timer fired on a dead host");
    }

    #[test]
    fn lifecycle_spans_decompose_end_to_end_delay() {
        let (mut net, h1, h2) = line_topology();
        net.enable_packet_tracing();
        net.set_deadline_matching(
            FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp),
            SimDelta::from_millis(3), // 4 ms one-way delay: every packet misses
        );
        let mut h = Collect::new();
        net.send_ip(udp(h1, h2, 972));
        net.run_to_quiescence(&mut h);
        let t = net.packet_tracer().unwrap();
        // Two hops: queue+tx+wire each, plus one e2e span and one slo.miss.
        use crate::lifecycle::SpanKind;
        let spans = t.spans();
        let kind_count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(kind_count(SpanKind::Queue), 2);
        assert_eq!(kind_count(SpanKind::Tx), 2);
        assert_eq!(kind_count(SpanKind::Wire), 2);
        assert_eq!(kind_count(SpanKind::E2e), 1);
        assert_eq!(kind_count(SpanKind::SloMiss), 1);
        // Per-hop durations sum to the end-to-end delay (no queueing on an
        // idle path: 1 ms ser + 1 ms wire per hop = 4 ms total).
        let sum: u64 = spans
            .iter()
            .filter(|s| s.kind != SpanKind::E2e && s.kind != SpanKind::SloMiss)
            .map(|s| s.dur_ns)
            .sum();
        let e2e = spans
            .iter()
            .find(|s| s.kind == SpanKind::E2e)
            .unwrap()
            .dur_ns;
        assert_eq!(sum, e2e);
        assert_eq!(e2e, 4_000_000);
        let f = &t.flows()[0];
        assert_eq!(f.delivered, 1);
        assert_eq!(f.misses, 1);
        assert_eq!(f.delay.quantile(0.5), Some(3_932_160)); // bucket lower bound ≤ 4 ms
                                                            // Queue-wait histogram: both hops saw zero wait (BE class).
        assert_eq!(t.be_wait.count(), 2);
        assert_eq!(t.be_wait.max(), Some(0));
        // Snapshot surfaces the new sections.
        let json = net.metrics_json();
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"flow.n0p1-n2p2.udp.delay_ns\""));
        assert!(json.contains("\"slo\""));
        assert!(json.contains("\"total_misses\":1"));
        // Chrome export parses and carries the spans.
        let trace = net.chrome_trace_json();
        let doc = mpichgq_obs::parse(&trace).expect("chrome trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(
            events.len() >= 8,
            "expected spans + metadata, got {}",
            events.len()
        );
    }

    #[test]
    fn tracing_disabled_leaves_behavior_and_snapshot_sections_empty() {
        let (mut net, h1, h2) = line_topology();
        let mut h = Collect::new();
        net.send_ip(udp(h1, h2, 972));
        net.run_to_quiescence(&mut h);
        let json = net.metrics_json();
        assert!(json.contains("\"histograms\":{}"));
        assert!(!json.contains("\"slo\""));
        let trace = net.chrome_trace_json();
        assert_eq!(trace, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    /// Cold slots held right now, per table: `[cpu, shaper]`.
    fn cold_held(net: &Net) -> [usize; 2] {
        [
            net.cpu_wakes.slots.len() - net.cpu_wakes.free.len(),
            net.shaper_wakes.slots.len() - net.shaper_wakes.free.len(),
        ]
    }

    /// Run to quiescence one event at a time. Returns the most slots each
    /// table held at once and the slot of every cold event as it fired;
    /// checks that a held slot always has its pending event and that none
    /// is held once nothing is pending.
    fn run_stepped<H: NetHandler>(net: &mut Net, h: &mut H) -> ([usize; 2], Vec<u32>) {
        let mut peak = cold_held(net);
        let mut fired = Vec::new();
        while let Some((_, ev)) = net.engine.pop() {
            if let Ev::CpuDone { slot } | Ev::ShaperRelease { slot } = ev {
                fired.push(slot);
            }
            net.dispatch(ev, h);
            let held = cold_held(net);
            assert!(held[0] + held[1] <= net.engine.len(), "{held:?} held");
            peak = [peak[0].max(held[0]), peak[1].max(held[1])];
        }
        assert_eq!(cold_held(net), [0, 0], "a fired event kept its slot");
        (peak, fired)
    }

    /// A CPU handler that records completions and, while `chain` lasts,
    /// starts another `work` on the process that finished.
    struct CpuChain {
        done: Vec<(SimTime, ProcId)>,
        chain: u32,
        work: SimDelta,
    }
    impl NetHandler for CpuChain {
        fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
        fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
        fn cpu_done(&mut self, net: &mut Net, host: NodeId, proc: ProcId) {
            self.done.push((net.now(), proc));
            if self.chain > 0 {
                self.chain -= 1;
                net.cpu_start_work(host, proc, self.work);
            }
        }
        fn control(&mut self, _n: &mut Net, _t: u64) {}
    }

    #[test]
    fn cold_table_reuses_the_last_freed_slot() {
        let mut t = ColdTable::new();
        assert_eq!([t.put('a'), t.put('b'), t.put('c')], [0, 1, 2]);
        assert_eq!((t.take(1), t.take(0)), ('b', 'a'));
        assert_eq!([t.put('d'), t.put('e'), t.put('f')], [0, 1, 3]);
        assert_eq!((t.take(0), t.take(3)), ('d', 'f'));
    }

    #[test]
    fn a_stale_shaper_release_after_remove_shaper_frees_its_slot() {
        let (mut net, h1, h2) = line_topology();
        let flow = FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp);
        // 1000 B/s: one 1000-byte packet passes, two wait, release at 1 s.
        let id = net.install_shaper(h1, flow, TokenBucket::new(8_000, 1_000));
        for _ in 0..3 {
            net.send_ip(udp(h1, h2, 972));
        }
        assert_eq!(cold_held(&net), [0, 1]);
        let mut h = Collect::new();
        net.run_until(&mut h, SimTime::from_millis(500));
        assert!(net.remove_shaper(h1, id));
        let (peak, fired) = run_stepped(&mut net, &mut h);
        assert_eq!((peak, fired), ([0, 1], vec![0]));
        assert_eq!(h.got.len(), 3, "the removal forwarded what the shaper held");
    }

    #[test]
    fn a_stale_shaper_release_after_a_crash_frees_its_slot() {
        let (mut net, h1, h2) = line_topology();
        let flow = FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp);
        net.install_shaper(h1, flow, TokenBucket::new(8_000, 1_000));
        // The crash purges the two held packets and bumps the generation;
        // the host is back before the release armed for 1 s fires, so the
        // generation, not the liveness gate, is what turns it away.
        net.install_fault_plan(
            FaultPlan::new(1)
                .at(
                    SimTime::from_millis(100),
                    FaultAction::HostCrash { host: h1 },
                )
                .at(
                    SimTime::from_millis(200),
                    FaultAction::HostRestart { host: h1 },
                ),
        );
        for _ in 0..3 {
            net.send_ip(udp(h1, h2, 972));
        }
        let mut h = Collect::new();
        let (peak, fired) = run_stepped(&mut net, &mut h);
        assert_eq!((peak, fired), ([0, 1], vec![0]));
        assert_eq!(h.got.len(), 1);
        assert_eq!(net.fault_stats().unwrap().drops_host_down, 2);
        assert!(net.audit().conserved());
    }

    #[test]
    fn a_cpu_done_made_stale_by_a_replan_frees_its_slot() {
        let (mut net, h1, _h2) = line_topology();
        let pid = net.cpu_add_process(h1);
        net.cpu_start_work(h1, pid, SimDelta::from_secs(1));
        // The hog halves the share: the wake-up due at 1 s goes stale and a
        // new one is due at 2 s, in the next slot.
        net.cpu_spawn_hog(h1);
        assert_eq!(cold_held(&net), [2, 0]);
        let mut h = CpuChain {
            done: Vec::new(),
            chain: 0,
            work: SimDelta::ZERO,
        };
        let (peak, fired) = run_stepped(&mut net, &mut h);
        assert_eq!((peak, fired), ([2, 0], vec![0, 1]));
        assert_eq!(h.done, vec![(SimTime::from_secs(2), pid)]);
    }

    /// Three processes chaining work items beside a hog that comes and
    /// goes, and a shaped burst: every share change strands the pending
    /// wake-ups of the other items.
    fn shaped_cpu_heavy_run() -> (Net, [usize; 2], Vec<u32>, usize) {
        let (mut net, h1, h2) = line_topology();
        let flow = FlowSpec::host_pair(h1, h2, crate::packet::Proto::Udp);
        net.install_shaper(h1, flow, TokenBucket::new(800_000, 1_000));
        let procs: Vec<ProcId> = (0..3).map(|_| net.cpu_add_process(h1)).collect();
        for (i, &p) in procs.iter().enumerate() {
            net.cpu_start_work(h1, p, SimDelta::from_micros(700 + 300 * i as u64));
        }
        let throttle = |at_ms, per_mille| {
            (
                SimTime::from_millis(at_ms),
                FaultAction::CpuThrottle {
                    host: h1,
                    per_mille,
                    duration: Some(SimDelta::from_millis(3)),
                },
            )
        };
        let plan = [throttle(2, 500), throttle(4, 250), throttle(9, 700)]
            .into_iter()
            .fold(FaultPlan::new(3), |p, (at, a)| p.at(at, a));
        net.install_fault_plan(plan);
        for _ in 0..40 {
            net.send_ip(udp(h1, h2, 72));
        }
        let mut h = CpuChain {
            done: Vec::new(),
            chain: 60,
            work: SimDelta::from_micros(400),
        };
        let (peak, fired) = run_stepped(&mut net, &mut h);
        (net, peak, fired, h.done.len())
    }

    #[test]
    fn the_cold_tables_stay_at_their_peak_and_reuse_deterministically() {
        let (net, peak, fired, done) = shaped_cpu_heavy_run();
        assert_eq!(done, 63, "three first items plus the chain");
        let lens = [net.cpu_wakes.slots.len(), net.shaper_wakes.slots.len()];
        assert_eq!(lens, peak, "a table grew while a slot was free");
        assert!(peak[0] > 3 && peak[1] == 1, "{peak:?}");
        assert!(
            fired.len() > 2 * done,
            "stale wake-ups fire too: {}",
            fired.len()
        );
        let (_, peak2, fired2, _) = shaped_cpu_heavy_run();
        assert_eq!((peak, fired), (peak2, fired2));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut net, h1, h2) = line_topology();
            let mut h = Collect::new();
            for i in 0..20 {
                let mut p = udp(h1, h2, 100 + i * 10);
                p.id = 0;
                net.send_ip(p);
            }
            net.run_to_quiescence(&mut h);
            h.got
        };
        assert_eq!(run(), run());
    }
}
