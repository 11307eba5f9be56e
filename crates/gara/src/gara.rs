//! The GARA reservation system.
//!
//! "GARA, a resource management architecture that supports flow-specific
//! QoS specification, secure immediate and advance co-reservation, online
//! monitoring/control, and policy-driven management of a variety of
//! resource types, including networks." (§4.2)
//!
//! Uniform API across resource types: the same [`Gara::reserve`] call makes
//! an immediate or advance reservation of network bandwidth, CPU, or
//! storage; the returned [`ResvId`] handle supports modify, cancel, and
//! monitoring (polling via [`Gara::status`] or callbacks via
//! [`Gara::subscribe`]). Admission control uses per-resource slot tables
//! (the bandwidth-broker role); enforcement calls resource-specific
//! operations: installing classifier rules and token-bucket policers on the
//! flow's edge router, granting DSRT CPU reservations, or debiting a
//! storage server's bandwidth table.

use crate::slot_table::{RejectReason, Rejected, SlotId, SlotTable};
use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    depth_for, ChanId, CounterId, DepthRule, Dscp, FlowSpec, MetricSink, Net, NodeId, NodeKind,
    PolicingAction, Proto, TimelineSource, TokenBucket,
};
use mpichgq_sim::{FxHashMap, SimDelta, SimTime};
use mpichgq_tcp::{control_token, Controller, ControllerId, Stack};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reservation handle ("an opaque object ... that allows the calling
/// program to modify, cancel, and monitor the reservation", §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResvId(pub u64);

/// Reservation lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Admitted for a future interval; not yet enforced.
    Pending,
    /// Currently enforced.
    Active,
    /// The interval ended.
    Expired,
    /// Cancelled by the holder.
    Cancelled,
    /// Revoked by the broker (preemption, policy change, fault injection)
    /// — the one teardown the holder did not ask for, and the signal the
    /// QoS agent's adaptation loop reacts to.
    Revoked,
    /// Enforcement failed at activation time.
    Failed,
}

/// A network-flow reservation request.
#[derive(Debug, Clone, Copy)]
pub struct NetworkRequest {
    pub src: NodeId,
    pub dst: NodeId,
    pub proto: Proto,
    /// `None` binds all ports between the host pair (how MPICH-GQ binds
    /// "all relevant flows" of a communicator link).
    pub src_port: Option<u16>,
    pub dst_port: Option<u16>,
    /// Premium bandwidth, on-the-wire bits per second.
    pub rate_bps: u64,
    /// Token-bucket depth rule for the edge policer (§4.3, §5.4).
    pub depth: DepthRule,
    /// Drop (paper testbed) or demote out-of-profile packets.
    pub action: PolicingAction,
    /// Also install an end-system shaper pacing the flow at the reserved
    /// rate (the paper's §5.4 alternative; exercised by our ablations).
    pub shape_at_source: bool,
}

impl NetworkRequest {
    pub(crate) fn flow_spec(&self) -> FlowSpec {
        FlowSpec {
            src: Some(self.src),
            dst: Some(self.dst),
            proto: Some(self.proto),
            src_port: self.src_port,
            dst_port: self.dst_port,
            dscp: None,
        }
    }
}

/// A DSRT CPU reservation request.
#[derive(Debug, Clone, Copy)]
pub struct CpuRequest {
    pub host: NodeId,
    pub proc: ProcId,
    /// Fraction of the CPU in `(0, 1]`.
    pub fraction: f64,
}

/// A DPSS-style storage-bandwidth reservation request.
#[derive(Debug, Clone)]
pub struct StorageRequest {
    pub server: String,
    pub bytes_per_sec: u64,
}

/// A request for one resource.
#[derive(Debug, Clone)]
pub enum Request {
    Network(NetworkRequest),
    Cpu(CpuRequest),
    Storage(StorageRequest),
}

/// When a reservation should begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartSpec {
    Now,
    /// Advance reservation.
    At(SimTime),
}

/// Why a reservation was refused.
#[derive(Debug)]
pub enum ReserveError {
    /// A slot table on the path (or host/server) lacked capacity.
    Admission(Rejected),
    /// Network request between unreachable endpoints.
    NoRoute,
    /// Storage server not registered.
    UnknownServer(String),
    /// Invalid parameters (zero rate, fraction out of range, ...).
    Invalid(&'static str),
    /// Rejected by an injected fault ([`Gara::inject_rejections`]); the
    /// request itself was well-formed and might succeed on retry.
    Injected,
}

impl std::fmt::Display for ReserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReserveError::Admission(r) => write!(f, "admission control: {r}"),
            ReserveError::NoRoute => write!(f, "no route between endpoints"),
            ReserveError::UnknownServer(s) => write!(f, "unknown storage server {s}"),
            ReserveError::Invalid(m) => write!(f, "invalid request: {m}"),
            ReserveError::Injected => write!(f, "reservation rejected (injected fault)"),
        }
    }
}
impl std::error::Error for ReserveError {}

#[derive(Debug, Clone)]
enum SlotRef {
    Net(ChanId, SlotId),
    Cpu(NodeId, SlotId),
    Storage(String, SlotId),
}

/// Identity of one slot table, used to group co-reservation demands so
/// each table sees its share of the set as a single batch.
#[derive(Debug, PartialEq, Eq)]
enum TableKey {
    Net(ChanId),
    Cpu(NodeId),
    Storage(String),
}

/// One co-reservation demand against a table: requesting index within
/// the input set, window, and amount.
type Demand = (usize, SimTime, SimTime, u64);

#[derive(Debug, Default)]
enum Enforcement {
    #[default]
    None,
    Net {
        router: NodeId,
        rule: u64,
        shaper: Option<u64>,
    },
    Cpu,
}

struct Resv {
    req: Request,
    start: SimTime,
    end: SimTime,
    slots: Vec<SlotRef>,
    enforcement: Enforcement,
}

/// A `gara.*` registry counter whose id is interned on the first bump: a
/// decision then costs one vector add instead of a string hash, a counter
/// that never fires never shows up in a snapshot, and counters register in
/// the order they first fire. A `Gara` therefore serves one `Net`.
struct LazyCounter {
    name: &'static str,
    id: Option<CounterId>,
}

impl LazyCounter {
    const fn new(name: &'static str) -> LazyCounter {
        LazyCounter { name, id: None }
    }

    fn bump(&mut self, net: &mut Net) {
        let id = *self
            .id
            .get_or_insert_with(|| net.obs.metrics.counter(self.name));
        net.obs.metrics.inc(id, 1);
    }
}

struct Counters {
    granted: LazyCounter,
    rejected: LazyCounter,
    injected_rejections: LazyCounter,
    modifies: LazyCounter,
    modifies_rejected: LazyCounter,
    cancels: LazyCounter,
    revocations: LazyCounter,
    // Per-reason refusal breakdown, picked by [`Gara::reject_counter`].
    rej_over_capacity: LazyCounter,
    rej_unknown_slot: LazyCounter,
    rej_no_route: LazyCounter,
    rej_unknown_server: LazyCounter,
    rej_invalid: LazyCounter,
    rej_injected: LazyCounter,
}

impl Counters {
    const NEW: Counters = Counters {
        granted: LazyCounter::new("gara.reservations_granted"),
        rejected: LazyCounter::new("gara.reservations_rejected"),
        injected_rejections: LazyCounter::new("gara.injected_rejections"),
        modifies: LazyCounter::new("gara.modifies"),
        modifies_rejected: LazyCounter::new("gara.modifies_rejected"),
        cancels: LazyCounter::new("gara.cancels"),
        revocations: LazyCounter::new("gara.revocations"),
        rej_over_capacity: LazyCounter::new("gara.rejects.over_capacity"),
        rej_unknown_slot: LazyCounter::new("gara.rejects.unknown_slot"),
        rej_no_route: LazyCounter::new("gara.rejects.no_route"),
        rej_unknown_server: LazyCounter::new("gara.rejects.unknown_server"),
        rej_invalid: LazyCounter::new("gara.rejects.invalid"),
        rej_injected: LazyCounter::new("gara.rejects.injected"),
    };
}

/// CPU slot tables count in milli-fractions so they stay integral.
const CPU_UNITS: f64 = 1000.0;
/// DSRT's admission ceiling, in milli-fraction units.
const CPU_CAPACITY: u64 = (mpichgq_dsrt::MAX_RESERVABLE * CPU_UNITS) as u64;

/// Stale deadline-heap entries tolerated on top of twice the live records
/// before [`Gara::retire`] rebuilds the heap from its live entries. A live
/// record owns at most one live entry, so a rebuild at least halves the
/// heap and is paid for by the retirements that staled the rest; the slack
/// keeps a small broker (every committed experiment) from ever rebuilding.
const DEADLINE_SLACK: usize = 1024;

/// The GARA system (one per simulation; installed as a `Stack` service).
pub struct Gara {
    /// Live (`Pending` / `Active`) reservations only: a terminal transition
    /// drops the record ([`Gara::retire`]), so broker state follows load,
    /// not run length.
    resvs: FxHashMap<u64, Resv>,
    /// Status of every id ever issued, indexed by id: one byte is all that
    /// outlives a finished reservation, and why [`Gara::status`] still
    /// answers for it. An id is in `resvs` iff its status here is live.
    statuses: Vec<Status>,
    /// Managed (bandwidth-brokered) channels: EF slot tables in bits/s.
    links: FxHashMap<ChanId, SlotTable>,
    /// Per-host CPU slot tables in milli-fraction units.
    cpus: FxHashMap<NodeId, SlotTable>,
    /// Storage servers: bandwidth tables in bytes/s.
    storage: FxHashMap<String, SlotTable>,
    /// Min-heap of `(deadline, reservation)` — every pending activation
    /// and finite active expiry, possibly stale (cancelled/revoked
    /// reservations leave their entries behind; they are skipped lazily
    /// against the live record, and dropped in bulk past
    /// [`DEADLINE_SLACK`]). Keeps [`Gara::advance`] and timer re-arming
    /// O(log n) instead of a scan over every live reservation.
    deadlines: BinaryHeap<Reverse<(SimTime, u64)>>,
    listeners: Vec<Box<dyn FnMut(ResvId, Status)>>,
    ctl: Option<ControllerId>,
    /// Pending fault-injected rejections: while nonzero, each `reserve`
    /// call fails with [`ReserveError::Injected`] and decrements it.
    inject_rejections: u32,
    /// Controller to ping (same sim-time) whenever a reservation is
    /// revoked, so an adaptation loop can react in event order.
    adapt_ctl: Option<ControllerId>,
    ctrs: Counters,
}

impl Gara {
    pub fn new() -> Gara {
        Gara {
            resvs: FxHashMap::default(),
            statuses: Vec::new(),
            links: FxHashMap::default(),
            cpus: FxHashMap::default(),
            storage: FxHashMap::default(),
            deadlines: BinaryHeap::new(),
            listeners: Vec::new(),
            ctl: None,
            inject_rejections: 0,
            adapt_ctl: None,
            ctrs: Counters::NEW,
        }
    }

    // ------------------------------------------------------------------
    // Resource registration (the bandwidth-broker's configuration)
    // ------------------------------------------------------------------

    /// Put `chan` under admission control with `reservable_bps` of EF
    /// capacity.
    pub fn manage_chan(&mut self, chan: ChanId, reservable_bps: u64) {
        self.links.insert(chan, SlotTable::new(reservable_bps));
    }

    /// Manage every router-to-router channel, reserving at most
    /// `fraction` of each link's capacity for EF ("the number of expedited
    /// packets must be carefully limited", §2).
    pub fn manage_core_links(&mut self, net: &Net, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction));
        for id in net.chan_ids() {
            let c = net.chan(id);
            let from_router = net.node(c.from).kind == NodeKind::Router;
            let to_router = net.node(c.to).kind == NodeKind::Router;
            if from_router && to_router {
                let cap = (c.cfg.bandwidth_bps as f64 * fraction) as u64;
                self.manage_chan(id, cap);
            }
        }
    }

    /// Register a DPSS-style storage server with an aggregate bandwidth.
    pub fn manage_storage(&mut self, server: &str, capacity_bytes_per_sec: u64) {
        self.storage
            .insert(server.to_owned(), SlotTable::new(capacity_bytes_per_sec));
    }

    /// Managed network slot tables, for invariant auditors (qcheck checks
    /// peak ≤ capacity on every table after each scenario).
    pub fn slot_tables(&self) -> impl Iterator<Item = (ChanId, &SlotTable)> {
        self.links.iter().map(|(c, t)| (*c, t))
    }

    /// Per-host CPU slot tables, for invariant auditors.
    pub fn cpu_tables(&self) -> impl Iterator<Item = (NodeId, &SlotTable)> {
        self.cpus.iter().map(|(h, t)| (*h, t))
    }

    // ------------------------------------------------------------------
    // The uniform reservation API
    // ------------------------------------------------------------------

    /// Make an immediate or advance reservation. `duration = None` means
    /// "until cancelled".
    pub fn reserve(
        &mut self,
        net: &mut Net,
        req: Request,
        start: StartSpec,
        duration: Option<SimDelta>,
    ) -> Result<ResvId, ReserveError> {
        let now = net.now();
        let start_t = match start {
            StartSpec::Now => now,
            StartSpec::At(t) => t.max(now),
        };
        let end_t = match duration {
            Some(d) => start_t + d,
            None => SimTime::MAX,
        };
        if let Err(e) = self.validate(&req, start_t, end_t) {
            self.count_reservation_reject(net, &e);
            return Err(e);
        }
        if self.inject_rejections > 0 {
            self.inject_rejections -= 1;
            self.count_reservation_reject(net, &ReserveError::Injected);
            self.ctrs.injected_rejections.bump(net);
            net.obs.trace.record(now, "gara.reject", self.next_id(), -1);
            return Err(ReserveError::Injected);
        }
        let slots = match self.admit(net, &req, start_t, end_t) {
            Ok(s) => s,
            Err(e) => {
                self.count_reservation_reject(net, &e);
                net.obs.trace.record(now, "gara.reject", self.next_id(), 0);
                return Err(e);
            }
        };
        Ok(self.grant(net, req, start_t, end_t, slots))
    }

    /// Record an admitted request and activate it if due: the shared tail
    /// of [`Gara::reserve`] and [`Gara::co_reserve`].
    fn grant(
        &mut self,
        net: &mut Net,
        req: Request,
        start: SimTime,
        end: SimTime,
        slots: Vec<SlotRef>,
    ) -> ResvId {
        let now = net.now();
        let id = self.next_id();
        let granted_amount = match &req {
            Request::Network(n) => n.rate_bps as i64,
            Request::Cpu(c) => (c.fraction * 1000.0) as i64,
            Request::Storage(_) => 0,
        };
        self.statuses.push(Status::Pending);
        self.resvs.insert(
            id,
            Resv {
                req,
                start,
                end,
                slots,
                enforcement: Enforcement::None,
            },
        );
        let rid = ResvId(id);
        self.ctrs.granted.bump(net);
        net.obs.trace.record(now, "gara.grant", id, granted_amount);
        if start <= now {
            self.activate(net, rid);
        } else {
            self.deadlines.push(Reverse((start, id)));
            self.emit(rid, Status::Pending);
        }
        self.arm(net);
        rid
    }

    /// Atomic co-reservation: every request is admitted or none is
    /// ("co-reservation of CPU, network, and other resources needed for
    /// end-to-end performance", §1).
    ///
    /// Unlike a loop over [`Gara::reserve`] (the old implementation,
    /// which granted then cancelled on failure — emitting spurious
    /// grant/cancel events and re-running admission during rollback),
    /// this admits all requests *first*: demands are grouped per slot
    /// table and each table decides its group all-or-nothing in one
    /// [`SlotTable::try_insert_batch`] pass. No reservation object
    /// exists, no event fires, and no enforcement is touched unless the
    /// whole set is admitted.
    pub fn co_reserve(
        &mut self,
        net: &mut Net,
        reqs: Vec<(Request, StartSpec, Option<SimDelta>)>,
    ) -> Result<Vec<ResvId>, ReserveError> {
        let now = net.now();
        let windows: Vec<(SimTime, SimTime)> = reqs
            .iter()
            .map(|(_, start, duration)| {
                let start_t = match start {
                    StartSpec::Now => now,
                    StartSpec::At(t) => (*t).max(now),
                };
                let end_t = match duration {
                    Some(d) => start_t + *d,
                    None => SimTime::MAX,
                };
                (start_t, end_t)
            })
            .collect();
        // Phase 0: validate everything before any slot moves.
        for ((req, _, _), &(start_t, end_t)) in reqs.iter().zip(&windows) {
            if let Err(e) = self.validate(req, start_t, end_t) {
                self.count_reservation_reject(net, &e);
                return Err(e);
            }
        }
        if !reqs.is_empty() && self.inject_rejections > 0 {
            self.inject_rejections -= 1;
            self.count_reservation_reject(net, &ReserveError::Injected);
            self.ctrs.injected_rejections.bump(net);
            net.obs.trace.record(now, "gara.reject", self.next_id(), -1);
            return Err(ReserveError::Injected);
        }
        // Phase 1: resolve every request to per-table demands, grouped by
        // table in first-seen order (so SlotIds come out exactly as a
        // sequential admission would have assigned them).
        let mut groups: Vec<(TableKey, Vec<Demand>)> = Vec::new();
        let push_demand = |groups: &mut Vec<(TableKey, Vec<Demand>)>,
                           key: TableKey,
                           demand: Demand| {
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, items)) => items.push(demand),
                None => groups.push((key, vec![demand])),
            }
        };
        for (i, (req, _, _)) in reqs.iter().enumerate() {
            let (start_t, end_t) = windows[i];
            match req {
                Request::Network(n) => {
                    let Some(path) = net.path_chans(n.src, n.dst) else {
                        let e = ReserveError::NoRoute;
                        self.count_reservation_reject(net, &e);
                        net.obs.trace.record(now, "gara.reject", self.next_id(), 0);
                        return Err(e);
                    };
                    for chan in path {
                        if self.links.contains_key(&chan) {
                            push_demand(
                                &mut groups,
                                TableKey::Net(chan),
                                (i, start_t, end_t, n.rate_bps),
                            );
                        }
                    }
                }
                Request::Cpu(c) => {
                    self.cpus
                        .entry(c.host)
                        .or_insert_with(|| SlotTable::new(CPU_CAPACITY));
                    let amount = (c.fraction * CPU_UNITS).round() as u64;
                    push_demand(
                        &mut groups,
                        TableKey::Cpu(c.host),
                        (i, start_t, end_t, amount),
                    );
                }
                Request::Storage(s) => {
                    if !self.storage.contains_key(&s.server) {
                        let e = ReserveError::UnknownServer(s.server.clone());
                        self.count_reservation_reject(net, &e);
                        net.obs.trace.record(now, "gara.reject", self.next_id(), 0);
                        return Err(e);
                    }
                    push_demand(
                        &mut groups,
                        TableKey::Storage(s.server.clone()),
                        (i, start_t, end_t, s.bytes_per_sec),
                    );
                }
            }
        }
        // Phase 2: batch-admit per table; on any refusal, release the
        // groups already admitted (plain removes — infallible) and reject.
        let mut slots_per_req: Vec<Vec<SlotRef>> = reqs.iter().map(|_| Vec::new()).collect();
        let mut admitted: Vec<SlotRef> = Vec::new();
        for (key, items) in &groups {
            let batch: Vec<(SimTime, SimTime, u64)> =
                items.iter().map(|&(_, s, e, a)| (s, e, a)).collect();
            let table = match key {
                TableKey::Net(c) => self.links.get_mut(c).expect("grouped from managed set"),
                TableKey::Cpu(h) => self.cpus.get_mut(h).expect("grouped from managed set"),
                TableKey::Storage(s) => self.storage.get_mut(s).expect("grouped from managed set"),
            };
            match table.try_insert_batch(&batch) {
                Ok(ids) => {
                    for (&(req_idx, ..), sid) in items.iter().zip(ids) {
                        let sref = match key {
                            TableKey::Net(c) => SlotRef::Net(*c, sid),
                            TableKey::Cpu(h) => SlotRef::Cpu(*h, sid),
                            TableKey::Storage(s) => SlotRef::Storage(s.clone(), sid),
                        };
                        slots_per_req[req_idx].push(sref.clone());
                        admitted.push(sref);
                    }
                }
                Err(rej) => {
                    for s in &admitted {
                        self.release_slot(s);
                    }
                    let e = ReserveError::Admission(rej);
                    self.count_reservation_reject(net, &e);
                    net.obs.trace.record(now, "gara.reject", self.next_id(), 0);
                    return Err(e);
                }
            }
        }
        // Phase 3: the whole set is admitted — create and (when due)
        // activate each reservation in input order, as reserve() would.
        let mut granted = Vec::new();
        for ((req, _, _), ((start_t, end_t), slots)) in
            reqs.into_iter().zip(windows.into_iter().zip(slots_per_req))
        {
            granted.push(self.grant(net, req, start_t, end_t, slots));
        }
        Ok(granted)
    }

    /// Cancel a reservation, releasing admission state and enforcement.
    pub fn cancel(&mut self, net: &mut Net, id: ResvId) {
        if self.resvs.contains_key(&id.0) {
            self.ctrs.cancels.bump(net);
            self.retire(net, id, Status::Cancelled);
        }
    }

    /// Revoke a reservation from the broker side: the same teardown as
    /// [`Gara::cancel`] but with final status [`Status::Revoked`], and the
    /// adaptation listener (if any) is scheduled to run at the current sim
    /// time so the holder can renegotiate. Fault plans and policy
    /// preemption both funnel through here.
    pub fn revoke(&mut self, net: &mut Net, id: ResvId) {
        if !self.resvs.contains_key(&id.0) {
            return;
        }
        self.retire(net, id, Status::Revoked);
        self.ctrs.revocations.bump(net);
        let now = net.now();
        net.obs.trace.record(now, "gara.revoke", id.0, 0);
        if let Some(ctl) = self.adapt_ctl {
            net.schedule_control(now, control_token(ctl, 0));
        }
    }

    /// Arm `n` fault-injected rejections: the next `n` calls to
    /// [`Gara::reserve`] fail with [`ReserveError::Injected`] regardless
    /// of capacity (exercises the agent's retry/backoff path).
    pub fn inject_rejections(&mut self, n: u32) {
        self.inject_rejections += n;
    }

    /// Register the controller to wake (at the same sim time, in event
    /// order) whenever a reservation is revoked.
    pub fn set_adaptation_listener(&mut self, ctl: ControllerId) {
        self.adapt_ctl = Some(ctl);
    }

    /// Modify the rate of an active/pending network reservation in place.
    pub fn modify_network_rate(
        &mut self,
        net: &mut Net,
        id: ResvId,
        new_rate_bps: u64,
    ) -> Result<(), ReserveError> {
        let r = self.modify_network_rate_inner(net, id, new_rate_bps);
        if let Err(e) = &r {
            self.count_modify_reject(net, e);
        }
        r
    }

    fn modify_network_rate_inner(
        &mut self,
        net: &mut Net,
        id: ResvId,
        new_rate_bps: u64,
    ) -> Result<(), ReserveError> {
        if new_rate_bps == 0 {
            return Err(ReserveError::Invalid("zero rate"));
        }
        let r = self
            .resvs
            .get(&id.0)
            .ok_or(ReserveError::Invalid("no such modifiable reservation"))?;
        let Request::Network(nreq) = &r.req else {
            return Err(ReserveError::Invalid("not a network reservation"));
        };
        let (depth_rule, old_rate) = (nreq.depth, nreq.rate_bps);
        // First pass: try to resize every slot; roll back on failure.
        for (k, slot) in r.slots.iter().enumerate() {
            let SlotRef::Net(chan, sid) = slot else {
                continue;
            };
            let refusal = match self.links.get_mut(chan) {
                // A managed channel can disappear under us (broker
                // reconfiguration); that refuses the modify, it must not
                // abort the process.
                None => ReserveError::Invalid("managed channel vanished"),
                Some(table) => match table.try_resize(*sid, new_rate_bps) {
                    Ok(()) => continue,
                    Err(rej) => ReserveError::Admission(rej),
                },
            };
            // Roll back infallibly: the old amounts were admitted before,
            // so `restore` reinstates them without re-running admission
            // (which could refuse, e.g. after a capacity-lowering
            // reconfiguration mid-sequence).
            for done in &r.slots[..k] {
                if let SlotRef::Net(c, s) = done {
                    if let Some(t) = self.links.get_mut(c) {
                        t.restore(*s, old_rate);
                    }
                }
            }
            return Err(refusal);
        }
        // Commit: update the request and reconfigure the live policer.
        let r = self.resvs.get_mut(&id.0).unwrap();
        if let Request::Network(nreq) = &mut r.req {
            nreq.rate_bps = new_rate_bps;
        }
        if let Enforcement::Net { router, rule, .. } = r.enforcement {
            let depth = depth_for(depth_rule, new_rate_bps);
            let now = net.now();
            let mut tb = TokenBucket::new(new_rate_bps, depth);
            tb.reconfigure(now, new_rate_bps, depth);
            net.node_mut(router).classifier.set_policer(rule, Some(tb));
        }
        self.ctrs.modifies.bump(net);
        let now = net.now();
        net.obs
            .trace
            .record(now, "gara.modify_rate", id.0, new_rate_bps as i64);
        Ok(())
    }

    /// Current status of any id ever issued (the polling interface);
    /// `None` for an id this broker never granted.
    pub fn status(&self, id: ResvId) -> Option<Status> {
        self.statuses.get(usize::try_from(id.0).ok()?).copied()
    }

    /// Register a callback invoked on every status change (the callback
    /// interface: "a user's function is called every time the state of the
    /// reservation changes in an interesting way", §4.2).
    pub fn subscribe(&mut self, f: Box<dyn FnMut(ResvId, Status)>) {
        self.listeners.push(f);
    }

    /// Free EF capacity along the whole path from `src` to `dst` over a
    /// window: the minimum across every managed channel on the path (for
    /// programs that "select from among alternative resources, according
    /// to their availability", §4.2).
    /// Returns `None` if the endpoints are unreachable; unmanaged paths
    /// report `u64::MAX` (no broker limit applies).
    pub fn available_on_path(
        &self,
        net: &Net,
        src: NodeId,
        dst: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Option<u64> {
        let path = net.path_chans(src, dst)?;
        let mut avail = u64::MAX;
        for chan in path {
            if let Some(t) = self.links.get(&chan) {
                avail = avail.min(t.available(start, end));
            }
        }
        Some(avail)
    }

    // ------------------------------------------------------------------
    // Timer driving
    // ------------------------------------------------------------------

    pub(crate) fn set_controller_id(&mut self, id: ControllerId) {
        self.ctl = Some(id);
    }

    fn next_id(&self) -> u64 {
        self.statuses.len() as u64
    }

    /// When live record `id` next changes state by itself: its start while
    /// pending, then its end (`SimTime::MAX` for "until cancelled").
    fn deadline_of(&self, id: u64, r: &Resv) -> SimTime {
        match self.statuses[id as usize] {
            Status::Pending => r.start,
            _ => r.end,
        }
    }

    /// Earliest pending activation or active expiry.
    ///
    /// This is the query form (a full scan, O(live reservations)); the
    /// timer path uses the deadline heap instead, which answers the same
    /// question in O(log n) amortized.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let live = self.resvs.iter().map(|(&id, r)| self.deadline_of(id, r));
        live.filter(|&t| t != SimTime::MAX).min()
    }

    /// Is a popped/peeked heap entry still the live deadline of its
    /// reservation? Retired and already-activated records invalidate their
    /// old entries; they are discarded here.
    fn deadline_live(&self, t: SimTime, id: u64) -> bool {
        let r = self.resvs.get(&id);
        r.is_some_and(|r| self.deadline_of(id, r) == t)
    }

    /// Activate/expire everything due at `now` in `(deadline, id)`
    /// order, then re-arm the timer. Each reservation contributes at
    /// most two heap entries over its lifetime (activation, expiry), so
    /// this is O(log n) per transition.
    pub fn advance(&mut self, net: &mut Net) {
        let now = net.now();
        while let Some(&Reverse((t, id))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            if !self.deadline_live(t, id) {
                continue; // stale: superseded or already terminal
            }
            let rid = ResvId(id);
            match self.statuses[id as usize] {
                // Activation pushes the expiry entry, which this same
                // loop then drains if it is already due.
                Status::Pending => self.activate(net, rid),
                _ => self.retire(net, rid, Status::Expired),
            }
        }
        self.arm(net);
    }

    fn arm(&mut self, net: &mut Net) {
        let Some(ctl) = self.ctl else {
            return;
        };
        while let Some(&Reverse((t, id))) = self.deadlines.peek() {
            if self.deadline_live(t, id) {
                net.schedule_control(t.max(net.now()), control_token(ctl, 0));
                return;
            }
            self.deadlines.pop();
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The per-reason reject counter, so benchmarks and operators can
    /// break refusals down by cause instead of one opaque total.
    fn reject_counter(&mut self, e: &ReserveError) -> &mut LazyCounter {
        let c = &mut self.ctrs;
        match e {
            ReserveError::Admission(r) => match r.reason {
                RejectReason::OverCapacity => &mut c.rej_over_capacity,
                RejectReason::UnknownSlot => &mut c.rej_unknown_slot,
                RejectReason::EmptyInterval | RejectReason::AmountOutOfRange => &mut c.rej_invalid,
            },
            ReserveError::NoRoute => &mut c.rej_no_route,
            ReserveError::UnknownServer(_) => &mut c.rej_unknown_server,
            ReserveError::Invalid(_) => &mut c.rej_invalid,
            ReserveError::Injected => &mut c.rej_injected,
        }
    }

    /// Count a refused reservation: the lifecycle total plus the
    /// per-reason breakdown.
    fn count_reservation_reject(&mut self, net: &mut Net, e: &ReserveError) {
        self.ctrs.rejected.bump(net);
        self.reject_counter(e).bump(net);
    }

    /// Count a refused modify. Deliberately *not* `reservations_rejected`:
    /// that counter means "a reservation request was refused" and
    /// participates in qcheck run fingerprints; in-place modifies keep
    /// their own total alongside the shared per-reason breakdown.
    fn count_modify_reject(&mut self, net: &mut Net, e: &ReserveError) {
        self.ctrs.modifies_rejected.bump(net);
        self.reject_counter(e).bump(net);
    }

    fn validate(&self, req: &Request, start: SimTime, end: SimTime) -> Result<(), ReserveError> {
        match req {
            Request::Network(n) => {
                if n.rate_bps == 0 {
                    return Err(ReserveError::Invalid("zero rate"));
                }
            }
            Request::Cpu(c) => {
                if !(c.fraction > 0.0 && c.fraction <= 1.0) {
                    return Err(ReserveError::Invalid("CPU fraction out of (0,1]"));
                }
            }
            Request::Storage(s) => {
                if s.bytes_per_sec == 0 {
                    return Err(ReserveError::Invalid("zero storage bandwidth"));
                }
            }
        }
        // A zero duration holds nothing (the slot tables would refuse it
        // too, but only after earlier hops had been admitted).
        if end <= start {
            return Err(ReserveError::Invalid("empty interval"));
        }
        Ok(())
    }

    fn admit(
        &mut self,
        net: &Net,
        req: &Request,
        start: SimTime,
        end: SimTime,
    ) -> Result<Vec<SlotRef>, ReserveError> {
        let mut slots = Vec::new();
        let result = (|| -> Result<(), ReserveError> {
            match req {
                Request::Network(n) => {
                    // Hop by hop off the route table, no path vector. The
                    // table is a frozen BFS, so a first hop implies the
                    // rest: an unreachable pair is refused at `cur == src`,
                    // before any slot has moved.
                    let mut cur = n.src;
                    while cur != n.dst {
                        let chan = net.route(cur, n.dst).ok_or(ReserveError::NoRoute)?;
                        if let Some(table) = self.links.get_mut(&chan) {
                            let sid = table
                                .try_insert(start, end, n.rate_bps)
                                .map_err(ReserveError::Admission)?;
                            slots.push(SlotRef::Net(chan, sid));
                        }
                        cur = net.chan(chan).to;
                    }
                    Ok(())
                }
                Request::Cpu(c) => {
                    let table = self
                        .cpus
                        .entry(c.host)
                        .or_insert_with(|| SlotTable::new(CPU_CAPACITY));
                    let amount = (c.fraction * CPU_UNITS).round() as u64;
                    let sid = table
                        .try_insert(start, end, amount)
                        .map_err(ReserveError::Admission)?;
                    slots.push(SlotRef::Cpu(c.host, sid));
                    Ok(())
                }
                Request::Storage(s) => {
                    let table = self
                        .storage
                        .get_mut(&s.server)
                        .ok_or_else(|| ReserveError::UnknownServer(s.server.clone()))?;
                    let sid = table
                        .try_insert(start, end, s.bytes_per_sec)
                        .map_err(ReserveError::Admission)?;
                    slots.push(SlotRef::Storage(s.server.clone(), sid));
                    Ok(())
                }
            }
        })();
        match result {
            Ok(()) => Ok(slots),
            Err(e) => {
                // Roll back partial admissions.
                for s in slots {
                    self.release_slot(&s);
                }
                Err(e)
            }
        }
    }

    fn release_slot(&mut self, s: &SlotRef) {
        match s {
            SlotRef::Net(c, sid) => {
                if let Some(t) = self.links.get_mut(c) {
                    t.remove(*sid);
                }
            }
            SlotRef::Cpu(h, sid) => {
                if let Some(t) = self.cpus.get_mut(h) {
                    t.remove(*sid);
                }
            }
            SlotRef::Storage(name, sid) => {
                if let Some(t) = self.storage.get_mut(name) {
                    t.remove(*sid);
                }
            }
        }
    }

    fn activate(&mut self, net: &mut Net, id: ResvId) {
        let r = self.resvs.get_mut(&id.0).unwrap();
        let enforcement = match &r.req {
            Request::Network(n) => {
                let Some(first_hop) = net.route(n.src, n.dst) else {
                    return self.retire(net, id, Status::Failed);
                };
                // The edge router is the first router on the path.
                let router = net.chan(first_hop).to;
                debug_assert_eq!(net.node(router).kind, NodeKind::Router);
                let depth = depth_for(n.depth, n.rate_bps);
                let rule = net.node_mut(router).classifier.install(
                    n.flow_spec(),
                    Dscp::Ef,
                    Some(TokenBucket::new(n.rate_bps, depth)),
                    n.action,
                );
                let shaper = if n.shape_at_source {
                    Some(net.install_shaper(
                        n.src,
                        n.flow_spec(),
                        TokenBucket::new(n.rate_bps, depth),
                    ))
                } else {
                    None
                };
                Enforcement::Net {
                    router,
                    rule,
                    shaper,
                }
            }
            Request::Cpu(c) => {
                match net.cpu_set_reservation(c.host, c.proc, Some(c.fraction)) {
                    Ok(()) => Enforcement::Cpu,
                    // Slot-table admission should have prevented this.
                    Err(_) => return self.retire(net, id, Status::Failed),
                }
            }
            Request::Storage(_) => Enforcement::None, // accounting only
        };
        let r = self.resvs.get_mut(&id.0).unwrap();
        r.enforcement = enforcement;
        let end = r.end;
        if end != SimTime::MAX {
            self.deadlines.push(Reverse((end, id.0)));
        }
        let now = net.now();
        net.obs.trace.record(now, "gara.active", id.0, 0);
        self.set_status(id, Status::Active);
    }

    /// The one terminal transition (`Expired`, `Cancelled`, `Revoked`,
    /// `Failed`) of live reservation `id`: tear down its enforcement,
    /// release its slots, record the final status and forget the record.
    fn retire(&mut self, net: &mut Net, id: ResvId, final_status: Status) {
        let mut r = self.resvs.remove(&id.0).expect("retire: not live");
        match (std::mem::take(&mut r.enforcement), &r.req) {
            (Enforcement::None, _) => {}
            (Enforcement::Cpu, Request::Cpu(c)) => {
                let _ = net.cpu_set_reservation(c.host, c.proc, None);
            }
            (
                Enforcement::Net {
                    router,
                    rule,
                    shaper,
                },
                Request::Network(n),
            ) => {
                net.node_mut(router).classifier.remove(rule);
                if let Some(sid) = shaper {
                    net.remove_shaper(n.src, sid);
                }
            }
            _ => unreachable!("enforcement kind follows the request kind"),
        }
        for s in r.slots.drain(..) {
            self.release_slot(&s);
        }
        debug_assert!(
            r.slots.is_empty() && matches!(r.enforcement, Enforcement::None),
            "a retired record holds no slots and no enforcement"
        );
        if self.statuses[id.0 as usize] == Status::Active {
            let now = net.now();
            net.obs.trace.record(now, "gara.deactivate", id.0, 0);
        }
        self.set_status(id, final_status);
        if self.deadlines.len() > 2 * self.resvs.len() + DEADLINE_SLACK {
            let mut heap = std::mem::take(&mut self.deadlines);
            heap.retain(|&Reverse((t, id))| self.deadline_live(t, id));
            self.deadlines = heap;
        }
    }

    fn set_status(&mut self, id: ResvId, status: Status) {
        self.statuses[id.0 as usize] = status;
        self.emit(id, status);
    }

    fn emit(&mut self, id: ResvId, status: Status) {
        for l in &mut self.listeners {
            l(id, status);
        }
    }
}

impl Default for Gara {
    fn default() -> Self {
        Self::new()
    }
}

/// Timer driver: forwards GARA's scheduled deadlines back into
/// [`Gara::advance`]. Registered by [`install`].
struct GaraDriver;

impl Controller for GaraDriver {
    fn on_control(&mut self, _payload: u64, net: &mut Net, stack: &mut Stack) {
        let Some(mut g) = stack.take_service::<Gara>() else {
            return;
        };
        g.advance(net);
        stack.put_service_box(g);
    }
}

impl TimelineSource for Gara {
    /// Control-plane occupancy series: standing slots across every managed
    /// table, the pending-deadline heap depth (stale entries included —
    /// that *is* the heap the timer driver pays for), and the aggregate
    /// EF load currently admitted on managed links. Reservation-rate
    /// series (grants, rejects) come for free from the live `gara.*`
    /// registry counters the sampler sweeps.
    fn timeline_sample(&self, at: SimTime, sink: &mut dyn MetricSink) {
        let standing: usize = self
            .links
            .values()
            .chain(self.cpus.values())
            .chain(self.storage.values())
            .map(SlotTable::len)
            .sum();
        sink.gauge("gara.slots.standing", standing as f64);
        sink.gauge("gara.deadlines.pending", self.deadlines.len() as f64);
        let reserved: u64 = self.links.values().map(|t| t.load_at(at)).sum();
        sink.gauge("gara.links.reserved_bps", reserved as f64);
    }
}

/// Install `gara` as a stack service with its timer driver attached.
pub fn install(stack: &mut Stack, mut gara: Gara) {
    let id = stack.add_controller(Box::new(GaraDriver));
    gara.set_controller_id(id);
    stack.insert_sampled_service(gara);
}
