//! Scenario execution and the always-on invariant battery.
//!
//! A run advances the simulation in fixed time slices and re-checks every
//! cross-layer invariant at each slice boundary — the conservation and
//! slot-table identities hold *at every instant*, not just at quiescence,
//! so sampling mid-run catches transient double-counting (e.g. a packet
//! charged to both a queue and a wire) that an end-of-run check would
//! never see. The run also produces a state fingerprint; a repro artifact
//! replays bit-identically exactly when the fingerprint matches.

use crate::scenario;
use crate::spec::{Inject, ScenarioSpec};
use mpichgq_gara::Gara;
use mpichgq_sim::{Fnv, SimDelta};
use mpichgq_tcp::Sim;

/// Slice boundaries per run at which the instant-level battery fires.
const SLICES: u64 = 24;

/// One invariant failure. `invariant` is a stable machine-readable name
/// (shrinking preserves it); `detail` is for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: String,
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, detail: String) -> Violation {
        Violation {
            invariant: invariant.to_string(),
            detail,
        }
    }
}

/// Everything a completed (or violation-aborted) run reports.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub spec: ScenarioSpec,
    pub inject: Inject,
    /// Empty on a clean run; otherwise the first slice's violations.
    pub violations: Vec<Violation>,
    /// FNV-1a over the final simulated state (ledgers, per-connection
    /// stats). Equal fingerprints ⇔ physically identical replay.
    pub fingerprint: u64,
    /// Events the engine dispatched: the run's schedule cost, kept out of
    /// `fingerprint` so engine work can lower it with physics pinned.
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
}

impl RunOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Expand and run one scenario, auditing at every slice boundary. Stops
/// at the first slice that yields violations (the state is then frozen
/// for fingerprinting, so a shrunk repro re-fails identically).
pub fn run_spec(spec: &ScenarioSpec, inject: &Inject) -> RunOutcome {
    let built = scenario::build(spec, inject);
    let jobs = built.jobs;
    let mut sim = built.sim;
    let slice = SimDelta::from_nanos((built.t_end.as_nanos() / SLICES).max(1));
    let mut violations = Vec::new();
    for s in 1..=SLICES {
        let t = if s == SLICES {
            built.t_end
        } else {
            mpichgq_sim::SimTime::ZERO + slice * s
        };
        sim.run_until(t);
        check_instant(&mut sim, &mut violations);
        if !violations.is_empty() {
            break;
        }
    }
    if violations.is_empty() {
        check_final(&mut sim, &jobs, &mut violations);
    }
    let audit = sim.net.audit();
    RunOutcome {
        spec: *spec,
        inject: *inject,
        violations,
        fingerprint: fingerprint(&mut sim),
        events: sim.net.events_processed(),
        sent: audit.sent,
        delivered: audit.delivered,
    }
}

/// The instant-level battery: valid at any point in simulated time.
fn check_instant(sim: &mut Sim, out: &mut Vec<Violation>) {
    let now = sim.now();
    let audit = sim.net.audit();
    if audit.sent != audit.accounted() {
        out.push(Violation::new(
            "conservation",
            format!(
                "t={:?}: sent {} != accounted {} (delivered {} policed {} queue_full {} \
                 misrouted {} fault_drops {} queued {} shaper {} wire {})",
                now,
                audit.sent,
                audit.accounted(),
                audit.delivered,
                audit.policed,
                audit.queue_full,
                audit.misrouted,
                audit.fault_drops,
                audit.queued_pkts,
                audit.shaper_pkts,
                audit.wire_pkts
            ),
        ));
    }
    for c in &audit.chans {
        // Fuzz scenarios are one shard, so the wire identity holds per row.
        if !c.conserved() || !c.wire_conserved() {
            out.push(Violation::new(
                "chan_conservation",
                format!(
                    "t={:?} iface {}: enq {} deq {} queued {} tx {} rx {} wire fifo {}",
                    now,
                    c.chan.0,
                    c.enqueued,
                    c.dequeued,
                    c.queued_pkts,
                    c.tx_packets,
                    c.rx_packets,
                    c.wire_fifo
                ),
            ));
        }
    }
    if audit.prio_inversions > 0 {
        out.push(Violation::new(
            "prio_inversion",
            format!(
                "t={now:?}: {} best-effort packets dequeued past waiting EF",
                audit.prio_inversions
            ),
        ));
    }
    // The weighted-service generalization of prio_inversion: WFQ virtual
    // time regressed or the DRR rotation guard overflowed. Any discipline
    // keeps this at zero by construction.
    if audit.sched_violations > 0 {
        out.push(Violation::new(
            "sched_violation",
            format!(
                "t={now:?}: {} scheduler self-audit violations (WFQ vtime \
                 regression / DRR rotation overflow)",
                audit.sched_violations
            ),
        ));
    }
    if audit.bucket_violations > 0 {
        out.push(Violation::new(
            "token_bucket",
            format!(
                "t={now:?}: {} token-bucket levels outside [0, depth]",
                audit.bucket_violations
            ),
        ));
    }
    // No packet may ever be handed to a host that is down: delivery to a
    // crashed host is gated at dispatch, and the tripwire counts misses.
    if let Some(fs) = sim.net.fault_stats() {
        if fs.dead_deliveries > 0 {
            out.push(Violation::new(
                "dead_host_delivery",
                format!(
                    "t={now:?}: {} packets delivered to crashed hosts",
                    fs.dead_deliveries
                ),
            ));
        }
    }
    for sock in sim.stack.tcp_sock_ids() {
        let st = sim.stack.conn_stats(sock).expect("tcp sock has stats");
        if st.karn_violations > 0 {
            out.push(Violation::new(
                "karn",
                format!(
                    "t={:?} sock {}: {} RTT samples accepted from retransmitted segments",
                    now, sock.0, st.karn_violations
                ),
            ));
        }
        if st.invariant_violations > 0 {
            out.push(Violation::new(
                "tcp_invariant",
                format!(
                    "t={:?} sock {}: {} sequence/cwnd self-audit failures",
                    now, sock.0, st.invariant_violations
                ),
            ));
        }
    }
    if let Some(g) = sim.stack.service_mut::<Gara>() {
        let mut worst = 0u64;
        for (_, t) in g.slot_tables() {
            worst = worst.max(t.max_overcommit());
        }
        for (_, t) in g.cpu_tables() {
            worst = worst.max(t.max_overcommit());
        }
        if worst > 0 {
            out.push(Violation::new(
                "slot_overcommit",
                format!("t={now:?}: slot-table peak exceeds capacity by {worst}"),
            ));
        }
    }
}

/// End-of-run consistency between the lifecycle tracer and the ledger,
/// and between the timeline sampler and the metrics registry.
fn check_final(sim: &mut Sim, jobs: &[mpichgq_mpi::JobHandle], out: &mut Vec<Violation>) {
    let audit = sim.net.audit();
    // A job with a crashed, never-respawned member must not leave any
    // survivor spinning: the failure propagates (Abort terminates the
    // program, Return surfaces the error) and every surviving rank's
    // program has returned by quiescence.
    for (i, job) in jobs.iter().enumerate() {
        if job.any_failed() && !job.surviving_finished() {
            out.push(Violation::new(
                "mpi_failure_progress",
                format!("job {i}: a rank is dead but surviving ranks have not finished"),
            ));
        }
    }
    if let Some(tracer) = sim.net.packet_tracer() {
        let mut flow_delivered = 0u64;
        for f in tracer.flows() {
            flow_delivered += f.delivered;
            if f.delay.count() != f.delivered {
                out.push(Violation::new(
                    "lifecycle_histogram",
                    format!(
                        "flow {}: delay histogram count {} != delivered {}",
                        f.name,
                        f.delay.count(),
                        f.delivered
                    ),
                ));
            }
        }
        if flow_delivered != audit.delivered {
            out.push(Violation::new(
                "lifecycle_delivered",
                format!(
                    "sum of per-flow deliveries {} != net delivered {}",
                    flow_delivered, audit.delivered
                ),
            ));
        }
    }
    check_timeline(sim, out);
}

/// The `timeline_consistency` invariant slice: take the run's final
/// sample, publish the registry, and require the last sample of every
/// cumulative series to equal the end-of-run counter of the same name.
/// The network's own series cannot disagree — the registry and the
/// sampler are fed by one walk (`Net::walk_metrics`) — so what this
/// guards is the rest of a tick: the registry sweep that carries the
/// live tcp/mpi/gara/agent counters (a stale or skipped sweep, a name a
/// sampler took over and stopped feeding) and any counter a handler
/// probe writes.
/// Timestamp monotonicity is enforced at push time (`Timeline` asserts
/// strictly increasing sample times).
fn check_timeline(sim: &mut Sim, out: &mut Vec<Violation>) {
    if !sim.net.timeline_enabled() {
        return;
    }
    let now = sim.net.now();
    sim.net.timeline_finalize(&mut sim.stack, now);
    sim.net.publish_metrics();
    let Some(tl) = sim.net.timeline() else {
        return;
    };
    let mut series = 0u64;
    for name in tl.names() {
        let Some(last) = tl.last_counter(name) else {
            continue; // gauges fluctuate; only cumulative series are pinned
        };
        series += 1;
        if let Some(reg) = sim.net.obs.metrics.counter_value(name) {
            if last != reg {
                out.push(Violation::new(
                    "timeline_consistency",
                    format!("series {name}: final sample {last} != end-of-run counter {reg}"),
                ));
            }
        }
    }
    if series == 0 {
        out.push(Violation::new(
            "timeline_consistency",
            "sampler armed but recorded no counter series".to_string(),
        ));
    }
}

/// Digest the run's observable end state. Deliberately avoids anything
/// iteration-order-dependent (hash maps) — every input comes from a vector
/// in creation order or a named counter — and anything that measures the
/// simulator rather than the simulated (the event count).
fn fingerprint(sim: &mut Sim) -> u64 {
    let audit = sim.net.audit();
    let mut h = Fnv::new();
    h.u64(audit.sent);
    h.u64(audit.delivered);
    h.u64(audit.policed);
    h.u64(audit.queue_full);
    h.u64(audit.misrouted);
    h.u64(audit.fault_drops);
    h.u64(audit.queued_pkts);
    h.u64(audit.shaper_pkts);
    h.u64(audit.wire_pkts);
    for c in &audit.chans {
        h.u64(c.enqueued);
        h.u64(c.dequeued);
        h.u64(c.tx_packets);
        h.u64(c.rx_packets);
    }
    for sock in sim.stack.tcp_sock_ids() {
        let st = sim.stack.conn_stats(sock).expect("tcp sock has stats");
        h.u64(st.segs_sent);
        h.u64(st.bytes_sent);
        h.u64(st.rtx_segs);
        h.u64(st.rtos);
        h.u64(st.fast_retransmits);
        h.u64(st.dup_acks_received);
        h.u64(st.karn_violations);
        h.u64(st.invariant_violations);
    }
    for name in ["gara.reservations_granted", "gara.reservations_rejected"] {
        h.u64(sim.net.obs.metrics.counter_value(name).unwrap_or(0));
    }
    h.finish()
}
