//! The seven workloads and what they share: seed derivation, the sliced
//! run loop, and the per-layer count collection.
//!
//! Every workload is fixed work: a stated amount of physics-invariant
//! simulation whose *host* cost is what the benchmark reports. The seed
//! changes inputs (RNG streams, start jitter, op streams) but is chosen
//! never to change the amount of work by more than noise, because runs at
//! different seeds are compared against one bound.

pub mod bulk;
pub mod gara;
pub mod islands;
pub mod pingpong;
pub mod qsweep;
pub mod stencil;

use crate::alloc;
use crate::fingerprint::merge_audits;
use crate::host::{median, undisturbed};
use crate::spans::Tracer;
use mpichgq_netsim::NetAudit;
use mpichgq_sim::{fnv1a, SimDelta, SimRng, SimTime};
use mpichgq_tcp::Sim;
use std::collections::BTreeMap;
use std::time::Instant;

/// The pinned seed: `expected.json` holds its physics.
pub const DEFAULT_SEED: u64 = 1;

/// Slices a measured region is timed in.
pub const SLICES: u64 = 20;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// 1.0 for a measured run; `--smoke` runs at 1/20 of the work.
    pub scale: f64,
}

impl Params {
    /// A seed for one named purpose, independent of every other label.
    pub fn derive(&self, label: &str) -> u64 {
        let mut bytes = self.seed.to_le_bytes().to_vec();
        bytes.extend_from_slice(label.as_bytes());
        fnv1a(&bytes)
    }

    pub fn rng(&self, label: &str) -> SimRng {
        SimRng::new(self.derive(label))
    }

    /// `full` units of work at scale 1, proportionally fewer in smoke mode.
    pub fn scaled(&self, full: u64) -> u64 {
        ((full as f64 * self.scale).round() as u64).max(1)
    }

    pub fn scaled_time(&self, full: SimDelta) -> SimTime {
        SimTime::from_nanos(self.scaled(full.as_nanos()))
    }

    /// Whether `expected.json` applies (it pins the default seed at scale 1).
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1.0
    }
}

/// Start jitter for one flow or rank: at most 1 µs. TCP dynamics here are
/// chaotic in the start phase — offsets of up to 100 µs moved `bulk_tcp32`'s
/// `wall_s` by ±10 % between seeds, and 100 ms tips it into another regime
/// with a third of the events — so the jitter is kept small enough that
/// every seed delivers the same number of packets.
pub fn start_jitter(rng: &mut SimRng) -> SimDelta {
    SimDelta::from_nanos(rng.below(1_001))
}

/// Named numbers a repetition produced: exact counts, and the per-layer
/// metrics only that workload can compute. Names outside the catalog are
/// intermediate sums the harness derives ratios from.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(c: &mut Counts, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

pub fn get(c: &Counts, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0.0)
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

pub fn check(name: impl Into<String>, ok: bool) -> Check {
    Check {
        name: name.into(),
        ok,
    }
}

/// What one repetition reports.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the measured region, slice by slice. A slice is a
    /// fixed part of the work: slice `k` of every repetition of a run is
    /// the same computation.
    pub slices: Vec<f64>,
    /// Worst worker-thread run-queue wait, for repetitions whose work runs
    /// off the main thread (the harness measures the main thread itself).
    pub worker_wait_s: f64,
    /// FNV-1a over clock, ledgers and application result; never over an
    /// event count (see `fingerprint`).
    pub physics_fp: u64,
    /// Work units done (the denominator of per-op layer metrics).
    pub work: u64,
    pub counts: Counts,
    /// Exact results pinned in `expected.json` at the default seed.
    pub facts: Vec<(&'static str, u64)>,
    pub checks: Vec<Check>,
}

impl Rep {
    /// Host seconds of the whole measured region.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().sum()
    }
}

/// Host seconds of one repetition's measured region, estimated from
/// several repetitions under the noise protocol (`host::undisturbed`).
/// Slice `k` is the same computation in every repetition, so each slice
/// gets the protocol on its own — one disturbed slice costs one sample of
/// that slice, not the repetition around it — and the medians are summed.
pub fn robust_wall(reps: &[Rep]) -> f64 {
    (0..reps[0].slices.len())
        .map(|k| {
            let samples: Vec<f64> = reps.iter().map(|r| r.slices[k]).collect();
            median(&undisturbed(&samples))
        })
        .sum()
}

/// Slice timer for measured regions that are loops: `lap` closes a slice.
pub struct Laps {
    mark: Instant,
    pub walls: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            mark: Instant::now(),
            walls: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        self.walls.push((now - self.mark).as_secs_f64());
        self.mark = now;
    }

    /// Close a slice after every `n / SLICES` of `n` loop iterations (and
    /// after the last): call with the 0-based iteration just finished.
    pub fn lap_every(&mut self, i: u64, n: u64) {
        if (i + 1).is_multiple_of(n.div_ceil(SLICES)) || i + 1 == n {
            self.lap();
        }
    }
}

/// Checks and metrics that need runs beyond the repetitions: a comparison
/// scenario (plain vs observed, 1 vs 2 threads). Run once, untimed.
#[derive(Debug, Default)]
pub struct Extras {
    pub checks: Vec<Check>,
    pub counts: Counts,
}

pub trait Workload {
    /// The constructed initial state `setup_s` times the building of.
    type World;

    fn name(&self) -> &'static str;
    /// What `alloc.per_op` and friends are per.
    fn work_unit(&self) -> &'static str;
    /// Threads the measured region keeps busy.
    fn threads(&self) -> usize {
        1
    }
    /// Constructions `setup_s` is the cost of. One takes 4–2000 µs, far too
    /// little to time alone, so the count is sized for `setup_s` to land
    /// near 1 s on the reference box.
    fn setup_builds(&self) -> u32;
    fn build(&self, p: &Params) -> Self::World;
    /// Run the measured region on a fresh world, then audit it.
    fn run(&self, world: Self::World, p: &Params, t: &mut Tracer) -> Rep;
    /// `_base_wall_s` is this run's `wall_s`; `_rep` one of its repetitions.
    fn extras(&self, _p: &Params, _t: &mut Tracer, _rep: &Rep, _base_wall_s: f64) -> Extras {
        Extras::default()
    }
}

/// Advance `sim` to `t_end` in [`SLICES`] equal simulated-time slices and
/// return the host seconds each took. Slice boundaries are pure clock
/// stops: the event sequence is the one a single `run_until` simulates.
///
/// Slices are the grain of the noise protocol: slice `k` is the same
/// computation in every repetition, so the harness can set aside a
/// disturbed slice without losing the repetition around it. In the traced
/// pass each is also a `run.slice` span carrying the events / packets /
/// allocations it covered, and the engine's pending population is sampled
/// at each boundary.
pub fn drive(sim: &mut Sim, t_end: SimTime, t: &mut Tracer, counts: &mut Counts) -> Vec<f64> {
    let run = t.begin("run");
    let t0 = sim.now().as_nanos();
    let span_ns = t_end.as_nanos() - t0;
    let progress = |sim: &Sim| {
        let delivered = sim.net.obs.metrics.counter_value("net.pkts.delivered");
        (
            sim.net.events_processed(),
            delivered.unwrap_or(0),
            alloc::snapshot().count,
        )
    };
    let mut walls = Vec::with_capacity(SLICES as usize);
    for s in 1..=SLICES {
        let at = SimTime::from_nanos(t0 + (span_ns as u128 * s as u128 / SLICES as u128) as u64);
        let id = t.begin("run.slice");
        let before = t.is_on().then(|| progress(sim));
        let started = Instant::now();
        sim.run_until(at);
        walls.push(started.elapsed().as_secs_f64());
        if let Some((e0, p0, a0)) = before {
            let (e1, p1, a1) = progress(sim);
            t.arg(id, "events", (e1 - e0) as f64);
            t.arg(id, "packets", (p1 - p0) as f64);
            t.arg(id, "allocs", (a1 - a0) as f64);
            add(
                counts,
                "engine.pending_sum",
                sim.net.pending_events() as f64,
            );
            add(counts, "engine.pending_samples", 1.0);
        }
        t.end(id);
    }
    t.end(run);
    walls
}

/// Read one world's per-layer counts after its run: the registry by name
/// (a name the registry stops publishing reads as absent, i.e. 0 — not a
/// compile break), the conservation ledger, queue and connection stats.
/// Returns the ledger for the physics fingerprint.
pub fn collect(sim: &mut Sim, c: &mut Counts) -> NetAudit {
    sim.net.publish_metrics();
    let m = &sim.net.obs.metrics;
    for (ours, theirs) in [
        ("engine.events", "engine.events_processed"),
        ("engine.cal_scan_steps", "engine.calendar.scan_steps"),
        ("engine.cal_slow_pushes", "engine.calendar.slow_pushes"),
        ("tcp.rtos", "tcp.rtos"),
        ("tcp.fast_rtx", "tcp.fast_retransmits"),
        ("mpi.eager_sends", "mpi.eager_sends"),
        ("mpi.rndv_sends", "mpi.rndv_sends"),
        ("gara.granted", "gara.reservations_granted"),
        ("gara.rejected", "gara.reservations_rejected"),
    ] {
        add(c, ours, m.counter_value(theirs).unwrap_or(0) as f64);
    }
    for chan in sim.net.chan_ids().collect::<Vec<_>>() {
        let q = sim.net.queue_stats(chan);
        add(c, "queue.enq", (q.enq_be + q.enq_ef + q.enq_af) as f64);
        add(
            c,
            "queue.tail_drops",
            (q.drop_be + q.drop_ef + q.drop_af) as f64,
        );
        add(c, "queue.early_drops", q.early_total() as f64);
    }
    for n in 0..sim.net.node_count() {
        let node = sim.net.node(mpichgq_netsim::NodeId(n as u32));
        for r in node.classifier.rules() {
            add(
                c,
                "classifier.pkts",
                (r.stats.conformant_pkts + r.stats.policed_pkts) as f64,
            );
            add(c, "classifier.policed", r.stats.policed_pkts as f64);
        }
        for s in &node.shapers {
            add(c, "shaper.pkts", (s.stats.passed + s.stats.delayed) as f64);
        }
    }
    for sock in sim.stack.tcp_sock_ids() {
        if let Some(st) = sim.stack.conn_stats(sock) {
            add(c, "tcp.segs", st.segs_sent as f64);
            add(c, "tcp.rtx_segs", st.rtx_segs as f64);
            add(
                c,
                "tcp.violations",
                (st.karn_violations + st.invariant_violations) as f64,
            );
        }
    }
    let audit = sim.net.audit();
    ledger_counts(&audit, c);
    audit
}

/// The `net.*` counts of one ledger (or of several shards' merged one).
pub fn ledger_counts(audit: &NetAudit, c: &mut Counts) {
    add(c, "net.pkts_sent", audit.sent as f64);
    add(c, "net.pkts_delivered", audit.delivered as f64);
    add(
        c,
        "net.pkt_hops",
        audit.chans.iter().map(|ch| ch.tx_packets).sum::<u64>() as f64,
    );
    add(
        c,
        "net.drops",
        (audit.policed + audit.queue_full + audit.misrouted + audit.fault_drops) as f64,
    );
}

/// Fold per-shard counts and ledgers (shard order) into one of each.
pub fn fold_shards(parts: Vec<(Counts, NetAudit)>) -> (Counts, NetAudit) {
    let mut counts = Counts::new();
    let mut audits = Vec::with_capacity(parts.len());
    for (c, a) in parts {
        for (k, v) in c {
            // Per-shard ledgers double-count cross-shard wires; the net.*
            // counts are recomputed from the merged ledger below.
            if !k.starts_with("net.") {
                add(&mut counts, k, v);
            }
        }
        audits.push(a);
    }
    let merged = merge_audits(&audits);
    ledger_counts(&merged, &mut counts);
    (counts, merged)
}
