//! One run of one workload: set-up timing, warm-up, timed repetitions
//! under the noise protocol, the checks behind `pass_ratio`, and — in the
//! traced pass — spans, allocation counts, probes and the per-layer
//! metrics.
//!
//! Work per repetition is fixed; `--seconds` sets how many repetitions the
//! median is taken over, never how much one repetition does.

use crate::alloc;
use crate::catalog::{Kind, END_TO_END, PER_LAYER};
use crate::expected::Expected;
use crate::host::{self, median, undisturbed, Stats};
use crate::probes;
use crate::spans::Tracer;
use crate::workloads::{check, get, robust_wall, Check, Counts, Params, Rep, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `setup_s` times `setup_builds` constructions in this many equal batches
/// (the grain of the noise protocol: every batch is the same work).
const SETUP_BATCHES: u64 = 25;
/// Fewest timed repetitions behind a `wall_s`, however slow the host.
const MIN_REPS: usize = 3;
/// Share of `--seconds` the traced pass spends on untraced repetitions
/// (the base of `trace.overhead_ratio`); the rest goes to the traced
/// repetition, the comparison runs and the probes.
const TRACED_BASE_SHARE: f64 = 0.4;

pub struct RunArgs {
    pub params: Params,
    pub seconds: f64,
    pub traced: bool,
    /// Where `<workload>.trace.json` goes in the traced pass.
    pub out_dir: std::path::PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run learned. `metrics` is what the contract line
/// carries; the rest is the detail `run`, `compare` and `--bless` read.
pub struct Report {
    pub workload: &'static str,
    /// What per-op layer metrics are per.
    pub work_unit: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// The undisturbed samples behind the timed end-to-end metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Timed repetitions made, disturbed ones included.
    pub reps: usize,
    pub checks: Vec<Check>,
    pub physics_fp: u64,
    pub facts: Vec<(&'static str, u64)>,
    /// Exact per-layer counts (bit-identical between runs of one commit).
    pub exact: Vec<(&'static str, f64)>,
    /// `(layer metric, estimated share of CPU time)`, remainder last.
    pub shares: Vec<(String, f64)>,
    /// Sums and sample counts behind the derived metrics (their bases).
    pub intermediate: Vec<(&'static str, f64)>,
    pub span_summary: Vec<(String, f64, f64, u64)>,
}

impl Report {
    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }
}

struct Timed {
    reps: Vec<Rep>,
    /// Σ over slices of the median of the slice's undisturbed samples.
    wall_s: f64,
    /// Wall times of the repetitions undisturbed as a whole (what
    /// `compare` takes the spread of).
    kept: Vec<f64>,
    /// Σ run-queue wait ÷ Σ wall over all repetitions.
    preempt_ratio: f64,
}

/// Timed repetitions until `budget` is spent (at least `min_reps`).
fn timed_reps<W: Workload>(w: &W, p: &Params, budget: Duration, min_reps: usize) -> Timed {
    let mut off = Tracer::new(false);
    let deadline = Instant::now() + budget;
    let mut reps = Vec::new();
    let (mut wait_sum, mut wall_sum) = (0.0, 0.0);
    while reps.len() < min_reps || Instant::now() < deadline {
        let world = w.build(p);
        let (_, wait0) = host::thread_schedstat();
        let rep: Rep = w.run(world, p, &mut off);
        let (_, wait1) = host::thread_schedstat();
        wait_sum += ((wait1 - wait0) as f64 / 1e9).max(rep.worker_wait_s);
        wall_sum += rep.wall_s();
        reps.push(rep);
    }
    let kept = undisturbed(&reps.iter().map(Rep::wall_s).collect::<Vec<_>>());
    let wall_s = robust_wall(&reps);
    Timed {
        wall_s,
        kept,
        reps,
        preempt_ratio: wait_sum / wall_sum,
    }
}

/// Host seconds for `setup_builds` back-to-back constructions, batch by
/// batch: each undisturbed batch scaled to the full count, and their
/// median.
fn measure_setup<W: Workload>(w: &W, p: &Params) -> (f64, Vec<f64>) {
    // Smoke mode builds fewer; the cost of the full count is reported.
    let per_batch = (p.scaled(w.setup_builds() as u64) / SETUP_BATCHES).max(1);
    let to_full = w.setup_builds() as f64 / per_batch as f64;
    let batches: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                black_box(w.build(p));
            }
            t0.elapsed().as_secs_f64() * to_full
        })
        .collect();
    let kept = undisturbed(&batches);
    (median(&kept), kept)
}

/// A check passes if it passed in every repetition that made it.
fn fold_checks(reps: &[Rep]) -> Vec<Check> {
    let mut out: Vec<Check> = Vec::new();
    for c in reps.iter().flat_map(|r| &r.checks) {
        match out.iter_mut().find(|o| o.name == c.name) {
            Some(o) => o.ok &= c.ok,
            None => out.push(c.clone()),
        }
    }
    out
}

/// Checks every workload shares: physics repeats across repetitions and,
/// at the pinned seed, equals what `expected.json` holds.
fn identity_checks(
    name: &str,
    p: &Params,
    reps: &[Rep],
    expected: Option<&Expected>,
    out: &mut Vec<Check>,
) {
    let first = &reps[0];
    out.push(check(
        "physics_fp equal across repetitions",
        reps.iter()
            .all(|r| r.physics_fp == first.physics_fp && r.facts == first.facts),
    ));
    let Some(expected) = expected.filter(|_| p.pinned()) else {
        return;
    };
    // A workload `expected.json` does not know fails every pinned check.
    let pin = expected.get(name);
    out.push(check(
        "physics_fp equals expected.json",
        pin.is_some_and(|e| e.physics_fp == first.physics_fp),
    ));
    for &(fact, v) in &first.facts {
        out.push(check(
            format!("{fact} equals expected.json"),
            pin.and_then(|e| e.fact(fact)) == Some(v),
        ));
    }
}

pub fn run<W: Workload>(w: &W, args: &RunArgs, expected: Option<&Expected>) -> Report {
    if args.traced {
        run_traced(w, args, expected)
    } else {
        run_untraced(w, args, expected)
    }
}

fn run_untraced<W: Workload>(w: &W, args: &RunArgs, expected: Option<&Expected>) -> Report {
    let p = &args.params;
    let mut off = Tracer::new(false);
    let (setup_s, setup_batches) = measure_setup(w, p);
    w.run(w.build(p), p, &mut off); // warm-up
    let timed = timed_reps(w, p, Duration::from_secs_f64(args.seconds), MIN_REPS);
    let extras = w.extras(p, &mut off, &timed.reps[0], timed.wall_s);

    let mut checks = fold_checks(&timed.reps);
    identity_checks(w.name(), p, &timed.reps, expected, &mut checks);
    checks.extend(extras.checks);
    let passed = checks.iter().filter(|c| c.ok).count();

    let values = [
        timed.wall_s,
        setup_s,
        host::peak_rss_mb(),
        passed as f64 / checks.len() as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, value)| Metric {
            name: e.name,
            value,
            unit: e.unit,
        })
        .collect();
    let first = &timed.reps[0];
    Report {
        workload: w.name(),
        work_unit: w.work_unit(),
        seed: p.seed,
        traced: false,
        metrics,
        samples: BTreeMap::from([("wall_s", timed.kept), ("setup_s", setup_batches)]),
        reps: timed.reps.len(),
        checks,
        physics_fp: first.physics_fp,
        facts: first.facts.clone(),
        exact: Vec::new(),
        shares: Vec::new(),
        intermediate: Vec::new(),
        span_summary: Vec::new(),
    }
}

fn run_traced<W: Workload>(w: &W, args: &RunArgs, expected: Option<&Expected>) -> Report {
    let p = &args.params;
    let mut t = Tracer::new(true);
    let setup_s = t.span("setup", |_| measure_setup(w, p).0);
    let mut off = Tracer::new(false);
    t.span("warmup", |_| w.run(w.build(p), p, &mut off));

    // Untraced repetitions: the base every traced number is put against.
    let cpu0 = host::process_cpu_s();
    let budget = Duration::from_secs_f64(args.seconds * TRACED_BASE_SHARE);
    let Timed {
        reps: mut all,
        wall_s: base_wall,
        kept,
        preempt_ratio,
    } = t.span("reps", |_| timed_reps(w, p, budget, 2));
    let cpu_s = host::process_cpu_s() - cpu0;
    let base_reps = all.len();

    // The traced repetition: allocator counting, sliced run loop.
    alloc::start();
    let world = t.span("build", |_| w.build(p));
    let a0 = alloc::snapshot();
    let rep = w.run(world, p, &mut t);
    let allocs = alloc::snapshot().since(a0);
    alloc::stop();

    let extras = w.extras(p, &mut t, &rep, base_wall);
    let mut c: Counts = rep.counts.clone();
    c.extend(extras.counts);
    probes::run_all(&mut t, p.scale, &mut c);

    all.push(rep);
    let rep = &all[base_reps];
    let mut checks = fold_checks(&all);
    // Slicing the run loop and counting allocations must not move physics.
    identity_checks(w.name(), p, &all, expected, &mut checks);
    checks.extend(extras.checks);

    // Derived per-layer numbers. Timings use the untraced median.
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let events = get(&c, "engine.events");
    let sends = get(&c, "mpi.eager_sends") + get(&c, "mpi.rndv_sends");
    let derived = [
        (
            "engine.events_per_pkt",
            ratio(events, get(&c, "net.pkts_delivered")),
        ),
        ("engine.events_per_s", ratio(events, base_wall)),
        (
            "engine.pending_mean",
            ratio(
                get(&c, "engine.pending_sum"),
                get(&c, "engine.pending_samples"),
            ),
        ),
        (
            "engine.cal_scan_per_event",
            ratio(get(&c, "engine.cal_scan_steps"), events),
        ),
        (
            "engine.cal_slow_push_ratio",
            ratio(get(&c, "engine.cal_slow_pushes"), events),
        ),
        (
            "net.drop_ratio",
            ratio(get(&c, "net.drops"), get(&c, "net.pkts_sent")),
        ),
        (
            "net.ns_per_pkt_hop",
            ratio(base_wall * 1e9, get(&c, "net.pkt_hops")),
        ),
        ("net.build_us", setup_s / w.setup_builds() as f64 * 1e6),
        (
            "classifier.policed_ratio",
            ratio(get(&c, "classifier.policed"), get(&c, "classifier.pkts")),
        ),
        (
            "tcp.rtx_ratio",
            ratio(get(&c, "tcp.rtx_segs"), get(&c, "tcp.segs")),
        ),
        ("mpi.ns_per_msg", ratio(base_wall * 1e9, sends)),
        (
            "gara.admissions",
            get(&c, "gara.granted") + get(&c, "gara.rejected"),
        ),
        (
            "gara.reject_ratio",
            ratio(
                get(&c, "gara.rejected"),
                get(&c, "gara.granted") + get(&c, "gara.rejected"),
            ),
        ),
        ("alloc.count", allocs.count as f64),
        ("alloc.per_op", ratio(allocs.count as f64, rep.work as f64)),
        (
            "alloc.bytes_per_op",
            ratio(allocs.bytes as f64, rep.work as f64),
        ),
        (
            "alloc.peak_live_mb",
            allocs.peak_live_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("host.cores", host::cores() as f64),
        ("host.cpu_s", cpu_s),
        ("host.preempt_ratio", preempt_ratio),
        ("host.reps_discarded", (base_reps - kept.len()) as f64),
        ("trace.overhead_ratio", ratio(rep.wall_s(), base_wall)),
    ];
    for (k, v) in derived {
        // A workload that computed the number itself keeps its own.
        c.entry(k).or_insert(v);
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|l| Metric {
            name: l.name,
            value: get(&c, l.name),
            unit: l.unit,
        })
        .collect();
    let exact = PER_LAYER
        .iter()
        .filter(|l| l.kind == Kind::Count)
        .map(|l| (l.name, get(&c, l.name)))
        .collect();
    let shares = probes::estimated_shares(&c, base_wall * w.threads() as f64);

    std::fs::create_dir_all(&args.out_dir).expect("create the trace directory");
    let path = args.out_dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, t.chrome_json(w.name())).expect("write the trace");

    let intermediate = c
        .iter()
        .filter(|(k, _)| PER_LAYER.iter().all(|l| l.name != **k))
        .map(|(k, v)| (*k, *v))
        .collect();

    Report {
        workload: w.name(),
        work_unit: w.work_unit(),
        seed: p.seed,
        traced: true,
        metrics,
        reps: base_reps,
        samples: BTreeMap::from([("wall_s", kept)]),
        checks,
        physics_fp: rep.physics_fp,
        facts: rep.facts.clone(),
        exact,
        shares,
        intermediate,
        span_summary: t.summary(),
    }
}

/// The human-readable part of a run's output (everything but the last
/// line): each metric by name with its unit, sample statistics, checks.
pub fn print_report(r: &Report) {
    println!(
        "# {} seed={} pass={} reps={} physics_fp={:#018x} work_unit={:?}",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.reps,
        r.physics_fp,
        r.work_unit
    );
    for m in &r.metrics {
        print!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        if let Some(s) = r.samples.get(m.name).filter(|_| !r.traced) {
            let st = Stats::of(s);
            print!(
                "   n={} undisturbed: min={:.4} q1={:.4} med={:.4} q3={:.4} max={:.4} spread={:.2}%",
                st.n,
                st.min,
                st.q1,
                st.median,
                st.q3,
                st.max,
                st.spread() * 100.0
            );
        }
        println!();
    }
    for (k, v) in &r.facts {
        println!("fact  {k} = {v}");
    }
    if !r.intermediate.is_empty() {
        println!("bases of the derived metrics (sums, sample counts):");
        for (k, v) in &r.intermediate {
            println!("  {k:<38} {v:>16.6}");
        }
    }
    if !r.shares.is_empty() {
        println!(
            "estimated share of CPU time (count x probe ns / CPU s per repetition; upper bounds):"
        );
        for (k, v) in &r.shares {
            println!("  {k:<44} {:>6.1} %", v * 100.0);
        }
    }
    if !r.span_summary.is_empty() {
        println!("spans (total s, self s, calls):");
        for (name, total, own, calls) in &r.span_summary {
            println!("  {name:<44} {total:>9.4} {own:>9.4} {calls:>6}");
        }
    }
    let failed: Vec<&Check> = r.checks.iter().filter(|c| !c.ok).collect();
    println!(
        "checks: {} attempted, {} failed (fail_ratio {}/{})",
        r.checks.len(),
        failed.len(),
        failed.len(),
        r.checks.len()
    );
    for c in failed {
        println!("  FAILED {}", c.name);
    }
}
