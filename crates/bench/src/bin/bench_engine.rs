//! Events-per-second benchmark for the two event-scheduler backends.
//!
//! Runs five workloads — a pure engine churn loop, the ping-pong transport
//! workload, the same ping-pong with the
//! flight recorder and timeline sampler armed (a non-gated
//! instrumentation-overhead probe), a many-flow bulk TCP simulation,
//! and the Figure 1 sawtooth — under both
//! [`SchedulerKind::Heap`] and [`SchedulerKind::Calendar`], and writes
//! `BENCH_engine.json` at the repository root (or to the path given as the
//! first CLI argument).
//!
//! For every simulation workload the processed-event counts must match
//! exactly between backends (the schedulers are observably equivalent);
//! the binary asserts this, so it doubles as a determinism smoke test.
//!
//! Events/sec here is a figure *about the engine*, not about the
//! simulator's speed: the engine no longer schedules events that would do
//! nothing, so a change that removes no-op events lowers both the count
//! and the time and can lower the ratio. What a run costs a user is
//! `wall_s` in `benchmark/` (see its README); the calendar-over-heap ratio
//! is reported for the record and gated nowhere.
//!
//! Run with: `cargo run --release -p mpichgq-bench --bin bench_engine`

use mpichgq_bench::bulk::transport_multiflow_bulk;
use mpichgq_bench::{
    fig1_tcp_sawtooth_counted, fig5_pingpong_point_counted, fig5_pingpong_point_sampled_counted,
    Fig1Cfg, Fig5Cfg,
};
use mpichgq_sim::{Engine, SchedulerKind, SimDelta, SimRng, SimTime};
use std::time::Instant;

/// Wall-clock repeats per (workload, backend); best run is reported so
/// one-off scheduling hiccups don't skew the ratio.
const REPEATS: usize = 3;

struct Measurement {
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

struct WorkloadResult {
    name: &'static str,
    description: &'static str,
    /// Whether `scripts/perf_gate.py` should compare this workload against
    /// the committed baseline. The instrumentation-overhead entry is
    /// informative only, so it reports `false`.
    perf_gated: bool,
    heap: Measurement,
    calendar: Measurement,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.calendar.events_per_sec / self.heap.events_per_sec
    }
}

/// Run `f` `repeats` times and keep the fastest wall-clock run; every
/// repeat must process the same number of events (determinism check).
fn measure(repeats: usize, f: impl Fn() -> u64) -> Measurement {
    let mut best_secs = f64::INFINITY;
    let mut events = 0u64;
    for rep in 0..repeats {
        let t0 = Instant::now();
        let n = f();
        let secs = t0.elapsed().as_secs_f64();
        if rep == 0 {
            events = n;
        } else {
            assert_eq!(n, events, "event count varied across repeats");
        }
        best_secs = best_secs.min(secs);
    }
    Measurement {
        events,
        wall_secs: best_secs,
        events_per_sec: events as f64 / best_secs,
    }
}

fn run_workload(
    repeats: usize,
    name: &'static str,
    description: &'static str,
    perf_gated: bool,
    f: impl Fn(SchedulerKind) -> u64,
) -> WorkloadResult {
    eprintln!("[bench_engine] {name}: heap ...");
    let heap = measure(repeats, || f(SchedulerKind::Heap));
    eprintln!(
        "[bench_engine] {name}: heap {:.0} ev/s; calendar ...",
        heap.events_per_sec
    );
    let calendar = measure(repeats, || f(SchedulerKind::Calendar));
    eprintln!(
        "[bench_engine] {name}: calendar {:.0} ev/s ({:.2}x)",
        calendar.events_per_sec,
        calendar.events_per_sec / heap.events_per_sec
    );
    assert_eq!(
        heap.events, calendar.events,
        "{name}: backends disagreed on processed-event count"
    );
    WorkloadResult {
        name,
        description,
        perf_gated,
        heap,
        calendar,
    }
}

/// Pure scheduler churn: hold a standing population of pending events and
/// repeatedly pop-then-reschedule with pseudorandom inter-event gaps.
/// Measures the engine alone, with no per-event simulation work diluting
/// the comparison.
fn engine_churn(kind: SchedulerKind, quick: bool) -> u64 {
    let population: usize = if quick { 50_000 } else { 100_000 };
    let ops: usize = if quick { 500_000 } else { 2_000_000 };
    let mut eng: Engine<u64> = Engine::with_scheduler(kind);
    let mut rng = SimRng::new(0xBEEF);
    for i in 0..population {
        // Gaps from 1 ns to ~1 ms, with frequent exact ties.
        let gap = rng.next_u64() % 1_000_000 + 1;
        eng.schedule(SimTime::from_nanos(gap), i as u64);
    }
    for _ in 0..ops {
        let (at, _payload) = eng.pop().expect("population never drains");
        let gap = rng.next_u64() % 1_000_000 + 1;
        eng.schedule(at + SimDelta::from_nanos(gap), 0);
    }
    eng.processed()
}

fn fig1_sawtooth(kind: SchedulerKind) -> u64 {
    let cfg = Fig1Cfg {
        duration: SimTime::from_secs(20),
        scheduler: kind,
        ..Fig1Cfg::default()
    };
    fig1_tcp_sawtooth_counted(cfg).1
}

/// The headline comparison: the paper's ping-pong transport workload (one
/// Figure 5 point) — MPI ping-pong over TCP across GARNET with contending
/// traffic on both trunk directions and a premium reservation.
fn transport_pingpong(kind: SchedulerKind, quick: bool) -> u64 {
    let mut cfg = Fig5Cfg::new(40 * 1000 / 8, 6000.0);
    cfg.scheduler = kind;
    if quick {
        cfg.duration = SimTime::from_secs(8);
        cfg.warmup = SimTime::from_secs(3);
    }
    fig5_pingpong_point_counted(cfg).1
}

/// [`transport_pingpong`] with the flight recorder and the timeline
/// sampler armed at the figure-run defaults. The events/sec delta against
/// the unsampled `transport_pingpong` entry is the cost of observability;
/// the entry is labeled `perf_gated: false` so it is never compared
/// against the committed baseline.
fn transport_pingpong_sampled(kind: SchedulerKind, quick: bool) -> u64 {
    let mut cfg = Fig5Cfg::new(40 * 1000 / 8, 6000.0);
    cfg.scheduler = kind;
    if quick {
        cfg.duration = SimTime::from_secs(8);
        cfg.warmup = SimTime::from_secs(3);
    }
    fig5_pingpong_point_sampled_counted(cfg).1
}

fn json_measurement(m: &Measurement) -> String {
    format!(
        "{{\"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}}}",
        m.events, m.wall_secs, m.events_per_sec
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--quick` is the CI perf-smoke mode: fewer repeats, smaller churn
    // loop, shorter ping-pong, and the two slowest workloads skipped. The
    // events/sec rates stay comparable to the full run (same per-event
    // work), which is what scripts/perf_gate.py compares.
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let repeats = if quick { 2 } else { REPEATS };

    let mut results = vec![
        run_workload(
            repeats,
            "engine_churn",
            "pure Engine pop+reschedule loop, 100k standing events, 2M ops",
            true,
            move |k| engine_churn(k, quick),
        ),
        run_workload(
            repeats,
            "transport_pingpong",
            "MPI ping-pong over TCP on GARNET (40 Kb msg, 6 Mb/s reservation) with bidirectional contention — the Figure 5 transport workload",
            true,
            move |k| transport_pingpong(k, quick),
        ),
        run_workload(
            repeats,
            "transport_pingpong_sampled",
            "transport_pingpong with the flight recorder and the 100 ms timeline sampler armed — instrumentation-overhead probe, informative only (not perf-gated)",
            false,
            move |k| transport_pingpong_sampled(k, quick),
        ),
    ];
    if !quick {
        results.push(run_workload(
            repeats,
            "transport_multiflow_bulk",
            "32 bulk TCP flows over a shared OC12 trunk (20 ms), 10 s simulated",
            true,
            |k| transport_multiflow_bulk(k, SimTime::from_secs(10)),
        ));
        results.push(run_workload(
            repeats,
            "fig1_sawtooth",
            "Figure 1 premium-vs-competitive sawtooth on GARNET, 20 s simulated",
            true,
            fig1_sawtooth,
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"bench_engine\",\n");
    json.push_str(
        "  \"note\": \"events/sec per scheduler backend; best of N runs; release build; \
         event counts asserted identical across backends\",\n",
    );
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, w) in results.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        json.push_str(&format!("      \"description\": \"{}\",\n", w.description));
        json.push_str(&format!("      \"perf_gated\": {},\n", w.perf_gated));
        json.push_str(&format!("      \"heap\": {},\n", json_measurement(&w.heap)));
        json.push_str(&format!(
            "      \"calendar\": {},\n",
            json_measurement(&w.calendar)
        ));
        json.push_str(&format!(
            "      \"speedup_calendar_over_heap\": {:.3}\n",
            w.speedup()
        ));
        json.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!("{json}");
}
