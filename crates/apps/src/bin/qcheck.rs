//! Deterministic scenario fuzzer + invariant auditor driver.
//!
//! ```text
//! qcheck                             fuzz seeds 0..200
//! qcheck --seeds 0..500              fuzz a seed range
//! qcheck --seed 17                   run one seed, verbose
//! qcheck --inject-bug karn           arm a deliberate bug (must fail)
//! qcheck --replay results/qcheck/repro-17.json
//! qcheck --out DIR                   artifact directory (default results/qcheck)
//! qcheck --threads 4                 determinism self-test: every seed's
//!                                    partitioned scenario must fingerprint
//!                                    identically at 1 and N threads, and
//!                                    match its one-shard run's physics
//! ```
//!
//! On a violation: shrink to a minimal knob vector, write
//! `repro-<seed>.json`, verify the artifact replays bit-identically, exit
//! nonzero. A summary (`summary.json`) is written either way;
//! `scripts/check_metrics.py` validates its schema in CI.

use mpichgq_qcheck::{
    parse_repro, replay, repro_json, run_par_scenario, run_par_scenario_monolithic, run_spec,
    shrink, summary_json, Inject, RunOutcome, ScenarioSpec,
};
use std::process::ExitCode;

struct Args {
    seeds: std::ops::Range<u64>,
    inject: Inject,
    out_dir: String,
    replay_path: Option<String>,
    shrink_budget: usize,
    threads: usize,
    verbose: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qcheck [--seeds A..B | --seed N] [--inject-bug karn] \
         [--out DIR] [--shrink-budget N] [--threads N] [--replay FILE] [-v]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        seeds: 0..200,
        inject: Inject::default(),
        out_dir: "results/qcheck".to_string(),
        replay_path: None,
        shrink_budget: 60,
        threads: 1,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let Some(spec) = it.next() else {
                    return Err(usage());
                };
                let Some((a, b)) = spec.split_once("..") else {
                    return Err(usage());
                };
                match (a.parse(), b.parse()) {
                    (Ok(lo), Ok(hi)) if lo < hi => args.seeds = lo..hi,
                    _ => return Err(usage()),
                }
            }
            "--seed" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return Err(usage());
                };
                args.seeds = n..n + 1;
                args.verbose = true;
            }
            "--inject-bug" => match it.next().as_deref() {
                Some("karn") => args.inject.karn = true,
                _ => {
                    eprintln!("qcheck: known bugs: karn");
                    return Err(ExitCode::from(2));
                }
            },
            "--out" => {
                let Some(d) = it.next() else {
                    return Err(usage());
                };
                args.out_dir = d;
            }
            "--shrink-budget" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return Err(usage());
                };
                args.shrink_budget = n;
            }
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return Err(usage());
                };
                if n == 0 {
                    eprintln!("qcheck: --threads must be >= 1");
                    return Err(ExitCode::from(2));
                }
                args.threads = n;
            }
            "--replay" => {
                let Some(p) = it.next() else {
                    return Err(usage());
                };
                args.replay_path = Some(p);
            }
            "-v" | "--verbose" => args.verbose = true,
            "-h" | "--help" => {
                usage();
                return Err(ExitCode::SUCCESS);
            }
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn do_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("qcheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match parse_repro(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rep = replay(&repro);
    println!(
        "replay seed {} [{}]: invariant {} fingerprint {:#018x} (expected {:#018x})",
        repro.spec.seed,
        if rep.ok() { "OK" } else { "MISMATCH" },
        if rep.same_invariant {
            "re-failed"
        } else {
            "LOST"
        },
        rep.outcome.fingerprint,
        repro.fingerprint,
    );
    if rep.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    if let Some(path) = &args.replay_path {
        return do_replay(path);
    }

    let n = args.seeds.end - args.seeds.start;
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(n as usize);
    let mut failures = 0usize;
    if std::fs::create_dir_all(&args.out_dir).is_err() {
        eprintln!("qcheck: cannot create {}", args.out_dir);
        return ExitCode::FAILURE;
    }
    let mut determinism_breaks = 0usize;
    for seed in args.seeds.clone() {
        let spec = ScenarioSpec::from_seed(seed);
        let out = run_spec(&spec, &args.inject);
        // Determinism self-test: the seed's partitioned scenario must land
        // on the same FNV fingerprint at 1 and N threads, and on the same
        // physics as the seed run as one shard. Any divergence is a
        // parallel-engine bug, not a scenario bug.
        if args.threads > 1 {
            let one = run_par_scenario(seed, 1);
            let multi = run_par_scenario(seed, args.threads);
            let whole = run_par_scenario_monolithic(seed);
            if (one.fingerprint, one.events) != (multi.fingerprint, multi.events) {
                determinism_breaks += 1;
                eprintln!(
                    "seed {seed}: PARTITIONED DETERMINISM BREAK — {} shards, \
                     1 thread {:#018x} vs {} threads {:#018x}",
                    one.shards, one.fingerprint, args.threads, multi.fingerprint
                );
            } else if one.physics != whole.physics {
                determinism_breaks += 1;
                eprintln!(
                    "seed {seed}: PARTITIONED DETERMINISM BREAK — {} shards \
                     {:#018x} vs one shard {:#018x}",
                    one.shards, one.physics, whole.physics
                );
            }
        }
        if args.verbose {
            println!(
                "seed {seed}: events {} sent {} delivered {} {}",
                out.events,
                out.sent,
                out.delivered,
                if out.ok() { "clean" } else { "VIOLATION" }
            );
        }
        if !out.ok() {
            failures += 1;
            let v = &out.violations[0];
            eprintln!("seed {seed}: {} — {}", v.invariant, v.detail);
            let shrunk = shrink(&spec, &args.inject, &v.invariant, args.shrink_budget);
            let artifact = repro_json(&shrunk.outcome);
            let path = format!("{}/repro-{seed}.json", args.out_dir);
            if let Err(e) = std::fs::write(&path, &artifact) {
                eprintln!("qcheck: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            // Prove the artifact is replayable before asking a human to.
            let repro = parse_repro(&artifact).expect("own artifact parses");
            let rep = replay(&repro);
            eprintln!(
                "seed {seed}: shrunk to {:?} in {} runs; artifact {path} replay {}",
                shrunk.spec.knobs,
                shrunk.runs_spent,
                if rep.ok() { "verified" } else { "UNSTABLE" }
            );
        }
        outcomes.push(out);
    }
    let summary = summary_json(&outcomes);
    let spath = format!("{}/summary.json", args.out_dir);
    if let Err(e) = std::fs::write(&spath, &summary) {
        eprintln!("qcheck: cannot write {spath}: {e}");
        return ExitCode::FAILURE;
    }
    let total_events: u64 = outcomes.iter().map(|o| o.events).sum();
    if args.threads > 1 {
        println!(
            "qcheck: determinism self-test at {} threads: {} seeds, {} breaks",
            args.threads, n, determinism_breaks
        );
    }
    println!(
        "qcheck: {} seeds, {} failures, {} events -> {}",
        n, failures, total_events, spath
    );
    if failures == 0 && determinism_breaks == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
