//! The repo's one performance ledger. See `README.md` beside this
//! package's manifest for usage, the metric / workload / span glossary and
//! the list of product symbols the benchmark calls.
//!
//! Two ways in:
//!
//! * the contract form the benchmark driver uses, one workload per process —
//!   `benchmark --workload W --seed N --seconds S --trace 0|1` — whose last
//!   stdout line is the result object;
//! * the ledger commands for people — `run`, `compare`, `selfcheck`,
//!   `bless`, `catalog` — which drive the contract form in child processes.

mod alloc;
mod catalog;
mod expected;
mod fingerprint;
mod harness;
mod host;
mod ledger;
mod probes;
mod spans;
mod workloads;

use expected::Expected;
use harness::{Report, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Params, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Work scale of `--smoke`: 1/20 of a measured run.
const SMOKE_SCALE: f64 = 0.05;

const USAGE: &str = "\
usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
      one workload, one pass; the last stdout line is the result object
  benchmark run [--traced] [--seed N] [--workload W] [--seconds S] [--smoke] [--out FILE]
      every workload (or W), one child process each; writes out/results.json
  benchmark compare A.json B.json
      two result sets: medians, gap, bound, ok / regressed / unresolved
  benchmark selfcheck [--seconds S] [--smoke]
      run two full sets back to back and compare them
  benchmark bless
      rewrite expected.json from the default seed's physics
  benchmark catalog
      print BENCHMARK.json";

/// Flags of every form, parsed once.
#[derive(Debug, Default)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("{a} needs a value ({what})"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = Some(
                    value("a whole number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: want 0 < seconds <= 600"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                })
            }
            "--traced" => f.traced = true,
            // The issue spells these two as flags; they are commands.
            "--selfcheck" | "--bless" => f.positional.push(a[2..].to_string()),
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Run one workload by name; `None` for a name the benchmark does not have.
fn run_named(name: &str, args: &RunArgs, expected: Option<&Expected>) -> Option<Report> {
    use workloads::{bulk, gara, islands, pingpong, qsweep, stencil};
    Some(match name {
        "pingpong_qos" => harness::run(&pingpong::PingPongQos { observed: false }, args, expected),
        "pingpong_qos_observed" => {
            harness::run(&pingpong::PingPongQos { observed: true }, args, expected)
        }
        "bulk_tcp32" => harness::run(&bulk::BulkTcp32, args, expected),
        "mpi_stencil16" => harness::run(&stencil::MpiStencil16, args, expected),
        "gara_broker" => harness::run(&gara::GaraBroker, args, expected),
        "qcheck_sweep" => harness::run(&qsweep::QcheckSweep, args, expected),
        "sharded_islands" => harness::run(&islands::ShardedIslands, args, expected),
        _ => return None,
    })
}

/// The contract form: one workload, one pass, in this process.
fn contract(f: &Flags) -> Result<ExitCode, String> {
    let name = f.workload.as_deref().expect("checked by the caller");
    let args = RunArgs {
        params: Params {
            seed: f.seed.unwrap_or(DEFAULT_SEED),
            scale: if f.smoke { SMOKE_SCALE } else { 1.0 },
        },
        seconds: f.seconds.unwrap_or(catalog::RUN_SECONDS as f64),
        traced: f.trace.unwrap_or(false),
        out_dir: out_dir(),
    };
    // While blessing there is nothing to hold the run to.
    let expected = match std::env::var_os(ledger::BLESSING) {
        Some(_) => None,
        None => Some(Expected::load()?),
    };
    let report = run_named(name, &args, expected.as_ref())
        .ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    harness::print_report(&report);
    println!("{}{}", ledger::DETAIL_PREFIX, ledger::detail_json(&report));
    println!("{}", ledger::contract_json(&report));
    Ok(ledger::exit(report.failed() == 0))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args)?;
    match f.positional.first().map(String::as_str) {
        None if f.workload.is_some() => contract(&f),
        Some("run") => ledger::run(&f),
        Some("compare") => match &f.positional[1..] {
            [a, b] => ledger::compare_files(a.as_ref(), b.as_ref()),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("selfcheck") => ledger::selfcheck(&f),
        Some("bless") => ledger::bless(),
        Some("catalog") => {
            print!("{}", catalog::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    // The product reads MPICHGQ_* knobs (thread count, timeline interval);
    // no run may depend on the caller's. Still single-threaded here.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MPICHGQ_") {
            std::env::remove_var(k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
