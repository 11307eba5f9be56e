//! The ledger commands: `run` drives the contract form once per workload
//! and pass in child processes (so one workload's memory high-water mark
//! cannot leak into another's) and writes a result set; `compare` puts two
//! result sets side by side under the catalog's bounds.

use crate::catalog::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::expected::{self, Expected, Pinned};
use crate::harness::Report;
use crate::host::{self, Stats};
use crate::workloads::DEFAULT_SEED;
use crate::{out_dir, Flags};
use mpichgq_obs::{JsonValue, JsonWriter};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Starts the machine-readable detail line a child prints before its
/// contract line.
pub const DETAIL_PREFIX: &str = "detail ";
/// Set in a child's environment by `bless`: run without `expected.json`.
pub const BLESSING: &str = "BENCHMARK_BLESSING";
/// What a `--smoke` pass measures for.
const SMOKE_SECONDS: f64 = 0.2;

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
pub fn contract_json(r: &Report) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.raw(if r.failed() == 0 { "true" } else { "false" });
    w.key("attempted");
    w.u64(r.checks.len() as u64);
    w.key("failed");
    w.u64(r.failed() as u64);
    w.key("metrics");
    w.begin_object();
    for m in &r.metrics {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.f64(m.value);
        w.key("unit");
        w.string(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// What `run` keeps beyond the contract line: identity, samples, counts.
pub fn detail_json(r: &Report) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload");
    w.string(r.workload);
    w.key("seed");
    w.u64(r.seed);
    w.key("traced");
    w.raw(if r.traced { "true" } else { "false" });
    w.key("physics_fp");
    w.string(&format!("{:#018x}", r.physics_fp));
    w.key("samples");
    w.begin_object();
    for (k, v) in &r.samples {
        w.key(k);
        w.begin_array();
        for x in v {
            w.f64(*x);
        }
        w.end_array();
    }
    w.end_object();
    w.key("facts");
    w.begin_object();
    for (k, v) in &r.facts {
        w.key(k);
        w.u64(*v);
    }
    w.end_object();
    w.key("exact");
    w.begin_object();
    for (k, v) in &r.exact {
        w.key(k);
        w.f64(*v);
    }
    w.end_object();
    w.key("failed_checks");
    w.begin_array();
    for c in r.checks.iter().filter(|c| !c.ok) {
        w.string(&c.name);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One child pass: its detail and result objects, as printed.
struct Pass {
    detail: String,
    result: String,
    ok: bool,
}

impl Pass {
    /// `{"detail": ..., "result": ...}`, the children's own JSON verbatim.
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("detail");
        w.raw(&self.detail);
        w.key("result");
        w.raw(&self.result);
        w.end_object();
    }
}

/// Run the contract form in a child process and echo its report.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    blessing: bool,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    if blessing {
        cmd.env(BLESSING, "1");
    }
    // `output` waits for the child; stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().unwrap_or_default();
    let detail = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    println!();
    let detail = detail
        .strip_prefix(DETAIL_PREFIX)
        .ok_or(format!("{workload}: child printed no detail line"))?;
    // Both are embedded verbatim in the result set: hold them to JSON.
    mpichgq_obs::parse(detail)?;
    mpichgq_obs::parse(result)?;
    Ok(Pass {
        detail: detail.to_string(),
        result: result.to_string(),
        ok: out.status.success(),
    })
}

/// Run the selected workloads into one result set; `Ok(false)` when any
/// check failed.
fn run_set(f: &Flags, traced: bool, out: &Path) -> Result<bool, String> {
    let seed = f.seed.unwrap_or(DEFAULT_SEED);
    let seconds = f.seconds.unwrap_or(if f.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    let names: Vec<&str> = match &f.workload {
        Some(w) => vec![
            WORKLOADS
                .iter()
                .find(|d| d.name == w)
                .ok_or(format!("unknown workload {w:?}"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|d| d.name).collect(),
    };
    let mut all_ok = true;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("benchmark");
    w.u64(1);
    w.key("seed");
    w.u64(seed);
    w.key("seconds");
    w.f64(seconds);
    w.key("smoke");
    w.raw(if f.smoke { "true" } else { "false" });
    w.key("host_cores");
    w.u64(host::cores() as u64);
    w.key("workloads");
    w.begin_array();
    for name in names {
        // End-to-end numbers come from the untraced pass only.
        let untraced = child_pass(name, seed, seconds, false, f.smoke, false)?;
        all_ok &= untraced.ok;
        w.begin_object();
        w.key("workload");
        w.string(name);
        w.key("untraced");
        untraced.write(&mut w);
        if traced {
            let pass = child_pass(name, seed, seconds, true, f.smoke, false)?;
            all_ok &= pass.ok;
            w.key("traced");
            pass.write(&mut w);
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, w.finish() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result set written to {}", out.display());
    Ok(all_ok)
}

pub fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn run(f: &Flags) -> Result<ExitCode, String> {
    let out = f.out.clone().unwrap_or(out_dir().join("results.json"));
    Ok(exit(run_set(f, f.traced, &out)?))
}

/// Two full sets of the same commit, back to back, then compared: the
/// benchmark checking that it repeats within its own bounds.
pub fn selfcheck(f: &Flags) -> Result<ExitCode, String> {
    let (a, b) = (
        out_dir().join("selfcheck_a.json"),
        out_dir().join("selfcheck_b.json"),
    );
    let ok = run_set(f, true, &a)? & run_set(f, true, &b)?;
    Ok(exit(compare(&load(&a)?, &load(&b)?, true) && ok))
}

/// Rewrite `expected.json` from one short pass per workload at the
/// default seed (physics does not depend on how long the pass measures).
pub fn bless() -> Result<ExitCode, String> {
    let mut e = Expected::default();
    for d in WORKLOADS {
        let pass = child_pass(d.name, DEFAULT_SEED, 1.0, false, false, true)?;
        if !pass.ok {
            return Err(format!("{}: checks failed; nothing blessed", d.name));
        }
        let detail = mpichgq_obs::parse(&pass.detail)?;
        let fp = detail
            .get("physics_fp")
            .and_then(JsonValue::as_str)
            .and_then(expected::parse_fp)
            .ok_or("child detail: no physics_fp")?;
        let facts = detail
            .get("facts")
            .and_then(JsonValue::members)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect();
        e.set(
            d.name,
            Pinned {
                physics_fp: fp,
                facts,
            },
        );
    }
    std::fs::write(expected::path(), e.to_json()).map_err(|e| format!("expected.json: {e}"))?;
    println!("blessed {}", expected::path().display());
    Ok(ExitCode::SUCCESS)
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    mpichgq_obs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    Ok(exit(compare(&load(a)?, &load(b)?, false)))
}

fn workload<'a>(set: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    set.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("workload").and_then(JsonValue::as_str) == Some(name))
}

/// One member of the detail object of a workload's pass.
fn detail<'a>(w: &'a JsonValue, pass: &str, key: &str) -> Option<&'a JsonValue> {
    w.get(pass)?.get("detail")?.get(key)
}

/// Interquartile spread of a metric's samples within one run (0 when the
/// run took a single sample of it, as for `peak_rss_mb`).
fn spread(w: &JsonValue, metric: &str) -> f64 {
    let samples: Vec<f64> = detail(w, "untraced", "samples")
        .and_then(|s| s.get(metric))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect();
    if samples.len() < 2 {
        0.0
    } else {
        Stats::of(&samples).spread()
    }
}

/// Print, per workload × end-to-end metric, both values, how much worse B
/// is, the bound, and the verdict. `same_commit` additionally holds the
/// exact counts to bit-identity. Returns false if anything regressed.
fn compare(a: &JsonValue, b: &JsonValue, same_commit: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<24} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "spread%"
    );
    for d in WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, d.name), workload(b, d.name)) else {
            continue;
        };
        for e in END_TO_END {
            let value = |w: &JsonValue| {
                w.get("untraced")?
                    .get("result")?
                    .get("metrics")?
                    .get(e.name)?
                    .get("value")
                    .and_then(JsonValue::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                println!("{:<24} {:<12} missing  regressed", d.name, e.name);
                ok = false;
                continue;
            };
            let worse = if e.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let noise = spread(wa, e.name).max(spread(wb, e.name));
            let verdict = if worse > e.bound {
                ok = false;
                "regressed"
            } else if noise > e.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<24} {:<12} {:>12.5} {:>12.5} {:>+8.2} {:>7.2} {:>7.2}  {verdict}",
                d.name,
                e.name,
                va,
                vb,
                worse * 100.0,
                e.bound * 100.0,
                noise * 100.0
            );
        }
        // Simulated results must be identical across commits.
        let same_physics = ["physics_fp", "facts"]
            .iter()
            .all(|k| detail(wa, "untraced", k) == detail(wb, "untraced", k));
        if !same_physics {
            ok = false;
        }
        println!(
            "{:<24} physics_fp   {}",
            d.name,
            if same_physics {
                "identical"
            } else {
                "DIFFERS  regressed"
            }
        );
        // Counts may move between commits (that is what they are for);
        // two sets of one commit must agree bit for bit.
        let (ea, eb) = (detail(wa, "traced", "exact"), detail(wb, "traced", "exact"));
        let changed: Vec<String> = ea
            .and_then(JsonValue::members)
            .unwrap_or(&[])
            .iter()
            .filter(|(k, v)| eb.and_then(|e| e.get(k)) != Some(v))
            .map(|(k, v)| {
                let other = eb.and_then(|e| e.get(k)).and_then(JsonValue::as_f64);
                format!("{k}: {} -> {other:?}", v.as_f64().unwrap_or(f64::NAN))
            })
            .collect();
        if !changed.is_empty() {
            if same_commit {
                ok = false;
            }
            println!(
                "{:<24} counts       {}{}",
                d.name,
                changed.join("; "),
                if same_commit {
                    "  regressed"
                } else {
                    "  changed"
                }
            );
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: f64, samples: &[f64], fp: &str) -> JsonValue {
        let samples: Vec<String> = samples.iter().map(f64::to_string).collect();
        let rest: Vec<String> = ["setup_s", "peak_rss_mb", "pass_ratio"]
            .iter()
            .map(|m| format!("\"{m}\":{{\"value\":1,\"unit\":\"x\"}}"))
            .collect();
        mpichgq_obs::parse(&format!(
            "{{\"workloads\":[{{\"workload\":\"bulk_tcp32\",\"untraced\":{{\
             \"detail\":{{\"physics_fp\":\"{fp}\",\"samples\":{{\"wall_s\":[{}]}},\
             \"facts\":{{\"n\":1}}}},\"result\":{{\"metrics\":{{\
             \"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}},{}}}}}}}}}]}}",
            samples.join(","),
            rest.join(",")
        ))
        .expect("test set parses")
    }

    #[test]
    fn verdicts() {
        let base = set(1.0, &[0.99, 1.0, 1.01], "0x1");
        // Within the bound and quiet: ok.
        assert!(compare(
            &base,
            &set(1.05, &[1.04, 1.05, 1.06], "0x1"),
            false
        ));
        // Worse than the bound: regressed.
        assert!(!compare(&base, &set(1.5, &[1.49, 1.5, 1.51], "0x1"), false));
        // Faster is never a regression.
        assert!(compare(&base, &set(0.5, &[0.5, 0.5, 0.5], "0x1"), false));
        // Too noisy to tell is unresolved, which does not fail the exit code.
        assert!(compare(&base, &set(1.0, &[0.5, 1.0, 1.5], "0x1"), false));
        // Different physics always fails.
        assert!(!compare(&base, &set(1.0, &[1.0, 1.0, 1.0], "0x2"), false));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "bulk_tcp32",
            work_unit: "delivered packet",
            seed: 1,
            traced: false,
            metrics: vec![crate::harness::Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
            samples: Default::default(),
            reps: 1,
            checks: vec![crate::workloads::check("a", true)],
            physics_fp: 7,
            facts: vec![],
            exact: vec![],
            shares: vec![],
            intermediate: vec![],
            span_summary: vec![],
        };
        let v = mpichgq_obs::parse(&contract_json(&r)).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1));
        let m = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let d = mpichgq_obs::parse(&detail_json(&r)).unwrap();
        assert_eq!(
            d.get("physics_fp").unwrap().as_str(),
            Some("0x0000000000000007")
        );
    }
}
