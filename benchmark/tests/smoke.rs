//! Runs the smoke pass (1/20 of the work, no timing assertions) of every
//! workload through the contract form, traced and untraced, and holds what
//! it prints to `/BENCHMARK.json`: every workload runs, and every metric
//! named there is emitted exactly once, with its unit.

use mpichgq_obs::{parse, JsonValue};
use std::process::Command;

fn catalog() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of the catalog's metric lists.
fn named(catalog: &JsonValue, list: &str) -> Vec<(String, String)> {
    catalog
        .get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_pass_emits_every_cataloged_metric_exactly_once() {
    let catalog = catalog();
    let workloads: Vec<String> = catalog
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 7);
    for workload in &workloads {
        assert!(name_ok(workload), "workload name {workload:?}");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", workload, "--seed", "1"])
                .args(["--seconds", "0.2", "--trace", trace, "--smoke"])
                .env("MPICHGQ_THREADS", "4") // must be scrubbed, not obeyed
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the last line is one JSON object");
            let keys: Vec<&str> = result
                .members()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));

            // Member order is preserved and duplicates would show, so
            // equality with the catalog's list is "each exactly once".
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(JsonValue::members)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(name_ok(name), "metric name {name:?}");
                    let value = m.get("value").and_then(JsonValue::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    let unit = m.get("unit").and_then(JsonValue::as_str).expect("a unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, named(&catalog, list), "{workload} --trace {trace}");
            if trace == "0" {
                for (name, m) in result.get("metrics").and_then(JsonValue::members).unwrap() {
                    let v = m.get("value").and_then(JsonValue::as_f64).unwrap();
                    assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_what_it_does_not_know() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary")
    };
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "bulk_tcp32", "--trace", "2"],
        &["--workload", "bulk_tcp32", "--seconds", "-1"],
        &["--frobnicate"],
        &[],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
