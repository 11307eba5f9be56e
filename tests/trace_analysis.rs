//! End-to-end checks for packet-lifecycle tracing and the `qtrace`
//! analyzer: a figure run's Chrome trace must be byte-stable across
//! identical runs, structurally valid (`qtrace --check`'s gate), and the
//! rendered report must decompose delay per hop and carry the SLO table.

use mpichgq_apps::qtrace;
use mpichgq_bench::{fig7_seq_trace, Observe};
use mpichgq_obs::parse;
use mpichgq_sim::SimTime;

fn fig7_trace() -> String {
    let (_, m) = fig7_seq_trace(10.0, SimTime::from_secs(1), Observe::FIGURE);
    m.trace_json
}

#[test]
fn fig7_trace_and_qtrace_report_are_byte_stable() {
    let a = fig7_trace();
    let b = fig7_trace();
    assert_eq!(a, b, "trace export is not deterministic");
    let report_a = qtrace::summarize(&a, 10).unwrap();
    let report_b = qtrace::summarize(&b, 10).unwrap();
    assert_eq!(report_a, report_b, "qtrace report is not deterministic");
}

#[test]
fn fig7_trace_passes_shape_check_and_loads_as_chrome_trace() {
    let json = fig7_trace();
    qtrace::check(&json).unwrap_or_else(|errs| panic!("shape check failed: {errs:?}"));
    // The document is what Perfetto expects: a traceEvents array whose
    // complete spans carry ts/dur and whose metadata names every process.
    let doc = parse(&json).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(
        events.len() > 100,
        "expected a busy trace, got {}",
        events.len()
    );
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
        .collect();
    assert!(phases.contains(&"M") && phases.contains(&"X"));
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    for hop in ["queue", "tx", "wire", "e2e"] {
        assert!(names.contains(&hop), "missing {hop} spans");
    }
}

#[test]
fn qtrace_report_decomposes_delay_and_reports_slo() {
    let report = qtrace::summarize(&fig7_trace(), 10).unwrap();
    assert!(report.contains("flows by p99 one-way delay"));
    assert!(report.contains("per-hop delay decomposition"));
    // The premium path's hops appear with their endpoint names.
    assert!(report.contains("premium-src->"));
    // The fig7 data flow runs premium without contention: a populated SLO
    // table with zero misses against the 10 ms deadline.
    assert!(report.contains("SLO conformance (total misses: 0)"));
    assert!(report.contains("10.000ms"));
}
