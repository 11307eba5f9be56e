//! End-to-end checks for the observability layer: the registry snapshot a
//! figure run emits must be byte-for-byte deterministic, must carry the
//! sections the `metrics.json` schema promises (DESIGN.md §9), and
//! arming the flight recorder must not perturb the simulation itself.

use mpichgq_bench::{fig1_tcp_sawtooth, fig7_seq_trace, Fig1Cfg, Observe};
use mpichgq_obs::{parse, FlightRecorder, Histogram, JsonWriter};
use mpichgq_sim::{fnv1a, SimDelta, SimTime};

/// A 256-entry ring, sampled every 100 ms (`sampled`) or not at all.
fn observed(sampled: bool) -> Observe {
    Observe {
        trace_capacity: 256,
        timeline: sampled.then_some(SimDelta::from_millis(100)),
    }
}

fn short_cfg() -> Fig1Cfg {
    Fig1Cfg {
        duration: SimTime::from_secs(5),
        ..Fig1Cfg::default()
    }
}

#[test]
fn fig1_metrics_snapshot_is_deterministic() {
    let (series_a, a) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    let (series_b, b) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    assert_eq!(a.events, b.events, "event counts diverged between runs");
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "metrics snapshot is not deterministic"
    );
    assert_eq!(series_a.points(), series_b.points());
}

#[test]
fn fig1_metrics_carry_the_documented_schema() {
    let (_, m) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    let j = &m.metrics_json;
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"trace\"",
        "\"net.pkts.sent\"",
        "\"net.pkts.delivered\"",
        "\"net.drops.policed\"",
        "\"engine.events_processed\"",
        "\"engine.pending_events\"",
        "\"gara.reservations_granted\"",
        "\"capacity\":256",
        "\"events\":[",
        "\"high_water\"",
        // Lifecycle tracing rides along with the flight recorder: per-class
        // and per-flow histograms plus the SLO conformance section.
        "\"histograms\"",
        "\"phb.be.queue_wait_ns\"",
        "\"p99\"",
        "\"slo\"",
        "\"total_misses\"",
    ] {
        assert!(j.contains(key), "snapshot missing {key}: {j}");
    }
    // Figure 1 deliberately overruns its 40 Mb/s reservation, so the run
    // must observe policer drops, both as a counter and as trace events.
    assert!(
        j.contains("\"drop.policed\""),
        "expected policed-drop trace events in: {j}"
    );
}

#[test]
fn arming_the_flight_recorder_does_not_perturb_the_simulation() {
    let (series_off, off) = fig1_tcp_sawtooth(short_cfg(), Observe::OFF);
    let (series_on, on) = fig1_tcp_sawtooth(
        short_cfg(),
        Observe {
            trace_capacity: 1024,
            ..Observe::FIGURE
        },
    );
    assert_eq!(
        off.events, on.events,
        "tracing changed the number of simulated events"
    );
    assert_eq!(series_off.points(), series_on.points());
    // The disabled run still publishes counters (they are always live) but
    // records no trace events, no histograms, and no SLO section.
    assert!(off.metrics_json.contains("\"recorded\":0"));
    assert!(!on.metrics_json.contains("\"recorded\":0"));
    assert!(off.metrics_json.contains("\"histograms\":{}"));
    assert!(!off.metrics_json.contains("\"slo\""));
    assert!(off.trace_json.contains("\"traceEvents\":[]"));
}

/// Two identical sampled runs must serialize byte-identical timelines,
/// and the document must pass the same shape gate CI runs (`qtop --check`)
/// while carrying the series the instrumented layers promise.
#[test]
fn fig1_timeline_is_byte_stable_and_passes_qtop_check() {
    let (_, a) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    let (_, b) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    let ta = a.timeline_json.expect("sampling was armed");
    let tb = b.timeline_json.expect("sampling was armed");
    assert_eq!(ta, tb, "timeline snapshot is not byte-stable");
    mpichgq_apps::qtop::check(&ta)
        .unwrap_or_else(|errs| panic!("timeline fails qtop --check: {errs:?}"));
    let doc = parse(&ta).expect("timeline parses");
    assert_eq!(doc.get("timeline").unwrap().as_u64(), Some(1));
    assert_eq!(
        doc.get("interval_ns").unwrap().as_u64(),
        Some(100_000_000),
        "interval must round-trip"
    );
    for series in [
        "engine.events_processed",
        "engine.pending_events",
        "net.pkts.delivered",
        "net.drops.policed",
        "slo.misses",
    ] {
        assert!(
            doc.get("series").unwrap().get(series).is_some(),
            "timeline missing series {series}: {ta}"
        );
    }
}

/// The sampler must be provably free: with sampling off, every other
/// artifact of the run — metrics snapshot, figure series, trace export,
/// event count — is bit-identical to a sampled run's.
#[test]
fn sampling_off_is_bit_identical_for_fig1() {
    let (series_off, off) = fig1_tcp_sawtooth(short_cfg(), observed(false));
    let (series_on, on) = fig1_tcp_sawtooth(short_cfg(), observed(true));
    assert_eq!(off.events, on.events, "sampling changed the event count");
    assert_eq!(series_off.points(), series_on.points());
    assert_eq!(off.metrics_json, on.metrics_json);
    assert_eq!(off.trace_json, on.trace_json);
    assert!(off.timeline_json.is_none());
    assert!(on.timeline_json.is_some());
}

#[test]
fn sampling_off_is_bit_identical_for_fig7() {
    let window = SimTime::from_secs(4);
    let (series_off, off) = fig7_seq_trace(30.0, window, observed(false));
    let (series_on, on) = fig7_seq_trace(30.0, window, observed(true));
    assert_eq!(off.events, on.events, "sampling changed the event count");
    assert_eq!(series_off.points(), series_on.points());
    assert_eq!(off.metrics_json, on.metrics_json);
    assert_eq!(off.trace_json, on.trace_json);
    assert!(off.timeline_json.is_none());
    let tl = on.timeline_json.expect("sampling was armed");
    mpichgq_apps::qtop::check(&tl)
        .unwrap_or_else(|errs| panic!("fig7 timeline fails qtop --check: {errs:?}"));
}

/// The flight-recorder JSON schema pins `key` as u64 and `value` as i64
/// (see `FlightRecorder::write_json`): the full u64 key range and negative
/// values must survive a parse round-trip without narrowing.
#[test]
fn flight_recorder_json_key_and_value_types_round_trip() {
    let mut fr = FlightRecorder::default();
    fr.enable(8);
    fr.record(SimTime::from_nanos(5), "probe", u64::MAX, -42);
    fr.record(SimTime::from_nanos(9), "probe", 0, i64::MIN);
    let mut w = JsonWriter::new();
    fr.write_json(&mut w);
    let doc = parse(&w.finish()).expect("recorder snapshot parses");
    let events = doc.get("events").unwrap().as_array().unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("t_ns").unwrap().as_u64(), Some(5));
    assert_eq!(events[0].get("kind").unwrap().as_str(), Some("probe"));
    assert_eq!(events[0].get("key").unwrap().as_u64(), Some(u64::MAX));
    assert_eq!(events[0].get("value").unwrap().as_i64(), Some(-42));
    assert_eq!(events[1].get("value").unwrap().as_i64(), Some(i64::MIN));
    // The asymmetry is intentional: a u64-range key must NOT be readable
    // as i64, and the negative value must not alias into u64 range.
    assert_eq!(events[0].get("key").unwrap().as_i64(), None);
    assert_eq!(events[0].get("value").unwrap().as_u64(), None);
}

/// Histogram snapshots depend only on the recorded distribution, not on
/// insertion order — byte-identical JSON either way.
#[test]
fn histogram_snapshots_are_order_independent() {
    let values = [0u64, 1, 15, 16, 17, 255, 4096, 1 << 20, u64::MAX, 77, 77];
    let mut fwd = Histogram::new();
    for &v in &values {
        fwd.observe(v);
    }
    let mut rev = Histogram::new();
    for &v in values.iter().rev() {
        rev.observe(v);
    }
    // Odd positions first, then even: an interleaving neither order gives.
    let mut split = Histogram::new();
    for &v in values
        .iter()
        .skip(1)
        .step_by(2)
        .chain(values.iter().step_by(2))
    {
        split.observe(v);
    }
    let snap = |h: &Histogram| {
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        w.finish()
    };
    assert_eq!(snap(&fwd), snap(&rev));
    assert_eq!(snap(&fwd), snap(&split));
    assert_eq!(fwd.quantile(0.5), split.quantile(0.5));
}

/// The Chrome trace a small figure run exports, pinned by FNV-1a and
/// length. `results/*/trace.json` is not tracked, so no `git diff` of the
/// results would notice the export changing its bytes; this test does.
#[test]
fn fig7_chrome_trace_bytes_are_pinned() {
    let (_, run) = fig7_seq_trace(30.0, SimTime::from_secs(4), observed(false));
    let trace = run.trace_json.as_bytes();
    assert_eq!(
        (trace.len(), fnv1a(trace)),
        (1_185_058, 14_044_250_067_781_046_561),
        "fig7 trace export changed its bytes"
    );
    // `Net::chrome_trace_json` reserves 192 B per span plus 4 KB once; a
    // real run's document fits, so the buffer never grows.
    let spans = run.trace_json.matches(",\"tid\":1,").count();
    assert!(spans > 1_000, "{spans} spans");
    assert!(trace.len() <= spans * 192 + 4096);
}

/// A tracer with a span bound of 0 (how the fuzzer traces) still exports
/// a trace that `qtrace --check` accepts: no span events, only process
/// metadata, with every span counted in `otherData.spans_dropped` and
/// the per-flow summary intact.
#[test]
fn zero_bound_chrome_trace_passes_qtrace_check() {
    let built = mpichgq::qcheck::build(
        &mpichgq::qcheck::ScenarioSpec::from_seed(0),
        &mpichgq::qcheck::Inject::default(),
    );
    let mut sim = built.sim;
    sim.run_until(built.t_end);
    let tracer = sim.net.packet_tracer().expect("fuzz scenarios trace");
    let json = sim.net.chrome_trace_json();
    mpichgq_apps::qtrace::check(&json)
        .unwrap_or_else(|errs| panic!("shape check failed: {errs:?}"));
    let doc = parse(&json).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "flows are named");
    for e in events {
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("M"), "{e:?}");
    }
    let other = doc.get("otherData").expect("otherData");
    let dropped = other.get("spans_dropped").and_then(|v| v.as_u64());
    assert_eq!(dropped, Some(tracer.spans_dropped()));
    assert!(tracer.spans_dropped() > 0);
    let flows = other
        .get("flows")
        .and_then(|f| f.as_array())
        .expect("flows");
    assert_eq!(flows.len(), tracer.flows().len());
}
