//! Observability: a shared metrics registry and a bounded flight recorder.
//!
//! The paper's entire evaluation is read off instrumentation — per-flow
//! bandwidth traces, drop and mark counts at the policer, TCP sequence
//! traces. This crate is the simulator's equivalent of that measurement
//! harness: every layer (netsim, tcp, mpi, gara) feeds one [`Obs`] instance
//! owned by the network, and experiment binaries dump a deterministic JSON
//! snapshot (`results/<experiment>/metrics.json`) that CI can diff.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero hot-path cost.** Counter increments pre-resolve their
//!    name to a dense index once ([`Registry::counter`]) so the per-event
//!    cost is one bounds-checked vector add. The flight recorder is
//!    branch-on-disabled: when no experiment asked for a trace, a record
//!    call is a single predictable branch ([`FlightRecorder::record`]).
//!    Component-local counters that already exist (queue stats, drop
//!    stats, rule stats) stay where they are and are *published* into the
//!    registry at snapshot time instead of being double-counted live.
//! 2. **Determinism.** Snapshots sort metrics by name and format numbers
//!    identically across runs; two runs of the same seeded experiment
//!    produce byte-identical JSON. Nothing here consults wall-clock time.
//! 3. **No dependencies.** JSON is written by hand (the workspace builds
//!    fully offline); the only dependency is `mpichgq-sim` for
//!    [`SimTime`](mpichgq_sim::SimTime).

#![warn(unreachable_pub)]

mod hist;
mod json;
mod metrics;
mod names;
mod timeseries;
mod trace;

pub use hist::{bucket_index, bucket_low, Histogram, NUM_BUCKETS};
pub use json::{parse, JsonValue, JsonWriter};
pub use metrics::{CounterId, MetricSink, Registry, Scope};
pub use timeseries::{SeriesKind, Tick, Timeline};
pub use trace::{FlightRecorder, TraceEvent};

/// The per-simulation observability bundle: a metrics registry plus a
/// flight recorder. Owned by the network (`Net`), reachable from every
/// layer that holds `&mut Net`.
#[derive(Debug, Default)]
pub struct Obs {
    pub metrics: Registry,
    pub trace: FlightRecorder,
}

impl Obs {
    /// A fresh bundle with the trace disabled (the default: counters are
    /// always live, the ring buffer costs one branch until enabled).
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Enable the event trace with a ring of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// Serialize the whole bundle as one deterministic JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...},
    /// "trace": {...}}`.
    pub fn snapshot_json(&self) -> String {
        self.snapshot_json_with(&[])
    }

    /// Like [`snapshot_json`](Obs::snapshot_json), with caller-supplied
    /// extra top-level sections appended after `"trace"`. Each entry is a
    /// `(key, raw_json_value)` pair; the caller vouches that the value is
    /// valid JSON (the network uses this to attach its `"slo"` section).
    pub fn snapshot_json_with(&self, extra: &[(&str, &str)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counters");
        self.metrics.write_counters(&mut w);
        w.key("gauges");
        self.metrics.write_gauges(&mut w);
        w.key("histograms");
        self.metrics.write_histograms(&mut w);
        w.key("trace");
        self.trace.write_json(&mut w);
        for (key, raw) in extra {
            w.key(key);
            w.raw(raw);
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpichgq_sim::SimTime;

    #[test]
    fn counter_semantics_are_monotonic() {
        let mut r = Registry::default();
        let c = r.counter("pkts.enqueued");
        assert_eq!(r.counter_value("pkts.enqueued"), Some(0));
        r.inc(c, 1);
        r.inc(c, 41);
        assert_eq!(r.counter_value("pkts.enqueued"), Some(42));
        // Re-registering the same name returns the same slot.
        let c2 = r.counter("pkts.enqueued");
        r.inc(c2, 1);
        assert_eq!(r.counter_value("pkts.enqueued"), Some(43));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn record_total_publishes_and_stays_monotonic() {
        let mut r = Registry::default();
        r.record_total("drops.policed", 7);
        assert_eq!(r.counter_value("drops.policed"), Some(7));
        r.record_total("drops.policed", 11);
        assert_eq!(r.counter_value("drops.policed"), Some(11));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn record_total_rejects_regressions() {
        let mut r = Registry::default();
        r.record_total("x", 5);
        r.record_total("x", 4);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let mut r = Registry::default();
        let g = r.gauge("queue.depth");
        r.gauge_set(g, 10.0);
        r.gauge_set(g, 30.0);
        r.gauge_set(g, 5.0);
        assert_eq!(r.gauge_value("queue.depth"), Some(5.0));
        assert_eq!(r.gauge_high_water("queue.depth"), Some(30.0));
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let build = || {
            let mut o = Obs::new();
            o.enable_trace(8);
            // Register in non-alphabetical order; output must be sorted.
            let b = o.metrics.counter("beta");
            let a = o.metrics.counter("alpha");
            o.metrics.inc(b, 2);
            o.metrics.inc(a, 1);
            let g = o.metrics.gauge("level");
            o.metrics.gauge_set(g, 1.5);
            let mut h = Histogram::new();
            h.observe(1_000_000);
            h.observe(2_000_000);
            o.metrics.record_hist("delay", &h);
            o.trace.record(SimTime::from_millis(5), "drop", 9, -1);
            o.snapshot_json()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        let alpha = s1.find("\"alpha\"").unwrap();
        let beta = s1.find("\"beta\"").unwrap();
        assert!(alpha < beta, "counters must be name-sorted: {s1}");
        assert!(s1.contains("\"counters\""));
        assert!(s1.contains("\"gauges\""));
        assert!(s1.contains("\"histograms\""));
        assert!(s1.contains("\"delay\""));
        assert!(s1.contains("\"p99\""));
        assert!(s1.contains("\"trace\""));
        assert!(s1.contains("\"high_water\""));
        assert!(s1.contains("\"t_ns\":5000000"));
    }

    #[test]
    fn extra_sections_append_after_trace() {
        let o = Obs::new();
        let s = o.snapshot_json_with(&[("slo", "{\"flows\":[],\"total_misses\":0}")]);
        assert!(
            s.ends_with(",\"slo\":{\"flows\":[],\"total_misses\":0}}"),
            "{s}"
        );
        let v = crate::parse(&s).expect("snapshot must parse");
        assert_eq!(
            v.get("slo").unwrap().get("total_misses").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a\"b\\c\n");
        w.string("x\ty");
        w.end_object();
        assert_eq!(w.finish(), "{\"a\\\"b\\\\c\\n\":\"x\\ty\"}");
    }
}
