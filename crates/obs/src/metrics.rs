//! The metrics registry: named monotonic counters and last-value gauges
//! with high-water tracking.
//!
//! Names resolve to dense indices once, at registration; hot-path updates
//! are plain vector writes. Snapshots are name-sorted so JSON output is
//! deterministic regardless of registration order.

use crate::hist::Histogram;
use crate::json::JsonWriter;
use crate::names::Names;

/// Handle to a registered counter (a dense index; `Copy`, cheap to store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HistId(u32);

#[derive(Debug)]
struct Gauge {
    value: f64,
    high_water: f64,
    touched: bool,
}

/// Where a metric walk writes what it reads. A component states each of
/// its series once, against this trait, and the same walk fills an
/// end-of-run snapshot ([`Registry`]) or one instant of a time series
/// ([`Tick`](crate::Tick)). A sink only ever receives values, so a walk
/// over `&self` state cannot change what it measures.
pub trait MetricSink {
    /// A cumulative monotone total under `name`.
    fn counter(&mut self, name: &str, total: u64);
    /// An instantaneous level under `name`.
    fn gauge(&mut self, name: &str, v: f64);
    /// [`MetricSink::counter`] under the name `"{scope}.{leaf}"`, in parts
    /// so that a sink can find the series without building the name.
    fn counter_in(&mut self, scope: Scope, leaf: &'static str, total: u64) {
        self.counter(&scope.name(leaf), total);
    }
    /// [`MetricSink::gauge`] under the name `"{scope}.{leaf}"`.
    fn gauge_in(&mut self, scope: Scope, leaf: &'static str, v: f64) {
        self.gauge(&scope.name(leaf), v);
    }
}

/// The indexed prefix of a series name, which is what its `Display` prints:
/// `iface007`, with a `sub` `node003.rule002` (`{:03}`: wider indices in full).
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub kind: &'static str,
    pub index: u64,
    pub sub: Option<(&'static str, u64)>,
}

impl Scope {
    /// `{kind}{index:03}`.
    pub const fn new(kind: &'static str, index: u64) -> Scope {
        let sub = None;
        Scope { kind, index, sub }
    }

    /// This scope with `.{kind}{index:03}` below it.
    pub const fn sub(mut self, kind: &'static str, index: u64) -> Scope {
        self.sub = Some((kind, index));
        self
    }

    /// `"{self}.{leaf}"`, written into `name` (cleared first).
    pub(crate) fn write_name(self, leaf: &str, name: &mut String) {
        use std::fmt::Write;
        name.clear();
        write!(name, "{self}.{leaf}").expect("formatting into a String");
    }

    /// `"{self}.{leaf}"` in one allocation (`format!` reallocates as the
    /// pieces arrive).
    fn name(self, leaf: &str) -> String {
        let mut name = String::with_capacity(48);
        self.write_name(leaf, &mut name);
        name
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{:03}", self.kind, self.index)?;
        match self.sub {
            Some((kind, index)) => write!(f, ".{kind}{index:03}"),
            None => Ok(()),
        }
    }
}

/// Named counters and gauges for one simulation run.
#[derive(Debug, Default)]
pub struct Registry {
    counter_names: Names,
    counter_values: Vec<u64>,
    gauge_names: Names,
    gauges: Vec<Gauge>,
    hist_names: Names,
    hists: Vec<Histogram>,
}

impl MetricSink for Registry {
    fn counter(&mut self, name: &str, total: u64) {
        self.record_total(name, total);
    }
    fn gauge(&mut self, name: &str, v: f64) {
        self.set_gauge(name, v);
    }
}

impl Registry {
    /// Register (or look up) a counter; increments via the returned id are
    /// one vector add.
    pub fn counter(&mut self, name: &str) -> CounterId {
        let (i, new) = self.counter_names.intern(name);
        if new {
            self.counter_values.push(0);
        }
        CounterId(i as u32)
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counter_values[id.0 as usize] += n;
    }

    /// Increment a counter by name (registration on first use). For cold
    /// paths — reservation grants, MPI message starts — where holding an id
    /// is not worth the plumbing.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.inc(id, n);
    }

    /// Publish an externally maintained monotonic total (queue stats, drop
    /// stats) into the registry. Panics if the published value regresses —
    /// that would mean the source counter is not actually monotonic.
    pub fn record_total(&mut self, name: &str, total: u64) {
        let id = self.counter(name);
        let cur = &mut self.counter_values[id.0 as usize];
        assert!(
            total >= *cur,
            "counter {name} is not monotonic: {total} < {cur}"
        );
        *cur = total;
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counter_names.get(name).map(|i| self.counter_values[i])
    }

    /// Register (or look up) a gauge.
    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        let (i, new) = self.gauge_names.intern(name);
        if new {
            self.gauges.push(Gauge {
                value: 0.0,
                high_water: f64::NEG_INFINITY,
                touched: false,
            });
        }
        GaugeId(i as u32)
    }

    /// Set a gauge's current value, updating its high-water mark.
    #[inline]
    pub(crate) fn gauge_set(&mut self, id: GaugeId, v: f64) {
        let g = &mut self.gauges[id.0 as usize];
        g.value = v;
        g.touched = true;
        if v > g.high_water {
            g.high_water = v;
        }
    }

    /// Set a gauge by name (registration on first use).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.gauge_set(id, v);
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.touched_gauge(name).map(|g| g.value)
    }

    pub fn gauge_high_water(&self, name: &str) -> Option<f64> {
        self.touched_gauge(name).map(|g| g.high_water)
    }

    fn touched_gauge(&self, name: &str) -> Option<&Gauge> {
        let g = &self.gauges[self.gauge_names.get(name)?];
        g.touched.then_some(g)
    }

    /// Register (or look up) a histogram; observations via the returned id
    /// are one bucket increment.
    pub(crate) fn hist(&mut self, name: &str) -> HistId {
        let (i, new) = self.hist_names.intern(name);
        if new {
            self.hists.push(Histogram::new());
        }
        HistId(i as u32)
    }

    /// Publish an externally maintained histogram into the registry by
    /// replacing the named slot with a copy. For component-local
    /// histograms published at snapshot time (mirrors [`record_total`]):
    /// calling it repeatedly with a growing source is idempotent per call,
    /// not additive.
    ///
    /// [`record_total`]: Registry::record_total
    pub fn record_hist(&mut self, name: &str, h: &Histogram) {
        let id = self.hist(name);
        self.hists[id.0 as usize] = h.clone();
    }

    /// Counters in registration order, as `(name, value)` pairs.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .zip(self.counter_values.iter().copied())
    }

    /// Touched gauges in registration order, as `(name, value)` pairs.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_names
            .iter()
            .zip(self.gauges.iter())
            .filter(|(_, g)| g.touched)
            .map(|(n, g)| (n, g.value))
    }

    /// Write `{"name": value, ...}` for all counters, name-sorted.
    pub(crate) fn write_counters(&self, w: &mut JsonWriter) {
        w.begin_object();
        for i in self.counter_names.sorted() {
            w.key(self.counter_names.at(i));
            w.u64(self.counter_values[i]);
        }
        w.end_object();
    }

    /// Write `{"name": {"value": v, "high_water": h}, ...}`, name-sorted.
    /// Gauges that were registered but never set are omitted.
    pub(crate) fn write_gauges(&self, w: &mut JsonWriter) {
        w.begin_object();
        for i in self.gauge_names.sorted() {
            let g = &self.gauges[i];
            if !g.touched {
                continue;
            }
            w.key(self.gauge_names.at(i));
            w.begin_object();
            w.key("value");
            w.f64(g.value);
            w.key("high_water");
            w.f64(g.high_water);
            w.end_object();
        }
        w.end_object();
    }

    /// Write `{"name": {histogram...}, ...}`, name-sorted. Histograms that
    /// were registered but never observed are omitted (so snapshots with
    /// tracing disabled stay free of empty sections). The per-histogram
    /// schema is documented on [`Histogram::write_json`].
    pub(crate) fn write_histograms(&self, w: &mut JsonWriter) {
        w.begin_object();
        for i in self.hist_names.sorted() {
            let h = &self.hists[i];
            if h.is_empty() {
                continue;
            }
            w.key(self.hist_names.at(i));
            h.write_json(w);
        }
        w.end_object();
    }
}
