//! The hash-keyed timeline the positional one replaced, kept as the test
//! reference: every write finds its series through a hash map (by parts, or
//! by name), and every series grows its own timestamp column.
//! `super::tests` drives both with the same random tick programs and
//! requires every read-out to agree.

use super::{Parts, SeriesKind};
use crate::json::JsonWriter;
use crate::metrics::{MetricSink, Scope};
use mpichgq_sim::FxHashMap;

#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    /// Set when a dedicated sampler owns this series. The registry sweep
    /// skips live series, so a stale registry copy published mid-run can
    /// never push a non-monotone sample under a sampler-owned name.
    live: bool,
    t_ns: Vec<u64>,
    /// Counter samples (absolute totals); empty for gauges.
    u: Vec<u64>,
    /// Gauge samples; empty for counters.
    f: Vec<f64>,
}

impl Series {
    fn new(kind: SeriesKind, live: bool) -> Series {
        Series {
            kind,
            live,
            t_ns: Vec::new(),
            u: Vec::new(),
            f: Vec::new(),
        }
    }
}

/// A set of named series on one sampling grid. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    interval_ns: u64,
    names: Vec<String>,
    series: Vec<Series>,
    ids: FxHashMap<String, u32>,
    /// Series a [`Tick`] was handed in parts, found again without a name.
    by_parts: FxHashMap<Parts, u32>,
}

/// One sampling instant of a [`Timeline`] ([`Timeline::tick`]): the
/// [`MetricSink`] that appends whatever it is handed as that instant's
/// sample of the named series.
pub(crate) struct Tick<'a> {
    tl: &'a mut Timeline,
    t_ns: u64,
}

impl MetricSink for Tick<'_> {
    fn counter(&mut self, name: &str, total: u64) {
        self.tl.push_counter(name, self.t_ns, total);
    }
    fn gauge(&mut self, name: &str, v: f64) {
        self.tl.push_gauge(name, self.t_ns, v);
    }
    fn counter_in(&mut self, scope: Scope, leaf: &'static str, total: u64) {
        let idx = self.tl.index_in(scope, leaf, SeriesKind::Counter);
        self.tl.push_counter_at(idx, self.t_ns, total);
    }
    fn gauge_in(&mut self, scope: Scope, leaf: &'static str, v: f64) {
        let idx = self.tl.index_in(scope, leaf, SeriesKind::Gauge);
        self.tl.push_gauge_at(idx, self.t_ns, v);
    }
}

impl Timeline {
    /// An empty timeline sampling every `interval_ns` nanoseconds.
    pub(crate) fn new(interval_ns: u64) -> Timeline {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Timeline {
            interval_ns,
            ..Timeline::default()
        }
    }

    /// The sink for the sample at `t_ns`: every series written through it
    /// gets one sample stamped `t_ns`, under the rules of
    /// [`Timeline::push_counter`] / [`Timeline::push_gauge`] (the series
    /// becomes sampler-owned; its time must advance, a counter must not
    /// regress).
    pub(crate) fn tick(&mut self, t_ns: u64) -> Tick<'_> {
        Tick { tl: self, t_ns }
    }

    /// The index of series `name`, registered on first sight.
    fn index_of(&mut self, name: &str, kind: SeriesKind, live: bool) -> usize {
        match self.ids.get(name) {
            Some(&i) => i as usize,
            None => {
                let i = self.series.len() as u32;
                self.ids.insert(name.to_owned(), i);
                self.names.push(name.to_owned());
                self.series.push(Series::new(kind, live));
                i as usize
            }
        }
    }

    /// [`Timeline::index_of`] by identity; on first sight, by the built name.
    fn index_in(&mut self, scope: Scope, leaf: &'static str, kind: SeriesKind) -> usize {
        let key = Parts::new(scope, leaf);
        if let Some(&i) = self.by_parts.get(&key) {
            return i as usize;
        }
        let idx = self.index_of(&format!("{scope}.{leaf}"), kind, true);
        self.by_parts.insert(key, idx as u32);
        idx
    }

    /// Series `idx` and its name; panics unless it is of `kind`.
    fn series_at(&mut self, idx: usize, kind: SeriesKind) -> (&mut Series, &str) {
        let (s, name) = (&mut self.series[idx], self.names[idx].as_str());
        assert_eq!(
            s.kind, kind,
            "series {name} already registered with the other kind"
        );
        (s, name)
    }

    fn series_mut(&mut self, name: &str, kind: SeriesKind, live: bool) -> &mut Series {
        let idx = self.index_of(name, kind, live);
        self.series_at(idx, kind).0
    }

    fn push_at(s: &mut Series, name: &str, t_ns: u64) {
        if let Some(&last) = s.t_ns.last() {
            assert!(
                t_ns > last,
                "series {name}: timestamp {t_ns} not after {last}"
            );
        }
        s.t_ns.push(t_ns);
    }

    /// Record a counter sample from a dedicated sampler. Marks the series
    /// live (the registry sweep will skip it from now on). Panics if the
    /// timestamp does not advance or the value regresses.
    pub(crate) fn push_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let idx = self.index_of(name, SeriesKind::Counter, true);
        self.push_counter_at(idx, t_ns, v);
    }

    fn push_counter_at(&mut self, idx: usize, t_ns: u64, v: u64) {
        let (s, name) = self.series_at(idx, SeriesKind::Counter);
        s.live = true;
        if let Some(&prev) = s.u.last() {
            assert!(v >= prev, "counter series {name} regressed: {prev} -> {v}");
        }
        Self::push_at(s, name, t_ns);
        s.u.push(v);
    }

    /// Record a gauge sample from a dedicated sampler (marks the series
    /// live). Panics if the timestamp does not advance.
    pub(crate) fn push_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let idx = self.index_of(name, SeriesKind::Gauge, true);
        self.push_gauge_at(idx, t_ns, v);
    }

    fn push_gauge_at(&mut self, idx: usize, t_ns: u64, v: f64) {
        let (s, name) = self.series_at(idx, SeriesKind::Gauge);
        s.live = true;
        Self::push_at(s, name, t_ns);
        s.f.push(v);
    }

    /// Record a counter sample from the registry sweep. No-op when a
    /// dedicated sampler owns the series (see [`Timeline::push_counter`])
    /// or when `t_ns` was already sampled.
    pub(crate) fn sweep_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let s = self.series_mut(name, SeriesKind::Counter, false);
        if s.live || s.t_ns.last() == Some(&t_ns) {
            return;
        }
        if let Some(&prev) = s.u.last() {
            assert!(v >= prev, "counter series {name} regressed: {prev} -> {v}");
        }
        Self::push_at(s, name, t_ns);
        s.u.push(v);
    }

    /// Record a gauge sample from the registry sweep (see
    /// [`Timeline::sweep_counter`] for the live-series rule).
    pub(crate) fn sweep_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let s = self.series_mut(name, SeriesKind::Gauge, false);
        if s.live || s.t_ns.last() == Some(&t_ns) {
            return;
        }
        Self::push_at(s, name, t_ns);
        s.f.push(v);
    }

    /// Series names in registration order (JSON output sorts them).
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// A counter series' `(timestamps, values)` columns, if it exists.
    pub(crate) fn counter(&self, name: &str) -> Option<(&[u64], &[u64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Counter).then_some((&s.t_ns[..], &s.u[..]))
    }

    /// A gauge series' `(timestamps, values)` columns, if it exists.
    pub(crate) fn gauge(&self, name: &str) -> Option<(&[u64], &[f64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Gauge).then_some((&s.t_ns[..], &s.f[..]))
    }

    /// The counter's value at `t_ns` under step semantics: the most recent
    /// sample at or before `t_ns`, or 0 before the first sample. The burn
    /// calculator uses this to read rates over trailing windows.
    pub(crate) fn counter_at(&self, name: &str, t_ns: u64) -> u64 {
        let Some((t, v)) = self.counter(name) else {
            return 0;
        };
        match t.partition_point(|&x| x <= t_ns) {
            0 => 0,
            i => v[i - 1],
        }
    }

    /// Serialize into `w`. Schema:
    ///
    /// ```json
    /// {"timeline":1,"interval_ns":N,"series":{
    ///   "name":{"kind":"counter","t0_ns":T,"dt_ns":[..],"v0":V,"dv":[..]},
    ///   "name":{"kind":"gauge","t0_ns":T,"dt_ns":[..],"values":[..]}}}
    /// ```
    ///
    /// Series are name-sorted; `dt_ns`/`dv` are successive deltas (one
    /// fewer entry than samples). Empty series serialize with `t0_ns`
    /// null and empty delta arrays.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("timeline");
        w.u64(1);
        w.key("interval_ns");
        w.u64(self.interval_ns);
        w.key("series");
        w.begin_object();
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        order.sort_by(|&a, &b| self.names[a].cmp(&self.names[b]));
        for i in order {
            let s = &self.series[i];
            w.key(&self.names[i]);
            w.begin_object();
            w.key("kind");
            w.string(match s.kind {
                SeriesKind::Counter => "counter",
                SeriesKind::Gauge => "gauge",
            });
            w.key("t0_ns");
            match s.t_ns.first() {
                Some(&t0) => w.u64(t0),
                None => w.raw("null"),
            }
            w.key("dt_ns");
            w.begin_array();
            for pair in s.t_ns.windows(2) {
                w.u64(pair[1] - pair[0]);
            }
            w.end_array();
            match s.kind {
                SeriesKind::Counter => {
                    w.key("v0");
                    match s.u.first() {
                        Some(&v0) => w.u64(v0),
                        None => w.raw("null"),
                    }
                    w.key("dv");
                    w.begin_array();
                    for pair in s.u.windows(2) {
                        w.u64(pair[1] - pair[0]);
                    }
                    w.end_array();
                }
                SeriesKind::Gauge => {
                    w.key("values");
                    w.begin_array();
                    for &v in &s.f {
                        w.f64(v);
                    }
                    w.end_array();
                }
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// [`Timeline::write_json`] into a fresh string.
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}
