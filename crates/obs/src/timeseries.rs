//! Deterministic fixed-interval time series: the sampled middle layer
//! between end-of-run registry snapshots and per-packet lifecycle traces.
//!
//! A [`Timeline`] holds named series sampled on a fixed wall-of-sim-time
//! grid. Counter series are absolute monotone `u64` samples; gauge series
//! are `f64`. The JSON writer delta-encodes timestamps and counter values
//! (the grid makes deltas tiny and repetitive), sorts series by name, and
//! uses the same shortest-round-trip float formatting as the registry
//! snapshot — so a timeline's JSON is a pure function of its samples,
//! byte-stable across runs and platforms.
//!
//! Shard merge mirrors [`crate::Registry::merge_from`]: series are keyed
//! by name, and merging sums the per-shard step functions pointwise over
//! the union of their sample timestamps (a shard contributes its value-so-
//! far at every instant; before its first sample it contributes zero).
//! Pointwise sum over a timestamp union is associative and commutative,
//! so the merged timeline is independent of shard merge order — that is
//! what makes 1-thread and N-thread runs byte-identical.

use crate::json::JsonWriter;
use crate::metrics::{MetricSink, Scope};
use mpichgq_sim::FxHashMap;
use std::hash::{Hash, Hasher};

/// What a series measures: a cumulative monotone count or a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Absolute monotone totals (samples never decrease).
    Counter,
    /// Instantaneous levels (queue depths, bucket fills, burn rates).
    Gauge,
}

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
pub struct Timeline {
    interval_ns: u64,
    names: Vec<String>,
    series: Vec<Series>,
    ids: FxHashMap<String, u32>,
    /// Series a [`Tick`] was handed in parts, found again without a name.
    by_parts: FxHashMap<Parts, u32>,
}

/// A [`Scope`] and leaf by identity. `'static` text never changes, so equal
/// address and length is equal text, and a key of integers hashes in a few
/// multiplies where the name would be formatted and hashed byte by byte.
/// Equal text at two addresses is two keys, resolved by name to one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parts {
    kind: (usize, usize),
    index: u64,
    sub: Option<((usize, usize), u64)>,
    leaf: (usize, usize),
}

impl Parts {
    fn new(scope: Scope, leaf: &'static str) -> Parts {
        let ident = |s: &'static str| (s.as_ptr() as usize, s.len());
        Parts {
            kind: ident(scope.kind),
            index: scope.index,
            sub: scope.sub.map(|(kind, index)| (ident(kind), index)),
            leaf: ident(leaf),
        }
    }
}

impl Hash for Parts {
    /// Addresses and indices spread the keys; `eq` compares the rest too.
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.kind.0);
        h.write_u64(self.index);
        h.write_u64(self.sub.map_or(u64::MAX, |(_, index)| index));
        h.write_usize(self.leaf.0);
    }
}

/// One sampling instant of a [`Timeline`] ([`Timeline::tick`]): the
/// [`MetricSink`] that appends whatever it is handed as that instant's
/// sample of the named series.
pub struct Tick<'a> {
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
    pub fn new(interval_ns: u64) -> Timeline {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Timeline {
            interval_ns,
            ..Timeline::default()
        }
    }

    /// The sampling grid spacing in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Number of named series recorded so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The sink for the sample at `t_ns`: every series written through it
    /// gets one sample stamped `t_ns`, under the rules of
    /// [`Timeline::push_counter`] / [`Timeline::push_gauge`] (the series
    /// becomes sampler-owned; its time must advance, a counter must not
    /// regress).
    pub fn tick(&mut self, t_ns: u64) -> Tick<'_> {
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
    pub fn push_counter(&mut self, name: &str, t_ns: u64, v: u64) {
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
    pub fn push_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
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
    pub fn sweep_counter(&mut self, name: &str, t_ns: u64, v: u64) {
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
    pub fn sweep_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let s = self.series_mut(name, SeriesKind::Gauge, false);
        if s.live || s.t_ns.last() == Some(&t_ns) {
            return;
        }
        Self::push_at(s, name, t_ns);
        s.f.push(v);
    }

    /// Series names in registration order (JSON output sorts them).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// A counter series' `(timestamps, values)` columns, if it exists.
    pub fn counter(&self, name: &str) -> Option<(&[u64], &[u64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Counter).then_some((&s.t_ns[..], &s.u[..]))
    }

    /// A gauge series' `(timestamps, values)` columns, if it exists.
    pub fn gauge(&self, name: &str) -> Option<(&[u64], &[f64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Gauge).then_some((&s.t_ns[..], &s.f[..]))
    }

    /// The last sample of a counter series, if any.
    pub fn last_counter(&self, name: &str) -> Option<u64> {
        self.counter(name).and_then(|(_, v)| v.last().copied())
    }

    /// The counter's value at `t_ns` under step semantics: the most recent
    /// sample at or before `t_ns`, or 0 before the first sample. The burn
    /// calculator uses this to read rates over trailing windows.
    pub fn counter_at(&self, name: &str, t_ns: u64) -> u64 {
        let Some((t, v)) = self.counter(name) else {
            return 0;
        };
        match t.partition_point(|&x| x <= t_ns) {
            0 => 0,
            i => v[i - 1],
        }
    }

    /// The maximum sample of a gauge series, if it has any samples.
    pub fn gauge_peak(&self, name: &str) -> Option<f64> {
        let (_, v) = self.gauge(name)?;
        v.iter().copied().reduce(f64::max)
    }

    /// Fold `other` into `self`, series by name: the merged series is the
    /// pointwise sum of the two step functions over the union of their
    /// sample timestamps (a side contributes 0 before its first sample).
    /// Order-independent, like [`crate::Registry::merge_from`]; both
    /// timelines must share a grid.
    pub fn merge_from(&mut self, other: &Timeline) {
        assert_eq!(
            self.interval_ns, other.interval_ns,
            "cannot merge timelines with different sampling grids"
        );
        for (name, o) in other.names.iter().zip(&other.series) {
            let s = self.series_mut(name, o.kind, o.live);
            s.live |= o.live;
            let merged = merge_series(s, o);
            *s = merged;
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
    pub fn write_json(&self, w: &mut JsonWriter) {
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
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Pointwise step-function sum of two series over their timestamp union.
fn merge_series(a: &Series, b: &Series) -> Series {
    let mut out = Series::new(a.kind, a.live || b.live);
    let (mut i, mut j) = (0usize, 0usize);
    let (mut au, mut bu) = (0u64, 0u64);
    let (mut af, mut bf) = (0f64, 0f64);
    while i < a.t_ns.len() || j < b.t_ns.len() {
        let ta = a.t_ns.get(i).copied().unwrap_or(u64::MAX);
        let tb = b.t_ns.get(j).copied().unwrap_or(u64::MAX);
        let t = ta.min(tb);
        if ta == t {
            match a.kind {
                SeriesKind::Counter => au = a.u[i],
                SeriesKind::Gauge => af = a.f[i],
            }
            i += 1;
        }
        if tb == t {
            match b.kind {
                SeriesKind::Counter => bu = b.u[j],
                SeriesKind::Gauge => bf = b.f[j],
            }
            j += 1;
        }
        out.t_ns.push(t);
        match a.kind {
            SeriesKind::Counter => out.u.push(au + bu),
            SeriesKind::Gauge => out.f.push(af + bf),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline::new(1_000)
    }

    #[test]
    fn json_is_name_sorted_and_delta_encoded() {
        let mut t = tl();
        t.push_counter("b.count", 1_000, 5);
        t.push_counter("b.count", 2_000, 9);
        t.push_gauge("a.level", 1_000, 1.5);
        t.push_gauge("a.level", 2_000, 0.0);
        assert_eq!(
            t.to_json(),
            "{\"timeline\":1,\"interval_ns\":1000,\"series\":{\
             \"a.level\":{\"kind\":\"gauge\",\"t0_ns\":1000,\"dt_ns\":[1000],\
             \"values\":[1.5,0]},\
             \"b.count\":{\"kind\":\"counter\",\"t0_ns\":1000,\"dt_ns\":[1000],\
             \"v0\":5,\"dv\":[4]}}}"
        );
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut t = tl();
        t.push_counter("c", 500, 1);
        t.push_counter("c", 1_500, 1);
        t.push_gauge("g", 500, 0.25);
        let v = crate::json::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("timeline").unwrap().as_u64(), Some(1));
        let series = v.get("series").unwrap();
        let c = series.get("c").unwrap();
        assert_eq!(c.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(c.get("t0_ns").unwrap().as_u64(), Some(500));
        assert_eq!(c.get("dv").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |offs: u64, scale: u64| {
            let mut t = tl();
            for i in 1..=4u64 {
                t.push_counter("c", offs + i * 1_000, i * scale);
                t.push_gauge("g", offs + i * 1_000, (i * scale) as f64);
            }
            t
        };
        let (a, b, c) = (mk(0, 1), mk(500, 10), mk(250, 100));
        let mut ab = tl();
        for t in [&a, &b, &c] {
            ab.merge_from(t);
        }
        let mut ba = tl();
        for t in [&c, &b, &a] {
            ba.merge_from(t);
        }
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn merge_sums_step_functions() {
        let mut a = tl();
        a.push_counter("c", 1_000, 2);
        a.push_counter("c", 3_000, 6);
        let mut b = tl();
        b.push_counter("c", 2_000, 10);
        let mut m = tl();
        m.merge_from(&a);
        m.merge_from(&b);
        let (t, v) = m.counter("c").unwrap();
        assert_eq!(t, &[1_000, 2_000, 3_000]);
        assert_eq!(v, &[2, 12, 16]);
        assert_eq!(m.counter_at("c", 999), 0);
        assert_eq!(m.counter_at("c", 2_500), 12);
        assert_eq!(m.counter_at("c", 9_999), 16);
    }

    #[test]
    fn sweep_skips_live_series_and_duplicate_ticks() {
        let mut t = tl();
        t.push_counter("live", 1_000, 7);
        t.sweep_counter("live", 2_000, 3); // stale copy: ignored
        assert_eq!(t.last_counter("live"), Some(7));
        t.sweep_counter("swept", 1_000, 1);
        t.sweep_counter("swept", 1_000, 9); // same tick: ignored
        assert_eq!(t.last_counter("swept"), Some(1));
    }

    #[test]
    fn tick_stamps_every_series_it_is_handed() {
        let mut t = tl();
        let mut tick = t.tick(1_000);
        tick.counter("c", 3);
        tick.gauge("g", 1.5);
        t.tick(2_000).counter("c", 4);
        assert_eq!(t.counter("c"), Some((&[1_000, 2_000][..], &[3, 4][..])));
        assert_eq!(t.gauge("g"), Some((&[1_000][..], &[1.5][..])));
        t.sweep_counter("c", 3_000, 9); // a ticked series is sampler-owned
        assert_eq!(t.last_counter("c"), Some(4));
    }

    const IFACE7: Scope = Scope::new("iface", 7);

    #[test]
    fn scoped_and_named_pushes_share_one_series() {
        let (mut parts, mut named) = (tl(), tl());
        for i in 1..=6u64 {
            let (mut p, mut n) = (parts.tick(i * 1_000), named.tick(i * 1_000));
            if i % 2 == 0 {
                p.counter_in(IFACE7, "enq_ef", i);
                p.gauge_in(IFACE7.sub("rule", 2), "level", i as f64);
            } else {
                p.counter(&format!("{IFACE7}.enq_ef"), i);
                p.gauge("iface007.rule002.level", i as f64);
            }
            n.counter("iface007.enq_ef", i);
            n.gauge("iface007.rule002.level", i as f64);
        }
        assert_eq!(parts.series_count(), 2);
        assert_eq!(parts.to_json(), named.to_json());
        // Equal text at another address is one more key, not one more series.
        let leaf: &'static str = String::from("enq_ef").leak();
        parts.tick(7_000).counter_in(IFACE7, leaf, 7);
        assert_eq!(parts.series_count(), 2);
        assert_eq!(parts.last_counter("iface007.enq_ef"), Some(7));
    }

    #[test]
    fn scoped_push_takes_over_a_swept_series() {
        let mut t = tl();
        t.sweep_counter("iface007.enq_ef", 1_000, 1);
        t.tick(2_000).counter_in(IFACE7, "enq_ef", 2);
        t.sweep_counter("iface007.enq_ef", 3_000, 0); // stale copy: ignored
        assert_eq!(
            t.counter("iface007.enq_ef"),
            Some((&[1_000, 2_000][..], &[1, 2][..]))
        );
    }

    #[test]
    #[should_panic(expected = "already registered with the other kind")]
    fn scoped_gauge_on_a_counter_name_panics() {
        let mut t = tl();
        t.tick(1_000).counter_in(IFACE7, "enq_ef", 1);
        t.tick(2_000).gauge_in(IFACE7, "enq_ef", 1.0);
    }

    #[test]
    fn merged_timeline_accepts_scoped_pushes() {
        let mut shard = tl();
        shard.tick(1_000).counter_in(IFACE7, "enq_ef", 3);
        let mut m = tl();
        m.merge_from(&shard);
        m.merge_from(&shard);
        m.tick(2_000).counter_in(IFACE7, "enq_ef", 9);
        assert_eq!(
            m.counter("iface007.enq_ef"),
            Some((&[1_000, 2_000][..], &[6, 9][..]))
        );
    }

    #[test]
    fn scope_displays_the_formatted_prefixes() {
        for i in [0u64, 7, 999, 1000] {
            let s = Scope::new("iface", i);
            assert_eq!(s.to_string(), format!("iface{i:03}"));
            assert_eq!(
                s.sub("rule", i).to_string(),
                format!("iface{i:03}.rule{i:03}")
            );
        }
        let node = Scope::new("node", 3);
        assert_eq!(node.sub("rule", 2).to_string(), "node003.rule002");
        assert_eq!(node.sub("shaper", 0).to_string(), "node003.shaper000");
    }

    #[test]
    fn gauge_peak_tracks_maximum() {
        let mut t = tl();
        t.push_gauge("g", 1_000, 1.0);
        t.push_gauge("g", 2_000, 8.0);
        t.push_gauge("g", 3_000, 2.0);
        assert_eq!(t.gauge_peak("g"), Some(8.0));
        assert_eq!(t.gauge_peak("missing"), None);
    }

    #[test]
    #[should_panic(expected = "regressed")]
    fn counter_regression_panics() {
        let mut t = tl();
        t.push_counter("c", 1_000, 5);
        t.push_counter("c", 2_000, 4);
    }

    #[test]
    #[should_panic(expected = "not after")]
    fn stale_timestamp_panics() {
        let mut t = tl();
        t.push_gauge("g", 2_000, 1.0);
        t.push_gauge("g", 2_000, 2.0);
    }
}
