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
//! Sampling is cheap enough to leave on because an instant writes its
//! series in the order the previous instant did. A write first compares
//! its key — the `(Scope, leaf)` parts, or the name's text — with the
//! series at the next position of that order; only when they differ (a
//! series appeared, vanished, or moved) does it fall back to the hash maps,
//! and it resumes the order after the series it found. And a series
//! sampled at every instant since its first keeps no timestamps of its
//! own: it reads them from the one column of instants the timeline has
//! written.

use crate::json::JsonWriter;
use crate::metrics::{MetricSink, Scope};
use crate::names::Names;
use mpichgq_sim::FxHashMap;
use std::hash::{Hash, Hasher};

#[cfg(test)]
mod reference;

/// What a series measures: a cumulative monotone count or a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Absolute monotone totals (samples never decrease).
    Counter,
    /// Instantaneous levels (queue depths, bucket fills, burn rates).
    Gauge,
}

/// [`Series::first`] of a series that keeps its own timestamps.
const OWN_TIMES: u32 = u32::MAX;

/// Room a column gets at its first sample: a fuzz run's ~16-instant grid
/// fits, where `Vec`'s own growth would reallocate at 4, 8 and 16.
const FIRST_COLUMN: usize = 16;

#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    /// Set when a dedicated sampler owns this series. The registry sweep
    /// skips live series, so a stale registry copy published mid-run can
    /// never push a non-monotone sample under a sampler-owned name.
    live: bool,
    /// While the series has been sampled at every instant since its first,
    /// the index of that first instant in [`Timeline::ticks`]: its
    /// timestamps are `ticks[first..first + len]` and `t_ns` stays empty.
    /// [`OWN_TIMES`] once it skipped an instant.
    first: u32,
    /// Where in its instant's write order the series was last written.
    pos: u32,
    /// The parts a [`Tick`] last reached this series by.
    parts: Option<Parts>,
    /// Own timestamps (only when `first == OWN_TIMES`).
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
            first: 0,
            pos: u32::MAX,
            parts: None,
            t_ns: Vec::new(),
            u: Vec::new(),
            f: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        match self.kind {
            SeriesKind::Counter => self.u.len(),
            SeriesKind::Gauge => self.f.len(),
        }
    }

    /// The sample timestamps, given the timeline's column of instants.
    fn times<'a>(&'a self, ticks: &'a [u64]) -> &'a [u64] {
        if self.first == OWN_TIMES {
            &self.t_ns
        } else {
            let first = self.first as usize;
            &ticks[first..first + self.len()]
        }
    }
}

/// A set of named series on one sampling grid. See the module docs.
#[derive(Debug, Default)]
pub struct Timeline {
    interval_ns: u64,
    names: Names,
    series: Vec<Series>,
    /// Series a [`Tick`] was handed in parts, found again without a name.
    by_parts: FxHashMap<Parts, u32>,
    /// Every instant written so far, ascending: the shared time column.
    ticks: Vec<u64>,
    /// Series in the order the previous instant wrote them.
    prev: Vec<u32>,
    /// Series in the order the current instant is writing them.
    cur: Vec<u32>,
    /// The position in `prev` the next write is expected at.
    cursor: usize,
    /// Where a name built from parts is formatted.
    scratch: String,
}

/// A [`Scope`] and leaf by identity. `'static` text never changes, so equal
/// address and length is equal text, and a key of integers compares and
/// hashes in a few instructions where the name would be formatted and
/// hashed byte by byte. Equal text at two addresses is two keys, resolved
/// by name to one series.
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
        let idx = self
            .tl
            .locate_in(scope, leaf, self.t_ns, SeriesKind::Counter);
        self.tl.push_counter_at(idx, self.t_ns, total);
    }
    fn gauge_in(&mut self, scope: Scope, leaf: &'static str, v: f64) {
        let idx = self.tl.locate_in(scope, leaf, self.t_ns, SeriesKind::Gauge);
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
        let (i, new) = self.names.intern(name);
        if new {
            self.series.push(Series::new(kind, live));
        }
        i
    }

    /// The series a write at `t_ns` goes to: the one at the cursor when
    /// `at_cursor` accepts it, else whatever `find` returns. Either way the
    /// write is appended to this instant's order, and the cursor moves past
    /// the series' place in the previous one.
    #[inline]
    fn locate(
        &mut self,
        t_ns: u64,
        at_cursor: impl FnOnce(&Timeline, usize) -> bool,
        find: impl FnOnce(&mut Timeline) -> usize,
    ) -> usize {
        if self.ticks.last().is_none_or(|&last| t_ns > last) {
            // A new instant: what the last one wrote is the order to expect.
            push_sample(&mut self.ticks, t_ns);
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.cur.clear();
            self.cur.reserve(self.prev.len());
            self.cursor = 0;
        }
        let idx = match self.prev.get(self.cursor) {
            Some(&i) if at_cursor(self, i as usize) => {
                self.cursor += 1;
                i as usize
            }
            _ => {
                let i = find(self);
                let pos = self.series[i].pos as usize;
                if self.prev.get(pos) == Some(&(i as u32)) {
                    self.cursor = pos + 1;
                }
                i
            }
        };
        self.series[idx].pos = self.cur.len() as u32;
        self.cur.push(idx as u32);
        idx
    }

    /// [`Timeline::locate`] by name.
    fn locate_name(&mut self, name: &str, t_ns: u64, kind: SeriesKind, live: bool) -> usize {
        self.locate(
            t_ns,
            |tl, i| tl.names.at(i) == name,
            |tl| tl.index_of(name, kind, live),
        )
    }

    /// [`Timeline::locate`] by identity; on first sight, by the built name.
    fn locate_in(
        &mut self,
        scope: Scope,
        leaf: &'static str,
        t_ns: u64,
        kind: SeriesKind,
    ) -> usize {
        let key = Parts::new(scope, leaf);
        self.locate(
            t_ns,
            |tl, i| tl.series[i].parts == Some(key),
            |tl| {
                let idx = match tl.by_parts.get(&key) {
                    Some(&i) => i as usize,
                    None => {
                        let mut name = std::mem::take(&mut tl.scratch);
                        scope.write_name(leaf, &mut name);
                        let idx = tl.index_of(&name, kind, true);
                        tl.scratch = name;
                        tl.by_parts.insert(key, idx as u32);
                        idx
                    }
                };
                tl.series[idx].parts = Some(key);
                idx
            },
        )
    }

    /// Series `idx` checked to be of `kind`, with its name and the shared
    /// time column; panics unless it is of `kind`.
    fn series_at(&mut self, idx: usize, kind: SeriesKind) -> (&mut Series, &str, &[u64]) {
        let (s, name) = (&mut self.series[idx], self.names.at(idx));
        assert_eq!(
            s.kind, kind,
            "series {name} already registered with the other kind"
        );
        (s, name, &self.ticks)
    }

    /// Record a counter sample from a dedicated sampler. Marks the series
    /// live (the registry sweep will skip it from now on). Panics if the
    /// timestamp does not advance or the value regresses.
    pub fn push_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let idx = self.locate_name(name, t_ns, SeriesKind::Counter, true);
        self.push_counter_at(idx, t_ns, v);
    }

    fn push_counter_at(&mut self, idx: usize, t_ns: u64, v: u64) {
        let (s, name, ticks) = self.series_at(idx, SeriesKind::Counter);
        s.live = true;
        push_u(s, name, ticks, t_ns, v);
    }

    /// Record a gauge sample from a dedicated sampler (marks the series
    /// live). Panics if the timestamp does not advance.
    pub fn push_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let idx = self.locate_name(name, t_ns, SeriesKind::Gauge, true);
        self.push_gauge_at(idx, t_ns, v);
    }

    fn push_gauge_at(&mut self, idx: usize, t_ns: u64, v: f64) {
        let (s, name, ticks) = self.series_at(idx, SeriesKind::Gauge);
        s.live = true;
        push_f(s, name, ticks, t_ns, v);
    }

    /// Record a counter sample from the registry sweep. No-op when a
    /// dedicated sampler owns the series (see [`Timeline::push_counter`])
    /// or when `t_ns` was already sampled.
    pub fn sweep_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let idx = self.locate_name(name, t_ns, SeriesKind::Counter, false);
        let (s, name, ticks) = self.series_at(idx, SeriesKind::Counter);
        if !s.live && s.times(ticks).last() != Some(&t_ns) {
            push_u(s, name, ticks, t_ns, v);
        }
    }

    /// Record a gauge sample from the registry sweep (see
    /// [`Timeline::sweep_counter`] for the live-series rule).
    pub fn sweep_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let idx = self.locate_name(name, t_ns, SeriesKind::Gauge, false);
        let (s, name, ticks) = self.series_at(idx, SeriesKind::Gauge);
        if !s.live && s.times(ticks).last() != Some(&t_ns) {
            push_f(s, name, ticks, t_ns, v);
        }
    }

    /// Series names in registration order (JSON output sorts them).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter()
    }

    /// A counter series' `(timestamps, values)` columns, if it exists.
    pub fn counter(&self, name: &str) -> Option<(&[u64], &[u64])> {
        let s = &self.series[self.names.get(name)?];
        (s.kind == SeriesKind::Counter).then(|| (s.times(&self.ticks), &s.u[..]))
    }

    /// A gauge series' `(timestamps, values)` columns, if it exists.
    pub fn gauge(&self, name: &str) -> Option<(&[u64], &[f64])> {
        let s = &self.series[self.names.get(name)?];
        (s.kind == SeriesKind::Gauge).then(|| (s.times(&self.ticks), &s.f[..]))
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
        for i in self.names.sorted() {
            let s = &self.series[i];
            let t_ns = s.times(&self.ticks);
            w.key(self.names.at(i));
            w.begin_object();
            w.key("kind");
            w.string(match s.kind {
                SeriesKind::Counter => "counter",
                SeriesKind::Gauge => "gauge",
            });
            w.key("t0_ns");
            match t_ns.first() {
                Some(&t0) => w.u64(t0),
                None => w.raw("null"),
            }
            w.key("dt_ns");
            w.begin_array();
            for pair in t_ns.windows(2) {
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

    /// The timeline document (`{"timeline":1,…}`) as a fresh string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Stamp the next sample of `s` with `t_ns`, which must be after its
/// last. The series keeps reading the shared column while `t_ns` is the
/// instant after its last there; otherwise it copies its timestamps out.
fn push_time(s: &mut Series, name: &str, ticks: &[u64], t_ns: u64) {
    let n = s.len();
    if s.first != OWN_TIMES {
        let next = s.first as usize + n;
        if n == 0 && ticks.last() == Some(&t_ns) {
            s.first = (ticks.len() - 1) as u32;
            return;
        }
        if n > 0 && ticks.get(next) == Some(&t_ns) {
            return;
        }
        let mut own = Vec::with_capacity((n + 1).max(FIRST_COLUMN));
        own.extend_from_slice(&ticks[next - n..next]);
        s.t_ns = own;
        s.first = OWN_TIMES;
    }
    if let Some(&last) = s.t_ns.last() {
        assert!(
            t_ns > last,
            "series {name}: timestamp {t_ns} not after {last}"
        );
    }
    s.t_ns.push(t_ns);
}

/// Append counter sample `v` at `t_ns` (panics if it regresses).
fn push_u(s: &mut Series, name: &str, ticks: &[u64], t_ns: u64, v: u64) {
    if let Some(&prev) = s.u.last() {
        assert!(v >= prev, "counter series {name} regressed: {prev} -> {v}");
    }
    push_time(s, name, ticks, t_ns);
    push_sample(&mut s.u, v);
}

/// Append gauge sample `v` at `t_ns`.
fn push_f(s: &mut Series, name: &str, ticks: &[u64], t_ns: u64, v: f64) {
    push_time(s, name, ticks, t_ns);
    push_sample(&mut s.f, v);
}

/// Append to a column, giving it [`FIRST_COLUMN`] entries of room first.
fn push_sample<T>(column: &mut Vec<T>, v: T) {
    if column.capacity() == 0 {
        column.reserve_exact(FIRST_COLUMN);
    }
    column.push(v);
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

    #[test]
    fn a_series_sampled_at_every_instant_reads_the_shared_column() {
        let mut t = tl();
        for i in 1..=20u64 {
            let mut k = t.tick(i * 1_000);
            k.counter_in(IFACE7, "enq_ef", i);
            if i % 5 != 0 {
                k.gauge("skips", i as f64); // not at instants 5, 10, 15, 20
            }
            if i >= 12 {
                k.counter("late", i); // appears mid-run
            }
        }
        let s = |name: &str| &t.series[t.names.get(name).unwrap()];
        for name in ["iface007.enq_ef", "late"] {
            assert_ne!(s(name).first, OWN_TIMES, "{name}");
            assert_eq!(s(name).t_ns.capacity(), 0, "{name}: no own timestamps");
        }
        assert_eq!(s("skips").first, OWN_TIMES);
        assert_eq!(t.ticks.len(), 20, "one column of instants");
        let late: Vec<u64> = (12..=20).map(|i| i * 1_000).collect();
        assert_eq!(t.counter("late").unwrap().0, &late[..]);
        let (ts, vs) = t.gauge("skips").unwrap();
        assert_eq!((ts.len(), vs.len()), (16, 16));
        assert_eq!(ts[3..5], [4_000, 6_000]);
    }

    #[test]
    fn a_steady_instant_takes_no_hash_lookup() {
        let write = |t: &mut Timeline, i: u64| {
            let at = i * 1_000;
            let mut k = t.tick(at);
            for n in 0..8 {
                k.counter_in(Scope::new("iface", n), "tx_packets", i);
            }
            k.gauge(&format!("shard{:02}.pending_events", 1), i as f64);
            t.sweep_counter("tcp.segs_sent", at, i);
            t.sweep_counter("iface003.tx_packets", at, 0); // live: skipped
            t.tick(at)
                .counter_in(IFACE7.sub("rule", 2), "policed_pkts", i);
            t.push_gauge("slo.burn.fast", at, 0.5);
        };
        let mut t = tl();
        write(&mut t, 1);
        write(&mut t, 2);
        // With every key forgotten, a write that needed a lookup would
        // register a second series under its name.
        t.names.forget();
        t.by_parts.clear();
        write(&mut t, 3);
        assert_eq!(t.series_count(), 12);
        assert!(t.series.iter().all(|s| s.len() == 3));
        assert_eq!(t.cursor, t.prev.len());
    }

    use mpichgq_sim::SimRng;
    use std::collections::{HashMap, HashSet};

    /// One write of a random tick program, replayed on both timelines.
    #[derive(Debug, Clone)]
    enum Op {
        /// `tick(t).counter_in` / `gauge_in`.
        Parts(u64, Scope, &'static str, Val),
        /// `tick(t).counter` / `gauge`, the name formatted at the call.
        Named(u64, String, Val),
        /// `push_counter` / `push_gauge`.
        Push(u64, String, Val),
        /// `sweep_counter` / `sweep_gauge`.
        Sweep(u64, String, Val),
    }

    #[derive(Debug, Clone, Copy)]
    enum Val {
        C(u64),
        G(f64),
    }

    macro_rules! replay {
        ($tl:expr, $ops:expr) => {
            for op in $ops {
                match op.clone() {
                    Op::Parts(t, scope, leaf, Val::C(v)) => $tl.tick(t).counter_in(scope, leaf, v),
                    Op::Parts(t, scope, leaf, Val::G(v)) => $tl.tick(t).gauge_in(scope, leaf, v),
                    Op::Named(t, name, Val::C(v)) => $tl.tick(t).counter(&name.clone(), v),
                    Op::Named(t, name, Val::G(v)) => $tl.tick(t).gauge(&name.clone(), v),
                    Op::Push(t, name, Val::C(v)) => $tl.push_counter(&name, t, v),
                    Op::Push(t, name, Val::G(v)) => $tl.push_gauge(&name, t, v),
                    Op::Sweep(t, name, Val::C(v)) => $tl.sweep_counter(&name, t, v),
                    Op::Sweep(t, name, Val::G(v)) => $tl.sweep_gauge(&name, t, v),
                }
            }
        };
    }

    /// A series of the program: its scope and leaf, how it is written, and
    /// the instants `[born, dies)` it is written at.
    struct Spec {
        scope: Scope,
        leaf: &'static str,
        /// 0: parts; 1: the formatted name; 2: alternating; 3: parts with
        /// the leaf's text at another address.
        mode: u64,
        alt_leaf: &'static str,
        /// Written by the handler's tick rather than the core one.
        handler: bool,
        born: u64,
        dies: u64,
    }

    const KINDS: [&str; 3] = ["iface", "node", "host"];
    const SUBS: [&str; 2] = ["rule", "shaper"];
    /// Counters first, then gauges: a leaf fixes the kind of its series.
    const LEAVES: [&str; 6] = [
        "enq_ef",
        "tx_packets",
        "passed",
        "backlog_bytes",
        "level",
        "hw_ef_bytes",
    ];

    /// The next sample of `name`: counters climb, gauges wander.
    fn val(rng: &mut SimRng, totals: &mut HashMap<String, u64>, name: &str) -> Val {
        let leaf = name.rsplit('.').next().unwrap_or_default();
        if LEAVES[3..].contains(&leaf) || leaf == "inbox_depth" {
            return Val::G(rng.below(1_000) as f64 / 8.0);
        }
        let v = totals
            .get_mut(name)
            .expect("every counter starts at the base");
        *v += rng.below(4);
        Val::C(*v)
    }

    /// Spec `s`'s write at instant `k`, stamped `t`.
    fn write(rng: &mut SimRng, totals: &mut HashMap<String, u64>, t: u64, s: &Spec, k: u64) -> Op {
        let name = format!("{}.{}", s.scope, s.leaf);
        let v = val(rng, totals, &name);
        match (s.mode, k % 2) {
            (1, _) | (2, 1) => Op::Named(t, name, v),
            (3, 1) => Op::Parts(t, s.scope, s.alt_leaf, v),
            _ => Op::Parts(t, s.scope, s.leaf, v),
        }
    }

    /// A random tick program on a 1 µs grid: series appear and vanish, the
    /// write order changes now and then, every instant has a core tick, a
    /// registry sweep, a handler tick and the burn gauges, some instants
    /// are followed by an off-grid shard-window tick with names formatted
    /// into temporaries, and the program ends at an off-grid final instant.
    fn program(rng: &mut SimRng, t0: u64, instants: u64, base: u64) -> Vec<Op> {
        let mut specs = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..rng.range(3, 40) {
            let mut scope = Scope::new(KINDS[rng.below(3) as usize], rng.below(12));
            if rng.chance(0.4) {
                scope = scope.sub(SUBS[rng.below(2) as usize], rng.below(4));
            }
            let leaf = LEAVES[rng.below(6) as usize];
            if !seen.insert(format!("{scope}.{leaf}")) {
                continue;
            }
            let born = if rng.chance(0.5) {
                0
            } else {
                rng.below(instants)
            };
            let dies = if rng.chance(0.7) {
                u64::MAX
            } else {
                born + 1 + rng.below(instants)
            };
            specs.push(Spec {
                scope,
                leaf,
                mode: rng.below(4),
                alt_leaf: String::from(leaf).leak(),
                handler: rng.chance(0.2),
                born,
                dies,
            });
        }
        // Registry names the sweep carries: some are series the core tick
        // owns (a handler-owned one would be swept before its own write).
        let mut swept: Vec<String> = ["tcp.segs_sent", "mpi.sends", "gara.level"]
            .map(String::from)
            .to_vec();
        swept.extend(
            specs
                .iter()
                .filter(|s| !s.handler && rng.chance(0.2))
                .map(|s| format!("{}.{}", s.scope, s.leaf)),
        );
        let mut totals = HashMap::new();
        for name in &swept {
            totals.insert(name.clone(), base);
        }
        for s in &specs {
            totals.insert(format!("{}.{}", s.scope, s.leaf), base);
        }
        for shard in 0..2 {
            totals.insert(format!("shard{shard:02}.windows"), base);
        }
        let mut ops = Vec::new();
        let mut order: Vec<usize> = (0..specs.len()).collect();
        for k in 0..instants {
            let t = t0 + (k + 1) * 1_000;
            if rng.chance(0.2) {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            let live = |s: &Spec| s.born <= k && k < s.dies;
            for &i in &order {
                if live(&specs[i]) && !specs[i].handler {
                    ops.push(write(rng, &mut totals, t, &specs[i], k));
                }
            }
            for name in &swept {
                let v = val(rng, &mut totals, name);
                ops.push(Op::Sweep(t, name.clone(), v));
            }
            for &i in &order {
                if live(&specs[i]) && specs[i].handler {
                    ops.push(write(rng, &mut totals, t, &specs[i], k));
                }
            }
            for name in ["slo.burn.fast", "slo.burn.slow"] {
                ops.push(Op::Push(t, name.into(), Val::G(rng.below(3) as f64)));
            }
            if rng.chance(0.3) {
                let shard = rng.below(2);
                let p = format!("shard{shard:02}");
                let name = format!("{p}.windows");
                let v = val(rng, &mut totals, &name);
                ops.push(Op::Named(t + 500, name, v));
                let v = Val::G(rng.below(9) as f64);
                ops.push(Op::Named(t + 500, format!("{p}.inbox_depth"), v));
            }
        }
        let end = t0 + instants * 1_000 + 700;
        for s in specs.iter().filter(|s| s.dies == u64::MAX) {
            ops.push(write(rng, &mut totals, end, s, 0));
        }
        ops
    }

    /// Every read-out of `a` (positional) and `b` (hash-keyed) agrees.
    fn assert_agree(a: &Timeline, b: &reference::Timeline, rng: &mut SimRng) {
        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<&str> = a.names().collect();
        assert_eq!(names, b.names().collect::<Vec<_>>());
        for name in names.iter().copied().chain(["missing"]) {
            assert_eq!(a.counter(name), b.counter(name), "{name}");
            assert_eq!(a.gauge(name), b.gauge(name), "{name}");
            for _ in 0..4 {
                let t = rng.below(60_000);
                assert_eq!(a.counter_at(name, t), b.counter_at(name, t), "{name} @ {t}");
            }
        }
    }

    #[test]
    fn random_tick_programs_read_as_the_hash_keyed_reference() {
        let mut rng = SimRng::new(0x7157);
        for _ in 0..120 {
            let instants = rng.range(1, 40);
            let pa = program(&mut rng, 0, instants, 0);
            let (mut a, mut ra) = (tl(), reference::Timeline::new(1_000));
            replay!(a, &pa);
            replay!(ra, &pa);
            assert_agree(&a, &ra, &mut rng);
            // Counters of the continuation start above anything written.
            let more = program(&mut rng, 60_000, 3, 1 << 20);
            replay!(a, &more);
            replay!(ra, &more);
            assert_agree(&a, &ra, &mut rng);
        }
    }
}
