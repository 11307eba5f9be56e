//! Time-series recording for experiment output.
//!
//! Every figure in the paper is either a time trace (bandwidth vs time,
//! sequence number vs time) or a summary over such traces (throughput vs
//! reservation). The [`Recorder`] collects named `(t, value)` series during
//! a run; [`ThroughputMeter`] turns byte-arrival callbacks into a bucketed
//! Kb/s series like the paper's plots.

use crate::time::{SimDelta, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A single named series of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (unweighted). Returns 0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Mean of values with `t` in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    pub fn min(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Render as CSV rows `t,value` (times in seconds).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.points.len() * 16);
        for &(t, v) in &self.points {
            let _ = writeln!(out, "{:.6},{:.3}", t.as_secs_f64(), v);
        }
        out
    }
}

/// A collection of named time series for one simulation run.
#[derive(Debug, Default)]
pub struct Recorder {
    series: BTreeMap<String, TimeSeries>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, name: &str, t: SimTime, v: f64) {
        self.series.entry_mut(name).push(t, v);
    }

    /// The series with the given name, or an empty one if never recorded.
    pub fn series(&self, name: &str) -> TimeSeries {
        self.series.get(name).cloned().unwrap_or_default()
    }
}

trait EntryMut {
    fn entry_mut(&mut self, name: &str) -> &mut TimeSeries;
}
impl EntryMut for BTreeMap<String, TimeSeries> {
    fn entry_mut(&mut self, name: &str) -> &mut TimeSeries {
        if !self.contains_key(name) {
            self.insert(name.to_owned(), TimeSeries::default());
        }
        self.get_mut(name).unwrap()
    }
}

/// Buckets byte arrivals into a bandwidth series, like the paper's
/// "Bandwidth Achieved (Kb/s)" plots.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    bucket: SimDelta,
    bucket_start: SimTime,
    bytes_in_bucket: u64,
    total_bytes: u64,
    first: Option<SimTime>,
    last: SimTime,
    series: Vec<(SimTime, f64)>, // (bucket end, Kb/s over the bucket)
}

impl ThroughputMeter {
    pub fn new(bucket: SimDelta) -> Self {
        assert!(!bucket.is_zero(), "zero bucket width");
        ThroughputMeter {
            bucket,
            bucket_start: SimTime::ZERO,
            bytes_in_bucket: 0,
            total_bytes: 0,
            first: None,
            last: SimTime::ZERO,
            series: Vec::new(),
        }
    }

    /// Record `n` bytes arriving at time `t`. Times must be non-decreasing.
    pub fn on_bytes(&mut self, t: SimTime, n: u64) {
        if self.first.is_none() {
            self.first = Some(t);
            // Align buckets to the first arrival for cleaner leading edges.
            self.bucket_start = t;
        }
        self.flush_to(t);
        self.bytes_in_bucket += n;
        self.total_bytes += n;
        self.last = t;
    }

    fn flush_to(&mut self, t: SimTime) {
        while t >= self.bucket_start + self.bucket {
            let end = self.bucket_start + self.bucket;
            let kbps = (self.bytes_in_bucket as f64 * 8.0 / 1_000.0) / self.bucket.as_secs_f64();
            self.series.push((end, kbps));
            self.bytes_in_bucket = 0;
            self.bucket_start = end;
        }
    }

    /// Close out any partial bucket and return the `(t, Kb/s)` series.
    pub fn finish(mut self, end: SimTime) -> TimeSeries {
        self.flush_to(end);
        let mut ts = TimeSeries::default();
        for (t, v) in self.series {
            ts.push(t, v);
        }
        ts
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_named_series() {
        let mut r = Recorder::new();
        r.add("bw", SimTime::from_secs(1), 10.0);
        r.add("bw", SimTime::from_secs(2), 20.0);
        r.add("other", SimTime::from_secs(1), 1.0);
        assert_eq!(r.series("bw").len(), 2);
        assert_eq!(r.series("bw").mean(), 15.0);
        assert_eq!(r.series("missing").len(), 0);
    }

    #[test]
    fn mean_in_window() {
        let mut ts = TimeSeries::default();
        for s in 0..10 {
            ts.push(SimTime::from_secs(s), s as f64);
        }
        assert_eq!(
            ts.mean_in(SimTime::from_secs(2), SimTime::from_secs(5)),
            3.0
        );
        assert_eq!(
            ts.mean_in(SimTime::from_secs(50), SimTime::from_secs(60)),
            0.0
        );
    }

    #[test]
    fn throughput_meter_buckets_exactly() {
        let mut m = ThroughputMeter::new(SimDelta::from_secs(1));
        // 1250 bytes = 10 Kb in each of two buckets.
        m.on_bytes(SimTime::from_millis(100), 1250);
        m.on_bytes(SimTime::from_millis(1200), 1250);
        let ts = m.finish(SimTime::from_millis(2200));
        assert_eq!(ts.len(), 2);
        assert!((ts.points()[0].1 - 10.0).abs() < 1e-9);
        assert!((ts.points()[1].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_bucket_gaps_emit_zero_buckets() {
        let mut m = ThroughputMeter::new(SimDelta::from_secs(1));
        m.on_bytes(SimTime::from_secs(0), 125);
        m.on_bytes(SimTime::from_secs(5), 125);
        let ts = m.finish(SimTime::from_secs(6));
        // Buckets at 1..=6 seconds; middle ones are zero.
        assert_eq!(ts.len(), 6);
        assert!(ts.points()[2].1 == 0.0 && ts.points()[3].1 == 0.0);
    }
}
