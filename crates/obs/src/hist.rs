//! Deterministic log-bucketed streaming histograms (HDR-style).
//!
//! Latency distributions are the paper's core evidence (Figures 7–8 are
//! deadline-miss plots), so the observability layer needs quantiles, not
//! just counters. This histogram trades a bounded relative error for a
//! **fixed bucket layout**: the bucket boundaries are a pure function of
//! the value, independent of insertion order or data range, which makes
//! snapshots byte-stable.
//!
//! ## Bucket layout
//!
//! Values are `u64` (nanoseconds by convention). Each octave `[2^k, 2^(k+1))`
//! for `k >= 4` is split into 16 linear sub-buckets, so the relative error
//! of a bucket's lower bound is at most 1/16 ≈ 6.25%. Values below 16 get
//! exact unit buckets. Concretely:
//!
//! * `v < 16` → bucket index `v` (exact).
//! * otherwise, with `msb = 63 - v.leading_zeros()` (so `2^msb <= v`),
//!   the index is `(msb - 3) * 16 + ((v >> (msb - 4)) - 16)`.
//!
//! This yields [`NUM_BUCKETS`] = 976 buckets covering the full `u64` range.
//! [`bucket_low`] inverts the mapping to the bucket's lower bound, which is
//! what quantile queries report (so `p99` is a conservative lower bound
//! within 6.25% of the true order statistic).
//!
//! ## Determinism
//!
//! * Counts are integers; `sum`, `min`, `max` are exact.
//! * Quantiles depend only on the multiset of observations, never on
//!   their order (a property test pins this).
//! * [`Histogram::write_json`] emits only non-empty buckets, sorted by
//!   index, through the deterministic [`JsonWriter`] — two identical runs
//!   produce byte-identical snapshots.

use crate::json::JsonWriter;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
/// Number of linear sub-buckets per octave (16 → ≤6.25% relative error).
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total number of buckets in the fixed layout.
///
/// Octave 4 (values 16..32) starts at index 16; the final octave is
/// `msb = 63`, whose last sub-bucket has index `(63-3)*16 + 15 = 975`.
pub const NUM_BUCKETS: usize = 976;

/// Map a value to its bucket index. Pure function of `v`; total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // 2^msb <= v < 2^(msb+1)
    let sub = (v >> (msb - SUB_BITS as u64)) - SUB_COUNT; // 0..16
    ((msb - 3) * SUB_COUNT + sub) as usize
}

/// Lower bound of bucket `i` (the value quantile queries report).
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        return i;
    }
    let octave = i / SUB_COUNT + 3; // msb of values in this bucket
    let sub = i % SUB_COUNT;
    (SUB_COUNT + sub) << (octave - SUB_BITS as u64)
}

/// A streaming histogram with the fixed log-bucket layout described in the
/// module docs. `Default` is an empty histogram.
///
/// Only the buckets up to the largest index observed are stored: an empty
/// histogram owns no heap, and one holding delays below a second stores a
/// few hundred counters, not [`NUM_BUCKETS`]. Every read treats a bucket
/// past the stored ones as zero, so the layout is unchanged.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of buckets `0..buckets.len()`; the rest are zero.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The quantile `q` in `[0, 1]`: the lower bound of the bucket holding
    /// the observation of rank `ceil(q * count)` (rank 1 minimum). Returns
    /// `None` when empty. Exact for values < 16; otherwise a lower bound
    /// within 6.25% of the true order statistic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_low(i));
            }
        }
        // Unreachable: the loop covers all `count` observations.
        Some(bucket_low(NUM_BUCKETS - 1))
    }

    /// Non-empty buckets as `(lower_bound, count)`, index order.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
    }

    /// Write `{"count": .., "sum": .., "min": .., "max": .., "p50": ..,
    /// "p90": .., "p99": .., "buckets": [[low, count], ...]}`. An empty
    /// histogram writes zero stats and an empty bucket array; `min`/`max`
    /// and the quantiles are omitted when empty.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count");
        w.u64(self.count);
        w.key("sum");
        w.u64(self.sum);
        if self.count > 0 {
            w.key("min");
            w.u64(self.min);
            w.key("max");
            w.u64(self.max);
            w.key("p50");
            w.u64(self.quantile(0.50).unwrap());
            w.key("p90");
            w.u64(self.quantile(0.90).unwrap());
            w.key("p99");
            w.u64(self.quantile(0.99).unwrap());
        }
        w.key("buckets");
        w.begin_array();
        for (low, c) in self.nonzero_buckets() {
            w.begin_array();
            w.u64(low);
            w.u64(c);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_total_and_monotonic() {
        // Every representative value maps into range and bucket_low inverts
        // to a bound at or below the value, within 1/16 relative error.
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000_007,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let low = bucket_low(i);
            assert!(low <= v, "bucket_low({i})={low} > {v}");
            if v >= 16 {
                // The next bucket's lower bound is at most 1/16 above.
                assert!((v - low) as f64 <= low as f64 / 16.0 + 1.0);
            } else {
                assert_eq!(low, v, "unit buckets must be exact");
            }
        }
        // Bucket lower bounds strictly increase with the index.
        for i in 1..NUM_BUCKETS {
            assert!(bucket_low(i) > bucket_low(i - 1), "non-monotonic at {i}");
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // A bucket's own lower bound must map back to that bucket.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_of_exact_values() {
        let mut h = Histogram::new();
        for v in 0..10u64 {
            h.observe(v); // all < 16 → exact buckets
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(4)); // rank 5 → value 4
        assert_eq!(h.quantile(1.0), Some(9));
    }

    #[test]
    fn storage_reaches_only_the_largest_bucket_seen() {
        let json = |h: &Histogram| {
            let mut w = JsonWriter::new();
            h.write_json(&mut w);
            w.finish()
        };
        let mut small = Histogram::new();
        assert_eq!(small.buckets.capacity(), 0, "empty: no heap");
        small.observe(3);
        small.observe(3);
        assert_eq!(small.buckets.len(), 4);
        let top = bucket_index(1 << 40);
        // A larger value grows the storage to its bucket, whatever came first.
        let mut big = Histogram::new();
        big.observe(1 << 40);
        big.observe(5);
        assert_eq!(big.buckets.len(), top + 1);
        small.observe(1 << 40);
        small.observe(5);
        assert_eq!(small.buckets.len(), top + 1);
        big.observe(3);
        big.observe(3);
        assert_eq!(json(&small), json(&big));
        assert_eq!(small.quantile(0.5), Some(3));
        assert_eq!(small.quantile(1.0), Some(bucket_low(top)));
        let buckets: Vec<_> = small.nonzero_buckets().collect();
        assert_eq!(buckets, [(3, 2), (5, 1), (bucket_low(top), 1)]);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"count\":0,\"sum\":0,\"buckets\":[]}",
            "empty snapshot layout is part of the schema"
        );
    }
}
