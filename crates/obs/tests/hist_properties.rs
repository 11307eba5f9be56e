//! Property tests of the histogram's determinism contract: the bucket
//! layout is a total, invertible-to-lower-bound mapping, and snapshots
//! are byte-stable whatever the order of observation.

use mpichgq_obs::{bucket_index, bucket_low, Histogram, JsonWriter, NUM_BUCKETS};
use proptest::prelude::*;

fn json(h: &Histogram) -> String {
    let mut w = JsonWriter::new();
    h.write_json(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn bucket_layout_is_total(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < NUM_BUCKETS);
        let low = bucket_low(i);
        prop_assert!(low <= v, "lower bound {low} above value {v}");
        // The reported bound is within 6.25% (one sub-bucket) of the value.
        if v >= 16 {
            prop_assert!((v - low) as u128 * 16 <= low as u128 + 16);
        } else {
            prop_assert_eq!(low, v);
        }
        // Values in the same bucket share a lower bound; the next bucket
        // starts strictly above this one.
        if i + 1 < NUM_BUCKETS {
            prop_assert!(bucket_low(i + 1) > low);
            prop_assert!(v < bucket_low(i + 1));
        }
    }

    #[test]
    fn snapshot_is_insertion_order_independent(
        vs in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut vs = vs;
        let mut fwd = Histogram::new();
        for &v in &vs {
            fwd.observe(v);
        }
        vs.reverse();
        let mut rev = Histogram::new();
        for &v in &vs {
            rev.observe(v);
        }
        prop_assert_eq!(json(&fwd), json(&rev));
    }

    #[test]
    fn quantiles_bound_the_true_order_statistic(
        vs in proptest::collection::vec(0u64..1_000_000_000, 1..100),
        q_pct in 0u64..=100,
    ) {
        let q = q_pct as f64 / 100.0;
        let mut h = Histogram::new();
        for &v in &vs {
            h.observe(v);
        }
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        let rank = ((q * vs.len() as f64).ceil() as usize).clamp(1, vs.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q).unwrap();
        prop_assert!(est <= truth, "estimate {est} above true {truth}");
        // Within one sub-bucket: truth < next bucket boundary above est.
        if truth >= 16 {
            prop_assert!(
                (truth - est) as f64 <= truth as f64 / 16.0 + 1.0,
                "estimate {est} too far below true {truth}"
            );
        } else {
            prop_assert_eq!(est, truth);
        }
    }
}
