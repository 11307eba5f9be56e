//! Parallel-engine acceptance: the sharded conservative-lookahead runtime
//! (DESIGN.md §13) must be invisible in the results. Genuinely
//! partitioned multi-island scenarios fingerprint identically at 1, 2,
//! and 4 worker threads.
//!
//! The unit-level partition validation (zero-delay cross links rejected,
//! degenerate maps rejected, merge-rule determinism, a panicking shard
//! failing the run) and the check that `Net::run_until` is independent of
//! call granularity live with the engine in `crates/netsim/src/shard.rs`.

use mpichgq::qcheck::run_par_scenario;

#[test]
fn partitioned_scenarios_fingerprint_identically_across_thread_counts() {
    for seed in 4..8 {
        let one = run_par_scenario(seed, 1);
        assert!(one.shards >= 2, "seed {seed} did not partition");
        for threads in [2, 4] {
            let n = run_par_scenario(seed, threads);
            assert_eq!(
                (one.fingerprint, one.events, one.shards),
                (n.fingerprint, n.events, n.shards),
                "seed {seed}: {threads}-thread partitioned run diverged"
            );
        }
    }
}
