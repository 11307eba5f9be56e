//! The qcheck pinned corpus (DESIGN.md §12): the invariant battery
//! applied to the canonical paper scenarios and to a fixed seed range of
//! fuzzed scenarios, plus the end-to-end failure pipeline (inject →
//! detect → shrink → artifact → bit-identical replay) exercised against
//! the deliberately re-introducible Karn bug.
//!
//! Every snapshot-level check here runs the same identities the live
//! auditor enforces, but from published counters/gauges alone — so any
//! experiment's `metrics.json` can be audited after the fact.

use mpichgq::qcheck::{
    audit_metrics_json, build, parse_repro, replay, repro_json, run_spec, shrink, Inject,
    ScenarioSpec,
};
use mpichgq_bench::{
    chaos_ranks_run, chaos_run, fig1_tcp_sawtooth, fig7_seq_trace, ChaosCfg, ChaosRanksCfg,
    Fig1Cfg, Observe,
};
use mpichgq_sim::SimTime;

/// A flight-recorder ring of `trace_capacity`, sampled every 100 ms.
fn observed(trace_capacity: usize) -> Observe {
    Observe {
        trace_capacity,
        ..Observe::FIGURE
    }
}

fn fig1_cfg() -> Fig1Cfg {
    Fig1Cfg {
        duration: SimTime::from_secs(5),
        ..Fig1Cfg::default()
    }
}

#[test]
fn fig1_snapshot_satisfies_the_conservation_battery() {
    let (_, m) = fig1_tcp_sawtooth(fig1_cfg(), observed(256));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "fig1 snapshot violations: {viols:?}");
}

#[test]
fn fig7_snapshot_satisfies_the_conservation_battery() {
    let (_, m) = fig7_seq_trace(10.0, SimTime::from_secs(3), observed(256));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "fig7 snapshot violations: {viols:?}");
}

#[test]
fn chaos_snapshot_satisfies_the_conservation_battery() {
    let (_, m, _) = chaos_run(ChaosCfg::fast(), observed(2048));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "chaos snapshot violations: {viols:?}");
}

#[test]
fn chaos_ranks_snapshot_satisfies_the_conservation_battery() {
    let (m, _) = chaos_ranks_run(ChaosRanksCfg::fast(), observed(2048));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(
        viols.is_empty(),
        "chaos_ranks snapshot violations: {viols:?}"
    );
}

/// The same audit, after the fact, on the full-resolution snapshot the
/// repo ships — whose crashes (unlike the fast schedule's) purge packets
/// into `faults.drops.host_down`, the cause a hand-kept list once missed.
#[test]
fn committed_chaos_ranks_snapshot_satisfies_the_conservation_battery() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/chaos_ranks/metrics.json"
    );
    let doc = std::fs::read_to_string(path).expect("committed snapshot is readable");
    let viols = audit_metrics_json(&doc).expect("snapshot parses");
    assert!(viols.is_empty(), "committed snapshot violations: {viols:?}");
}

/// The pinned fuzz corpus: these seeds ran clean when the suite was
/// written and must stay clean. A failure here is a real regression in
/// some layer's bookkeeping (or a nondeterminism leak), not fuzz noise.
#[test]
fn pinned_seed_corpus_runs_clean() {
    for seed in 0..16 {
        let out = run_spec(&ScenarioSpec::from_seed(seed), &Inject::default());
        assert!(
            out.ok(),
            "seed {seed} violated {:?}",
            out.violations.first()
        );
        assert!(out.events > 0, "seed {seed} simulated nothing");
    }
}

/// Fingerprint values pinned at the moment the slot table moved from a
/// flat re-scan to the interval tree (PR 7), captured from the flat
/// implementation. The GARA script scenarios in this corpus exercise
/// reserve/modify/cancel/revoke through the broker on every seed, so
/// these staying bit-identical is the "the swap changed no observable
/// behavior" acceptance check — and any future admission change that
/// alters grant/reject decisions will trip it loudly.
///
/// Since the queue-discipline refactor this doubles as the strict-priority
/// bit-identicality proof: `qdisc` is pinned to 0 (the legacy SP +
/// drop-tail path, which draws nothing from the `"qdisc"` RNG stream), so
/// these fingerprints matching means the pluggable-discipline rebuild of
/// the queue layer changed no observable behavior under the default.
///
/// The fingerprint column is physics only. It was re-pinned once, on the
/// commit whose only change was dropping the event count from the hash
/// (the `events` column did not move on that commit), and must not move
/// again for engine work; the `events` column is the run's schedule cost
/// and may be re-pinned downwards when no-op events stop being simulated.
#[test]
fn pinned_corpus_fingerprints_are_unchanged_by_the_interval_tree_swap() {
    const PINNED: [(u64, u64, u64); 16] = [
        (0, 0xe91cf642f0ab873d, 13977),
        (1, 0x0de1bb3d4a4caed4, 2054),
        (2, 0xed00eb4be6640167, 4451),
        (3, 0xa78a8004bab4e890, 11303),
        (4, 0x7f14198ed61b6098, 8292),
        (5, 0x0be848e4d5d88d8c, 10418),
        (6, 0x4e9e029db0d980dc, 2019),
        (7, 0x2e82f8b0c85fbbf7, 6069),
        (8, 0x426eb477160d6812, 4967),
        (9, 0x1331e41ae4708382, 9727),
        (10, 0x615d00207b30dca9, 3776),
        (11, 0x962fefc593d53eb6, 12087),
        (12, 0x28003028e02ed4a8, 6978),
        (13, 0xc64415709defef5e, 7202),
        (14, 0xd62069ea4dde9d95, 625),
        (15, 0x9cf0b78e86554408, 6610),
    ];
    for (seed, fingerprint, events) in PINNED {
        let mut spec = ScenarioSpec::from_seed(seed);
        spec.knobs.qdisc = 0;
        // Likewise pinned to zero since the rank-failure work: crash-free
        // scenarios draw nothing from the "hostfaults" stream, so these
        // fingerprints also prove the crash/restart machinery is inert
        // when unarmed.
        spec.knobs.host_faults = 0;
        let out = run_spec(&spec, &Inject::default());
        assert_eq!(
            out.fingerprint, fingerprint,
            "seed {seed}: fingerprint drifted from the pinned pre-swap value"
        );
        assert_eq!(out.events, events, "seed {seed}: event count drifted");
    }
}

/// A fuzz scenario traces with a span bound of 0: the battery's
/// `lifecycle_histogram` and `lifecycle_delivered` read the tracer's
/// flows, so they must stay armed while the span log keeps nothing.
#[test]
fn fuzzed_scenarios_trace_flows_but_keep_no_spans() {
    let built = build(&ScenarioSpec::from_seed(0), &Inject::default());
    let mut sim = built.sim;
    sim.run_until(built.t_end);
    let tracer = sim.net.packet_tracer().expect("fuzz scenarios trace");
    assert!(tracer.spans().is_empty());
    assert!(tracer.spans_dropped() > 0, "seed 0 carried no traffic");
    assert!(!tracer.flows().is_empty());
    let delivered: u64 = tracer.flows().iter().map(|f| f.delivered).sum();
    assert_eq!(delivered, sim.net.audit().delivered);
}

#[test]
fn fuzzed_scenarios_are_bit_identical_across_runs() {
    for seed in [3, 7, 13] {
        let spec = ScenarioSpec::from_seed(seed);
        let a = run_spec(&spec, &Inject::default());
        let b = run_spec(&spec, &Inject::default());
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} diverged");
        assert_eq!(a.events, b.events);
    }
}

/// The acceptance pipeline: re-introduce the Karn bug via the injection
/// switch (no source patch), prove the fuzzer convicts it, shrink the
/// scenario, and replay the artifact bit-identically.
#[test]
fn injected_karn_bug_is_convicted_shrunk_and_replayable() {
    let inject = Inject { karn: true };
    let out = (0..40)
        .map(|s| run_spec(&ScenarioSpec::from_seed(s), &inject))
        .find(|o| o.violations.iter().any(|v| v.invariant == "karn"))
        .expect("no seed in 0..40 tripped the injected Karn bug");
    let shrunk = shrink(&out.spec, &inject, "karn", 40);
    let k = &shrunk.spec.knobs;
    assert!(
        k.tcp_flows + k.mpi_pairs > 0,
        "a Karn conviction needs at least one TCP-bearing workload: {k:?}"
    );
    let artifact = repro_json(&shrunk.outcome);
    let repro = parse_repro(&artifact).expect("artifact parses");
    assert_eq!(repro.spec, shrunk.spec);
    assert_eq!(repro.violation.invariant, "karn");
    let rep = replay(&repro);
    assert!(rep.same_invariant, "replay lost the violation");
    assert!(rep.same_fingerprint, "replay was not bit-identical");
}

/// Without the injection switch the same seeds carry no Karn violation —
/// i.e. the conviction above is attributable to the armed bug alone.
#[test]
fn karn_conviction_requires_the_injected_bug() {
    for seed in 0..40 {
        let out = run_spec(&ScenarioSpec::from_seed(seed), &Inject::default());
        assert!(
            !out.violations.iter().any(|v| v.invariant == "karn"),
            "seed {seed} convicted karn without the bug armed"
        );
    }
}
