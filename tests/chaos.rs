//! Shape and determinism tests for the chaos experiment: the Figure-9
//! workload under a scripted fault plan, with the QoS agent's adaptation
//! loop (retry → renegotiate → degrade → recover) doing the recovering.
//!
//! Uses [`ChaosCfg::fast`] — the same compressed schedule the CI
//! figures job runs with `--fast` — so the asserted windows match what
//! `results/chaos/metrics.json` is generated from.

use mpichgq_bench::{chaos_run, phase_mean, ChaosCfg, Observe};

/// A flight-recorder ring of `trace_capacity`, sampled every 100 ms.
fn observed(trace_capacity: usize) -> Observe {
    Observe {
        trace_capacity,
        ..Observe::FIGURE
    }
}
use mpichgq_core::AdaptState;

#[test]
fn chaos_bandwidth_recovers_after_fault_clearance() {
    let cfg = ChaosCfg::fast();
    let (series, _metrics, outcome) = chaos_run(cfg, observed(2048));

    let (pre_lo, pre_hi) = cfg.pre_fault_window();
    let (deg_lo, deg_hi) = cfg.degraded_window();
    let (rec_lo, rec_hi) = cfg.recovery_window();
    let pre = phase_mean(&series, pre_lo, pre_hi);
    let degraded = phase_mean(&series, deg_lo, deg_hi);
    let recovered = phase_mean(&series, rec_lo, rec_hi);

    assert!(pre > 25_000.0, "pre-fault premium phase healthy: {pre:.0}");
    assert!(
        degraded < 0.5 * pre,
        "best-effort degradation visible: {degraded:.0} vs pre-fault {pre:.0}"
    );
    assert!(
        recovered >= 0.9 * pre,
        "bandwidth must recover to >=90% of pre-fault after clearance: \
         {recovered:.0} vs {pre:.0}"
    );

    // The physical faults actually happened.
    assert_eq!(outcome.faults.link_downs, 1);
    assert_eq!(outcome.faults.link_ups, 1);
    assert!(outcome.faults.drops_link_down >= 1, "{:?}", outcome.faults);
    assert!(outcome.faults.drops_loss >= 1, "{:?}", outcome.faults);
}

#[test]
fn chaos_adaptation_transitions_match_the_plan() {
    let cfg = ChaosCfg::fast();
    // The flight recorder is a bounded ring; the early reject/backoff
    // events would be evicted by the tens of thousands of per-packet
    // drop events that follow, so this test arms a ring large enough to
    // retain the entire run.
    let (_series, metrics, outcome) = chaos_run(cfg, observed(65_536));

    // reject -> backoff retry -> grant -> revoke -> renegotiate ->
    // revoke -> degrade -> probe -> recover, each counted.
    assert_eq!(
        outcome.retries as u32, cfg.injected_rejections,
        "one backoff retry per injected rejection"
    );
    assert!(outcome.rejects >= cfg.injected_rejections as u64);
    assert_eq!(outcome.grants, 2, "initial grant + recovered grant");
    assert_eq!(outcome.revocations_seen, 2);
    assert_eq!(outcome.renegotiations, 1);
    assert_eq!(outcome.degrades, 1);
    assert_eq!(outcome.recoveries, 1);
    assert!(outcome.probes >= 1);
    assert!(
        matches!(outcome.final_state, AdaptState::Granted { .. }),
        "run ends fully recovered: {:?}",
        outcome.final_state
    );

    // The same transitions are visible in the metrics snapshot the
    // binary writes to results/chaos/metrics.json.
    for key in [
        "agent.requests",
        "agent.rejects",
        "agent.retries",
        "agent.grants",
        "agent.revocations_seen",
        "agent.renegotiations",
        "agent.degrades",
        "agent.probes",
        "agent.recoveries",
        "gara.revocations",
        "gara.injected_rejections",
        "faults.drops.link_down",
        "faults.drops.loss",
        "faults.link_downs",
        "faults.link_ups",
    ] {
        assert!(
            metrics.metrics_json.contains(&format!("\"{key}\"")),
            "metrics.json missing {key}"
        );
    }
    for kind in [
        "gara.reject",
        "agent.backoff",
        "agent.grant",
        "gara.revoke",
        "agent.renegotiate",
        "agent.degrade",
        "agent.recover",
        "fault.link_down",
        "fault.link_up",
    ] {
        assert!(
            metrics.metrics_json.contains(kind),
            "trace missing {kind} events"
        );
    }
}

#[test]
fn chaos_run_is_bit_identical_across_invocations() {
    let cfg = ChaosCfg::fast();
    let (series_a, a, _) = chaos_run(cfg, observed(2048));
    let (series_b, b, _) = chaos_run(cfg, observed(2048));
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "chaos metrics snapshot is not deterministic"
    );
    assert_eq!(series_a.points(), series_b.points());
}
