//! # mpichgq-qcheck — deterministic scenario fuzzing + invariant auditing
//!
//! The repo's correctness tooling (DESIGN.md §12): a seeded generator
//! expands each `u64` seed into a random scenario — topology, DiffServ
//! configuration, GARA reservation/revocation schedule, fault plan, and a
//! TCP/UDP/MPI workload mix — runs it through the full engine, and audits
//! an always-on battery of cross-layer invariants at every time slice:
//!
//! * **packet/byte conservation** per interface and globally
//!   (`enqueued = delivered + dropped + in-flight`, [`mpichgq_netsim::NetAudit`]);
//! * **token-bucket sanity**: every policer/shaper level ∈ `[0, burst]`;
//! * **scheduler service order**: with the legacy strict-priority
//!   discipline (the `qdisc = 0` knob) EF is never dequeued past waiting
//!   best-effort; the WFQ/DRR disciplines are instead audited by their
//!   structural self-checks (virtual-time monotonicity, rotation-guard
//!   bounds), surfaced as the `sched_violation` invariant;
//! * **TCP monotonicity**: `snd_una ≤ snd_nxt`, delivered monotone,
//!   `cwnd ≥ mss`, and Karn's rule (no RTT samples from retransmissions);
//! * **slot tables**: reserved peak ≤ capacity at every instant;
//! * **lifecycle consistency**: per-flow histogram counts equal deliveries.
//!
//! On a violation the driver shrinks the scenario to a minimal knob
//! vector, writes a replayable artifact
//! (`results/qcheck/repro-<seed>.json`), and exits nonzero; [`replay`]
//! re-executes an artifact and checks it still fails the same invariant
//! with a bit-identical state fingerprint. The `qcheck` binary lives in
//! `mpichgq-apps`; a CI smoke job runs a few hundred seeds per push.

#![warn(unreachable_pub)]

pub(crate) mod audit;
pub(crate) mod parscen;
pub(crate) mod repro;
pub(crate) mod run;
pub(crate) mod scenario;
pub(crate) mod shrink;
pub(crate) mod spec;
pub(crate) mod workload;

pub use audit::audit_metrics_json;
pub use parscen::{run_par_scenario, run_par_scenario_monolithic, ParOutcome};
pub use repro::{parse_repro, replay, repro_json, summary_json, Replay, Repro};
pub use run::{run_spec, RunOutcome, Violation};
pub use scenario::{build, draw_gara_op, BuiltScenario, GaraOp};
pub use shrink::{shrink, Shrunk};
pub use spec::{Inject, Knobs, ScenarioSpec};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fingerprint() {
        let spec = ScenarioSpec::from_seed(11);
        let a = run_spec(&spec, &Inject::default());
        let b = run_spec(&spec, &Inject::default());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.events, b.events);
        assert!(a.events > 0, "scenario 11 should do work");
    }

    #[test]
    fn first_seeds_run_clean() {
        for seed in 0..12 {
            let out = run_spec(&ScenarioSpec::from_seed(seed), &Inject::default());
            assert!(
                out.ok(),
                "seed {seed} violated {:?}",
                out.violations.first()
            );
        }
    }

    #[test]
    fn karn_injection_is_caught_and_replayable() {
        let inject = Inject { karn: true };
        let mut caught = None;
        for seed in 0..40 {
            let out = run_spec(&ScenarioSpec::from_seed(seed), &inject);
            if out.violations.iter().any(|v| v.invariant == "karn") {
                caught = Some(out);
                break;
            }
        }
        let out = caught.expect("no seed in 0..40 tripped the injected Karn bug");
        // Shrink, serialize, parse back, replay: the artifact must re-fail
        // the same invariant bit-identically.
        let shrunk = shrink(&out.spec, &inject, "karn", 40);
        assert!(shrunk
            .outcome
            .violations
            .iter()
            .any(|v| v.invariant == "karn"));
        let json = repro_json(&shrunk.outcome);
        let repro = parse_repro(&json).expect("artifact parses");
        assert_eq!(repro.spec, shrunk.spec);
        let rep = replay(&repro);
        assert!(rep.same_invariant, "replay lost the violation");
        assert!(rep.same_fingerprint, "replay was not bit-identical");
    }

    #[test]
    fn live_audit_and_snapshot_audit_agree_on_clean_runs() {
        let spec = ScenarioSpec::from_seed(2);
        let built = build(&spec, &Inject::default());
        let mut sim = built.sim;
        sim.run_until(built.t_end);
        let snapshot = sim.net.metrics_json();
        let viols = audit_metrics_json(&snapshot).expect("snapshot parses");
        assert!(viols.is_empty(), "snapshot audit found {viols:?}");
    }

    #[test]
    fn summary_shape() {
        let outs: Vec<RunOutcome> = (0..3)
            .map(|s| run_spec(&ScenarioSpec::from_seed(s), &Inject::default()))
            .collect();
        let s = summary_json(&outs);
        let v = mpichgq_obs::parse(&s).unwrap();
        assert_eq!(v.get("qcheck_summary").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("seeds").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("violations").unwrap().as_u64(), Some(0));
    }
}
