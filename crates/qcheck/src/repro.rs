//! Repro artifacts and run summaries.
//!
//! A repro artifact pins everything needed to re-fail bit-identically:
//! the (shrunk) spec, the injected bug switches, the convicted invariant,
//! and the run fingerprint. [`replay`] re-executes the artifact and
//! verifies both that the same invariant fails and that the simulation
//! reaches the same fingerprint — a fingerprint mismatch means the replay
//! was *not* bit-identical (nondeterminism, or the code under test
//! changed), which is itself a finding.

use crate::run::{run_spec, RunOutcome, Violation};
use crate::spec::{Inject, Knobs, ScenarioSpec};
use mpichgq_obs::{parse, JsonValue, JsonWriter};

/// Schema version written into every artifact.
pub(crate) const REPRO_SCHEMA: u64 = 1;
/// Schema version of the summary document.
pub(crate) const SUMMARY_SCHEMA: u64 = 1;

/// A parsed repro artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    pub spec: ScenarioSpec,
    pub inject: Inject,
    pub violation: Violation,
    pub fingerprint: u64,
    pub events: u64,
}

/// Serialize a failing outcome (first violation wins) as an artifact.
pub fn repro_json(outcome: &RunOutcome) -> String {
    let v = outcome
        .violations
        .first()
        .expect("repro_json on a clean run");
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("qcheck_repro");
    w.u64(REPRO_SCHEMA);
    w.key("seed");
    w.u64(outcome.spec.seed);
    w.key("knobs");
    outcome.spec.knobs.write_json(&mut w);
    w.key("inject");
    w.begin_object();
    w.key("karn");
    w.raw(if outcome.inject.karn { "true" } else { "false" });
    w.end_object();
    w.key("violation");
    w.begin_object();
    w.key("invariant");
    w.string(&v.invariant);
    w.key("detail");
    w.string(&v.detail);
    w.end_object();
    w.key("fingerprint");
    w.u64(outcome.fingerprint);
    w.key("events");
    w.u64(outcome.events);
    w.end_object();
    w.finish()
}

/// Parse an artifact produced by [`repro_json`].
pub fn parse_repro(s: &str) -> Result<Repro, String> {
    let v = parse(s).map_err(|e| format!("repro: bad JSON: {e}"))?;
    let schema = v
        .get("qcheck_repro")
        .and_then(JsonValue::as_u64)
        .ok_or("repro: missing qcheck_repro schema tag")?;
    if schema != REPRO_SCHEMA {
        return Err(format!("repro: unsupported schema {schema}"));
    }
    let seed = v
        .get("seed")
        .and_then(JsonValue::as_u64)
        .ok_or("repro: missing seed")?;
    let knobs = Knobs::from_json(v.get("knobs").ok_or("repro: missing knobs")?)?;
    let karn = matches!(
        v.get("inject").and_then(|i| i.get("karn")),
        Some(JsonValue::Bool(true))
    );
    let viol = v.get("violation").ok_or("repro: missing violation")?;
    let invariant = viol
        .get("invariant")
        .and_then(JsonValue::as_str)
        .ok_or("repro: missing violation.invariant")?
        .to_string();
    let detail = viol
        .get("detail")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    let fingerprint = v
        .get("fingerprint")
        .and_then(JsonValue::as_u64)
        .ok_or("repro: missing fingerprint")?;
    let events = v.get("events").and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Repro {
        spec: ScenarioSpec { seed, knobs },
        inject: Inject { karn },
        violation: Violation { invariant, detail },
        fingerprint,
        events,
    })
}

/// Outcome of replaying an artifact.
#[derive(Debug)]
pub struct Replay {
    pub outcome: RunOutcome,
    /// The pinned invariant failed again.
    pub same_invariant: bool,
    /// The simulation reached the pinned fingerprint (bit-identical).
    pub same_fingerprint: bool,
}

impl Replay {
    pub fn ok(&self) -> bool {
        self.same_invariant && self.same_fingerprint
    }
}

/// Re-execute an artifact and compare against its pinned expectations.
pub fn replay(r: &Repro) -> Replay {
    let outcome = run_spec(&r.spec, &r.inject);
    let same_invariant = outcome
        .violations
        .iter()
        .any(|v| v.invariant == r.violation.invariant);
    let same_fingerprint = outcome.fingerprint == r.fingerprint;
    Replay {
        outcome,
        same_invariant,
        same_fingerprint,
    }
}

/// Summarize a batch of runs (what `qcheck` writes next to the repro
/// artifacts; `scripts/check_metrics.py` validates this shape in CI).
pub fn summary_json(outcomes: &[RunOutcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("qcheck_summary");
    w.u64(SUMMARY_SCHEMA);
    w.key("seeds");
    w.u64(outcomes.len() as u64);
    let failed: Vec<&RunOutcome> = outcomes.iter().filter(|o| !o.ok()).collect();
    w.key("violations");
    w.u64(failed.iter().map(|o| o.violations.len() as u64).sum());
    w.key("failed_seeds");
    w.begin_array();
    for o in &failed {
        w.u64(o.spec.seed);
    }
    w.end_array();
    w.key("totals");
    w.begin_object();
    w.key("events");
    w.u64(outcomes.iter().map(|o| o.events).sum());
    w.key("sent");
    w.u64(outcomes.iter().map(|o| o.sent).sum());
    w.key("delivered");
    w.u64(outcomes.iter().map(|o| o.delivered).sum());
    w.end_object();
    w.end_object();
    w.finish()
}
