//! `qcheck_sweep`: CI's fuzz job, scaled — `qcheck::run_spec` over
//! scenario seeds `0..540`. Many short random scenarios, so construction,
//! route computation, every queue discipline (WFQ/DRR × RED/WRED), fault
//! plans, host crashes and the audit battery dominate. It guards the
//! non-default paths when the SP + drop-tail path is specialised, and
//! short runs when cost is moved into set-up.
//!
//! The scenario set is the same at every `--seed`; the seed shuffles the
//! order they run in. Scenario cost is heavy-tailed, so sweeping a
//! different set per seed (the issue's `N × 10 000` base) moved `wall_s`
//! by ±5 % between seeds, and runs at different seeds share one bound.

use super::{add, check, Counts, Params, Rep, Workload};
use crate::fingerprint::Fnv;
use crate::spans::Tracer;
use mpichgq_obs::Histogram;
use mpichgq_qcheck::{build, run_spec, BuiltScenario, Inject, ScenarioSpec};
use std::time::Instant;

/// Scenarios per repetition at scale 1 (≈ 1 s on the reference box).
const SEEDS: u64 = 540;
/// Scenarios one `build` constructs for `setup_s`.
const SETUP_SCENARIOS: usize = 8;

pub struct QcheckSweep;

/// Scenario seeds `0..n` in the order this `--seed` runs them.
fn order(p: &Params) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..p.scaled(SEEDS)).collect();
    let mut rng = p.rng("sweep-order");
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    seeds
}

impl Workload for QcheckSweep {
    /// Only `setup_s` uses it: `run_spec` constructs its own scenarios.
    type World = Vec<BuiltScenario>;

    fn name(&self) -> &'static str {
        "qcheck_sweep"
    }

    fn work_unit(&self) -> &'static str {
        "seed"
    }

    fn setup_builds(&self) -> u32 {
        8_000
    }

    fn build(&self, p: &Params) -> Self::World {
        order(p)
            .iter()
            .take(SETUP_SCENARIOS)
            .map(|&s| build(&ScenarioSpec::from_seed(s), &Inject::default()))
            .collect()
    }

    fn run(&self, world: Self::World, p: &Params, t: &mut Tracer) -> Rep {
        drop(world);
        let seeds = order(p);
        let mut per_seed = Histogram::new();
        let mut checks = Vec::with_capacity(seeds.len() + 1);
        // Per-scenario results, folded in scenario order so that every
        // `--seed` pins the same physics.
        let mut results = vec![(0u64, 0u64); seeds.len()];
        let (mut events, mut sent, mut delivered) = (0u64, 0u64, 0u64);
        // One slice per scenario.
        let mut slices = Vec::with_capacity(seeds.len());
        let mut build_s = 0.0;
        for &seed in &seeds {
            let spec = ScenarioSpec::from_seed(seed);
            let span = t.begin("seed");
            if t.is_on() {
                // Construction timed on its own (and thrown away): from
                // outside, `run_spec` is one call.
                let t0 = Instant::now();
                t.span("seed.build", |_| drop(build(&spec, &Inject::default())));
                build_s += t0.elapsed().as_secs_f64();
            }
            let t0 = Instant::now();
            let out = t.span("seed.run", |_| run_spec(&spec, &Inject::default()));
            let seed_s = t0.elapsed().as_secs_f64();
            t.end(span);
            slices.push(seed_s);
            per_seed.observe((seed_s * 1e9) as u64);
            checks.push(check(format!("seed {} clean", spec.seed), out.ok()));
            // Not `out.fingerprint`: it folds in the event count.
            results[seed as usize] = (out.sent, out.delivered);
            events += out.events;
            sent += out.sent;
            delivered += out.delivered;
        }

        let chk = t.begin("check");
        checks.push(check("scenarios moved packets", delivered > 0));
        let mut fp = Fnv::default();
        for (sent, delivered) in results {
            fp.put(sent);
            fp.put(delivered);
        }
        let mut counts = Counts::new();
        let us = |q: f64| per_seed.quantile(q).unwrap_or(0) as f64 / 1_000.0;
        add(&mut counts, "qcheck.seeds", seeds.len() as f64);
        add(&mut counts, "qcheck.events", events as f64);
        add(
            &mut counts,
            "qcheck.build_share",
            build_s / slices.iter().sum::<f64>(),
        );
        add(&mut counts, "qcheck.seed_us_p50", us(0.5));
        add(&mut counts, "qcheck.seed_us_p99", us(0.99));
        add(&mut counts, "engine.events", events as f64);
        add(&mut counts, "net.pkts_sent", sent as f64);
        add(&mut counts, "net.pkts_delivered", delivered as f64);
        let rep = Rep {
            slices,
            worker_wait_s: 0.0,
            physics_fp: fp.finish(),
            work: seeds.len() as u64,
            counts,
            facts: vec![("pkts_sent", sent), ("pkts_delivered", delivered)],
            checks,
        };
        t.end(chk);
        rep
    }
}
