//! `pingpong_qos` and `pingpong_qos_observed`: the paper's Figure 5 point.
//!
//! GARNET with a 3 ms core delay and 70 % reservable; a 40 Kb MPI
//! ping-pong under a 6 Mb/s premium attribute; 150 Mb/s of UDP contention
//! in both trunk directions; era TCP (`rto_min` 500 ms). Nine packets in
//! ten are contention, so forwarding, the classifier/policer and the
//! strict-priority queue carry the run over a shallow event population.
//! The observed variant arms every instrument and pays for the exports
//! inside its measured region.

use super::{
    add, check, collect, drive, get, robust_wall, start_jitter, Counts, Extras, Params, Rep,
    Workload,
};
use crate::fingerprint::physics_fp;
use crate::spans::Tracer;
use mpichgq_apps::{GarnetLab, PingPong, PingPongResult};
use mpichgq_core::{enable_qos, QosAgentCfg, QosAttribute};
use mpichgq_mpi::{JobBuilder, MpiCfg};
use mpichgq_netsim::GarnetCfg;
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::TcpCfg;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Offered UDP load per direction: keeps an OC3 trunk's best-effort queue
/// persistently full.
const CONTENTION_BPS: u64 = 150_000_000;
/// 40 Kb, from the paper's {8, 40, 80, 120} Kb set. Fixed, not seeded: the
/// TCP share of the work scales with it, and runs at different seeds are
/// held to one bound.
const MSG_BYTES: u32 = 40 * 1000 / 8;
const RESERVATION_KBPS: f64 = 6000.0;
/// Simulated length at scale 1 (≈ 1 s of host time on the reference box).
const SIM_LEN: SimDelta = SimDelta::from_secs(50);
const FLIGHT_RECORDER: usize = 4096;
const TIMELINE_INTERVAL: SimDelta = SimDelta::from_millis(100);
/// Plain-scenario repetitions behind `obs.overhead_ratio`.
const PLAIN_REPS: usize = 3;

pub struct PingPongQos {
    pub observed: bool,
}

pub struct World {
    lab: GarnetLab,
    result: Rc<RefCell<PingPongResult>>,
    t_end: SimTime,
}

impl Workload for PingPongQos {
    type World = World;

    fn name(&self) -> &'static str {
        if self.observed {
            "pingpong_qos_observed"
        } else {
            "pingpong_qos"
        }
    }

    fn work_unit(&self) -> &'static str {
        "delivered packet"
    }

    fn setup_builds(&self) -> u32 {
        if self.observed {
            180_000
        } else {
            220_000
        }
    }

    fn build(&self, p: &Params) -> World {
        let t_end = p.scaled_time(SIM_LEN);
        let garnet = GarnetCfg {
            core_delay: SimDelta::from_millis(3),
            seed: p.derive("garnet"),
            ..GarnetCfg::default()
        };
        let mut lab = GarnetLab::new(garnet, 0.7);
        if self.observed {
            lab.sim.net.obs.enable_trace(FLIGHT_RECORDER);
            lab.sim.net.enable_packet_tracing();
            lab.sim.net.enable_timeline(TIMELINE_INTERVAL);
        }
        let mut jitter = p.rng("contention");
        lab.add_contention(
            CONTENTION_BPS,
            SimTime::ZERO + start_jitter(&mut jitter),
            t_end,
        );
        lab.add_contention_reverse(
            CONTENTION_BPS,
            SimTime::ZERO + start_jitter(&mut jitter),
            t_end,
        );
        // The paper's reservation axis is raw network bandwidth.
        let agent = QosAgentCfg {
            translate_overhead: false,
            ..QosAgentCfg::default()
        };
        let (builder, env) = enable_qos(JobBuilder::new(), agent);
        let qos = Some((env, QosAttribute::premium(RESERVATION_KBPS, MSG_BYTES)));
        let warmup = SimTime::from_nanos(t_end.as_nanos() / 10);
        let (p0, p1, result) = PingPong::pair(MSG_BYTES, warmup, t_end, qos);
        builder
            .rank(lab.premium_src, Box::new(p0))
            .rank(lab.premium_dst, Box::new(p1))
            .cfg(MpiCfg {
                tcp: TcpCfg {
                    rto_min: SimDelta::from_millis(500),
                    ..TcpCfg::default()
                },
                ..MpiCfg::default()
            })
            .launch(&mut lab.sim);
        World { lab, result, t_end }
    }

    fn run(&self, world: World, _p: &Params, t: &mut Tracer) -> Rep {
        let World {
            mut lab,
            result,
            t_end,
        } = world;
        let mut counts = Counts::new();
        let mut exports: Option<[String; 3]> = None;

        // `Sim::run_until` directly: `GarnetLab::run_until` reads
        // `MPICHGQ_THREADS`.
        let mut slices = drive(&mut lab.sim, t_end, t, &mut counts);
        let run_s: f64 = slices.iter().sum();
        if self.observed {
            // The exports are one more slice of the measured region.
            let t0 = Instant::now();
            let export = t.begin("export");
            let net = &mut lab.sim.net;
            net.timeline_finalize(&mut lab.sim.stack, t_end);
            let metrics = t.span("export.metrics", |_| net.metrics_json());
            let trace = t.span("export.trace", |_| net.chrome_trace_json());
            let timeline = t.span("export.timeline", |_| net.timeline_json());
            t.end(export);
            exports = Some([metrics, trace, timeline.unwrap_or_default()]);
            slices.push(t0.elapsed().as_secs_f64());
        }
        let wall_s: f64 = slices.iter().sum();

        let chk = t.begin("check");
        let audit = collect(&mut lab.sim, &mut counts);
        let r = result.borrow();
        let mut checks = vec![
            check("ledger conserved", audit.conserved()),
            check(
                "2 reservations granted",
                get(&counts, "gara.granted") == 2.0,
            ),
            check("ping-pong made progress", r.rounds > 0),
        ];
        if let Some(docs) = &exports {
            add(&mut counts, "obs.run_s", run_s);
            add(&mut counts, "obs.export_s", wall_s - run_s);
            add(
                &mut counts,
                "obs.export_bytes",
                docs.iter().map(String::len).sum::<usize>() as f64,
            );
            let net = &lab.sim.net;
            let ticks = net
                .timeline()
                .and_then(|tl| tl.counter("engine.events_processed"))
                .map_or(0, |(at, _)| at.len());
            add(&mut counts, "obs.timeline_ticks", ticks as f64);
            if let Some(tr) = net.packet_tracer() {
                add(&mut counts, "obs.spans_kept", tr.spans().len() as f64);
                add(&mut counts, "obs.spans_dropped", tr.spans_dropped() as f64);
            }
            for (doc, what) in docs.iter().zip(["metrics", "trace", "timeline"]) {
                checks.push(check(
                    format!("{what} export parses"),
                    mpichgq_obs::parse(doc).is_ok(),
                ));
            }
        }
        let rep = Rep {
            slices,
            worker_wait_s: 0.0,
            physics_fp: physics_fp(lab.sim.now(), &audit, &[r.rounds, r.bytes_each_way]),
            work: audit.delivered,
            counts,
            facts: vec![("rounds", r.rounds), ("pkts_delivered", audit.delivered)],
            checks,
        };
        t.end(chk);
        rep
    }

    /// The observed run must simulate exactly what the plain one does, and
    /// its cost is reported against the plain run's.
    fn extras(&self, p: &Params, t: &mut Tracer, rep: &Rep, base_wall_s: f64) -> Extras {
        let mut x = Extras::default();
        if !self.observed {
            return x;
        }
        let plain = PingPongQos { observed: false };
        let mut off = Tracer::new(false);
        // Untraced, one plain run settles the no-perturbation check; the
        // traced pass repeats it for a median to put the overhead against.
        let reps = if t.is_on() { PLAIN_REPS } else { 1 };
        let span = t.begin("run.plain");
        let runs: Vec<Rep> = (0..reps)
            .map(|_| plain.run(plain.build(p), p, &mut off))
            .collect();
        t.end(span);
        x.checks.push(check(
            "observed physics_fp == plain physics_fp",
            runs.iter().all(|r| r.physics_fp == rep.physics_fp),
        ));
        let plain_wall = robust_wall(&runs);
        add(&mut x.counts, "obs.plain_wall_s", plain_wall);
        add(
            &mut x.counts,
            "obs.overhead_ratio",
            base_wall_s / plain_wall,
        );
        add(
            &mut x.counts,
            "obs.run_overhead_ratio",
            get(&rep.counts, "obs.run_s") / rep.wall_s() * base_wall_s / plain_wall,
        );
        x
    }
}
