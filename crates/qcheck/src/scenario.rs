//! Seed → scenario expansion: topology, DiffServ/GARA schedule, fault
//! plan, and workload mix, all drawn from per-dimension forks of the
//! seed's RNG so the shrinker can lower one knob without shifting any
//! other dimension's draws.

use crate::spec::{Inject, ScenarioSpec};
use crate::workload::{QcPingPong, QcTcpSender, QcTcpSink, QcUdpPulse, QcUdpSink};
use mpichgq_gara::{install, Gara, NetworkRequest, Request, ResvId, StartSpec};
use mpichgq_netsim::{
    depth_for, ChanId, ClassCfg, DepthRule, Dscp, FaultAction, FaultPlan, FlowSpec, LinkCfg, Net,
    NodeId, PolicingAction, Proto, QueueCfg, RedCfg, SchedCfg, SchedKind, TokenBucket, TopoBuilder,
};
use mpichgq_sim::{SimDelta, SimRng, SimTime};
use mpichgq_tcp::{Controller, Sim, Stack, TcpCfg};

/// One scheduled GARA operation. Victim indices are resolved modulo the
/// list of reservations actually granted so far, so an op never dangles.
#[derive(Debug, Clone)]
pub enum GaraOp {
    Reserve {
        src: NodeId,
        dst: NodeId,
        proto: Proto,
        rate_bps: u64,
        duration_ms: Option<u64>,
        shape: bool,
    },
    Modify {
        victim: u64,
        rate_bps: u64,
    },
    Cancel {
        victim: u64,
    },
    Revoke {
        victim: u64,
    },
}

/// Scenario-script controller executing the GARA schedule. Mirrors the
/// GARA driver idiom: temporarily take the service, act, put it back.
struct QcScript {
    ops: Vec<GaraOp>,
    granted: Vec<ResvId>,
}

impl Controller for QcScript {
    fn on_control(&mut self, payload: u64, net: &mut Net, stack: &mut Stack) {
        let Some(mut g) = stack.take_service::<Gara>() else {
            return;
        };
        match &self.ops[payload as usize] {
            GaraOp::Reserve {
                src,
                dst,
                proto,
                rate_bps,
                duration_ms,
                shape,
            } => {
                let req = Request::Network(NetworkRequest {
                    src: *src,
                    dst: *dst,
                    proto: *proto,
                    src_port: None,
                    dst_port: None,
                    rate_bps: *rate_bps,
                    depth: DepthRule::Normal,
                    action: PolicingAction::Drop,
                    shape_at_source: *shape,
                });
                let dur = duration_ms.map(SimDelta::from_millis);
                if let Ok(id) = g.reserve(net, req, StartSpec::Now, dur) {
                    self.granted.push(id);
                }
            }
            GaraOp::Modify { victim, rate_bps } => {
                if !self.granted.is_empty() {
                    let id = self.granted[(*victim as usize) % self.granted.len()];
                    let _ = g.modify_network_rate(net, id, *rate_bps);
                }
            }
            GaraOp::Cancel { victim } => {
                if !self.granted.is_empty() {
                    let id = self.granted[(*victim as usize) % self.granted.len()];
                    g.cancel(net, id);
                }
            }
            GaraOp::Revoke { victim } => {
                if !self.granted.is_empty() {
                    let id = self.granted[(*victim as usize) % self.granted.len()];
                    g.revoke(net, id);
                }
            }
        }
        stack.put_service_box(g);
    }
}

/// A scenario expanded and armed, ready to run.
pub struct BuiltScenario {
    pub sim: Sim,
    pub t_end: SimTime,
    /// Handles to the MPI jobs, for the failure-progress invariant.
    pub jobs: Vec<mpichgq_mpi::JobHandle>,
}

/// Expand `spec` into a live simulation. Deterministic: identical
/// `(spec, inject)` always yields a bit-identical event sequence.
pub fn build(spec: &ScenarioSpec, inject: &Inject) -> BuiltScenario {
    let k = &spec.knobs;
    let mut rng = SimRng::new(spec.seed);
    // One labeled fork per dimension, in fixed order, regardless of knob
    // values — the label names the stream, the fork order seeds it.
    let mut topo_rng = rng.fork_labeled("topology");
    let mut tcp_rng = rng.fork_labeled("tcp");
    let mut udp_rng = rng.fork_labeled("udp");
    let mut mpi_rng = rng.fork_labeled("mpi");
    let mut gara_rng = rng.fork_labeled("gara");
    let mut fault_rng = rng.fork_labeled("faults");
    // Forked last so pre-qdisc corpora keep their historical streams; the
    // stream is consumed only when `knobs.qdisc > 0`.
    let mut qdisc_rng = rng.fork_labeled("qdisc");
    // Newest stream, forked after every older one and consumed only when
    // `knobs.host_faults > 0` — crash-free scenarios stay bit-identical.
    let mut hostfault_rng = rng.fork_labeled("hostfaults");

    let duration = SimDelta::from_millis(k.duration_ms);
    let t_end = SimTime::ZERO + duration;
    // A span equal to a random per-mille fraction of the run duration.
    let frac = |rng: &mut SimRng, lo_pm: u64, hi_pm: u64| -> SimDelta {
        SimDelta::from_nanos(duration.as_nanos() * rng.range(lo_pm, hi_pm) / 1000)
    };

    // --- Topology: a line of routers with hosts hanging off it. ---------
    let mut b = TopoBuilder::new(spec.seed);
    let routers: Vec<NodeId> = (0..k.routers).map(|i| b.router(&format!("r{i}"))).collect();
    let mut chans: Vec<ChanId> = Vec::new();
    for i in 1..routers.len() {
        let bw = topo_rng.range(8, 60) * 1_000_000;
        let delay = SimDelta::from_micros(topo_rng.range(200, 5_000));
        // Deliberately small best-effort buffers so queue_full drops (and
        // the retransmissions they force) are routine, not exotic. The
        // best-effort capacity is always drawn from the topology stream —
        // discipline parameters come from the dedicated qdisc stream, so
        // qdisc = 0 reproduces pre-qdisc scenarios draw-for-draw.
        let be_cap = topo_rng.range(20_000, 150_000);
        let qcfg = if k.qdisc == 0 {
            QueueCfg::Priority {
                ef_cap_bytes: 500_000,
                be_cap_bytes: be_cap,
            }
        } else {
            draw_discipline(&mut qdisc_rng, k.qdisc, be_cap)
        };
        let (ab, ba) = b.link(routers[i - 1], routers[i], LinkCfg::atm_vc(bw, delay), qcfg);
        chans.push(ab);
        chans.push(ba);
    }
    let hosts: Vec<NodeId> = (0..k.hosts)
        .map(|i| {
            let h = b.host(&format!("h{i}"));
            // Hosts 0 and 1 pin the ends of the line so cross-core paths
            // always exist; the rest scatter.
            let r = if i == 0 {
                routers[0]
            } else if i == 1 {
                *routers.last().unwrap()
            } else {
                routers[topo_rng.below(routers.len() as u64) as usize]
            };
            let delay = SimDelta::from_micros(topo_rng.range(20, 200));
            let (hr, rh) = b.link(
                h,
                r,
                LinkCfg::fast_ethernet(delay),
                QueueCfg::priority_default(),
            );
            chans.push(hr);
            chans.push(rh);
            h
        })
        .collect();
    let mut net = b.build();
    // The battery's lifecycle invariants read the tracer's per-flow
    // delivery counts and histograms, never its span log, so a fuzz
    // scenario keeps none: bound 0 counts every span as dropped.
    net.enable_packet_tracing_with(0);

    // --- AF marking (qdisc scenarios only). --------------------------------
    // Some UDP flows enter the network as Assured Forwarding behind a
    // token-bucket policer that escalates their drop precedence when out of
    // profile (Remark). The rule is installed on every router so the flow
    // is marked at whichever edge it enters; build-time rules precede any
    // GARA-installed reservation rules in match order.
    if k.qdisc > 0 {
        for f in 0..k.udp_flows {
            if !qdisc_rng.chance(0.5) {
                continue;
            }
            let rate_bps = qdisc_rng.range(1, 8) * 1_000_000;
            let spec = FlowSpec {
                proto: Some(Proto::Udp),
                dst_port: Some(6_000 + f as u16),
                ..FlowSpec::default()
            };
            for &r in &routers {
                net.node_mut(r).classifier.install(
                    spec,
                    Dscp::Af(Default::default()),
                    Some(TokenBucket::new(
                        rate_bps,
                        depth_for(DepthRule::Normal, rate_bps),
                    )),
                    PolicingAction::Remark,
                );
            }
        }
    }

    // --- Fault plan (always-restoring windows inside the run). ----------
    if k.faults > 0 || k.host_faults > 0 {
        let mut plan = FaultPlan::new(spec.seed);
        for _ in 0..k.faults {
            let chan = chans[fault_rng.below(chans.len() as u64) as usize];
            let at = SimTime::ZERO + frac(&mut fault_rng, 100, 600);
            let dur = frac(&mut fault_rng, 50, 200);
            plan = match fault_rng.below(3) {
                0 => plan.link_outage(chan, at, dur),
                1 => plan.at(
                    at,
                    FaultAction::LossBurst {
                        chan,
                        per_mille: fault_rng.range(20, 300) as u16,
                        duration: dur,
                    },
                ),
                _ => plan.at(
                    at,
                    FaultAction::CorruptBurst {
                        chan,
                        per_mille: fault_rng.range(10, 150) as u16,
                        duration: dur,
                    },
                ),
            };
        }
        // Crash/restart cycles, drawn after every link-fault window so the
        // link-fault stream keeps its historical draws. The restart is
        // *not* clamped to the run: a cycle near the end leaves its host
        // dead at quiescence, which is exactly the never-restarted case
        // the `mpi_failure_progress` invariant wants to see.
        for _ in 0..k.host_faults {
            let victim = hosts[hostfault_rng.below(hosts.len() as u64) as usize];
            let at = SimTime::ZERO + frac(&mut hostfault_rng, 150, 700);
            let down_for = frac(&mut hostfault_rng, 80, 250);
            plan = plan
                .at(at, FaultAction::HostCrash { host: victim })
                .at(at + down_for, FaultAction::HostRestart { host: victim });
        }
        net.install_fault_plan(plan);
    }

    let mut sim = Sim::new(net);
    let tcp_cfg = TcpCfg {
        karn_disable: inject.karn,
        ..TcpCfg::default()
    };

    // --- TCP flows. ------------------------------------------------------
    for f in 0..k.tcp_flows {
        let (src, dst) = distinct_pair(&mut tcp_rng, &hosts);
        let port = 5_000 + f as u16;
        sim.spawn_app(dst, Box::new(QcTcpSink { port, cfg: tcp_cfg }));
        let start = frac(&mut tcp_rng, 0, 300);
        let total = tcp_rng.range(20_000, 1_500_000);
        let close = tcp_rng.chance(0.5);
        sim.spawn_app(
            src,
            Box::new(QcTcpSender::new(dst, port, tcp_cfg, start, total, close)),
        );
    }

    // --- UDP flows. ------------------------------------------------------
    for f in 0..k.udp_flows {
        let (src, dst) = distinct_pair(&mut udp_rng, &hosts);
        let dport = 6_000 + f as u16;
        let sport = 7_000 + f as u16;
        sim.spawn_app(dst, Box::new(QcUdpSink { port: dport }));
        let interval = SimDelta::from_micros(udp_rng.range(200, 5_000));
        let start = frac(&mut udp_rng, 0, 300);
        let payload = udp_rng.range(200, 1_400) as u32;
        let count = udp_rng.range(20, 400);
        sim.spawn_app(
            src,
            Box::new(QcUdpPulse::new(
                dst, dport, sport, payload, interval, start, count,
            )),
        );
    }

    // --- MPI ping-pong pairs. --------------------------------------------
    let mut jobs = Vec::new();
    for p in 0..k.mpi_pairs {
        let (a, z) = distinct_pair(&mut mpi_rng, &hosts);
        let iters = mpi_rng.range(3, 30) as u32;
        let len = mpi_rng.range(1_000, 64_000) as u32;
        let cfg = mpichgq_mpi::MpiCfg {
            tcp: tcp_cfg,
            ..Default::default()
        };
        let builder = mpichgq_mpi::JobBuilder::new();
        // With crash/restart cycles armed, ranks are restartable: a
        // revived host re-wires a fresh incarnation (its peer, under the
        // default Abort handler, has already terminated — the respawn
        // exercises wireup against finished engines). Crash-free
        // scenarios keep the plain path so launch behavior is untouched.
        let builder = if k.host_faults > 0 {
            let mk = move |_p: u64| -> mpichgq_mpi::ProgramFactory {
                std::rc::Rc::new(move || {
                    Box::new(QcPingPong::new(iters, len)) as Box<dyn mpichgq_mpi::MpiProgram>
                })
            };
            builder
                .rank_restartable(a, mk(p))
                .rank_restartable(z, mk(p))
        } else {
            builder
                .rank(a, Box::new(QcPingPong::new(iters, len)))
                .rank(z, Box::new(QcPingPong::new(iters, len)))
        };
        jobs.push(
            builder
                .base_port(9_000 + 100 * p as u16)
                .cfg(cfg)
                .launch(&mut sim),
        );
    }

    // --- GARA service + schedule. ----------------------------------------
    let mut gara = Gara::new();
    gara.manage_core_links(&sim.net, 0.7);
    install(&mut sim.stack, gara);
    let mut ops = Vec::new();
    let mut ats = Vec::new();
    for _ in 0..k.gara_ops {
        let at = SimTime::ZERO + frac(&mut gara_rng, 50, 800);
        ops.push(draw_gara_op(&mut gara_rng, &hosts, k.duration_ms));
        ats.push(at);
    }
    let script = sim.stack.add_controller(Box::new(QcScript {
        ops,
        granted: Vec::new(),
    }));
    for (i, at) in ats.iter().enumerate() {
        sim.stack
            .schedule_control(&mut sim.net, script, *at, i as u64);
    }

    // The sampler is part of the audited surface: every fuzz scenario
    // records a ~16-tick timeline so `timeline_consistency` (check_final)
    // cross-checks the final sample of each cumulative series against the
    // registry on every seed. Sampling reifies no events and draws no
    // RNG, so the pinned corpus fingerprints are unaffected.
    sim.net
        .enable_timeline(SimDelta::from_nanos((t_end.as_nanos() / 16).max(1_000_000)));

    BuiltScenario { sim, t_end, jobs }
}

/// Draw one GARA operation from `rng` against `hosts`: the exact
/// distribution the scenario fuzzer schedules (reserve-heavy so
/// modify/cancel/revoke usually have a victim, half the reserves
/// bounded to at most `duration_ms`). Public so load generators —
/// `bench_gara` in particular — can replay the fuzzer's op mix at
/// arbitrary scale instead of inventing a second, divergent one.
pub fn draw_gara_op(rng: &mut SimRng, hosts: &[NodeId], duration_ms: u64) -> GaraOp {
    match rng.below(5) {
        // Reserves dominate so modify/cancel/revoke usually have a
        // victim to act on.
        0 | 1 => {
            let (src, dst) = distinct_pair(rng, hosts);
            GaraOp::Reserve {
                src,
                dst,
                proto: if rng.chance(0.5) {
                    Proto::Udp
                } else {
                    Proto::Tcp
                },
                rate_bps: rng.range(1, 15) * 1_000_000,
                duration_ms: if rng.chance(0.5) {
                    Some(rng.range(20, duration_ms.max(21)))
                } else {
                    None
                },
                shape: rng.chance(0.3),
            }
        }
        2 => GaraOp::Modify {
            victim: rng.next_u64(),
            rate_bps: rng.range(1, 25) * 1_000_000,
        },
        3 => GaraOp::Cancel {
            victim: rng.next_u64(),
        },
        _ => GaraOp::Revoke {
            victim: rng.next_u64(),
        },
    }
}

/// Expand a nonzero `qdisc` knob into a core-link discipline. The knob
/// picks the scheduler (`(qdisc-1) % 3`: SP/WFQ/DRR) and whether AQM is
/// armed (`(qdisc-1) / 3`: drop-tail vs RED on BE + WRED on AF); weights,
/// capacities, and RED thresholds are drawn from the dedicated qdisc
/// stream so the topology stream stays untouched.
fn draw_discipline(rng: &mut SimRng, qdisc: u64, be_cap: u64) -> QueueCfg {
    let kind = match (qdisc - 1) % 3 {
        0 => SchedKind::Sp,
        1 => SchedKind::Wfq,
        _ => SchedKind::Drr,
    };
    let aqm = (qdisc - 1) / 3 == 1;
    let ef_w = rng.range(4, 12) as u32;
    let af_w = rng.range(2, 6) as u32;
    let be_w = rng.range(1, 3) as u32;
    let af_cap = rng.range(be_cap / 2, be_cap + 1);
    let ef = ClassCfg::new(500_000).weight(ef_w);
    let mut af = ClassCfg::new(af_cap).weight(af_w);
    let mut be = ClassCfg::new(be_cap).weight(be_w);
    if aqm {
        let min = rng.range(be_cap / 8, be_cap / 3);
        let max = rng.range(be_cap / 2, be_cap + 1);
        let max_p = rng.range(50, 500) as u32;
        be = be.red(RedCfg::new(min, max).max_p_permille(max_p));
        af = af.wred(RedCfg::wred_ramp(min, max));
    }
    QueueCfg::Sched(SchedCfg { kind, ef, af, be })
}

/// Two distinct hosts, uniformly.
fn distinct_pair(rng: &mut SimRng, hosts: &[NodeId]) -> (NodeId, NodeId) {
    let a = rng.below(hosts.len() as u64) as usize;
    let step = 1 + rng.below(hosts.len() as u64 - 1) as usize;
    let b = (a + step) % hosts.len();
    (hosts[a], hosts[b])
}
