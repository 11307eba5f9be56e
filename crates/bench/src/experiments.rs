//! The experiment implementations (paper §5).

use mpichgq_apps::{
    finish_viz, GarnetLab, MeteredTcpReceiver, PacedTcpSender, PingPong, Scheduler, VizCfg,
    VizReceiver, VizSender,
};
use mpichgq_core::{enable_qos, AdaptPolicy, AdaptState, AdaptiveFlow, QosAgentCfg, QosAttribute};
use mpichgq_gara::{install as install_gara, CpuRequest, Gara, NetworkRequest, Request, StartSpec};
use mpichgq_mpi::{
    ErrorHandler, JobBuilder, JobHandle, Mpi, MpiProgram, Poll, ProgramFactory, ReqId, COMM_WORLD,
};
use mpichgq_netsim::{
    depth_for, ClassCfg, DepthRule, Dscp, FaultAction, FaultPlan, FaultStats, FlowSpec, Framing,
    GarnetCfg, LinkCfg, NodeId, PolicingAction, Proto, QueueCfg, RedCfg, SchedCfg, SchedKind,
    TokenBucket, TopoBuilder,
};
use mpichgq_sim::{SimDelta, SimTime, TimeSeries};
use mpichgq_tcp::{Sim, TcpCfg};
use std::sync::OnceLock;

/// The offered UDP contention load: enough to keep the best-effort queue
/// of an OC3 trunk persistently full.
const CONTENTION_BPS: u64 = 150_000_000;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Observability bundle every instrumented experiment returns alongside its
/// series: the engine's processed-event count (for the determinism tests)
/// and the full registry + flight-recorder snapshot
/// (what `figs` writes to `results/<experiment>/metrics.json`).
#[derive(Debug, Clone)]
pub struct RunMetrics {
    pub events: u64,
    pub metrics_json: String,
    /// Chrome trace-event export of the packet lifecycle (empty events
    /// array when tracing was off); `qtrace` summarizes it.
    pub trace_json: String,
    /// Fixed-interval time-series document (`timeline.json`); `None` when
    /// sampling was off ([`Observe::timeline`]). `qtop` summarizes it.
    pub timeline_json: Option<String>,
}

/// How much of a run to observe: the flight-recorder ring and lifecycle
/// tracing (`trace_capacity > 0`), and the timeline sampler's interval.
/// Sweeps and shape tests run [`Observe::OFF`]; the `figs` binary runs
/// each figure's instrumented pass at [`Observe::FIGURE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observe {
    pub trace_capacity: usize,
    /// Sampling interval of `timeline.json`; `None` = sampler off. Only
    /// read when tracing is on.
    pub timeline: Option<SimDelta>,
}

impl Observe {
    /// No recorder, no lifecycle tracing, no sampler.
    pub const OFF: Observe = Observe {
        trace_capacity: 0,
        timeline: None,
    };
    /// What a figure run writes: the interesting events (drops, CC
    /// transitions, reservation changes) are sparse, so a few thousand
    /// ring entries cover a whole run; the timeline samples every 100 ms.
    pub const FIGURE: Observe = Observe {
        trace_capacity: 4096,
        timeline: Some(SimDelta::from_millis(100)),
    };

    pub(crate) fn on(self) -> bool {
        self.trace_capacity > 0
    }
}

fn arm_trace(lab: &mut GarnetLab, obs: Observe) {
    if obs.on() {
        lab.sim.net.obs.enable_trace(obs.trace_capacity);
        lab.sim.net.enable_packet_tracing();
        // Sweeps run unobserved; the no-perturbation tests prove the
        // figures come out bit-identical either way.
        if let Some(interval) = obs.timeline {
            lab.sim.net.enable_timeline(interval);
        }
    }
}

fn collect_metrics(lab: &mut GarnetLab) -> RunMetrics {
    let at = lab.sim.net.now();
    lab.sim.net.timeline_finalize(&mut lab.sim.stack, at);
    RunMetrics {
        events: lab.sim.net.events_processed(),
        metrics_json: lab.sim.net.metrics_json(),
        trace_json: lab.sim.net.chrome_trace_json(),
        timeline_json: lab.sim.net.timeline_json(),
    }
}

/// Delivery deadline the instrumented premium-flow runs assert against:
/// comfortably above the premium path's queueing-free one-way delay, and
/// comfortably below the delay a full best-effort trunk queue inflicts
/// (so SLO misses track loss of QoS, not noise).
const PREMIUM_DEADLINE: SimDelta = SimDelta::from_millis(10);

/// TCP tuning of the paper's era: the premium end systems were Solaris
/// Ultras with coarse retransmission timers (minimum RTO around half a
/// second). The coarse minimum RTO is what makes bursty flows pay for
/// shallow token buckets: every stall outlives the bucket's 0.2 s fill
/// time and wastes refill (Table 1's burstiness penalty).
fn era_tcp() -> TcpCfg {
    TcpCfg {
        rto_min: SimDelta::from_millis(500),
        ..TcpCfg::default()
    }
}

/// MPI configuration used by the paper-replica experiments.
fn era_mpi() -> mpichgq_mpi::MpiCfg {
    mpichgq_mpi::MpiCfg {
        tcp: era_tcp(),
        ..Default::default()
    }
}

/// Agent configuration for the reservation sweeps: the paper's reservation
/// axis is the raw network premium bandwidth.
fn sweep_agent_cfg() -> QosAgentCfg {
    QosAgentCfg {
        translate_overhead: false,
        ..QosAgentCfg::default()
    }
}

// ---------------------------------------------------------------------
// Figure 1 — raw TCP with an undersized reservation: the sawtooth
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Fig1Cfg {
    /// Application pacing rate (paper: ~50 Mb/s).
    pub app_rate_bps: u64,
    /// Premium reservation (paper: 40 Mb/s, "somewhat too low").
    pub reservation_bps: u64,
    pub duration: SimTime,
}

impl Default for Fig1Cfg {
    fn default() -> Self {
        Fig1Cfg {
            app_rate_bps: 50_000_000,
            reservation_bps: 40_000_000,
            duration: SimTime::from_secs(100),
        }
    }
}

/// Run Figure 1: a plain TCP flow paced at `app_rate_bps` under heavy
/// contention, with a premium reservation of `reservation_bps`. Returns
/// the receiver's 1-second bandwidth trace (Kb/s) and what `obs` armed.
pub fn fig1_tcp_sawtooth(cfg: Fig1Cfg, obs: Observe) -> (TimeSeries, RunMetrics) {
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(CONTENTION_BPS, SimTime::ZERO, cfg.duration);
    let (psrc, pdst) = (lab.premium_src, lab.premium_dst);

    // Reserve for the flow (both host-pair directions matter only for the
    // data path; ACKs ride best-effort as in the paper's testbed).
    lab.with_gara(|g, net| {
        g.reserve(
            net,
            Request::Network(NetworkRequest {
                src: psrc,
                dst: pdst,
                proto: Proto::Tcp,
                src_port: None,
                dst_port: None,
                rate_bps: cfg.reservation_bps,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("figure-1 reservation admitted");
    });

    let tcp = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let (rx, meter) = MeteredTcpReceiver::new(6000, tcp, SimDelta::from_secs(1));
    lab.sim.spawn_app(pdst, Box::new(rx));
    lab.sim.spawn_app(
        psrc,
        Box::new(PacedTcpSender::new(pdst, 6000, cfg.app_rate_bps, tcp)),
    );
    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let m = std::rc::Rc::try_unwrap(meter)
        .map(|c| c.into_inner())
        .unwrap_or_else(|rc| rc.borrow().clone());
    (m.finish(cfg.duration), metrics)
}

// ---------------------------------------------------------------------
// Figure 5 — ping-pong throughput vs reservation, under contention
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig5Cfg {
    pub msg_bytes: u32,
    pub(crate) reservation_kbps: f64,
    pub duration: SimTime,
    pub warmup: SimTime,
}

impl Fig5Cfg {
    pub(crate) fn new(msg_bytes: u32, reservation_kbps: f64) -> Fig5Cfg {
        Fig5Cfg {
            msg_bytes,
            reservation_kbps,
            duration: SimTime::from_secs(20),
            warmup: SimTime::from_secs(5),
        }
    }
}

/// GARNET with the wide-area extension delay used for the ping-pong
/// experiment (round-trip in the paper's ~15 ms regime, putting the
/// Figure 5 knees in the paper's 0–12 Mb/s reservation range).
fn fig5_garnet() -> GarnetCfg {
    GarnetCfg {
        core_delay: SimDelta::from_millis(3),
        ..GarnetCfg::default()
    }
}

/// One Figure 5 point: one-way ping-pong throughput (Kb/s) for a message
/// size and reservation, with contention on both trunk directions.
/// `reservation_kbps == 0` means no reservation.
pub(crate) fn fig5_pingpong_point(cfg: Fig5Cfg, obs: Observe) -> (f64, RunMetrics) {
    let mut lab = GarnetLab::new(fig5_garnet(), 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(CONTENTION_BPS, SimTime::ZERO, cfg.duration);
    lab.add_contention_reverse(CONTENTION_BPS, SimTime::ZERO, cfg.duration);

    let (builder, env) = enable_qos(JobBuilder::new(), sweep_agent_cfg());
    let qos = if cfg.reservation_kbps > 0.0 {
        Some((
            env,
            QosAttribute::premium(cfg.reservation_kbps, cfg.msg_bytes),
        ))
    } else {
        None
    };
    let (p0, p1, result) = PingPong::pair(cfg.msg_bytes, cfg.warmup, cfg.duration, qos);
    let _job = builder
        .rank(lab.premium_src, Box::new(p0))
        .rank(lab.premium_dst, Box::new(p1))
        .cfg(era_mpi())
        .launch(&mut lab.sim);
    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let r = result.borrow();
    (r.one_way_kbps(), metrics)
}

/// A sweep's rows: one per row key (message or frame size), each with
/// its `(reservation, value)` points.
pub(crate) type SweepRows = Vec<(u32, Vec<(f64, f64)>)>;

/// The full Figure 5 sweep: message sizes in kilobits (paper: 8, 40, 80,
/// 120 Kb) × reservation values (Kb/s). Returns `(msg_kbits, points)`, and
/// the metrics of the `observed` cell `(msg_kbits, reservation)`: that one
/// cell runs at [`Observe::FIGURE`], every other at [`Observe::OFF`].
pub fn fig5_sweep(
    msg_kbits: &[u32],
    reservations_kbps: &[f64],
    fast: bool,
    observed: Option<(u32, f64)>,
) -> (SweepRows, Option<RunMetrics>) {
    let kept = OnceLock::new();
    let rows = crate::par::par_grid(msg_kbits, reservations_kbps, |&mk, &resv| {
        let mut cfg = Fig5Cfg::new(mk * 1000 / 8, resv);
        if fast {
            cfg.duration = SimTime::from_secs(8);
            cfg.warmup = SimTime::from_secs(3);
        }
        if observed != Some((mk, resv)) {
            return fig5_pingpong_point(cfg, Observe::OFF).0;
        }
        let (kbps, metrics) = fig5_pingpong_point(cfg, Observe::FIGURE);
        kept.set(metrics).expect("one observed cell");
        kbps
    });
    (rows, kept.into_inner())
}

// ---------------------------------------------------------------------
// Figure 6 — visualization throughput vs reservation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Fig6Cfg {
    pub frame_bytes: u32,
    pub fps: f64,
    /// Reservation in Kb/s (0 = none).
    pub reservation_kbps: f64,
    pub depth_rule: DepthRule,
    pub shape_at_source: bool,
    /// What the edge policer does with out-of-profile packets (ablation:
    /// the paper's testbed dropped them).
    pub policing_action: PolicingAction,
    /// Offered contention load.
    pub contention_bps: u64,
    /// Minimum TCP retransmission timeout (era ablation; see
    /// EXPERIMENTS.md calibration notes).
    pub rto_min: SimDelta,
    /// MPI eager/rendezvous threshold (ablation: rendezvous paces frame
    /// bursts with an extra round trip).
    pub eager_limit: u32,
    pub duration: SimTime,
}

impl Fig6Cfg {
    pub fn new(frame_bytes: u32, fps: f64, reservation_kbps: f64) -> Fig6Cfg {
        Fig6Cfg {
            frame_bytes,
            fps,
            reservation_kbps,
            depth_rule: DepthRule::Normal,
            shape_at_source: false,
            policing_action: PolicingAction::Drop,
            contention_bps: CONTENTION_BPS,
            rto_min: SimDelta::from_millis(500),
            eager_limit: 64 * 1024,
            duration: SimTime::from_secs(20),
        }
    }
}

/// One visualization run under contention; returns steady-state achieved
/// bandwidth in Kb/s (mean of 1-s buckets over the second half).
pub fn fig6_viz_point(cfg: Fig6Cfg) -> f64 {
    viz_run_under_contention(cfg, Observe::OFF)
        .0
        .achieved_kbps_steady
}

/// Fraction of the offered frames that were delivered by the end of the
/// run — the sustained-throughput test for Table 1 (delivery that
/// merely accumulates latency does not count as achieving the rate).
pub fn viz_delivery_ratio(cfg: Fig6Cfg) -> f64 {
    let offered = (cfg.fps * (cfg.duration.as_secs_f64() - 0.5)).floor();
    let (run, _) = viz_run_under_contention(cfg, Observe::OFF);
    run.frames_received as f64 / offered
}

/// Full visualization run under contention, whole bandwidth series
/// included.
pub(crate) fn viz_run_under_contention(
    cfg: Fig6Cfg,
    obs: Observe,
) -> (mpichgq_apps::VizRun, RunMetrics) {
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(cfg.contention_bps, SimTime::ZERO, cfg.duration);

    let agent_cfg = QosAgentCfg {
        depth_rule: cfg.depth_rule,
        shape_at_source: cfg.shape_at_source,
        action: cfg.policing_action,
        ..sweep_agent_cfg()
    };
    let (builder, env) = enable_qos(JobBuilder::new(), agent_cfg);
    let qos = if cfg.reservation_kbps > 0.0 {
        Some((
            env,
            QosAttribute::premium(cfg.reservation_kbps, cfg.frame_bytes),
        ))
    } else {
        None
    };
    let vcfg = VizCfg {
        frame_bytes: cfg.frame_bytes,
        fps: cfg.fps,
        work_per_frame: SimDelta::ZERO,
        start: SimTime::from_millis(500),
        end: cfg.duration,
    };
    let (tx, _stats, _proc) = VizSender::new(vcfg, qos);
    let (rx, meter, frames) = VizReceiver::new(SimDelta::from_secs(1), cfg.duration);
    let tcp = TcpCfg {
        rto_min: cfg.rto_min,
        ..TcpCfg::default()
    };
    let mpi_cfg = mpichgq_mpi::MpiCfg {
        tcp,
        eager_limit: cfg.eager_limit,
    };
    let _job = builder
        .rank(lab.premium_src, Box::new(tx))
        .rank(lab.premium_dst, Box::new(rx))
        .cfg(mpi_cfg)
        .launch(&mut lab.sim);
    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let half = SimTime::from_nanos(cfg.duration.as_nanos() / 2);
    (
        finish_viz(meter, frames, cfg.duration, half, cfg.duration),
        metrics,
    )
}

/// The Figure 6 sweep: attempted rates via (frame size, 10 fps) as in the
/// paper (5/10/20/30 KB frames → 400/800/1600/2400 Kb/s). The `observed`
/// cell `(frame_kb, reservation)` runs at [`Observe::FIGURE`] and its
/// metrics come back with the rows, as in [`fig5_sweep`].
pub fn fig6_sweep(
    frame_kb: &[u32],
    reservations_kbps: &[f64],
    fast: bool,
    observed: Option<(u32, f64)>,
) -> (SweepRows, Option<RunMetrics>) {
    let kept = OnceLock::new();
    let rows = crate::par::par_grid(frame_kb, reservations_kbps, |&fk, &resv| {
        let mut cfg = Fig6Cfg::new(fk * 1000, 10.0, resv);
        if fast {
            cfg.duration = SimTime::from_secs(10);
        }
        if observed != Some((fk, resv)) {
            return fig6_viz_point(cfg);
        }
        let (run, metrics) = viz_run_under_contention(cfg, Observe::FIGURE);
        kept.set(metrics).expect("one observed cell");
        run.achieved_kbps_steady
    });
    (rows, kept.into_inner())
}

// ---------------------------------------------------------------------
// Table 1 — burstiness vs token-bucket depth
// ---------------------------------------------------------------------

/// Find the minimum reservation (Kb/s) at which the visualization program
/// achieves ≥ `fraction` of its target bandwidth, by bisection.
pub fn table1_min_reservation(
    target_kbps: f64,
    fps: f64,
    depth_rule: DepthRule,
    fraction: f64,
    fast: bool,
) -> f64 {
    let probe = Fig6Cfg {
        depth_rule,
        ..table1_probe(target_kbps, fps, fast)
    };
    min_reservation(probe, target_kbps, 3.0, fraction)
}

/// A Table 1 probe run: `target_kbps` sent as `fps` frames per second for
/// 60 s (30 s under `fast`), with the reservation left for
/// [`min_reservation`] to set.
pub fn table1_probe(target_kbps: f64, fps: f64, fast: bool) -> Fig6Cfg {
    let frame_bytes = (target_kbps * 1000.0 / 8.0 / fps).round() as u32;
    let mut cfg = Fig6Cfg::new(frame_bytes, fps, 0.0);
    cfg.duration = SimTime::from_secs(if fast { 30 } else { 60 });
    cfg
}

/// The least reservation (Kb/s, to ~2%) at which `probe` delivers
/// ≥ `fraction` of its frames: bracket `[target/2, target·hi_factor]`,
/// widen the top by 1.5× up to 10× the target (∞ past it), then bisect
/// geometrically.
pub fn min_reservation(probe: Fig6Cfg, target_kbps: f64, hi_factor: f64, fraction: f64) -> f64 {
    let achieves = |reservation_kbps: f64| {
        viz_delivery_ratio(Fig6Cfg {
            reservation_kbps,
            ..probe
        }) >= fraction
    };
    // Bracket from below (a policer at half the target cannot pass 95% of
    // it) and expand upward until the target is achievable.
    let mut lo = target_kbps * 0.5;
    let mut hi = target_kbps * hi_factor;
    if achieves(lo) {
        return lo;
    }
    while !achieves(hi) {
        hi *= 1.5;
        if hi > target_kbps * 10.0 {
            return f64::INFINITY;
        }
    }
    // Bisect to ~2% resolution.
    while hi / lo > 1.02 {
        let mid = (lo * hi).sqrt();
        if achieves(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// One Table 1 row: target bandwidth → required reservation for
/// (10 fps, normal), (1 fps, normal), (1 fps, large).
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    pub target_kbps: f64,
    pub fps10_normal: f64,
    pub fps1_normal: f64,
    pub fps1_large: f64,
}

pub fn table1(targets_kbps: &[f64], fraction: f64, fast: bool) -> Vec<Table1Row> {
    // Each (target, fps, depth) bisection is independent; flatten the three
    // columns into the cell list so the pool stays busy even when rows
    // finish at very different speeds.
    let cells: Vec<(f64, f64, DepthRule)> = targets_kbps
        .iter()
        .flat_map(|&t| {
            [
                (t, 10.0, DepthRule::Normal),
                (t, 1.0, DepthRule::Normal),
                (t, 1.0, DepthRule::Large),
            ]
        })
        .collect();
    let resv = crate::par::par_map(&cells, |&(t, fps, depth)| {
        table1_min_reservation(t, fps, depth, fraction, fast)
    });
    targets_kbps
        .iter()
        .zip(resv.chunks_exact(3))
        .map(|(&t, r)| Table1Row {
            target_kbps: t,
            fps10_normal: r[0],
            fps1_normal: r[1],
            fps1_large: r[2],
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7 — sequence-number traces of two burstiness profiles
// ---------------------------------------------------------------------

/// Trace `(t, seq)` of the viz flow's data segments over `window` seconds,
/// for the given frame rate at a fixed 400 Kb/s application rate with an
/// adequate reservation (no contention; the paper isolates burstiness).
pub fn fig7_seq_trace(fps: f64, window: SimTime, obs: Observe) -> (TimeSeries, RunMetrics) {
    let target_kbps = 400.0;
    let frame_bytes = (target_kbps * 1000.0 / 8.0 / fps).round() as u32;
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    let (builder, env) = enable_qos(JobBuilder::new(), QosAgentCfg::default());
    let qos = Some((env, QosAttribute::premium(800.0, frame_bytes)));
    let end = window + SimDelta::from_secs(1);
    let vcfg = VizCfg {
        frame_bytes,
        fps,
        work_per_frame: SimDelta::ZERO,
        start: SimTime::from_millis(100),
        end,
    };
    let (tx, _stats, _proc) = VizSender::new(vcfg, qos);
    let (rx, _meter, _frames) = VizReceiver::new(SimDelta::from_secs(1), end);
    // Trace the sender's connection to rank 1 once it exists: do it from
    // inside the sender by wrapping the program.
    struct Traced {
        inner: VizSender,
        traced: bool,
        /// Delivery deadline for the data flow (instrumented runs only).
        deadline: Option<SimDelta>,
    }
    impl mpichgq_mpi::MpiProgram for Traced {
        fn poll(&mut self, mpi: &mut mpichgq_mpi::Mpi) -> mpichgq_mpi::Poll {
            if !self.traced {
                self.traced = true;
                mpi.trace_peer_connection(1, "fig7.seq");
                if let Some(dl) = self.deadline {
                    mpi.set_peer_deadline(1, dl);
                }
            }
            self.inner.poll(mpi)
        }
    }
    let _job = builder
        .rank(
            lab.premium_src,
            Box::new(Traced {
                inner: tx,
                traced: false,
                deadline: obs.on().then_some(PREMIUM_DEADLINE),
            }),
        )
        .rank(lab.premium_dst, Box::new(rx))
        .cfg(era_mpi())
        .launch(&mut lab.sim);
    lab.run_until(end);
    let metrics = collect_metrics(&mut lab);
    // The paper's Figure 7 shows exactly one second of steady state, with
    // sequence numbers rebased to the window: trim and rebase the raw trace.
    let raw = lab.sim.net.recorder.series("fig7.seq");
    let w_start = SimTime::from_millis(700); // past wireup and the QoS put
    let w_end = w_start + SimDelta::from_nanos(window.as_nanos());
    let base = raw
        .points()
        .iter()
        .find(|&&(t, _)| t >= w_start)
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    let mut out = TimeSeries::default();
    for &(t, v) in raw.points() {
        if t >= w_start && t < w_end {
            out.push(t - SimDelta::from_nanos(w_start.as_nanos()), v - base);
        }
    }
    (out, metrics)
}

// ---------------------------------------------------------------------
// Figures 8 and 9 — CPU contention and combined reservations
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Fig8Cfg {
    pub target_mbps: f64,
    pub fps: f64,
    /// CPU render time per frame, as a fraction of the frame interval.
    pub work_fraction: f64,
    pub hog_at: SimTime,
    pub cpu_reservation_at: SimTime,
    pub cpu_fraction: f64,
    pub duration: SimTime,
}

impl Default for Fig8Cfg {
    fn default() -> Self {
        Fig8Cfg {
            target_mbps: 15.0,
            fps: 10.0,
            work_fraction: 0.8,
            hog_at: SimTime::from_secs(10),
            cpu_reservation_at: SimTime::from_secs(20),
            cpu_fraction: 0.9,
            duration: SimTime::from_secs(30),
        }
    }
}

/// Figure 8: visualization bandwidth trace with CPU contention starting at
/// `hog_at` and a DSRT reservation at `cpu_reservation_at`.
pub fn fig8_cpu_reservation(cfg: Fig8Cfg, obs: Observe) -> (TimeSeries, RunMetrics) {
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    let frame_bytes = (cfg.target_mbps * 1e6 / 8.0 / cfg.fps).round() as u32;
    let interval = 1.0 / cfg.fps;
    let vcfg = VizCfg {
        frame_bytes,
        fps: cfg.fps,
        work_per_frame: SimDelta::from_secs_f64(interval * cfg.work_fraction),
        start: SimTime::from_millis(200),
        end: cfg.duration,
    };
    let (builder, _env) = enable_qos(JobBuilder::new(), QosAgentCfg::default());
    let (tx, _stats, proc_out) = VizSender::new(vcfg, None);
    let (rx, meter, frames) = VizReceiver::new(SimDelta::from_secs(1), cfg.duration);
    let psrc = lab.premium_src;
    if obs.on() {
        let spec = FlowSpec::host_pair(psrc, lab.premium_dst, Proto::Tcp);
        lab.sim.net.set_deadline_matching(spec, PREMIUM_DEADLINE);
    }
    let _job = builder
        .rank(lab.premium_src, Box::new(tx))
        .rank(lab.premium_dst, Box::new(rx))
        .launch(&mut lab.sim);

    let mut sched = Scheduler::new();
    sched.at(cfg.hog_at, move |net, _stack| {
        net.cpu_spawn_hog(psrc);
    });
    let proc2 = proc_out.clone();
    let cpu_frac = cfg.cpu_fraction;
    sched.at(cfg.cpu_reservation_at, move |net, stack| {
        let proc = proc2.borrow().expect("viz sender started");
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        gara.reserve(
            net,
            Request::Cpu(CpuRequest {
                host: psrc,
                proc,
                fraction: cpu_frac,
            }),
            StartSpec::Now,
            None,
        )
        .expect("CPU reservation admitted");
        stack.put_service_box(gara);
    });
    sched.install(&mut lab.sim);

    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    (
        finish_viz(meter, frames, cfg.duration, SimTime::ZERO, cfg.duration).series,
        metrics,
    )
}

#[derive(Debug, Clone, Copy)]
pub struct Fig9Cfg {
    pub target_mbps: f64,
    pub fps: f64,
    pub work_fraction: f64,
    /// Offered contention load. Defaults below full starvation so a
    /// best-effort trickle keeps TCP's RTO backoff bounded, as in the
    /// paper's trace (its congestion phase shows depressed, not zero,
    /// bandwidth).
    pub contention_bps: u64,
    pub congestion_at: SimTime,
    pub net_reservation_at: SimTime,
    pub hog_at: SimTime,
    pub cpu_reservation_at: SimTime,
    pub cpu_fraction: f64,
    pub duration: SimTime,
}

impl Default for Fig9Cfg {
    fn default() -> Self {
        Fig9Cfg {
            target_mbps: 35.0,
            fps: 10.0,
            work_fraction: 0.8,
            contention_bps: 130_000_000,
            congestion_at: SimTime::from_secs(10),
            net_reservation_at: SimTime::from_secs(21),
            hog_at: SimTime::from_secs(31),
            cpu_reservation_at: SimTime::from_secs(41),
            cpu_fraction: 0.9,
            duration: SimTime::from_secs(50),
        }
    }
}

/// Figure 9: the combined scenario — network congestion, then a network
/// reservation, then CPU contention, then a CPU reservation.
pub fn fig9_combined(cfg: Fig9Cfg, obs: Observe) -> (TimeSeries, RunMetrics) {
    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(cfg.contention_bps, cfg.congestion_at, cfg.duration);
    let frame_bytes = (cfg.target_mbps * 1e6 / 8.0 / cfg.fps).round() as u32;
    let interval = 1.0 / cfg.fps;
    let vcfg = VizCfg {
        frame_bytes,
        fps: cfg.fps,
        work_per_frame: SimDelta::from_secs_f64(interval * cfg.work_fraction),
        start: SimTime::from_millis(200),
        end: cfg.duration,
    };
    // 35 Mb/s with blocking frame sends needs era-appropriately tuned
    // socket buffers (the paper's §5.5 lesson about buffer sizing).
    let tcp = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let mpi_cfg = mpichgq_mpi::MpiCfg {
        tcp,
        ..Default::default()
    };
    let (builder, _env) = enable_qos(JobBuilder::new(), QosAgentCfg::default());
    let (tx, _stats, proc_out) = VizSender::new(vcfg, None);
    let (rx, meter, frames) = VizReceiver::new(SimDelta::from_secs(1), cfg.duration);
    let psrc = lab.premium_src;
    let pdst = lab.premium_dst;
    let _job = builder
        .rank(psrc, Box::new(tx))
        .rank(pdst, Box::new(rx))
        .cfg(mpi_cfg)
        .launch(&mut lab.sim);

    let mut sched = Scheduler::new();
    let net_rate = (cfg.target_mbps * 1e6 * 1.1) as u64;
    sched.at(cfg.net_reservation_at, move |net, stack| {
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        gara.reserve(
            net,
            Request::Network(NetworkRequest {
                src: psrc,
                dst: pdst,
                proto: Proto::Tcp,
                src_port: None,
                dst_port: None,
                rate_bps: net_rate,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("network reservation admitted");
        stack.put_service_box(gara);
    });
    sched.at(cfg.hog_at, move |net, _stack| {
        net.cpu_spawn_hog(psrc);
    });
    let proc2 = proc_out.clone();
    let cpu_frac = cfg.cpu_fraction;
    sched.at(cfg.cpu_reservation_at, move |net, stack| {
        let proc = proc2.borrow().expect("viz sender started");
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        gara.reserve(
            net,
            Request::Cpu(CpuRequest {
                host: psrc,
                proc,
                fraction: cpu_frac,
            }),
            StartSpec::Now,
            None,
        )
        .expect("CPU reservation admitted");
        stack.put_service_box(gara);
    });
    sched.install(&mut lab.sim);

    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    (
        finish_viz(meter, frames, cfg.duration, SimTime::ZERO, cfg.duration).series,
        metrics,
    )
}

/// Mean of a series over `[from, to)` seconds — phase summaries for the
/// Figure 8/9 timelines.
pub fn phase_mean(series: &TimeSeries, from: f64, to: f64) -> f64 {
    series.mean_in(secs(from), secs(to))
}

// ---------------------------------------------------------------------
// Chaos — the Figure-9 workload under a scripted fault plan, with the
// QoS agent's adaptation loop doing the recovering
// ---------------------------------------------------------------------

/// Configuration of the chaos experiment: the combined visualization
/// workload (Figure 9) with a canonical fault schedule layered on top.
///
/// The staged story:
/// 1. contention starts ([`ChaosCfg::contention_at`]);
/// 2. the agent's first premium request hits
///    [`ChaosCfg::injected_rejections`] fault-injected rejections and
///    retries with backoff until granted;
/// 3. the premium trunk goes down for [`ChaosCfg::link_outage`], comes
///    back with a loss burst, and TCP recovers;
/// 4. the broker revokes the grant while a squatter holds most (not all)
///    capacity → the agent renegotiates to a smaller premium rate;
/// 5. a second revocation with *no* spare capacity → graceful
///    degradation to best-effort, plus a CPU-throttle window at the
///    sender for good measure;
/// 6. the squatters clear and a probe restores the full reservation —
///    the recovery the shape tests assert.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCfg {
    pub target_mbps: f64,
    pub fps: f64,
    pub work_fraction: f64,
    pub contention_bps: u64,
    pub contention_at: SimTime,
    /// When the adaptive flow makes its first reservation attempt.
    pub first_request_at: SimTime,
    /// Fault-injected GARA rejections before the first grant.
    pub injected_rejections: u32,
    pub link_down_at: SimTime,
    pub link_outage: SimDelta,
    /// Loss-burst probability (per mille) on the trunk right after link-up.
    pub loss_per_mille: u16,
    pub loss_duration: SimDelta,
    /// First revocation: a squatter takes *most* capacity → renegotiation.
    pub(crate) revoke_at: SimTime,
    /// Second revocation: a squatter takes *all* capacity → degradation.
    pub second_revoke_at: SimTime,
    pub cpu_throttle_at: SimTime,
    pub cpu_throttle_per_mille: u16,
    pub cpu_throttle_duration: SimDelta,
    /// When the squatters release their capacity (probing then recovers).
    pub clear_at: SimTime,
    pub duration: SimTime,
    /// Seed of the fault layer's private RNG (loss/corruption draws).
    pub seed: u64,
}

impl Default for ChaosCfg {
    fn default() -> Self {
        ChaosCfg {
            target_mbps: 35.0,
            fps: 10.0,
            work_fraction: 0.5,
            contention_bps: 130_000_000,
            contention_at: SimTime::from_secs(1),
            first_request_at: SimTime::from_secs(2),
            injected_rejections: 2,
            link_down_at: SimTime::from_secs(9),
            link_outage: SimDelta::from_millis(700),
            loss_per_mille: 50,
            loss_duration: SimDelta::from_secs(1),
            revoke_at: SimTime::from_secs(13),
            second_revoke_at: SimTime::from_secs(17),
            cpu_throttle_at: SimTime::from_secs(19),
            cpu_throttle_per_mille: 300,
            cpu_throttle_duration: SimDelta::from_millis(1_500),
            clear_at: SimTime::from_secs(21),
            duration: SimTime::from_secs(28),
            seed: 7,
        }
    }
}

impl ChaosCfg {
    /// The compressed schedule the `--fast` CI job and the tier-1 shape
    /// tests share (same stages, shorter phases).
    pub fn fast() -> ChaosCfg {
        ChaosCfg {
            first_request_at: SimTime::from_millis(1_500),
            link_down_at: SimTime::from_secs(6),
            link_outage: SimDelta::from_millis(400),
            loss_duration: SimDelta::from_millis(800),
            revoke_at: SimTime::from_secs(9),
            second_revoke_at: SimTime::from_secs(11),
            cpu_throttle_at: SimTime::from_secs(12),
            cpu_throttle_duration: SimDelta::from_secs(1),
            clear_at: SimTime::from_millis(13_500),
            duration: SimTime::from_secs(18),
            ..ChaosCfg::default()
        }
    }

    /// The clean premium window before the first physical fault:
    /// `[grant + ramp, link_down_at)` in seconds.
    pub fn pre_fault_window(&self) -> (f64, f64) {
        (
            self.first_request_at.as_secs_f64() + 1.5,
            self.link_down_at.as_secs_f64(),
        )
    }

    /// The post-clearance recovery window `[clear + ramp, duration)`.
    pub fn recovery_window(&self) -> (f64, f64) {
        (
            self.clear_at.as_secs_f64() + 2.0,
            self.duration.as_secs_f64(),
        )
    }

    /// The degraded (best-effort) window between the second revocation
    /// and the capacity clearance.
    pub fn degraded_window(&self) -> (f64, f64) {
        (
            self.second_revoke_at.as_secs_f64() + 1.0,
            self.clear_at.as_secs_f64(),
        )
    }
}

/// What the adaptation loop did during a chaos run, read back from the
/// `agent.*`/`gara.*` counters plus the fault layer's own accounting.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcome {
    pub final_state: AdaptState,
    pub requests: u64,
    pub rejects: u64,
    pub retries: u64,
    pub grants: u64,
    pub revocations_seen: u64,
    pub renegotiations: u64,
    pub degrades: u64,
    pub probes: u64,
    pub recoveries: u64,
    pub faults: FaultStats,
}

/// A capacity-squatting reservation: debits the EF slot tables on the
/// competitive pair's path (shared trunks) without touching any real
/// traffic — the flow spec is pinned to the discard port, which nothing
/// sends to, so the installed classifier rule never matches a packet.
fn squat_request(src: NodeId, dst: NodeId, rate_bps: u64) -> Request {
    Request::Network(NetworkRequest {
        src,
        dst,
        proto: Proto::Udp,
        src_port: None,
        dst_port: Some(9),
        rate_bps,
        depth: DepthRule::Normal,
        action: PolicingAction::Drop,
        shape_at_source: false,
    })
}

/// Run the chaos experiment; returns the receiver's 1-second bandwidth
/// series (Kb/s), the observability snapshot, and the adaptation summary.
pub fn chaos_run(cfg: ChaosCfg, obs: Observe) -> (TimeSeries, RunMetrics, ChaosOutcome) {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(cfg.contention_bps, cfg.contention_at, cfg.duration);
    let (psrc, pdst) = (lab.premium_src, lab.premium_dst);
    let (csrc, cdst) = (lab.competitive_src, lab.competitive_dst);

    // The Figure-9 visualization workload (no QoS attribute: the adaptive
    // flow below owns the premium reservation for the host pair).
    let frame_bytes = (cfg.target_mbps * 1e6 / 8.0 / cfg.fps).round() as u32;
    let interval = 1.0 / cfg.fps;
    let vcfg = VizCfg {
        frame_bytes,
        fps: cfg.fps,
        work_per_frame: SimDelta::from_secs_f64(interval * cfg.work_fraction),
        start: SimTime::from_millis(200),
        end: cfg.duration,
    };
    let tcp = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let mpi_cfg = mpichgq_mpi::MpiCfg {
        tcp,
        ..Default::default()
    };
    let (builder, _env) = enable_qos(JobBuilder::new(), QosAgentCfg::default());
    let (tx, _stats, _proc) = VizSender::new(vcfg, None);
    let (rx, meter, frames) = VizReceiver::new(SimDelta::from_secs(1), cfg.duration);
    if obs.on() {
        let spec = FlowSpec::host_pair(psrc, pdst, Proto::Tcp);
        lab.sim.net.set_deadline_matching(spec, PREMIUM_DEADLINE);
    }
    let _job = builder
        .rank(psrc, Box::new(tx))
        .rank(pdst, Box::new(rx))
        .cfg(mpi_cfg)
        .launch(&mut lab.sim);

    // The physical fault schedule: trunk outage + loss burst on link-up,
    // and a CPU-throttle window at the sender.
    let trunk = lab.sim.net.path_chans(psrc, pdst).expect("premium path")[1];
    let plan = FaultPlan::new(cfg.seed)
        .link_outage(trunk, cfg.link_down_at, cfg.link_outage)
        .at(
            cfg.link_down_at + cfg.link_outage,
            FaultAction::LossBurst {
                chan: trunk,
                per_mille: cfg.loss_per_mille,
                duration: cfg.loss_duration,
            },
        )
        .at(
            cfg.cpu_throttle_at,
            FaultAction::CpuThrottle {
                host: psrc,
                per_mille: cfg.cpu_throttle_per_mille,
                duration: Some(cfg.cpu_throttle_duration),
            },
        );
    lab.sim.net.install_fault_plan(plan);

    // The control-plane faults: injected rejections before the first
    // grant, then two revocation + capacity-squatting events.
    lab.with_gara(|g, _| g.inject_rejections(cfg.injected_rejections));
    let full_rate = (cfg.target_mbps * 1e6 * 1.1) as u64;
    let flow = AdaptiveFlow::install(
        &mut lab.sim,
        NetworkRequest {
            src: psrc,
            dst: pdst,
            proto: Proto::Tcp,
            src_port: None,
            dst_port: None,
            rate_bps: full_rate,
            depth: DepthRule::Normal,
            action: PolicingAction::Drop,
            shape_at_source: false,
        },
        cfg.first_request_at,
        AdaptPolicy {
            min_rate_bps: full_rate / 5,
            ..AdaptPolicy::default()
        },
    );

    let squatters: Rc<RefCell<Vec<mpichgq_gara::ResvId>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Scheduler::new();
    // First revocation: free the grant, then squat on everything except
    // ~65% of the full rate — the renegotiation ladder's first rung
    // (50%) fits, the full rate does not.
    let flow2 = flow.clone();
    let sq = squatters.clone();
    sched.at(cfg.revoke_at, move |net, stack| {
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        if let Some(id) = flow2.current_resv() {
            gara.revoke(net, id);
        }
        let avail = gara
            .available_on_path(net, csrc, cdst, net.now(), SimTime::MAX)
            .unwrap_or(0);
        let leave = full_rate * 65 / 100;
        let take = avail.saturating_sub(leave);
        if take > 0 {
            let id = gara
                .reserve(net, squat_request(csrc, cdst, take), StartSpec::Now, None)
                .expect("first squatter admitted");
            sq.borrow_mut().push(id);
        }
        stack.put_service_box(gara);
    });
    // Second revocation: free the renegotiated grant, then squat on all
    // remaining capacity — the whole ladder fails and the flow degrades.
    let flow3 = flow.clone();
    let sq = squatters.clone();
    sched.at(cfg.second_revoke_at, move |net, stack| {
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        if let Some(id) = flow3.current_resv() {
            gara.revoke(net, id);
        }
        let avail = gara
            .available_on_path(net, csrc, cdst, net.now(), SimTime::MAX)
            .unwrap_or(0);
        if avail > 0 {
            let id = gara
                .reserve(net, squat_request(csrc, cdst, avail), StartSpec::Now, None)
                .expect("second squatter admitted");
            sq.borrow_mut().push(id);
        }
        stack.put_service_box(gara);
    });
    // Clearance: the squatters leave; the agent's next probe recovers.
    let sq = squatters.clone();
    sched.at(cfg.clear_at, move |net, stack| {
        let mut gara = stack.take_service::<mpichgq_gara::Gara>().unwrap();
        for id in sq.borrow_mut().drain(..) {
            gara.cancel(net, id);
        }
        stack.put_service_box(gara);
    });
    sched.install(&mut lab.sim);

    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let counter = |name: &str| lab.sim.net.obs.metrics.counter_value(name).unwrap_or(0);
    let outcome = ChaosOutcome {
        final_state: flow.state(),
        requests: counter("agent.requests"),
        rejects: counter("agent.rejects"),
        retries: counter("agent.retries"),
        grants: counter("agent.grants"),
        revocations_seen: counter("agent.revocations_seen"),
        renegotiations: counter("agent.renegotiations"),
        degrades: counter("agent.degrades"),
        probes: counter("agent.probes"),
        recoveries: counter("agent.recoveries"),
        faults: lab.sim.net.fault_stats().unwrap_or_default(),
    };
    (
        finish_viz(meter, frames, cfg.duration, SimTime::ZERO, cfg.duration).series,
        metrics,
        outcome,
    )
}

// ---------------------------------------------------------------------
// PHB conformance — EF vs AF vs BE on a WFQ/WRED trunk under overload
// ---------------------------------------------------------------------

/// Configuration of the three-class conformance experiment: one flow per
/// PHB sharing an overloaded trunk, with the trunk running WFQ over
/// per-class queues and WRED on the AF queue.
///
/// EF is admission-controlled (a GARA reservation polices it at the edge),
/// AF is marked by an edge `Remark` policer — in-profile traffic enters at
/// low drop precedence, excess is escalated and thus RED-dropped first —
/// and best-effort is the paper's contention blaster, offered well above
/// the trunk's spare capacity.
#[derive(Debug, Clone, Copy)]
pub struct AfConformanceCfg {
    /// Offered EF load (UDP, premium host pair).
    pub ef_rate_bps: u64,
    /// EF reservation; above the offered rate, so EF stays in profile.
    pub ef_reservation_bps: u64,
    /// Offered AF load (UDP, a second premium-host-pair flow).
    pub af_rate_bps: u64,
    /// AF committed rate: traffic under it is marked low drop precedence,
    /// the excess is escalated by the edge policer's `Remark` action.
    pub af_commit_bps: u64,
    /// Offered best-effort load (the contention blaster).
    pub be_rate_bps: u64,
    pub duration: SimTime,
}

impl Default for AfConformanceCfg {
    fn default() -> Self {
        AfConformanceCfg {
            ef_rate_bps: 20_000_000,
            ef_reservation_bps: 25_000_000,
            af_rate_bps: 60_000_000,
            af_commit_bps: 25_000_000,
            be_rate_bps: CONTENTION_BPS,
            duration: SimTime::from_secs(20),
        }
    }
}

impl AfConformanceCfg {
    /// The compressed `--fast` CI variant (same overload, shorter run).
    pub fn fast() -> AfConformanceCfg {
        AfConformanceCfg {
            duration: SimTime::from_secs(6),
            ..AfConformanceCfg::default()
        }
    }
}

/// One per-class row of the conformance table.
#[derive(Debug, Clone, Copy)]
pub struct PhbRow {
    pub class: &'static str,
    pub offered_bps: u64,
    pub delivered_bps: u64,
}

impl PhbRow {
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered_bps as f64 / self.offered_bps.max(1) as f64
    }
}

/// What the conformance run reports: the EF/AF/BE delivery rows plus the
/// discipline's drop accounting (tail vs RED-early, and the AF early
/// drops that the WRED precedence ramp concentrates on escalated traffic).
#[derive(Debug, Clone, Copy)]
pub struct AfConformanceOut {
    pub rows: [PhbRow; 3],
    pub tail_drops: u64,
    pub red_early_drops: u64,
    pub early_af_drops: u64,
    pub events: u64,
}

/// The WFQ/WRED trunk discipline the conformance experiment runs on.
/// Weights 8/2/6: EF is protected outright, and because WFQ is
/// work-conserving the share EF leaves idle is split 2:6 between AF and
/// best-effort — which puts AF's service rate between its committed and
/// offered rates, so the WRED precedence ramp (not the scheduler alone)
/// decides which AF packets survive. WRED runs on AF, plain RED on BE.
fn af_conformance_queue() -> QueueCfg {
    QueueCfg::Sched(
        SchedCfg::wfq()
            .af(ClassCfg::new(150_000)
                .weight(2)
                .wred(RedCfg::wred_ramp(30_000, 120_000)))
            .be(ClassCfg::new(150_000)
                .weight(6)
                .red(RedCfg::new(30_000, 120_000))),
    )
}

/// Run the three-PHB conformance experiment. Expected shape under the
/// ~35% overload of the defaults: EF delivers ~everything (reserved and
/// weight-protected), AF lands between its committed and offered rates
/// (the in-profile fraction survives, the escalated excess takes the RED
/// drops), best-effort absorbs the rest of the starvation.
pub fn af_conformance_run(cfg: AfConformanceCfg, obs: Observe) -> (AfConformanceOut, RunMetrics) {
    let garnet = GarnetCfg {
        core_queue: af_conformance_queue(),
        ..GarnetCfg::default()
    };
    let mut lab = GarnetLab::new(garnet, 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(cfg.be_rate_bps, SimTime::ZERO, cfg.duration);
    let (psrc, pdst) = (lab.premium_src, lab.premium_dst);

    // EF: a reserved UDP flow on the premium pair; the grant installs the
    // edge policer that marks it EF (all of it in profile).
    lab.with_gara(|g, net| {
        g.reserve(
            net,
            Request::Network(NetworkRequest {
                src: psrc,
                dst: pdst,
                proto: Proto::Udp,
                src_port: None,
                dst_port: Some(6000),
                rate_bps: cfg.ef_reservation_bps,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("conformance EF reservation admitted");
    });

    // AF: marked at the ingress edge router. In-profile traffic becomes
    // AF at the default (low) drop precedence; the excess is escalated by
    // `Remark`, so WRED sheds it first when the AF queue fills.
    let af_spec = FlowSpec {
        proto: Some(Proto::Udp),
        dst_port: Some(6100),
        ..FlowSpec::default()
    };
    let ingress = lab.routers[0];
    lab.sim.net.node_mut(ingress).classifier.install(
        af_spec,
        Dscp::Af(Default::default()),
        Some(TokenBucket::new(
            cfg.af_commit_bps,
            depth_for(DepthRule::Normal, cfg.af_commit_bps),
        )),
        PolicingAction::Remark,
    );

    if obs.on() {
        let ef_spec = FlowSpec {
            proto: Some(Proto::Udp),
            dst_port: Some(6000),
            ..FlowSpec::default()
        };
        lab.sim.net.set_deadline_matching(ef_spec, PREMIUM_DEADLINE);
    }

    // Both marked flows ride the premium hosts' uncongested uplink so the
    // three classes contend at the trunk, where the discipline under test
    // runs — not at a shared drop-tail host queue upstream of the marker.
    use mpichgq_apps::{UdpBlaster, UdpSink};
    let (ef_sink, ef_meter) = UdpSink::new(6000, SimDelta::from_secs(1));
    lab.sim.spawn_app(pdst, Box::new(ef_sink));
    lab.sim.spawn_app(
        psrc,
        Box::new(UdpBlaster::with_rate(pdst, 6000, 1472, cfg.ef_rate_bps)),
    );
    let (af_sink, af_meter) = UdpSink::new(6100, SimDelta::from_secs(1));
    lab.sim.spawn_app(pdst, Box::new(af_sink));
    lab.sim.spawn_app(
        psrc,
        Box::new(UdpBlaster::with_rate(pdst, 6100, 1472, cfg.af_rate_bps).sport(59_998)),
    );

    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let secs = cfg.duration.as_secs_f64();
    let bps = |bytes: u64| (bytes as f64 * 8.0 / secs) as u64;
    let counter = |name: &str| lab.sim.net.obs.metrics.counter_value(name).unwrap_or(0);
    let early = counter("qdisc.early_drops.ef")
        + counter("qdisc.early_drops.af")
        + counter("qdisc.early_drops.be");
    let out = AfConformanceOut {
        rows: [
            PhbRow {
                class: "EF",
                offered_bps: cfg.ef_rate_bps,
                delivered_bps: bps(ef_meter.borrow().total_bytes()),
            },
            PhbRow {
                class: "AF",
                offered_bps: cfg.af_rate_bps,
                delivered_bps: bps(af_meter.borrow().total_bytes()),
            },
            PhbRow {
                class: "BE",
                offered_bps: cfg.be_rate_bps,
                delivered_bps: bps(lab.contention_delivered()),
            },
        ],
        tail_drops: counter("net.drops.queue_full").saturating_sub(early),
        red_early_drops: counter("net.drops.red_early"),
        early_af_drops: counter("qdisc.early_drops.af"),
        events: metrics.events,
    };
    (out, metrics)
}

// ---------------------------------------------------------------------
// Discipline ablation — scheduler × dropper matrix, scored by the SLO layer
// ---------------------------------------------------------------------

/// Configuration of one ablation cell's workload: the Figure-1 premium
/// TCP flow (paced above an undersized reservation) under full contention,
/// with the delivery deadline armed so the SLO layer scores the run.
#[derive(Debug, Clone, Copy)]
pub struct QdiscAblationCfg {
    pub app_rate_bps: u64,
    pub(crate) reservation_bps: u64,
    pub contention_bps: u64,
    pub duration: SimTime,
}

impl Default for QdiscAblationCfg {
    fn default() -> Self {
        QdiscAblationCfg {
            app_rate_bps: 50_000_000,
            reservation_bps: 40_000_000,
            contention_bps: CONTENTION_BPS,
            duration: SimTime::from_secs(20),
        }
    }
}

impl QdiscAblationCfg {
    /// The compressed `--fast` CI variant.
    pub fn fast() -> QdiscAblationCfg {
        QdiscAblationCfg {
            duration: SimTime::from_secs(5),
            ..QdiscAblationCfg::default()
        }
    }
}

/// One cell of the scheduler × dropper matrix.
#[derive(Debug, Clone, Copy)]
pub struct QdiscCell {
    pub sched: SchedKind,
    pub red: bool,
    /// Steady premium goodput over the run (Kb/s).
    pub premium_kbps: f64,
    /// Deadline misses the SLO layer charged to the premium flow's path.
    pub slo_misses: u64,
    pub tail_drops: u64,
    pub red_early_drops: u64,
    pub events: u64,
}

/// Human-readable labels for a cell's coordinates.
pub fn qdisc_cell_labels(sched: SchedKind, red: bool) -> (&'static str, &'static str) {
    let s = match sched {
        SchedKind::Sp => "SP",
        SchedKind::Wfq => "WFQ",
        SchedKind::Drr => "DRR",
    };
    (s, if red { "RED" } else { "drop-tail" })
}

/// The trunk discipline of one ablation cell: the chosen scheduler with
/// default 8/3/1 weights, and optionally RED on best-effort plus the WRED
/// precedence ramp on AF.
fn qdisc_cell_queue(sched: SchedKind, red: bool) -> QueueCfg {
    let mut sc = match sched {
        SchedKind::Sp => SchedCfg::sp(),
        SchedKind::Wfq => SchedCfg::wfq(),
        SchedKind::Drr => SchedCfg::drr(),
    };
    if red {
        sc = sc
            .af(ClassCfg::new(150_000)
                .weight(3)
                .wred(RedCfg::wred_ramp(30_000, 120_000)))
            .be(ClassCfg::new(150_000)
                .weight(1)
                .red(RedCfg::new(30_000, 120_000)));
    }
    QueueCfg::Sched(sc)
}

/// Run one ablation cell. The workload is identical across the matrix;
/// only `GarnetCfg::core_queue` varies, so differences in goodput and SLO
/// misses are attributable to the discipline alone.
fn qdisc_ablation_cell(
    sched: SchedKind,
    red: bool,
    cfg: QdiscAblationCfg,
    obs: Observe,
) -> (QdiscCell, RunMetrics) {
    let garnet = GarnetCfg {
        core_queue: qdisc_cell_queue(sched, red),
        ..GarnetCfg::default()
    };
    let mut lab = GarnetLab::new(garnet, 0.7);
    arm_trace(&mut lab, obs);
    lab.add_contention(cfg.contention_bps, SimTime::ZERO, cfg.duration);
    let (psrc, pdst) = (lab.premium_src, lab.premium_dst);
    lab.with_gara(|g, net| {
        g.reserve(
            net,
            Request::Network(NetworkRequest {
                src: psrc,
                dst: pdst,
                proto: Proto::Tcp,
                src_port: None,
                dst_port: None,
                rate_bps: cfg.reservation_bps,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("ablation reservation admitted");
    });
    if obs.on() {
        lab.sim.net.set_deadline_matching(
            FlowSpec::host_pair(psrc, pdst, Proto::Tcp),
            PREMIUM_DEADLINE,
        );
    }
    let tcp = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let (rx, meter) = MeteredTcpReceiver::new(6000, tcp, SimDelta::from_secs(1));
    lab.sim.spawn_app(pdst, Box::new(rx));
    lab.sim.spawn_app(
        psrc,
        Box::new(PacedTcpSender::new(pdst, 6000, cfg.app_rate_bps, tcp)),
    );
    lab.run_until(cfg.duration);
    let metrics = collect_metrics(&mut lab);
    let counter = |name: &str| lab.sim.net.obs.metrics.counter_value(name).unwrap_or(0);
    let m = std::rc::Rc::try_unwrap(meter)
        .map(|c| c.into_inner())
        .unwrap_or_else(|rc| rc.borrow().clone());
    let series = m.finish(cfg.duration);
    let half = cfg.duration.as_secs_f64() / 2.0;
    let cell = QdiscCell {
        sched,
        red,
        premium_kbps: phase_mean(&series, half, cfg.duration.as_secs_f64()),
        slo_misses: counter("slo.misses"),
        tail_drops: counter("net.drops.queue_full").saturating_sub(counter("net.drops.red_early")),
        red_early_drops: counter("net.drops.red_early"),
        events: metrics.events,
    };
    (cell, metrics)
}

/// The full SP/WFQ/DRR × drop-tail/RED matrix, in a fixed order, every
/// cell observed per `obs`. Returns the six cells plus the metrics
/// snapshot of the WFQ × RED cell (the matrix's designated
/// `results/qdisc_ablation/metrics.json` source).
pub fn qdisc_ablation_matrix(cfg: QdiscAblationCfg, obs: Observe) -> (Vec<QdiscCell>, RunMetrics) {
    let mut cells = Vec::new();
    let mut designated = None;
    for sched in [SchedKind::Sp, SchedKind::Wfq, SchedKind::Drr] {
        for red in [false, true] {
            let (cell, metrics) = qdisc_ablation_cell(sched, red, cfg, obs);
            if sched == SchedKind::Wfq && red {
                designated = Some(metrics);
            }
            cells.push(cell);
        }
    }
    (
        cells,
        designated.expect("matrix includes the WFQ × RED cell"),
    )
}

// ---------------------------------------------------------------------
// §3 anecdote — the finite-difference application whose bursts defeat an
// "average-rate" reservation
// ---------------------------------------------------------------------

/// Which QoS the boundary ranks request for their intercommunicator.
#[derive(Debug, Clone, Copy)]
pub enum Sec3Qos {
    None,
    /// Premium at the given app rate (Kb/s), with the given bucket rule.
    Premium {
        kbps: f64,
        depth: DepthRule,
        shaped: bool,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Sec3Cfg {
    pub ranks_per_site: usize,
    pub halo_bytes: u32,
    /// Compute time per iteration; with the paper's numbers (100 KB halo,
    /// 0.8 s compute) the average WAN rate is 1 Mb/s.
    pub compute: SimDelta,
    pub iterations: u32,
    pub wan_bps: u64,
    pub qos: Sec3Qos,
    /// Add best-effort UDP contention across the WAN.
    pub contention: bool,
}

impl Default for Sec3Cfg {
    fn default() -> Self {
        Sec3Cfg {
            ranks_per_site: 8,
            halo_bytes: 100_000,
            compute: SimDelta::from_millis(800),
            iterations: 30,
            wan_bps: 10_000_000,
            qos: Sec3Qos::None,
            contention: false,
        }
    }
}

/// Result: steady iteration rate vs the rate compute time alone allows.
#[derive(Debug, Clone, Copy)]
pub struct Sec3Out {
    pub iterations_done: usize,
    pub steady_iters_per_sec: f64,
    pub ideal_iters_per_sec: f64,
}

pub fn sec3_finite_difference(cfg: Sec3Cfg) -> Sec3Out {
    use mpichgq_apps::{
        steady_iteration_rate, StencilCfg, StencilRank, TwoSites, UdpBlaster, UdpSink,
    };

    let mut ts = TwoSites::build(
        cfg.ranks_per_site,
        cfg.wan_bps,
        SimTime::from_millis(5),
        0.7,
    );
    let horizon =
        SimTime::from_secs_f64(cfg.iterations as f64 * cfg.compute.as_secs_f64() * 8.0 + 20.0);
    if cfg.contention {
        let (sink, _m) = UdpSink::new(20_000, SimDelta::from_secs(1));
        let sink_host = ts.site_b[cfg.ranks_per_site - 1];
        let src_host = ts.site_a[cfg.ranks_per_site - 1];
        ts.sim.spawn_app(sink_host, Box::new(sink));
        ts.sim.spawn_app(
            src_host,
            Box::new(UdpBlaster::with_rate(
                sink_host,
                20_000,
                1472,
                cfg.wan_bps * 12 / 10,
            )),
        );
    }

    let agent_cfg = match cfg.qos {
        Sec3Qos::Premium { depth, shaped, .. } => QosAgentCfg {
            depth_rule: depth,
            shape_at_source: shaped,
            ..sweep_agent_cfg()
        },
        Sec3Qos::None => sweep_agent_cfg(),
    };
    let (mut builder, env) = enable_qos(JobBuilder::new(), agent_cfg);
    let qos = match cfg.qos {
        Sec3Qos::Premium { kbps, .. } => Some((env, QosAttribute::premium(kbps, cfg.halo_bytes))),
        Sec3Qos::None => None,
    };
    let scfg = StencilCfg {
        ranks: cfg.ranks_per_site * 2,
        iterations: cfg.iterations,
        halo_bytes: cfg.halo_bytes,
        compute: cfg.compute,
    };
    let (ranks, log) = StencilRank::job(scfg, qos);
    for (host, rank) in ts.hosts().into_iter().zip(ranks) {
        builder = builder.rank(host, Box::new(rank));
    }
    builder.cfg(era_mpi()).launch(&mut ts.sim);
    ts.sim.run_until(horizon);

    let iterations_done = log.borrow().len();
    // A run that never finished its iterations has no steady state: the
    // intra-burst rate over the completed tail wildly overstates a flow
    // that stalls for tens of seconds between bursts. Report the
    // effective pace over the whole horizon instead.
    let steady_iters_per_sec = if iterations_done < cfg.iterations as usize {
        iterations_done as f64 / horizon.as_secs_f64()
    } else {
        steady_iteration_rate(&log)
    };
    Sec3Out {
        iterations_done,
        steady_iters_per_sec,
        ideal_iters_per_sec: 1.0 / cfg.compute.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------
// Chaos ranks — rolling rank failures + a correlated two-host outage
// while surviving premium flows hold their SLO (fig_chaos_ranks)
// ---------------------------------------------------------------------

/// Configuration of the rank-failure chaos experiment.
///
/// `pairs` premium checkpoint/restart streamer pairs (one two-rank MPI
/// job each) share a two-router trunk with the paper's best-effort
/// contention blaster. The fault plan is the MPICH-G2 multi-site
/// reality: a *rolling* schedule crashes and restarts the first
/// [`ChaosRanksCfg::rolling_crashes`] sender hosts one at a time, then
/// one *correlated* outage takes both hosts of the last pair down at
/// once (a site dropping off the grid). Every pair holds a GARA premium
/// reservation and a 10 ms delivery deadline scored by
/// the SLO layer; the first pair's reservation is owned by an
/// [`AdaptiveFlow`] bound to its sender host, so the run exercises the
/// crash-release → restart-re-reserve adaptation path end to end.
///
/// Every rank is restartable: senders checkpoint the next sequence
/// number after each acked frame, receivers checkpoint their expected
/// sequence number, and both resume from [`Mpi::restored`] after a
/// `HostRestart` — the stop-and-wait ack protocol dedups the replayed
/// frame, so each receiver observes every sequence number exactly once.
#[derive(Debug, Clone, Copy)]
pub struct ChaosRanksCfg {
    /// Premium streamer pairs (sender at site A, receiver at site B).
    pub pairs: usize,
    /// Payload of one streamed frame (sequence number + padding).
    pub frame_bytes: u32,
    /// Pacing between acked frames (also the retry backoff while a
    /// peer is down).
    pub frame_interval: SimDelta,
    /// Per-pair premium reservation.
    pub(crate) reserve_bps: u64,
    pub trunk_bps: u64,
    pub trunk_delay: SimDelta,
    /// Offered best-effort contention load (over trunk capacity).
    pub contention_bps: u64,
    pub contention_at: SimTime,
    /// How many sender hosts the rolling plan crashes (pairs `0..n`,
    /// strictly fewer than `pairs` so the correlated pair is distinct).
    pub rolling_crashes: usize,
    pub first_crash_at: SimTime,
    pub crash_spacing: SimDelta,
    /// Down time of each rolling crash before its `HostRestart`.
    pub outage: SimDelta,
    /// When both hosts of the last pair fail together.
    pub correlated_at: SimTime,
    pub correlated_outage: SimDelta,
    pub duration: SimTime,
    /// Seed of the fault layer's private RNG.
    pub seed: u64,
}

impl Default for ChaosRanksCfg {
    fn default() -> Self {
        ChaosRanksCfg {
            pairs: 6,
            frame_bytes: 12_500,
            frame_interval: SimDelta::from_millis(50),
            reserve_bps: 3_000_000,
            trunk_bps: 100_000_000,
            trunk_delay: SimDelta::from_millis(2),
            contention_bps: 130_000_000,
            contention_at: SimTime::from_secs(1),
            rolling_crashes: 3,
            first_crash_at: SimTime::from_secs(4),
            crash_spacing: SimDelta::from_secs(3),
            outage: SimDelta::from_secs(2),
            correlated_at: SimTime::from_secs(15),
            correlated_outage: SimDelta::from_millis(2_500),
            duration: SimTime::from_secs(24),
            seed: 29,
        }
    }
}

impl ChaosRanksCfg {
    /// The compressed schedule the `--fast` CI job and the tier-1 shape
    /// tests share (same stages, shorter phases, fewer pairs).
    pub fn fast() -> ChaosRanksCfg {
        ChaosRanksCfg {
            pairs: 4,
            rolling_crashes: 2,
            contention_at: SimTime::from_millis(500),
            first_crash_at: SimTime::from_secs(2),
            crash_spacing: SimDelta::from_secs(2),
            outage: SimDelta::from_millis(1_200),
            correlated_at: SimTime::from_millis(6_500),
            correlated_outage: SimDelta::from_millis(1_500),
            duration: SimTime::from_secs(11),
            ..ChaosRanksCfg::default()
        }
    }
}

/// Per-pair scorecard of one chaos-ranks run.
#[derive(Debug, Clone, Copy)]
pub struct PairScore {
    pub pair: usize,
    /// Frames the receiver accepted in order (across incarnations).
    pub frames: u64,
    /// Data-direction packets delivered / delivered past deadline.
    pub delivered: u64,
    pub misses: u64,
    /// ≥99% of deliveries on time, and the pair actually streamed.
    pub slo_met: bool,
    /// Whether the fault plan touched this pair's hosts.
    pub crashed: bool,
    /// Incarnation counts (0 = never restarted).
    pub sender_epoch: u32,
    pub receiver_epoch: u32,
}

/// What the rolling-failure run did, read back from the SLO layer, the
/// fault layer, the adaptation agent, and the MPI engine's counters.
#[derive(Debug, Clone)]
pub struct ChaosRanksOutcome {
    pub scores: Vec<PairScore>,
    /// Pairs meeting their SLO; every pair survives the plan (all
    /// crashed hosts restart), so the denominator is `scores.len()`.
    pub pairs_meeting_slo: usize,
    pub slo_fraction: f64,
    pub checkpoints: u64,
    pub reqs_failed: u64,
    pub unexpected_dropped: u64,
    /// Final `mpi.unexpected.depth` gauge: a leak shows up as non-zero.
    pub unexpected_depth: f64,
    pub crash_releases: u64,
    pub restart_rereserves: u64,
    pub grants: u64,
    pub faults: FaultStats,
}

const CR_TAG_DATA: u32 = 40;
const CR_TAG_ACK: u32 = 41;
const CR_TIMER: u32 = 1;

fn cr_seq(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("8-byte header"))
}

/// Restartable stop-and-wait frame streamer (rank 0 of a pair): sends
/// `frame_bytes` frames paced at `interval`, checkpoints the next
/// sequence number after each ack, resumes from the checkpoint after a
/// restart, and backs off by one interval whenever the peer is down.
fn chaos_ranks_sender(frame_bytes: u32, interval: SimDelta) -> ProgramFactory {
    use std::rc::Rc;
    Rc::new(move || {
        let mut cur: Option<u64> = None;
        let mut send: Option<ReqId> = None;
        let mut ack: Option<ReqId> = None;
        let mut waiting = false;
        Box::new(move |mpi: &mut Mpi| {
            mpi.set_errhandler(COMM_WORLD, ErrorHandler::Return);
            if cur.is_none() {
                cur = Some(mpi.restored().map_or(0, |b| cr_seq(&b)));
            }
            loop {
                if waiting {
                    if !mpi.take_timer(CR_TIMER) {
                        return Poll::Pending;
                    }
                    waiting = false;
                }
                let seq = cur.expect("restored above");
                if send.is_none() && ack.is_none() {
                    let mut frame = vec![0u8; frame_bytes as usize];
                    frame[..8].copy_from_slice(&seq.to_le_bytes());
                    send = Some(mpi.isend_bytes(COMM_WORLD, 1, CR_TAG_DATA, frame));
                    ack = Some(mpi.irecv(COMM_WORLD, Some(1), Some(CR_TAG_ACK)));
                }
                if let Some(s) = send {
                    match mpi.test_result(s) {
                        Ok(None) => {}
                        Ok(Some(_)) | Err(_) => send = None,
                    }
                }
                match mpi.test_result(ack.expect("posted with send")) {
                    Ok(Some(info)) => {
                        ack = None;
                        let acked = cr_seq(&info.payload.expect("eager ack"));
                        // A stale ack (a pre-crash duplicate) is ignored;
                        // the current frame is simply retried.
                        if acked >= seq {
                            cur = Some(acked + 1);
                            mpi.checkpoint((acked + 1).to_le_bytes().to_vec());
                        }
                        mpi.set_timer(interval, CR_TIMER);
                        waiting = true;
                    }
                    Ok(None) => return Poll::Pending,
                    Err(_) => {
                        // Peer down: requests to it fail fast, so pace the
                        // retries with the frame interval.
                        send = None;
                        ack = None;
                        mpi.set_timer(interval, CR_TIMER);
                        waiting = true;
                    }
                }
            }
        }) as Box<dyn MpiProgram>
    })
}

/// Restartable receiver (rank 1): accepts in-order frames, checkpoints
/// the expected sequence number, and acks duplicates so a replayed
/// frame unsticks the sender after either side restarts.
fn chaos_ranks_receiver(
    pair: usize,
    progress: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
) -> ProgramFactory {
    use std::rc::Rc;
    Rc::new(move || {
        let progress = progress.clone();
        let mut expected: Option<u64> = None;
        let mut recv: Option<ReqId> = None;
        let mut acks: Vec<ReqId> = Vec::new();
        Box::new(move |mpi: &mut Mpi| {
            mpi.set_errhandler(COMM_WORLD, ErrorHandler::Return);
            if expected.is_none() {
                expected = Some(mpi.restored().map_or(0, |b| cr_seq(&b)));
            }
            acks.retain(|&a| matches!(mpi.test_result(a), Ok(None)));
            loop {
                if recv.is_none() {
                    recv = Some(mpi.irecv(COMM_WORLD, Some(0), Some(CR_TAG_DATA)));
                }
                match mpi.test_result(recv.expect("just posted")) {
                    Ok(Some(info)) => {
                        recv = None;
                        let s = cr_seq(&info.payload.expect("frame payload"));
                        let e = expected.expect("restored above");
                        if s == e {
                            expected = Some(e + 1);
                            mpi.checkpoint((e + 1).to_le_bytes().to_vec());
                            let mut p = progress.borrow_mut();
                            p[pair] = p[pair].max(e + 1);
                        }
                        acks.push(mpi.isend_bytes(
                            COMM_WORLD,
                            0,
                            CR_TAG_ACK,
                            s.to_le_bytes().to_vec(),
                        ));
                    }
                    Ok(None) => return Poll::Pending,
                    Err(_) => {
                        // Sender down: the next arrival (from its next
                        // incarnation) re-polls this program.
                        recv = None;
                        return Poll::Pending;
                    }
                }
            }
        }) as Box<dyn MpiProgram>
    })
}

/// Run the chaos-ranks experiment. Lifecycle tracing is always on (the
/// scorecard is read from it); `obs` sizes the flight recorder and sets
/// the timeline interval.
pub fn chaos_ranks_run(cfg: ChaosRanksCfg, obs: Observe) -> (RunMetrics, ChaosRanksOutcome) {
    use mpichgq_apps::{UdpBlaster, UdpSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    assert!(cfg.pairs >= 2, "need at least two pairs");
    assert!(
        cfg.rolling_crashes < cfg.pairs,
        "rolling plan must leave the correlated pair distinct"
    );

    // Two sites around one trunk: senders (and the contention source) at
    // site A, receivers (and the sink) at site B. Gigabit access links
    // keep the trunk the bottleneck.
    let mut b = TopoBuilder::new(0xC4A05);
    let srcs: Vec<NodeId> = (0..cfg.pairs).map(|i| b.host(&format!("s{i}"))).collect();
    let csrc = b.host("cx");
    let ra = b.router("ra");
    let rb = b.router("rb");
    let dsts: Vec<NodeId> = (0..cfg.pairs).map(|i| b.host(&format!("d{i}"))).collect();
    let cdst = b.host("cy");
    let access = LinkCfg {
        bandwidth_bps: 1_000_000_000,
        delay: SimDelta::from_micros(20),
        framing: Framing::Ethernet,
    };
    for &h in srcs.iter().chain([&csrc]) {
        b.link(h, ra, access, QueueCfg::priority_default());
    }
    for &h in dsts.iter().chain([&cdst]) {
        b.link(h, rb, access, QueueCfg::priority_default());
    }
    let trunk = LinkCfg {
        bandwidth_bps: cfg.trunk_bps,
        delay: cfg.trunk_delay,
        framing: Framing::Ethernet,
    };
    b.link(ra, rb, trunk, QueueCfg::priority_default());
    let mut sim = Sim::new(b.build());
    let mut gara = Gara::new();
    gara.manage_core_links(&sim.net, 0.7);
    install_gara(&mut sim.stack, gara);

    // Observability: flight recorder + timeline sampler as configured,
    // and lifecycle tracing unconditionally — the SLO scorecard *is*
    // this experiment's figure of merit.
    if obs.on() {
        sim.net.obs.enable_trace(obs.trace_capacity);
    }
    sim.net.enable_packet_tracing();
    if let Some(interval) = obs.timeline {
        sim.net.enable_timeline(interval);
    }
    for i in 0..cfg.pairs {
        sim.net.set_deadline_matching(
            FlowSpec::host_pair(srcs[i], dsts[i], Proto::Tcp),
            PREMIUM_DEADLINE,
        );
    }

    // Contention: the paper's best-effort blaster, offered above trunk
    // capacity so the BE queue stays persistently full.
    let (sink, _meter) = UdpSink::new(20_000, SimDelta::from_secs(1));
    sim.spawn_app(cdst, Box::new(sink));
    sim.spawn_app(
        csrc,
        Box::new(
            UdpBlaster::with_rate(cdst, 20_000, 1472, cfg.contention_bps)
                .window(cfg.contention_at, cfg.duration),
        ),
    );

    // Premium reservations: pair 0 through the adaptive agent (bound to
    // its crash-scheduled sender host), the rest as static grants.
    let flow = AdaptiveFlow::install(
        &mut sim,
        NetworkRequest {
            src: srcs[0],
            dst: dsts[0],
            proto: Proto::Tcp,
            src_port: None,
            dst_port: None,
            rate_bps: cfg.reserve_bps,
            depth: DepthRule::Normal,
            action: PolicingAction::Drop,
            shape_at_source: false,
        },
        SimTime::from_millis(300),
        AdaptPolicy {
            min_rate_bps: cfg.reserve_bps / 2,
            ..AdaptPolicy::default()
        },
    );
    flow.bind_host(&mut sim, srcs[0]);
    for i in 1..cfg.pairs {
        let mut g = sim.stack.take_service::<Gara>().expect("gara installed");
        g.reserve(
            &mut sim.net,
            Request::Network(NetworkRequest {
                src: srcs[i],
                dst: dsts[i],
                proto: Proto::Tcp,
                src_port: None,
                dst_port: None,
                rate_bps: cfg.reserve_bps,
                depth: DepthRule::Normal,
                action: PolicingAction::Drop,
                shape_at_source: false,
            }),
            StartSpec::Now,
            None,
        )
        .expect("static premium reservation admitted");
        sim.stack.put_service_box(g);
    }

    // The fault plan: rolling sender crashes, then the correlated
    // two-host outage of the last pair.
    let mut plan = FaultPlan::new(cfg.seed);
    for (k, &victim) in srcs.iter().enumerate().take(cfg.rolling_crashes) {
        let at = cfg.first_crash_at + cfg.crash_spacing * k as u64;
        plan = plan
            .at(at, FaultAction::HostCrash { host: victim })
            .at(at + cfg.outage, FaultAction::HostRestart { host: victim });
    }
    let last = cfg.pairs - 1;
    plan = plan
        .at(
            cfg.correlated_at,
            FaultAction::HostCrash { host: srcs[last] },
        )
        .at(
            cfg.correlated_at,
            FaultAction::HostCrash { host: dsts[last] },
        )
        .at(
            cfg.correlated_at + cfg.correlated_outage,
            FaultAction::HostRestart { host: srcs[last] },
        )
        .at(
            cfg.correlated_at + cfg.correlated_outage,
            FaultAction::HostRestart { host: dsts[last] },
        );
    sim.net.install_fault_plan(plan);

    // One two-rank restartable job per pair.
    let progress: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; cfg.pairs]));
    let mpi_cfg = mpichgq_mpi::MpiCfg {
        tcp: TcpCfg {
            send_buf: 256 * 1024,
            recv_buf: 256 * 1024,
            ..TcpCfg::default()
        },
        ..Default::default()
    };
    let jobs: Vec<JobHandle> = (0..cfg.pairs)
        .map(|i| {
            JobBuilder::new()
                .base_port(12_000 + (i as u16) * 16)
                .rank_restartable(
                    srcs[i],
                    chaos_ranks_sender(cfg.frame_bytes, cfg.frame_interval),
                )
                .rank_restartable(dsts[i], chaos_ranks_receiver(i, progress.clone()))
                .cfg(mpi_cfg.clone())
                .launch(&mut sim)
        })
        .collect();

    sim.run_until(cfg.duration);

    let at = sim.net.now();
    sim.net.timeline_finalize(&mut sim.stack, at);
    let metrics = RunMetrics {
        events: sim.net.events_processed(),
        metrics_json: sim.net.metrics_json(),
        trace_json: sim.net.chrome_trace_json(),
        timeline_json: sim.net.timeline_json(),
    };

    // Scorecard: data-direction deliveries and deadline misses per pair,
    // from the SLO layer's per-flow ledger.
    let tracer = sim.net.packet_tracer().expect("tracing armed above");
    let scores: Vec<PairScore> = (0..cfg.pairs)
        .map(|i| {
            let (mut delivered, mut misses) = (0u64, 0u64);
            for f in tracer.flows() {
                if f.key.src == srcs[i] && f.key.dst == dsts[i] {
                    delivered += f.delivered;
                    misses += f.misses;
                }
            }
            let frames = progress.borrow()[i];
            PairScore {
                pair: i,
                frames,
                delivered,
                misses,
                slo_met: delivered > 0 && misses * 100 <= delivered,
                crashed: i < cfg.rolling_crashes || i == last,
                sender_epoch: jobs[i].epoch_of(0),
                receiver_epoch: jobs[i].epoch_of(1),
            }
        })
        .collect();
    let pairs_meeting_slo = scores.iter().filter(|s| s.slo_met).count();
    let counter = |name: &str| sim.net.obs.metrics.counter_value(name).unwrap_or(0);
    let outcome = ChaosRanksOutcome {
        slo_fraction: pairs_meeting_slo as f64 / scores.len() as f64,
        pairs_meeting_slo,
        checkpoints: counter("mpi.checkpoints"),
        reqs_failed: counter("mpi.reqs_failed"),
        unexpected_dropped: counter("mpi.unexpected_dropped"),
        unexpected_depth: sim
            .net
            .obs
            .metrics
            .gauge_value("mpi.unexpected.depth")
            .unwrap_or(0.0),
        crash_releases: counter("agent.crash_releases"),
        restart_rereserves: counter("agent.restart_rereserves"),
        grants: counter("agent.grants"),
        faults: sim.net.fault_stats().unwrap_or_default(),
        scores,
    };
    (metrics, outcome)
}
