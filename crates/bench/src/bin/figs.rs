//! Every table and figure of the paper's evaluation (§5), plus the
//! experiments that extend it: `figs <name> [--fast]` prints one figure's
//! series or table on stdout and writes its observability files under
//! `results/<experiment>/`. The names are the `results/<name>.txt` stems;
//! `--fast` shortens the runs for CI (Figures 4, 7 and 8 have no shorter
//! form and ignore it).

use mpichgq_bench::output::{print_series, print_sweep, print_table, write_run};
use mpichgq_bench::*;
use mpichgq_core::{ip_overhead_factor, wire_overhead_factor, DEFAULT_MSS};
use mpichgq_netsim::{DepthRule, Framing, Garnet, GarnetCfg, NodeId, NodeKind, PolicingAction};
use mpichgq_sim::{SimDelta, SimTime};

/// Prints one figure; the argument is `--fast`.
type Figure = fn(bool);

const FIGS: [(&str, Figure); 14] = [
    ("fig1", fig1),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("table1", table1_fig),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("sec3", sec3),
    ("ablations", ablations),
    ("chaos", chaos),
    ("chaos_ranks", chaos_ranks),
    ("af_conformance", af_conformance),
    ("qdisc_ablation", qdisc_ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, fast) = match args.as_slice() {
        [name] => (name.as_str(), false),
        [name, flag] if flag == "--fast" => (name.as_str(), true),
        _ => ("", false),
    };
    let Some((_, run)) = FIGS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = FIGS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: figs <name> [--fast]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    };
    run(fast);
}

/// Figure 1: "An application using TCP has made a reservation for only
/// 40 Mb/s, when it is sending at 50 Mb/s" — the bandwidth trace
/// oscillates as TCP repeatedly overruns the policer, loses packets,
/// backs off, and climbs again.
fn fig1(fast: bool) {
    let mut cfg = Fig1Cfg::default();
    if fast {
        cfg.duration = SimTime::from_secs(30);
    }
    let (series, metrics) = fig1_tcp_sawtooth(cfg, Observe::FIGURE);
    print_series(
        "Figure 1: TCP at 50 Mb/s with a 40 Mb/s reservation (bandwidth vs time)",
        "bandwidth_kbps",
        &series,
    );
    println!(
        "# summary: min {:.0} Kb/s, max {:.0} Kb/s, mean {:.0} Kb/s (paper: sawtooth ~22000-52000)",
        series.min(),
        series.max(),
        series.mean()
    );
    write_run("fig1", &metrics, false);
}

/// Figure 4: the GARNET testbed model — topology inventory.
fn fig4(_fast: bool) {
    let g = Garnet::build(GarnetCfg::default());
    println!("# Figure 4: GARNET testbed model");
    for i in 0..g.net.node_count() {
        let id = NodeId(i as u32);
        let n = g.net.node(id);
        let kind = match n.kind {
            NodeKind::Host => "host",
            NodeKind::Router => "router",
        };
        println!("{id}: {kind} {}", n.name);
    }
    println!("# channels (directed):");
    for c in g.net.chan_ids() {
        let ch = g.net.chan(c);
        println!(
            "{} -> {}: {} Mb/s, {:.3} ms, {:?}{}",
            ch.from,
            ch.to,
            ch.cfg.bandwidth_bps / 1_000_000,
            ch.cfg.delay.as_secs_f64() * 1e3,
            ch.cfg.framing,
            if ch.edge_ingress {
                " [edge ingress]"
            } else {
                ""
            }
        );
    }
    let d = g
        .net
        .path_delay(g.premium_src, g.premium_dst)
        .expect("GARNET routes the premium pair");
    println!(
        "# premium path one-way propagation delay: {:.3} ms",
        d.as_secs_f64() * 1e3
    );
}

/// Figure 5: "The effect of different reservation sizes for the ping-pong
/// MPICH-GQ program. Each line represents the throughput achieved for a
/// particular message size at different reservation sizes."
fn fig5(fast: bool) {
    let msgs = [8u32, 40, 80, 120]; // kilobits, as in the paper
    let reservations: Vec<f64> = if fast {
        vec![0.0, 1000.0, 3000.0, 6000.0, 9000.0, 12000.0]
    } else {
        (0..=12).map(|i| i as f64 * 1000.0).collect()
    };
    // The metrics snapshot comes from one representative cell (80 Kb
    // messages, 6 Mb/s reservation — mid-sweep, reservation active), so it
    // stays attributable to one simulation.
    let (rows, metrics) = fig5_sweep(&msgs, &reservations, fast, Some((80, 6000.0)));
    print_sweep(
        "Figure 5: one-way ping-pong throughput vs one-way reservation, under heavy UDP contention",
        "msg_kbits",
        "reservation_kbps",
        "one_way_throughput_kbps",
        &rows,
    );
    for (msg, pts) in &rows {
        let max = pts.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        println!("# {msg} Kb messages saturate at {max:.0} Kb/s");
    }
    write_run(
        "fig5",
        &metrics.expect("the grid holds the observed cell"),
        false,
    );
}

/// Figure 6: "The effect of different reservations on the visualization
/// application attempting different throughputs. Note that making a
/// reservation that is even a little bit too small dramatically decreases
/// the throughput that is achieved."
fn fig6(fast: bool) {
    let frames_kb = [5u32, 10, 20, 30]; // at 10 fps: 400..2400 Kb/s attempted
    let reservations: Vec<f64> = if fast {
        vec![0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0, 2800.0]
    } else {
        (0..=14).map(|i| i as f64 * 200.0).collect()
    };
    // The metrics snapshot comes from one representative cell (20 KB
    // frames, 1600 Kb/s reservation — at the knee).
    let (rows, metrics) = fig6_sweep(&frames_kb, &reservations, fast, Some((20, 1600.0)));
    print_sweep(
        "Figure 6: visualization throughput vs reservation (10 frames/s), under contention",
        "frame_kbytes",
        "reservation_kbps",
        "achieved_kbps",
        &rows,
    );
    for (fk, pts) in &rows {
        let target = fk * 80;
        let knee = pts
            .iter()
            .find(|&&(_, v)| v >= 0.97 * target as f64)
            .map(|&(r, _)| r);
        match knee {
            Some(r) => println!(
                "# {target} Kb/s attempted: adequate at ~{r:.0} Kb/s ({:.2}x)",
                r / target as f64
            ),
            None => println!("# {target} Kb/s attempted: not achieved in the sweep range"),
        }
    }
    write_run(
        "fig6",
        &metrics.expect("the grid holds the observed cell"),
        false,
    );
}

/// Table 1: "The reservation required to achieve a specified throughput,
/// for varying degrees of 'burstiness' (expressed in frames per second)
/// and token bucket sizes."
fn table1_fig(fast: bool) {
    let rows = table1(&[400.0, 800.0, 1600.0, 2400.0], 0.95, fast);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.target_kbps),
                format!("{:.0}", r.fps10_normal),
                format!("{:.0}", r.fps1_normal),
                format!("{:.0}", r.fps1_large),
            ]
        })
        .collect();
    print_table(
        "Table 1: reservation (Kb/s) required for a target bandwidth",
        &[
            "bandwidth_desired",
            "normal_bucket_10fps",
            "normal_bucket_1fps",
            "large_bucket_1fps",
        ],
        &table,
    );
    println!("# paper:           400 -> 500 / 750 / 500");
    println!("# paper:           800 -> 900 / 1450 / 900");
    println!("# paper:          1600 -> 1700 / 2700 / 1700");
    println!("# paper:          2400 -> 2500 / 3600 / 2500");
    for r in &rows {
        println!(
            "# {:.0}: burstiness penalty {:.0}% (paper ~50%), eliminated by large bucket: {}",
            r.target_kbps,
            (r.fps1_normal / r.fps10_normal - 1.0) * 100.0,
            r.fps1_large <= r.fps10_normal * 1.1
        );
    }
}

/// Figure 7: "TCP traces of two programs that each send at 400 Kb/s, but
/// with very different burstiness characteristics" — sequence number vs
/// time for 10 frames/s (40 Kb frames) and 1 frame/s (400 Kb frame).
fn fig7(_fast: bool) {
    let window = SimTime::from_secs(1);
    for (label, fps) in [("10fps_40kb_frames", 10.0), ("1fps_400kb_frame", 1.0)] {
        let (trace, metrics) = fig7_seq_trace(fps, window, Observe::FIGURE);
        print_series(
            &format!("Figure 7 ({label}): TCP data-segment sequence numbers over 1 s"),
            "sequence_number",
            &trace,
        );
        // Burstiness summary: fraction of the second during which segments
        // were emitted.
        let times: Vec<f64> = trace
            .points()
            .iter()
            .map(|(t, _)| t.as_secs_f64())
            .collect();
        if let [first, .., last] = times[..] {
            let span = last - first;
            println!(
                "# {label}: {} segments emitted over {span:.3} s of the window",
                times.len()
            );
        }
        write_run(&format!("fig7_{label}"), &metrics, true);
    }
}

/// Figure 8: "The bandwidth achieved by the visualization application.
/// Contention for the CPU on the sending side begins at 10 seconds, and a
/// reservation is made at 20 seconds."
fn fig8(_fast: bool) {
    let (series, metrics) = fig8_cpu_reservation(Fig8Cfg::default(), Observe::FIGURE);
    print_series(
        "Figure 8: visualization bandwidth with CPU contention at 10 s, DSRT reservation at 20 s",
        "bandwidth_kbps",
        &series,
    );
    println!(
        "# phases: clean {:.0} Kb/s | hog {:.0} Kb/s | 90% CPU reservation {:.0} Kb/s (paper: ~15000 | ~8000 | ~15000)",
        phase_mean(&series, 2.0, 10.0),
        phase_mean(&series, 11.0, 20.0),
        phase_mean(&series, 22.0, 30.0),
    );
    write_run("fig8", &metrics, true);
}

/// Figure 9: "Initially it runs well (0-10 seconds), then network
/// congestion affects its bandwidth (11-20 seconds) until a network
/// reservation is made (21-30 seconds). Bandwidth again decreases when
/// there is CPU contention at the sender (31-40 seconds) until there is a
/// CPU reservation (41-50 seconds)."
fn fig9(fast: bool) {
    let cfg = if fast {
        // Same staged phases on a compressed clock: enough of each phase to
        // see the level shifts, quick enough for the CI figures job.
        Fig9Cfg {
            congestion_at: SimTime::from_secs(4),
            net_reservation_at: SimTime::from_secs(9),
            hog_at: SimTime::from_secs(13),
            cpu_reservation_at: SimTime::from_secs(17),
            duration: SimTime::from_secs(21),
            ..Fig9Cfg::default()
        }
    } else {
        Fig9Cfg::default()
    };
    let (series, metrics) = fig9_combined(cfg, Observe::FIGURE);
    print_series(
        "Figure 9: 35 Mb/s visualization under staged network + CPU contention and reservations",
        "bandwidth_kbps",
        &series,
    );
    let phase_ends = [
        cfg.congestion_at,
        cfg.net_reservation_at,
        cfg.hog_at,
        cfg.cpu_reservation_at,
        cfg.duration,
    ]
    .map(|t| t.as_secs_f64());
    println!(
        "# phases: clean {:.0} | congestion {:.0} | net reservation {:.0} | cpu contention {:.0} | cpu reservation {:.0} Kb/s",
        phase_mean(&series, 2.0, phase_ends[0]),
        phase_mean(&series, phase_ends[0] + 1.0, phase_ends[1]),
        phase_mean(&series, phase_ends[1] + 1.0, phase_ends[2]),
        phase_mean(&series, phase_ends[2] + 1.0, phase_ends[3]),
        phase_mean(&series, phase_ends[3] + 1.0, phase_ends[4]),
    );
    println!("# paper shape: full | depressed | restored | depressed | restored — both reservations are needed");
    write_run("fig9", &metrics, false);
}

/// The §3 anecdote, quantified: a finite-difference application across two
/// 8-host sites averages 1 Mb/s over the WAN, but sends its 100 KB halo as
/// a burst. "If we configure our network to support a premium flow at this
/// rate, we find that things do not perform as we expect."
fn sec3(fast: bool) {
    let base = Sec3Cfg {
        iterations: if fast { 15 } else { 30 },
        ..Sec3Cfg::default()
    };
    let premium = |kbps: f64, depth: DepthRule, shaped: bool| Sec3Cfg {
        contention: true,
        qos: Sec3Qos::Premium {
            kbps,
            depth,
            shaped,
        },
        ..base
    };
    let cases = [
        ("uncontended best-effort (baseline)", base),
        (
            "contended, no reservation",
            Sec3Cfg {
                contention: true,
                ..base
            },
        ),
        (
            "premium at the 1 Mb/s average rate, bw/40 bucket (the paper's trap)",
            premium(1_000.0, DepthRule::Normal, false),
        ),
        (
            "premium 1 Mb/s, LARGE bucket (burst fits)",
            premium(1_000.0, DepthRule::Large, false),
        ),
        (
            "premium 1.3 Mb/s + end-system shaping (§5.4)",
            premium(1_300.0, DepthRule::Normal, true),
        ),
        (
            "premium 3 Mb/s, bw/40 bucket (over-reserving instead)",
            premium(3_000.0, DepthRule::Normal, false),
        ),
    ];
    println!("# §3: finite-difference across two sites; ideal = 1.25 iterations/s (0.8 s compute)");
    println!("configuration,iterations_done,steady_iters_per_sec,fraction_of_ideal");
    for (label, cfg) in cases {
        let out = sec3_finite_difference(cfg);
        println!(
            "\"{label}\",{},{:.3},{:.2}",
            out.iterations_done,
            out.steady_iters_per_sec,
            out.steady_iters_per_sec / out.ideal_iters_per_sec
        );
    }
    println!("# the average-rate reservation with the normal bucket underperforms:");
    println!("# the 100 KB burst exceeds the 1 Mb/s bucket's 3.1 KB depth, so most of");
    println!("# every halo is policed away and TCP slow-starts (paper §3).");
}

/// One independent run of [`ablations`].
enum Ablation {
    /// The delivery ratio of one visualization run.
    Delivery(Fig6Cfg),
    /// The least reservation reaching 95 % delivery, by bisection.
    MinReservation(Fig6Cfg),
}

/// Ablations of the design choices DESIGN.md §4 calls out:
///
/// 1. edge policing action: drop vs demote;
/// 2. token-bucket depth rules (see also Table 1);
/// 3. end-system traffic shaping (§5.4's proposal);
/// 4. TCP era: the burstiness penalty's sensitivity to the minimum RTO;
/// 5. layer-2 framing: where the paper's 1.06× reservation factor comes
///    from.
fn ablations(fast: bool) {
    let dur = SimTime::from_secs(if fast { 15 } else { 30 });
    let viz = |frame_bytes, fps, reservation_kbps| Fig6Cfg {
        duration: dur,
        ..Fig6Cfg::new(frame_bytes, fps, reservation_kbps)
    };
    let rtos = [200u64, 500, 1000];
    // Every run is independent: the three minimum-RTO bisections (the
    // longest, so they start first) and the six delivery runs share one
    // pool, and the sections print in order from the collected values.
    let mut runs: Vec<Ablation> = rtos
        .iter()
        .map(|&ms| {
            Ablation::MinReservation(Fig6Cfg {
                rto_min: SimDelta::from_millis(ms),
                ..table1_probe(800.0, 1.0, fast)
            })
        })
        .collect();
    let actions = [
        ("drop", PolicingAction::Drop),
        ("demote", PolicingAction::Demote),
    ];
    for (_, policing_action) in actions {
        runs.push(Ablation::Delivery(Fig6Cfg {
            policing_action,
            contention_bps: 100_000_000,
            ..viz(30_000, 10.0, 1600.0)
        }));
    }
    let shaping = [("off", false), ("on", true)];
    for (_, shape_at_source) in shaping {
        runs.push(Ablation::Delivery(Fig6Cfg {
            shape_at_source,
            ..viz(100_000, 1.0, 1000.0)
        }));
    }
    let limits = [("64k_eager", 64 * 1024u32), ("8k_rendezvous", 8 * 1024)];
    for (_, eager_limit) in limits {
        runs.push(Ablation::Delivery(Fig6Cfg {
            eager_limit,
            ..viz(100_000, 1.0, 1_100.0)
        }));
    }
    let got = par_map(&runs, |run| match *run {
        Ablation::Delivery(cfg) => viz_delivery_ratio(cfg),
        Ablation::MinReservation(probe) => min_reservation(probe, 800.0, 4.0, 0.95),
    });
    let (min_res, delivery) = got.split_at(rtos.len());
    let (by_action, rest) = delivery.split_at(actions.len());
    let (by_shaping, by_limit) = rest.split_at(shaping.len());

    // --- 1. drop vs demote at an undersized reservation -----------------
    println!("# ablation 1: policing action at an undersized reservation");
    println!("#   (2400 Kb/s attempted, 1600 Kb/s reserved, moderate contention)");
    println!("action,delivery_ratio");
    for ((label, _), ratio) in actions.iter().zip(by_action) {
        println!("{label},{ratio:.2}");
    }

    // --- 3. end-system shaping vs policing only -------------------------
    println!(
        "# ablation 3: end-system shaping of the 1 fps burst (800 Kb/s target, 1000 Kb/s reserved)"
    );
    println!("shaping,delivery_ratio");
    for ((label, _), ratio) in shaping.iter().zip(by_shaping) {
        println!("{label},{ratio:.2}");
    }

    // --- 4. burstiness penalty vs minimum RTO ---------------------------
    println!("# ablation 4: Table 1 cell (800 Kb/s, 1 fps, normal bucket) vs TCP minimum RTO");
    println!("rto_min_ms,min_reservation_kbps");
    for (rto_ms, min) in rtos.iter().zip(min_res) {
        println!("{rto_ms},{min:.0}");
    }

    // --- 2b. eager vs rendezvous threshold (a negative result) ----------
    println!("# ablation 2b: MPI eager threshold for the 1 fps burst (800 Kb/s target, 1100 Kb/s reserved)");
    println!("#   NEGATIVE RESULT: the protocol choice does not change the burst the");
    println!("#   policer sees — rendezvous only prepends an RTS/CTS round trip; the");
    println!("#   data still leaves as one TCP-paced burst. Shaping must happen below");
    println!("#   MPI (the token bucket or the globus-io shaper), as the paper argues.");
    println!("eager_limit,delivery_ratio");
    for ((label, _), ratio) in limits.iter().zip(by_limit) {
        println!("{label},{ratio:.2}");
    }

    // --- 5. framing overhead (the 1.06 factor) --------------------------
    println!("# ablation 5: reservation factor per app byte, 100 KB messages, by framing");
    println!("framing,factor");
    println!("ip_only,{:.3}", ip_overhead_factor(100 * 1024, DEFAULT_MSS));
    for (label, f) in [
        ("none", Framing::None),
        ("ethernet", Framing::Ethernet),
        ("atm_aal5", Framing::AtmAal5),
    ] {
        println!(
            "{label},{:.3}",
            wire_overhead_factor(100 * 1024, DEFAULT_MSS, f)
        );
    }
    println!("# the paper's \"around 1.06 of the sending rate\" sits between the");
    println!("# ethernet and ATM figures; ATM cell padding dominates the tax.");
}

/// Chaos experiment: the Figure-9 combined workload under a scripted
/// fault plan — injected GARA rejections, a trunk outage with a loss
/// burst on recovery, two reservation revocations, and a CPU-throttle
/// window — with the QoS agent's adaptation loop doing the recovering.
///
/// The printed series shows the staircase: premium grant after backoff
/// retries, a dip at the outage, a smaller premium step after
/// renegotiation, a best-effort trough while degraded, and full recovery
/// once capacity clears.
fn chaos(fast: bool) {
    let cfg = if fast {
        ChaosCfg::fast()
    } else {
        ChaosCfg::default()
    };
    let (series, metrics, outcome) = chaos_run(cfg, Observe::FIGURE);
    print_series(
        "Chaos: 35 Mb/s visualization under fault injection with an adaptive QoS agent",
        "bandwidth_kbps",
        &series,
    );
    let (pre_lo, pre_hi) = cfg.pre_fault_window();
    let (deg_lo, deg_hi) = cfg.degraded_window();
    let (rec_lo, rec_hi) = cfg.recovery_window();
    println!(
        "# phases: pre-fault {:.0} | degraded {:.0} | recovered {:.0} Kb/s",
        phase_mean(&series, pre_lo, pre_hi),
        phase_mean(&series, deg_lo, deg_hi),
        phase_mean(&series, rec_lo, rec_hi),
    );
    println!(
        "# adaptation: {} requests, {} rejects, {} retries, {} grants, \
         {} revocations seen, {} renegotiations, {} degrades, {} probes, {} recoveries",
        outcome.requests,
        outcome.rejects,
        outcome.retries,
        outcome.grants,
        outcome.revocations_seen,
        outcome.renegotiations,
        outcome.degrades,
        outcome.probes,
        outcome.recoveries,
    );
    println!(
        "# faults: {} link-down drops, {} loss drops, {} corrupt drops, {} downs, {} ups; final state {:?}",
        outcome.faults.drops_link_down,
        outcome.faults.drops_loss,
        outcome.faults.drops_corrupt,
        outcome.faults.link_downs,
        outcome.faults.link_ups,
        outcome.final_state,
    );
    write_run("chaos", &metrics, true);
}

/// Chaos-ranks experiment: rolling rank failures (HostCrash/HostRestart)
/// plus one correlated two-host outage, under the paper's best-effort
/// contention, while every premium streamer pair holds a GARA
/// reservation and a delivery deadline.
///
/// Crashed ranks respawn from their checkpoints and resume the stream;
/// the adaptive pair's reservation is released on crash and re-reserved
/// on restart. The printed scorecard shows per-pair frame progress and
/// SLO conformance — the acceptance bar is ≥90% of surviving premium
/// pairs meeting their SLO through the whole plan.
fn chaos_ranks(fast: bool) {
    let cfg = if fast {
        ChaosRanksCfg::fast()
    } else {
        ChaosRanksCfg::default()
    };
    let (metrics, out) = chaos_ranks_run(cfg, Observe::FIGURE);

    let rows: Vec<Vec<String>> = out
        .scores
        .iter()
        .map(|s| {
            vec![
                s.pair.to_string(),
                s.frames.to_string(),
                s.delivered.to_string(),
                s.misses.to_string(),
                if s.slo_met { "met" } else { "MISSED" }.to_string(),
                if s.crashed { "yes" } else { "-" }.to_string(),
                format!("{}/{}", s.sender_epoch, s.receiver_epoch),
            ]
        })
        .collect();
    print_table(
        "Chaos ranks: premium streamer pairs under rolling rank failures",
        &[
            "pair",
            "frames",
            "delivered",
            "misses",
            "slo",
            "crashed",
            "epochs",
        ],
        &rows,
    );
    println!(
        "# slo: {}/{} surviving premium pairs met their deadline budget ({:.0}%)",
        out.pairs_meeting_slo,
        out.scores.len(),
        out.slo_fraction * 100.0,
    );
    println!(
        "# faults: {} host crashes, {} host restarts, {} host-down drops, {} dead deliveries",
        out.faults.host_crashes,
        out.faults.host_restarts,
        out.faults.drops_host_down,
        out.faults.dead_deliveries,
    );
    println!(
        "# recovery: {} checkpoints, {} failed requests, {} unexpected drops, \
         unexpected depth {:.0}; agent {} crash releases, {} restart re-reserves, {} grants",
        out.checkpoints,
        out.reqs_failed,
        out.unexpected_dropped,
        out.unexpected_depth,
        out.crash_releases,
        out.restart_rereserves,
        out.grants,
    );
    write_run("chaos_ranks", &metrics, true);
}

/// PHB conformance under overload: one EF, one AF, and one best-effort
/// flow share a WFQ/WRED trunk offered ~135% of its capacity.
///
/// The printed table is the DiffServ contract, one row per class: the
/// reserved EF flow delivers essentially everything, the AF flow lands
/// between its committed and offered rates (in-profile low-precedence
/// traffic survives while the policer-escalated excess takes the WRED
/// drops), and best-effort absorbs the remaining starvation.
fn af_conformance(fast: bool) {
    let cfg = if fast {
        AfConformanceCfg::fast()
    } else {
        AfConformanceCfg::default()
    };
    let (out, metrics) = af_conformance_run(cfg, Observe::FIGURE);
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.class.to_string(),
                format!("{:.1}", r.offered_bps as f64 / 1e6),
                format!("{:.1}", r.delivered_bps as f64 / 1e6),
                format!("{:.1}%", r.delivery_ratio() * 100.0),
            ]
        })
        .collect();
    print_table(
        "PHB conformance: EF vs AF vs BE on an overloaded WFQ/WRED trunk",
        &["class", "offered_mbps", "delivered_mbps", "delivery"],
        &rows,
    );
    println!(
        "# drops: {} tail, {} RED-early ({} on AF); {} events",
        out.tail_drops, out.red_early_drops, out.early_af_drops, out.events
    );
    write_run("af_conformance", &metrics, true);
}

/// Queue-discipline ablation: the Figure-1 premium workload (paced TCP
/// above an undersized reservation, under full contention) re-run across
/// the SP/WFQ/DRR × drop-tail/RED matrix, scored by the SLO layer.
///
/// Only `GarnetCfg::core_queue` varies between cells, so the goodput and
/// deadline-miss columns isolate what the discipline itself buys: how well
/// each scheduler protects the premium class, and how much RED's early
/// dropping shortens the best-effort queues the ACK path rides through.
fn qdisc_ablation(fast: bool) {
    let cfg = if fast {
        QdiscAblationCfg::fast()
    } else {
        QdiscAblationCfg::default()
    };
    let (cells, metrics) = qdisc_ablation_matrix(cfg, Observe::FIGURE);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let (sched, dropper) = qdisc_cell_labels(c.sched, c.red);
            vec![
                sched.to_string(),
                dropper.to_string(),
                format!("{:.0}", c.premium_kbps),
                c.slo_misses.to_string(),
                c.tail_drops.to_string(),
                c.red_early_drops.to_string(),
            ]
        })
        .collect();
    print_table(
        "Discipline ablation: premium TCP goodput and SLO misses per scheduler × dropper",
        &[
            "sched",
            "dropper",
            "premium_kbps",
            "slo_misses",
            "tail_drops",
            "red_early",
        ],
        &rows,
    );
    write_run("qdisc_ablation", &metrics, true);
}
