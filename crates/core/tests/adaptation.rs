//! Behavioral tests for the adaptation loop: rejection → backoff →
//! grant, revocation → renegotiation → upgrade, and total capacity loss
//! → degradation → probed recovery.

use mpichgq_core::{AdaptPolicy, AdaptState, AdaptiveFlow, QosOutcome};
use mpichgq_gara::{install, Gara, NetworkRequest, Request, StartSpec};
use mpichgq_netsim::{topology::Dumbbell, DepthRule, Net, NodeId, PolicingAction, Proto};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::Sim;

fn request(src: NodeId, dst: NodeId, rate_bps: u64) -> NetworkRequest {
    NetworkRequest {
        src,
        dst,
        proto: Proto::Udp,
        src_port: None,
        dst_port: None,
        rate_bps,
        depth: DepthRule::Normal,
        action: PolicingAction::Drop,
        shape_at_source: false,
    }
}

fn policy() -> AdaptPolicy {
    AdaptPolicy {
        initial_backoff: SimDelta::from_millis(250),
        backoff_factor: 2.0,
        max_retries: 4,
        renegotiate_factor: 0.5,
        min_rate_bps: 500_000,
        probe_interval: SimDelta::from_secs(1),
    }
}

/// Dumbbell with 5 Mb/s of reservable EF on the 10 Mb/s trunk.
fn dumbbell_sim() -> (Sim, NodeId, NodeId) {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 11);
    let (src, dst) = (d.src, d.dst);
    let mut sim = Sim::new(d.net);
    let mut gara = Gara::new();
    gara.manage_core_links(&sim.net, 0.5);
    install(&mut sim.stack, gara);
    (sim, src, dst)
}

fn with_gara<R>(sim: &mut Sim, f: impl FnOnce(&mut Gara, &mut Net) -> R) -> R {
    let mut g = sim.stack.take_service::<Gara>().expect("gara installed");
    let r = f(&mut g, &mut sim.net);
    sim.stack.put_service_box(g);
    r
}

fn counter(sim: &Sim, name: &str) -> u64 {
    sim.net.obs.metrics.counter_value(name).unwrap_or(0)
}

#[test]
fn injected_rejections_retry_with_backoff_until_granted() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, _| g.inject_rejections(2));
    let flow = AdaptiveFlow::install(
        &mut sim,
        request(src, dst, 4_000_000),
        SimTime::from_secs(1),
        policy(),
    );
    assert_eq!(flow.state(), AdaptState::Idle);
    assert_eq!(flow.outcome(), QosOutcome::None);
    // Attempts at 1.0 s (reject), 1.25 s (reject), 1.75 s (grant).
    sim.run_until(SimTime::from_millis(1_300));
    assert_eq!(flow.state(), AdaptState::BackingOff { attempt: 2 });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(
        flow.state(),
        AdaptState::Granted {
            id: flow.current_resv().unwrap(),
            rate_bps: 4_000_000
        }
    );
    assert_eq!(flow.installed_rate_bps(), 4_000_000);
    assert!(flow.outcome().is_granted());
    assert_eq!(counter(&sim, "agent.requests"), 3);
    assert_eq!(counter(&sim, "agent.rejects"), 2);
    assert_eq!(counter(&sim, "agent.retries"), 2);
    assert_eq!(counter(&sim, "agent.grants"), 1);
}

#[test]
fn exhausted_retries_degrade_to_best_effort() {
    let (mut sim, src, dst) = dumbbell_sim();
    // Squatter holds everything: every retry hits real admission control.
    with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            Request::Network(request(src, dst, 5_000_000)),
            StartSpec::Now,
            None,
        )
        .unwrap();
    });
    let flow = AdaptiveFlow::install(
        &mut sim,
        request(src, dst, 4_000_000),
        SimTime::ZERO,
        policy(),
    );
    // 1 attempt + 4 retries (backoffs 0.25+0.5+1+2 = 3.75 s) then degrade;
    // the renegotiation ladder is not consulted on the reject path.
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(flow.state(), AdaptState::Degraded);
    assert_eq!(counter(&sim, "agent.requests"), 5);
    assert_eq!(counter(&sim, "agent.degrades"), 1);
    assert!(matches!(flow.outcome(), QosOutcome::Denied { .. }));
    // Gauge shows the best-effort remark.
    assert_eq!(sim.net.obs.metrics.gauge_value("agent.dscp"), Some(0.0));
}

#[test]
fn revocation_renegotiates_down_then_probes_back_up() {
    let (mut sim, src, dst) = dumbbell_sim();
    let flow = AdaptiveFlow::install(
        &mut sim,
        request(src, dst, 4_000_000),
        SimTime::ZERO,
        policy(),
    );
    sim.run_until(SimTime::from_secs(1));
    let first = flow.current_resv().unwrap();
    // Revoke, and immediately squat on 3 Mb/s so only 2 Mb/s remains:
    // the ladder's first rung (2 Mb/s) is admitted.
    let squatter = with_gara(&mut sim, |g, net| {
        g.revoke(net, first);
        g.reserve(
            net,
            Request::Network(request(src, dst, 3_000_000)),
            StartSpec::Now,
            None,
        )
        .unwrap()
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(counter(&sim, "agent.revocations_seen"), 1);
    assert_eq!(counter(&sim, "agent.renegotiations"), 1);
    assert_eq!(flow.installed_rate_bps(), 2_000_000);
    assert_eq!(
        flow.outcome(),
        QosOutcome::Degraded {
            network_rate_bps: 2_000_000
        }
    );
    // Free the capacity; the next probe upgrades in place to full rate.
    with_gara(&mut sim, |g, net| g.cancel(net, squatter));
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(flow.installed_rate_bps(), 4_000_000);
    assert!(flow.outcome().is_granted());
    assert_eq!(counter(&sim, "agent.recoveries"), 1);
}

#[test]
fn total_capacity_loss_degrades_and_recovers() {
    let (mut sim, src, dst) = dumbbell_sim();
    let flow = AdaptiveFlow::install(
        &mut sim,
        request(src, dst, 4_000_000),
        SimTime::ZERO,
        policy(),
    );
    sim.run_until(SimTime::from_secs(1));
    let first = flow.current_resv().unwrap();
    // Revoke and take *everything*: the whole ladder fails -> degraded.
    let squatter = with_gara(&mut sim, |g, net| {
        g.revoke(net, first);
        g.reserve(
            net,
            Request::Network(request(src, dst, 5_000_000)),
            StartSpec::Now,
            None,
        )
        .unwrap()
    });
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(flow.state(), AdaptState::Degraded);
    assert!(counter(&sim, "agent.probes") >= 1, "probes while degraded");
    // Capacity returns; a probe re-reserves the full rate.
    with_gara(&mut sim, |g, net| g.cancel(net, squatter));
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(flow.installed_rate_bps(), 4_000_000);
    assert_eq!(counter(&sim, "agent.recoveries"), 1);
    assert_eq!(counter(&sim, "agent.degrades"), 1);
}

/// Crash/restart scenario for [`AdaptiveFlow::bind_host`]: crash releases
/// the reservation back to admission control, restart re-reserves at full
/// rate. Returns the sim so callers can compare runs.
fn crash_restart_run() -> (Sim, AdaptiveFlow, NodeId, NodeId) {
    use mpichgq_netsim::faults::{FaultAction, FaultPlan};
    let (mut sim, src, dst) = dumbbell_sim();
    sim.net.install_fault_plan(
        FaultPlan::new(31)
            .at(SimTime::from_secs(2), FaultAction::HostCrash { host: src })
            .at(
                SimTime::from_secs(4),
                FaultAction::HostRestart { host: src },
            ),
    );
    let flow = AdaptiveFlow::install(
        &mut sim,
        request(src, dst, 4_000_000),
        SimTime::ZERO,
        policy(),
    );
    flow.bind_host(&mut sim, src);
    (sim, flow, src, dst)
}

#[test]
fn host_crash_releases_reservation_and_restart_rereserves() {
    let (mut sim, flow, src, dst) = crash_restart_run();
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(flow.installed_rate_bps(), 4_000_000, "granted before crash");

    // Crash at 2 s: the grant is handed back, so the *entire* 5 Mb/s EF
    // pool is reservable by someone else while the host is down.
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(flow.state(), AdaptState::Idle);
    assert_eq!(flow.installed_rate_bps(), 0);
    assert_eq!(counter(&sim, "agent.crash_releases"), 1);
    let squatter = with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            Request::Network(request(src, dst, 5_000_000)),
            StartSpec::Now,
            None,
        )
        .expect("full EF pool free while holder's host is down")
    });
    with_gara(&mut sim, |g, net| g.cancel(net, squatter));

    // Restart at 4 s: the re-reserve ping lands immediately.
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(
        flow.installed_rate_bps(),
        4_000_000,
        "re-granted on restart"
    );
    assert_eq!(counter(&sim, "agent.restart_rereserves"), 1);
    assert_eq!(counter(&sim, "agent.grants"), 2, "initial grant + re-grant");
    assert_eq!(counter(&sim, "agent.crash_releases"), 1);
    assert_eq!(counter(&sim, "gara.cancels"), 2, "crash release + squatter");
    let fs = sim.net.fault_stats().unwrap();
    assert_eq!((fs.host_crashes, fs.host_restarts), (1, 1));
}

#[test]
fn crash_restart_adaptation_is_bit_identical() {
    let (mut a, _, _, _) = crash_restart_run();
    let (mut b, _, _, _) = crash_restart_run();
    a.run_until(SimTime::from_secs(6));
    b.run_until(SimTime::from_secs(6));
    assert_eq!(
        a.net.obs.snapshot_json(),
        b.net.obs.snapshot_json(),
        "crash/restart adaptation run is not deterministic"
    );
}
