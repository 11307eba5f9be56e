//! The QoS agent's adaptation loop: what happens *after* the first
//! `reserve` call, when the network refuses to cooperate.
//!
//! GARA treats rejection and revocation as first-class outcomes, and the
//! paper's architecture expects applications to "select from among
//! alternative resources, according to their availability" (§4.2). This
//! module gives the MPI QoS Agent that behavior as a small state machine
//! driven entirely by simulation events:
//!
//! * **Rejection** → retry with exponential backoff, up to
//!   [`AdaptPolicy::max_retries`] attempts, then degrade to best-effort.
//! * **Revocation** of the granted reservation → renegotiate down a
//!   geometric rate ladder (×[`AdaptPolicy::renegotiate_factor`] per step)
//!   until something is admitted or the ladder drops below
//!   [`AdaptPolicy::min_rate_bps`].
//! * **No grantable premium capacity** → graceful degradation to
//!   best-effort (the DSCP gauge drops from EF 46 to 0), with periodic
//!   probes that restore the full reservation once capacity returns.
//!
//! Every transition is surfaced in the `obs` registry: `agent.*` counters
//! (`requests`, `rejects`, `retries`, `grants`, `renegotiations`,
//! `degrades`, `recoveries`, `probes`, `revocations_seen`), the
//! `agent.granted_rate_bps` / `agent.dscp` gauges, and `agent.*` trace
//! events — so a chaos run's full adaptation history is replayable from
//! the flight recorder.
//!
//! Determinism: the loop holds no wall-clock state and draws no
//! randomness; ticks ride the engine via scheduled control tokens, so two
//! seeded runs adapt identically.

use crate::qos::QosOutcome;
use mpichgq_gara::{Gara, NetworkRequest, Request, ResvId, StartSpec, Status};
use mpichgq_netsim::{MetricSink, Net, NodeId, TimelineSource};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{control_token, Controller, ControllerId, Sim, Stack};
use std::cell::RefCell;
use std::rc::Rc;

/// Tunables for the adaptation loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptPolicy {
    /// Delay before the first retry after a rejection.
    pub initial_backoff: SimDelta,
    /// Multiplier applied to the backoff on each further rejection.
    pub backoff_factor: f64,
    /// Retries (after the initial attempt) before degrading.
    pub max_retries: u32,
    /// Rate multiplier per renegotiation-ladder step, in `(0, 1)`.
    pub renegotiate_factor: f64,
    /// Floor of the renegotiation ladder: below this, premium service is
    /// not worth holding and the flow degrades to best-effort.
    pub min_rate_bps: u64,
    /// How often a renegotiated or degraded flow probes for recovery.
    pub probe_interval: SimDelta,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        AdaptPolicy {
            initial_backoff: SimDelta::from_millis(250),
            backoff_factor: 2.0,
            max_retries: 6,
            renegotiate_factor: 0.5,
            min_rate_bps: 1_000_000,
            probe_interval: SimDelta::from_secs(1),
        }
    }
}

/// Where the adaptation state machine currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptState {
    /// Not yet started (first attempt still scheduled).
    Idle,
    /// Last attempt was rejected; retry number `attempt` is scheduled.
    BackingOff { attempt: u32 },
    /// Holding the full requested rate.
    Granted { id: ResvId, rate_bps: u64 },
    /// Holding a renegotiated (smaller) premium rate; probing to upgrade.
    Renegotiated { id: ResvId, rate_bps: u64 },
    /// Best-effort only; probing for premium capacity to return.
    Degraded,
}

/// Control payload distinguishing a host-restart re-reserve ping from the
/// ordinary tick stream (payload 0) in traces and replay.
const RESTART_PING: u64 = 1;

struct Inner {
    /// The full-rate request template; renegotiation clones it with a
    /// smaller `rate_bps`.
    req: NetworkRequest,
    policy: AdaptPolicy,
    state: AdaptState,
    ctl: Option<ControllerId>,
    /// True while the bound endpoint host is crashed: ticks are inert
    /// (there is no agent process to act for) until `HostRestart`.
    host_down: bool,
}

/// A premium flow that keeps itself reserved: install once, and the
/// attached controller retries, renegotiates, degrades, and recovers as
/// GARA grants and revokes capacity. Clone the handle to observe
/// [`AdaptiveFlow::state`] from outside the simulation.
#[derive(Clone)]
pub struct AdaptiveFlow {
    inner: Rc<RefCell<Inner>>,
}

/// Controller driving one [`AdaptiveFlow`]; every scheduled tick (initial
/// attempt, backoff expiry, revocation ping, probe) lands here.
struct AdaptDriver {
    inner: Rc<RefCell<Inner>>,
}

/// Timeline probe over every installed [`AdaptiveFlow`] (one shared stack
/// service; flows register in install order). Samples two gauges per flow:
/// `agent.flow{i}.state` (the [`AdaptState`] ordinal: 0 idle, 1 backing
/// off, 2 granted, 3 renegotiated, 4 degraded) and
/// `agent.flow{i}.rate_bps` (premium rate held, 0 otherwise).
struct AdaptProbe {
    flows: Vec<Rc<RefCell<Inner>>>,
}

impl TimelineSource for AdaptProbe {
    fn timeline_sample(&self, _at: SimTime, sink: &mut dyn MetricSink) {
        for (i, f) in self.flows.iter().enumerate() {
            let inner = f.borrow();
            let (state, rate) = match inner.state {
                AdaptState::Idle => (0.0, 0u64),
                AdaptState::BackingOff { .. } => (1.0, 0),
                AdaptState::Granted { rate_bps, .. } => (2.0, rate_bps),
                AdaptState::Renegotiated { rate_bps, .. } => (3.0, rate_bps),
                AdaptState::Degraded => (4.0, 0),
            };
            sink.gauge(&format!("agent.flow{i:02}.state"), state);
            sink.gauge(&format!("agent.flow{i:02}.rate_bps"), rate as f64);
        }
    }
}

impl Controller for AdaptDriver {
    fn on_control(&mut self, _payload: u64, net: &mut Net, stack: &mut Stack) {
        let Some(mut gara) = stack.take_service::<Gara>() else {
            return;
        };
        self.inner.borrow_mut().step(&mut gara, net);
        stack.put_service_box(gara);
    }
}

impl AdaptiveFlow {
    /// Install an adaptive premium flow: registers the driver controller,
    /// points GARA's revocation listener at it, and schedules the first
    /// reservation attempt at `start`.
    ///
    /// Note: GARA carries a single adaptation listener, so install at most
    /// one `AdaptiveFlow` per simulation (the agent's premium flow).
    pub fn install(
        sim: &mut Sim,
        req: NetworkRequest,
        start: SimTime,
        policy: AdaptPolicy,
    ) -> AdaptiveFlow {
        let inner = Rc::new(RefCell::new(Inner {
            req,
            policy,
            state: AdaptState::Idle,
            ctl: None,
            host_down: false,
        }));
        let id = sim.stack.add_controller(Box::new(AdaptDriver {
            inner: inner.clone(),
        }));
        inner.borrow_mut().ctl = Some(id);
        if let Some(mut gara) = sim.stack.take_service::<Gara>() {
            gara.set_adaptation_listener(id);
            sim.stack.put_service_box(gara);
        }
        match sim.stack.service_mut::<AdaptProbe>() {
            Some(p) => p.flows.push(inner.clone()),
            None => sim.stack.insert_sampled_service(AdaptProbe {
                flows: vec![inner.clone()],
            }),
        }
        let at = start.max(sim.net.now());
        sim.net.schedule_control(at, control_token(id, 0));
        AdaptiveFlow { inner }
    }

    /// Tie the flow's lifetime to its endpoint host. A `HostCrash` of
    /// `host` releases any live reservation back to GARA (the agent
    /// process died with its host; its bandwidth must not stay booked)
    /// and freezes the loop; a `HostRestart` re-reserves at the full
    /// requested rate immediately — the restarted agent's first act —
    /// falling into the usual backoff/renegotiate ladder if admission
    /// refuses.
    pub fn bind_host(&self, sim: &mut Sim, host: NodeId) {
        let inner = self.inner.clone();
        sim.stack.on_host_crash(Box::new(move |net, stack, h| {
            if h != host {
                return;
            }
            let Some(mut gara) = stack.take_service::<Gara>() else {
                return;
            };
            inner.borrow_mut().on_host_crashed(&mut gara, net);
            stack.put_service_box(gara);
        }));
        let inner = self.inner.clone();
        sim.stack.on_host_restart(Box::new(move |net, _stack, h| {
            if h == host {
                inner.borrow_mut().on_host_restarted(net);
            }
        }));
    }

    /// Current position of the state machine.
    pub fn state(&self) -> AdaptState {
        self.inner.borrow().state
    }

    /// The live reservation, if the flow holds one.
    pub fn current_resv(&self) -> Option<ResvId> {
        match self.inner.borrow().state {
            AdaptState::Granted { id, .. } | AdaptState::Renegotiated { id, .. } => Some(id),
            _ => None,
        }
    }

    /// The premium rate currently installed (0 while degraded or between
    /// attempts).
    pub fn installed_rate_bps(&self) -> u64 {
        match self.inner.borrow().state {
            AdaptState::Granted { rate_bps, .. } | AdaptState::Renegotiated { rate_bps, .. } => {
                rate_bps
            }
            _ => 0,
        }
    }

    /// The state expressed as the agent's status-attribute outcome.
    pub fn outcome(&self) -> QosOutcome {
        match self.inner.borrow().state {
            AdaptState::Granted { rate_bps, .. } => QosOutcome::Granted {
                network_rate_bps: rate_bps,
            },
            AdaptState::Renegotiated { rate_bps, .. } => QosOutcome::Degraded {
                network_rate_bps: rate_bps,
            },
            AdaptState::Degraded => QosOutcome::Denied {
                reason: "degraded to best-effort (no premium capacity)".into(),
            },
            AdaptState::Idle | AdaptState::BackingOff { .. } => QosOutcome::None,
        }
    }
}

impl Inner {
    /// Handle one tick. Ticks are idempotent with respect to spurious
    /// delivery: a stale probe or revocation ping against a healthy
    /// granted flow is a no-op.
    fn step(&mut self, gara: &mut Gara, net: &mut Net) {
        if self.host_down {
            // Stale ticks (a probe scheduled before the crash) are inert:
            // there is no agent process to act for until restart.
            return;
        }
        match self.state {
            AdaptState::Idle => self.attempt_full(gara, net, 0),
            AdaptState::BackingOff { attempt } => self.attempt_full(gara, net, attempt),
            AdaptState::Granted { id, .. } => {
                if gara.status(id) == Some(Status::Revoked) {
                    self.on_revoked(gara, net, id);
                }
            }
            AdaptState::Renegotiated { id, .. } => {
                if gara.status(id) == Some(Status::Revoked) {
                    self.on_revoked(gara, net, id);
                } else {
                    self.probe(gara, net);
                }
            }
            AdaptState::Degraded => self.probe(gara, net),
        }
    }

    /// The bound endpoint host crashed: hand any live reservation back to
    /// the broker and freeze until restart.
    fn on_host_crashed(&mut self, gara: &mut Gara, net: &mut Net) {
        let now = net.now();
        self.host_down = true;
        if let AdaptState::Granted { id, .. } | AdaptState::Renegotiated { id, .. } = self.state {
            gara.cancel(net, id);
            net.obs.metrics.add("agent.crash_releases", 1);
            net.obs.trace.record(now, "agent.crash_release", id.0, 0);
        }
        self.state = AdaptState::Idle;
        self.publish_gauges(net, 0);
    }

    /// The host came back: re-reserve at full rate right away (unless a
    /// grant somehow survived), via a distinctly-tagged control ping.
    fn on_host_restarted(&mut self, net: &mut Net) {
        let now = net.now();
        self.host_down = false;
        if matches!(self.state, AdaptState::Granted { .. }) {
            return;
        }
        self.state = AdaptState::Idle;
        net.obs.metrics.add("agent.restart_rereserves", 1);
        net.obs.trace.record(now, "agent.restart_rereserve", 0, 0);
        if let Some(ctl) = self.ctl {
            net.schedule_control(now, control_token(ctl, RESTART_PING));
        }
    }

    fn on_revoked(&mut self, gara: &mut Gara, net: &mut Net, id: ResvId) {
        let now = net.now();
        net.obs.metrics.add("agent.revocations_seen", 1);
        net.obs.trace.record(now, "agent.revoked", id.0, 0);
        self.renegotiate(gara, net);
    }

    /// Try the full requested rate; on rejection, back off exponentially
    /// until the retry budget runs out, then degrade.
    fn attempt_full(&mut self, gara: &mut Gara, net: &mut Net, attempt: u32) {
        let now = net.now();
        net.obs.metrics.add("agent.requests", 1);
        if attempt > 0 {
            net.obs.metrics.add("agent.retries", 1);
            net.obs.trace.record(now, "agent.retry", attempt as u64, 0);
        }
        match gara.reserve(net, Request::Network(self.req), StartSpec::Now, None) {
            Ok(id) => self.enter_granted(net, id, self.req.rate_bps, false),
            Err(_) => {
                net.obs.metrics.add("agent.rejects", 1);
                net.obs.trace.record(now, "agent.reject", attempt as u64, 0);
                if attempt >= self.policy.max_retries {
                    self.degrade(net);
                } else {
                    let delay = self.backoff_delay(attempt);
                    self.state = AdaptState::BackingOff {
                        attempt: attempt + 1,
                    };
                    net.obs.trace.record(
                        now,
                        "agent.backoff",
                        (attempt + 1) as u64,
                        delay.as_nanos() as i64,
                    );
                    self.schedule(net, now + delay);
                }
            }
        }
    }

    fn backoff_delay(&self, attempt: u32) -> SimDelta {
        let ns = self.policy.initial_backoff.as_nanos() as f64
            * self.policy.backoff_factor.powi(attempt as i32);
        SimDelta::from_nanos(ns as u64)
    }

    fn enter_granted(&mut self, net: &mut Net, id: ResvId, rate_bps: u64, recovered: bool) {
        let now = net.now();
        self.state = AdaptState::Granted { id, rate_bps };
        net.obs.metrics.add("agent.grants", 1);
        net.obs
            .trace
            .record(now, "agent.grant", id.0, rate_bps as i64);
        if recovered {
            net.obs.metrics.add("agent.recoveries", 1);
            net.obs
                .trace
                .record(now, "agent.recover", id.0, rate_bps as i64);
        }
        self.publish_gauges(net, rate_bps);
    }

    /// Walk the geometric rate ladder below the full rate; hold the first
    /// admitted rung, or degrade if none clears the floor.
    fn renegotiate(&mut self, gara: &mut Gara, net: &mut Net) {
        let full = self.req.rate_bps;
        let mut rate = (full as f64 * self.policy.renegotiate_factor) as u64;
        while rate >= self.policy.min_rate_bps {
            let mut req = self.req;
            req.rate_bps = rate;
            match gara.reserve(net, Request::Network(req), StartSpec::Now, None) {
                Ok(id) => {
                    let now = net.now();
                    self.state = AdaptState::Renegotiated { id, rate_bps: rate };
                    net.obs.metrics.add("agent.renegotiations", 1);
                    net.obs
                        .trace
                        .record(now, "agent.renegotiate", id.0, rate as i64);
                    self.publish_gauges(net, rate);
                    self.schedule(net, now + self.policy.probe_interval);
                    return;
                }
                Err(_) => {
                    net.obs.metrics.add("agent.rejects", 1);
                    rate = (rate as f64 * self.policy.renegotiate_factor) as u64;
                }
            }
        }
        self.degrade(net);
    }

    /// Fall back to best-effort: no reservation, DSCP 0, periodic probes.
    fn degrade(&mut self, net: &mut Net) {
        let now = net.now();
        self.state = AdaptState::Degraded;
        net.obs.metrics.add("agent.degrades", 1);
        net.obs.trace.record(now, "agent.degrade", 0, 0);
        self.publish_gauges(net, 0);
        self.schedule(net, now + self.policy.probe_interval);
    }

    /// Periodic recovery attempt: a degraded flow tries a fresh full-rate
    /// reservation; a renegotiated one upgrades in place (no
    /// double-booking while the probe is evaluated).
    fn probe(&mut self, gara: &mut Gara, net: &mut Net) {
        let now = net.now();
        net.obs.metrics.add("agent.probes", 1);
        match self.state {
            AdaptState::Degraded => {
                match gara.reserve(net, Request::Network(self.req), StartSpec::Now, None) {
                    Ok(id) => self.enter_granted(net, id, self.req.rate_bps, true),
                    Err(_) => {
                        net.obs.metrics.add("agent.rejects", 1);
                        self.schedule(net, now + self.policy.probe_interval);
                    }
                }
            }
            AdaptState::Renegotiated { id, .. } => {
                match gara.modify_network_rate(net, id, self.req.rate_bps) {
                    Ok(()) => self.enter_granted(net, id, self.req.rate_bps, true),
                    Err(_) => {
                        net.obs.metrics.add("agent.rejects", 1);
                        self.schedule(net, now + self.policy.probe_interval);
                    }
                }
            }
            _ => {}
        }
    }

    fn publish_gauges(&self, net: &mut Net, rate_bps: u64) {
        net.obs
            .metrics
            .set_gauge("agent.granted_rate_bps", rate_bps as f64);
        // EF (46) while any premium reservation holds; best-effort (0)
        // otherwise — the externally visible DSCP remark.
        let dscp = if rate_bps > 0 { 46.0 } else { 0.0 };
        net.obs.metrics.set_gauge("agent.dscp", dscp);
    }

    fn schedule(&self, net: &mut Net, at: SimTime) {
        if let Some(ctl) = self.ctl {
            net.schedule_control(at, control_token(ctl, 0));
        }
    }
}
