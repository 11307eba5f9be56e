//! Deterministic fault injection: scripted link failures, loss and
//! corruption bursts, CPU throttling, and whole-host crash/restart.
//!
//! The figures only ever exercise the happy path — links stay up and
//! reservations, once granted, stay granted. Real deployments of the
//! paper's architecture had to survive the opposite: GARA treats
//! rejection and renegotiation as first-class, and the DiffServ model
//! degrades premium traffic to best-effort when EF capacity disappears.
//! This module supplies the *causes*: a [`FaultPlan`] lists `(time,
//! action)` pairs that [`crate::Net::install_fault_plan`] schedules
//! through the simulation engine, so faults fire in event order exactly
//! like every other occurrence in the run.
//!
//! Determinism: the plan is data, the schedule rides the engine, and the
//! per-packet loss/corruption draws come from a *private* [`SimRng`]
//! seeded from [`FaultPlan::new`]'s seed. The fault layer never touches
//! `Net`'s own RNG, so installing a plan perturbs nothing outside the
//! faults it injects, and two runs of the same seeded plan are
//! bit-identical.

use crate::link::ChanId;
use crate::packet::NodeId;
use mpichgq_sim::{SimDelta, SimRng, SimTime};

/// One scripted fault, applied at a scheduled simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Cut a directed channel: in-flight packets are lost, queued packets
    /// wait, nothing new starts transmitting.
    LinkDown(ChanId),
    /// Restore a cut channel and resume draining its queue.
    LinkUp(ChanId),
    /// For `duration`, drop each packet delivered over `chan` with
    /// probability `per_mille`/1000 (a congestion-loss or microwave-fade
    /// window).
    LossBurst {
        chan: ChanId,
        per_mille: u16,
        duration: SimDelta,
    },
    /// For `duration`, corrupt each packet delivered over `chan` with
    /// probability `per_mille`/1000; the receiver's checksum rejects it,
    /// so the packet is dropped (and accounted separately from loss).
    CorruptBurst {
        chan: ChanId,
        per_mille: u16,
        duration: SimDelta,
    },
    /// Throttle `host`'s CPU to `per_mille`/1000 of its capacity
    /// (thermal/power capping of the DSRT host).
    ///
    /// With `duration: None` the throttle is a persistent baseline change
    /// (`per_mille = 1000` restores full speed). With `Some(d)` it is a
    /// *window*: for `d` the host runs at the minimum of every active
    /// window and the baseline, and when the last window expires the
    /// baseline — the original rate, not the rate some other window left
    /// behind — is restored. Windows may overlap freely.
    CpuThrottle {
        host: NodeId,
        per_mille: u16,
        duration: Option<SimDelta>,
    },
    /// Crash `host`: its applications die, its queued and in-flight
    /// packets are dropped (accounted as `faults.drops.host_down`), it
    /// stops sourcing traffic, and packets addressed to it are dropped on
    /// arrival until a `HostRestart`.
    HostCrash { host: NodeId },
    /// Restart a crashed host: it may source and sink traffic again, and
    /// restart hooks (e.g. an MPI job respawning the host's rank) run.
    HostRestart { host: NodeId },
}

/// A seeded, scripted fault schedule — built once, replayable forever.
///
/// ```
/// use mpichgq_netsim::{ChanId, FaultAction, FaultPlan};
/// use mpichgq_sim::SimTime;
/// let plan = FaultPlan::new(7)
///     .at(SimTime::from_secs(5), FaultAction::LinkDown(ChanId(8)))
///     .at(SimTime::from_secs(6), FaultAction::LinkUp(ChanId(8)));
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan whose loss/corruption draws derive from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            actions: Vec::new(),
        }
    }

    /// Append `action` at time `at` (builder style).
    pub fn at(mut self, at: SimTime, action: FaultAction) -> FaultPlan {
        self.actions.push((at, action));
        self
    }

    /// Convenience: a down/up pair covering `[from, from + outage)`.
    pub fn link_outage(self, chan: ChanId, from: SimTime, outage: SimDelta) -> FaultPlan {
        self.at(from, FaultAction::LinkDown(chan))
            .at(from + outage, FaultAction::LinkUp(chan))
    }

    /// The seed for the fault layer's private RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scripted `(time, action)` pairs, in insertion order.
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// Number of scripted actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan scripts no actions at all.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Drop accounting for the fault layer, by cause (mirrors
/// [`crate::DropStats`]; published as `faults.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// In-flight packets lost because their channel was down on arrival.
    pub drops_link_down: u64,
    /// Packets dropped by an active loss burst.
    pub drops_loss: u64,
    /// Packets rejected by the receiver's checksum during a corruption
    /// burst.
    pub drops_corrupt: u64,
    /// `LinkDown` actions applied.
    pub link_downs: u64,
    /// `LinkUp` actions applied.
    pub link_ups: u64,
    /// Packets dropped because an endpoint host was crashed: purged from
    /// the host's egress queues and shapers at crash time, sourced by a
    /// not-yet-silenced sender, or arriving at (or from) a dead host.
    pub drops_host_down: u64,
    /// `HostCrash` actions applied.
    pub host_crashes: u64,
    /// `HostRestart` actions applied.
    pub host_restarts: u64,
    /// Tripwire: packets that reached a dead host's delivery path despite
    /// the drop gates. Zero by construction; the qcheck
    /// `dead_host_delivery` invariant convicts any regression.
    pub dead_deliveries: u64,
}

/// Per-channel fault state. `*_until` of [`SimTime::ZERO`] means "window
/// inactive" (the clock can never move before zero).
#[derive(Debug, Clone, Copy)]
struct ChanFaults {
    down: bool,
    loss_per_mille: u16,
    loss_until: SimTime,
    corrupt_per_mille: u16,
    corrupt_until: SimTime,
}

impl ChanFaults {
    const CLEAR: ChanFaults = ChanFaults {
        down: false,
        loss_per_mille: 0,
        loss_until: SimTime::ZERO,
        corrupt_per_mille: 0,
        corrupt_until: SimTime::ZERO,
    };
}

/// What the fault layer decided about one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    Deliver,
    DropLinkDown,
    DropLoss,
    DropCorrupt,
    DropHostDown,
}

impl FaultVerdict {
    /// Trace-event label for the drop verdicts.
    pub(crate) fn trace_kind(self) -> &'static str {
        match self {
            FaultVerdict::Deliver => "fault.deliver",
            FaultVerdict::DropLinkDown => "fault.drop.link_down",
            FaultVerdict::DropLoss => "fault.drop.loss",
            FaultVerdict::DropCorrupt => "fault.drop.corrupt",
            FaultVerdict::DropHostDown => "fault.drop.host_down",
        }
    }
}

/// One active CPU-throttle window on a host.
#[derive(Debug, Clone, Copy)]
struct ThrottleWindow {
    per_mille: u16,
    until: SimTime,
}

/// Per-host fault state: liveness plus the CPU-throttle baseline and any
/// active throttle windows.
#[derive(Debug, Clone)]
struct HostFaults {
    down: bool,
    /// The persistent (`duration: None`) throttle rate; 1000 = full speed.
    base_per_mille: u16,
    windows: Vec<ThrottleWindow>,
}

impl HostFaults {
    fn clear() -> HostFaults {
        HostFaults {
            down: false,
            base_per_mille: 1000,
            windows: Vec::new(),
        }
    }
}

/// The runtime state behind an installed [`FaultPlan`]: per-channel fault
/// flags, the private RNG, and drop accounting. Owned by `Net`; absent
/// (and costing one branch per event) until a plan is installed.
#[derive(Debug)]
pub(crate) struct FaultLayer {
    rng: SimRng,
    chans: Vec<ChanFaults>,
    hosts: Vec<HostFaults>,
    /// Every installed plan's actions, in installation order; a scheduled
    /// fault event carries its action's index here.
    actions: Vec<FaultAction>,
    pub(crate) stats: FaultStats,
}

impl FaultLayer {
    pub(crate) fn new(seed: u64, n_chans: usize, n_nodes: usize) -> FaultLayer {
        FaultLayer {
            rng: SimRng::new(seed ^ 0x000F_A017_5EED),
            chans: vec![ChanFaults::CLEAR; n_chans],
            hosts: vec![HostFaults::clear(); n_nodes],
            actions: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Keep `action` for its event; returns the index the event carries.
    pub(crate) fn add_action(&mut self, action: FaultAction) -> u32 {
        let idx =
            u32::try_from(self.actions.len()).expect("fewer than 2^32 fault actions installed");
        self.actions.push(action);
        idx
    }

    /// The action of the fault event carrying `idx`.
    pub(crate) fn action(&self, idx: u32) -> FaultAction {
        self.actions[idx as usize]
    }

    #[inline]
    pub(crate) fn is_down(&self, chan: ChanId) -> bool {
        self.chans[chan.0 as usize].down
    }

    /// Whether `node` is currently crashed.
    #[inline]
    pub(crate) fn host_is_down(&self, node: NodeId) -> bool {
        self.hosts[node.0 as usize].down
    }

    /// Flip `node`'s liveness; counts the transition and reports whether
    /// the state actually changed (a double crash or double restart is a
    /// no-op so fuzzed plans cannot skew the accounting).
    pub(crate) fn set_host_down(&mut self, node: NodeId, down: bool) -> bool {
        let h = &mut self.hosts[node.0 as usize];
        if h.down == down {
            return false;
        }
        h.down = down;
        if down {
            self.stats.host_crashes += 1;
        } else {
            self.stats.host_restarts += 1;
        }
        true
    }

    /// Account one packet dropped because a host at either end was dead.
    #[inline]
    pub(crate) fn note_host_down_drop(&mut self) {
        self.stats.drops_host_down += 1;
    }

    /// Install a throttle on `node`: a baseline change (`until: None`) or
    /// a window that expires at `until`.
    pub(crate) fn set_throttle(&mut self, node: NodeId, per_mille: u16, until: Option<SimTime>) {
        let h = &mut self.hosts[node.0 as usize];
        let pm = per_mille.clamp(1, 1000);
        match until {
            None => h.base_per_mille = pm,
            Some(until) => h.windows.push(ThrottleWindow {
                per_mille: pm,
                until,
            }),
        }
    }

    /// The rate `node` should run at *right now*: the minimum of the
    /// baseline and every still-active window. Expired windows are pruned
    /// here, so when the last one lapses the answer is the baseline — the
    /// original rate — regardless of how the windows overlapped.
    pub(crate) fn effective_throttle(&mut self, node: NodeId, now: SimTime) -> u16 {
        let h = &mut self.hosts[node.0 as usize];
        h.windows.retain(|w| now < w.until);
        h.windows
            .iter()
            .map(|w| w.per_mille)
            .min()
            .map_or(h.base_per_mille, |w| w.min(h.base_per_mille))
    }

    pub(crate) fn set_down(&mut self, chan: ChanId, down: bool) {
        self.chans[chan.0 as usize].down = down;
        if down {
            self.stats.link_downs += 1;
        } else {
            self.stats.link_ups += 1;
        }
    }

    pub(crate) fn set_loss(&mut self, chan: ChanId, per_mille: u16, until: SimTime) {
        let c = &mut self.chans[chan.0 as usize];
        c.loss_per_mille = per_mille.min(1000);
        c.loss_until = until;
    }

    pub(crate) fn set_corrupt(&mut self, chan: ChanId, per_mille: u16, until: SimTime) {
        let c = &mut self.chans[chan.0 as usize];
        c.corrupt_per_mille = per_mille.min(1000);
        c.corrupt_until = until;
    }

    /// Decide the fate of a packet arriving over `chan` at `now`, drawing
    /// from the private RNG only while a probabilistic window is active
    /// (so idle channels consume no randomness). Updates [`FaultStats`].
    pub(crate) fn deliver_verdict(&mut self, now: SimTime, chan: ChanId) -> FaultVerdict {
        let c = self.chans[chan.0 as usize];
        if c.down {
            self.stats.drops_link_down += 1;
            return FaultVerdict::DropLinkDown;
        }
        if now < c.loss_until && self.rng.below(1000) < c.loss_per_mille as u64 {
            self.stats.drops_loss += 1;
            return FaultVerdict::DropLoss;
        }
        if now < c.corrupt_until && self.rng.below(1000) < c.corrupt_per_mille as u64 {
            self.stats.drops_corrupt += 1;
            return FaultVerdict::DropCorrupt;
        }
        FaultVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates_in_order() {
        let c = ChanId(3);
        let plan = FaultPlan::new(1)
            .link_outage(c, SimTime::from_secs(2), SimDelta::from_millis(500))
            .at(
                SimTime::from_secs(4),
                FaultAction::CpuThrottle {
                    host: NodeId(0),
                    per_mille: 300,
                    duration: None,
                },
            );
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.actions()[0],
            (SimTime::from_secs(2), FaultAction::LinkDown(c))
        );
        assert_eq!(
            plan.actions()[1],
            (
                SimTime::from_secs(2) + SimDelta::from_millis(500),
                FaultAction::LinkUp(c)
            )
        );
    }

    #[test]
    fn down_channel_drops_everything() {
        let mut layer = FaultLayer::new(9, 2, 0);
        layer.set_down(ChanId(1), true);
        for _ in 0..10 {
            assert_eq!(
                layer.deliver_verdict(SimTime::from_secs(1), ChanId(1)),
                FaultVerdict::DropLinkDown
            );
        }
        assert_eq!(
            layer.deliver_verdict(SimTime::from_secs(1), ChanId(0)),
            FaultVerdict::Deliver
        );
        layer.set_down(ChanId(1), false);
        assert_eq!(
            layer.deliver_verdict(SimTime::from_secs(1), ChanId(1)),
            FaultVerdict::Deliver
        );
        assert_eq!(layer.stats.drops_link_down, 10);
        assert_eq!(layer.stats.link_downs, 1);
        assert_eq!(layer.stats.link_ups, 1);
    }

    #[test]
    fn loss_window_expires_and_draws_deterministically() {
        let run = || {
            let mut layer = FaultLayer::new(42, 1, 0);
            layer.set_loss(ChanId(0), 500, SimTime::from_secs(10));
            let mut verdicts = Vec::new();
            for i in 0..200u64 {
                verdicts.push(layer.deliver_verdict(SimTime::from_millis(i), ChanId(0)));
            }
            (verdicts, layer.stats)
        };
        let (va, sa) = run();
        let (vb, sb) = run();
        assert_eq!(va, vb, "same seed must replay the same drop pattern");
        assert_eq!(sa, sb);
        // ~50% loss: both outcomes must occur in 200 draws.
        assert!(sa.drops_loss > 50 && sa.drops_loss < 150, "{sa:?}");
        // Outside the window the channel is clean and draws nothing.
        let mut layer = FaultLayer::new(42, 1, 0);
        layer.set_loss(ChanId(0), 1000, SimTime::from_secs(1));
        assert_eq!(
            layer.deliver_verdict(SimTime::from_secs(2), ChanId(0)),
            FaultVerdict::Deliver
        );
        assert_eq!(layer.stats.drops_loss, 0);
    }

    #[test]
    fn corruption_is_accounted_separately() {
        let mut layer = FaultLayer::new(3, 1, 0);
        layer.set_corrupt(ChanId(0), 1000, SimTime::from_secs(1));
        assert_eq!(
            layer.deliver_verdict(SimTime::ZERO, ChanId(0)),
            FaultVerdict::DropCorrupt
        );
        assert_eq!(layer.stats.drops_corrupt, 1);
        assert_eq!(layer.stats.drops_loss, 0);
    }

    #[test]
    fn host_crash_and_restart_bookkeeping() {
        let mut layer = FaultLayer::new(1, 0, 3);
        assert!(!layer.host_is_down(NodeId(2)));
        assert!(layer.set_host_down(NodeId(2), true));
        assert!(layer.host_is_down(NodeId(2)));
        // Double crash is a no-op, not a second counted transition.
        assert!(!layer.set_host_down(NodeId(2), true));
        assert!(layer.set_host_down(NodeId(2), false));
        assert!(!layer.set_host_down(NodeId(2), false));
        assert_eq!(layer.stats.host_crashes, 1);
        assert_eq!(layer.stats.host_restarts, 1);
        layer.note_host_down_drop();
        assert_eq!(layer.stats.drops_host_down, 1);
    }

    /// The satellite regression: three overlapping throttle windows must
    /// compose as a running minimum and, once all have lapsed, restore
    /// the *original* baseline — not the rate the previous window held.
    /// (The naive save-and-restore implementation would leave the host at
    /// 500‰ after t=12 here.)
    #[test]
    fn overlapping_throttle_windows_restore_the_original_rate() {
        let t = |s: u64| SimTime::from_secs(s);
        let h = NodeId(0);
        let mut layer = FaultLayer::new(1, 0, 1);
        // Windows: [0,10)@500, [2,6)@300, [4,12)@700.
        layer.set_throttle(h, 500, Some(t(10)));
        assert_eq!(layer.effective_throttle(h, t(0)), 500);
        layer.set_throttle(h, 300, Some(t(6)));
        assert_eq!(layer.effective_throttle(h, t(2)), 300);
        layer.set_throttle(h, 700, Some(t(12)));
        assert_eq!(layer.effective_throttle(h, t(4)), 300);
        // Middle window expires: back to min(500, 700), not 300's prior.
        assert_eq!(layer.effective_throttle(h, t(6)), 500);
        assert_eq!(layer.effective_throttle(h, t(10)), 700);
        // All windows gone: the original full rate, not 500 or 700.
        assert_eq!(layer.effective_throttle(h, t(12)), 1000);
        // A persistent baseline composes with windows the same way.
        layer.set_throttle(h, 800, None);
        layer.set_throttle(h, 400, Some(t(20)));
        assert_eq!(layer.effective_throttle(h, t(13)), 400);
        assert_eq!(layer.effective_throttle(h, t(20)), 800);
    }
}
