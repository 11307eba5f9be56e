//! Scenario assembly: the GARNET laboratory with GARA installed, scripted
//! mid-run actions (contention starting, reservations being made — the
//! timelines of Figures 8 and 9), and the standard contention source.

use crate::traffic::{UdpBlaster, UdpSink};
use mpichgq_gara::{install, Gara};
use mpichgq_netsim::{Garnet, GarnetCfg, Net, NodeId};
use mpichgq_sim::{SimDelta, SimTime, ThroughputMeter};
use mpichgq_tcp::{Controller, Sim, Stack};
use std::cell::RefCell;
use std::rc::Rc;

/// One-shot actions scheduled at absolute times.
type Action = Box<dyn FnOnce(&mut Net, &mut Stack)>;

struct Script {
    actions: Vec<Option<Action>>,
}

impl Controller for Script {
    fn on_control(&mut self, payload: u64, net: &mut Net, stack: &mut Stack) {
        if let Some(f) = self
            .actions
            .get_mut(payload as usize)
            .and_then(Option::take)
        {
            f(net, stack);
        }
    }
}

/// Collects `(time, action)` pairs, then installs them as a controller.
pub struct Scheduler {
    entries: Vec<(SimTime, Action)>,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler {
            entries: Vec::new(),
        }
    }

    /// Run `f` at simulated time `t`.
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Net, &mut Stack) + 'static) {
        self.entries.push((t, Box::new(f)));
    }

    pub fn install(self, sim: &mut Sim) {
        let times: Vec<SimTime> = self.entries.iter().map(|(t, _)| *t).collect();
        let actions = self.entries.into_iter().map(|(_, a)| Some(a)).collect();
        let id = sim.stack.add_controller(Box::new(Script { actions }));
        for (i, t) in times.into_iter().enumerate() {
            sim.stack.schedule_control(&mut sim.net, id, t, i as u64);
        }
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// The assembled testbed: GARNET topology + GARA + helpers.
pub struct GarnetLab {
    pub sim: Sim,
    pub premium_src: NodeId,
    pub premium_dst: NodeId,
    pub competitive_src: NodeId,
    pub competitive_dst: NodeId,
    pub routers: [NodeId; 3],
    contention_meter: Option<Rc<RefCell<ThroughputMeter>>>,
}

impl GarnetLab {
    /// Build the lab; GARA manages `reservable_fraction` of each trunk.
    pub fn new(cfg: GarnetCfg, reservable_fraction: f64) -> GarnetLab {
        let g = Garnet::build(cfg);
        let (psrc, pdst, csrc, cdst, routers) = (
            g.premium_src,
            g.premium_dst,
            g.competitive_src,
            g.competitive_dst,
            g.routers,
        );
        let mut sim = Sim::new(g.net);
        let mut gara = Gara::new();
        gara.manage_core_links(&sim.net, reservable_fraction);
        install(&mut sim.stack, gara);
        GarnetLab {
            sim,
            premium_src: psrc,
            premium_dst: pdst,
            competitive_src: csrc,
            competitive_dst: cdst,
            routers,
            contention_meter: None,
        }
    }

    /// Run `f` with the GARA service and the network.
    pub fn with_gara<R>(&mut self, f: impl FnOnce(&mut Gara, &mut Net) -> R) -> R {
        let mut g = self
            .sim
            .stack
            .take_service::<Gara>()
            .expect("GARA service installed by GarnetLab::new");
        let r = f(&mut g, &mut self.sim.net);
        self.sim.stack.put_service_box(g);
        r
    }

    /// Start the paper's UDP contention generator between the competitive
    /// hosts, active over `[start, stop)` at `rate_bps` offered load. Zero
    /// load spawns nothing.
    pub fn add_contention(&mut self, rate_bps: u64, start: SimTime, stop: SimTime) {
        if rate_bps == 0 {
            return;
        }
        let (sink, meter) = UdpSink::new(20_000, SimDelta::from_secs(1));
        self.contention_meter = Some(meter);
        let cdst = self.competitive_dst;
        let csrc = self.competitive_src;
        self.sim.spawn_app(cdst, Box::new(sink));
        let blaster = UdpBlaster::with_rate(cdst, 20_000, 1472, rate_bps).window(start, stop);
        self.sim.spawn_app(csrc, Box::new(blaster));
    }

    /// Contention in the reverse trunk direction (loads the pong path of
    /// the ping-pong experiment as heavily as the ping path). Zero load
    /// spawns nothing.
    pub fn add_contention_reverse(&mut self, rate_bps: u64, start: SimTime, stop: SimTime) {
        if rate_bps == 0 {
            return;
        }
        let (sink, _meter) = UdpSink::new(20_001, SimDelta::from_secs(1));
        let csrc = self.competitive_src;
        let cdst = self.competitive_dst;
        self.sim.spawn_app(csrc, Box::new(sink));
        let blaster = UdpBlaster::with_rate(csrc, 20_001, 1472, rate_bps).window(start, stop);
        self.sim.spawn_app(cdst, Box::new(blaster));
    }

    /// Bytes the contention sink has received (sanity checks).
    pub fn contention_delivered(&self) -> u64 {
        self.contention_meter
            .as_ref()
            .map(|m| m.borrow().total_bytes())
            .unwrap_or(0)
    }

    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }
}

/// The §3 setting: two multiprocessor sites joined by a wide-area VC.
/// One rank per host; ranks `0..n` live at site A, `n..2n` at site B.
pub struct TwoSites {
    pub sim: Sim,
    pub site_a: Vec<NodeId>,
    pub site_b: Vec<NodeId>,
}

impl TwoSites {
    /// Build two sites of `n` hosts around a WAN VC of `wan_bps` /
    /// `wan_delay`, with GARA managing `reservable_fraction` of the VC.
    pub fn build(n: usize, wan_bps: u64, wan_delay: SimTime, reservable_fraction: f64) -> TwoSites {
        use mpichgq_netsim::{LinkCfg, QueueCfg, TopoBuilder};
        let mut b = TopoBuilder::new(0x517E5);
        let site_a: Vec<NodeId> = (0..n).map(|i| b.host(&format!("a{i}"))).collect();
        let router_a = b.router("site-a-edge");
        let router_b = b.router("site-b-edge");
        let site_b: Vec<NodeId> = (0..n).map(|i| b.host(&format!("b{i}"))).collect();
        // Fast intra-site interconnect.
        let access = LinkCfg::fast_ethernet(SimDelta::from_micros(20));
        for &h in &site_a {
            b.link(h, router_a, access, QueueCfg::priority_default());
        }
        for &h in &site_b {
            b.link(h, router_b, access, QueueCfg::priority_default());
        }
        let wan = LinkCfg::atm_vc(wan_bps, SimDelta::from_nanos(wan_delay.as_nanos()));
        b.link(router_a, router_b, wan, QueueCfg::priority_default());
        let mut sim = Sim::new(b.build());
        let mut gara = Gara::new();
        gara.manage_core_links(&sim.net, reservable_fraction);
        install(&mut sim.stack, gara);
        TwoSites {
            sim,
            site_a,
            site_b,
        }
    }

    /// Rank-ordered host list for a job spanning both sites.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.site_a
            .iter()
            .chain(self.site_b.iter())
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_contention_spawns_nothing() {
        let mut lab = GarnetLab::new(GarnetCfg::default(), 0.7);
        let quiet = lab.sim.net.pending_events();
        lab.add_contention(0, SimTime::ZERO, SimTime::from_secs(1));
        lab.add_contention_reverse(0, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(lab.sim.net.pending_events(), quiet);
        lab.run_until(SimTime::from_secs(1));
        assert_eq!(lab.contention_delivered(), 0);
    }
}
