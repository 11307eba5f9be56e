//! Topology presets, including GARNET (the paper's Figure 4 testbed).

use crate::link::{Framing, LinkCfg};
use crate::net::{Net, TopoBuilder};
use crate::packet::NodeId;
use crate::queue::QueueCfg;
use mpichgq_sim::SimDelta;

/// Configuration for the GARNET testbed model.
///
/// "Within GARNET, the routers are connected by OC3 ATM connections; across
/// wide area links, they are connected by VCs of varying capacity. End
/// system computers are connected to routers by either switched Fast
/// Ethernet or OC3 connections." (§5.1)
#[derive(Debug, Clone, Copy)]
pub struct GarnetCfg {
    /// Capacity of the router-to-router trunks (the contended resource).
    pub core_bandwidth_bps: u64,
    /// One-way propagation delay of each router-to-router trunk. GARNET is
    /// a laboratory testbed ("the delay is quite small, on the order of a
    /// millisecond or two", §4.3); raise this to model the wide-area
    /// extensions to remote sites.
    pub core_delay: SimDelta,
    /// Host attachment links.
    pub host_link: LinkCfg,
    /// Framing on the core trunks (ATM in the real testbed).
    pub core_framing: Framing,
    /// Queue configuration on core-trunk egress ports.
    pub core_queue: QueueCfg,
    pub seed: u64,
}

impl Default for GarnetCfg {
    fn default() -> Self {
        GarnetCfg {
            core_bandwidth_bps: 155_520_000, // OC3
            core_delay: SimDelta::from_millis(1),
            host_link: LinkCfg::oc3(SimDelta::from_micros(25)),
            core_framing: Framing::AtmAal5,
            core_queue: QueueCfg::priority_default(),
            seed: 0xC15C0,
        }
    }
}

/// The built GARNET network with named endpoints (paper Figure 4: premium
/// source/destination and competitive source/destination Ultras around a
/// chain of three Cisco 7507s).
pub struct Garnet {
    pub net: Net,
    pub premium_src: NodeId,
    pub premium_dst: NodeId,
    pub competitive_src: NodeId,
    pub competitive_dst: NodeId,
    pub routers: [NodeId; 3],
}

impl Garnet {
    pub fn build(cfg: GarnetCfg) -> Garnet {
        let mut b = TopoBuilder::new(cfg.seed);
        let premium_src = b.host("premium-src");
        let competitive_src = b.host("competitive-src");
        let r1 = b.router("cisco-7507-1");
        let r2 = b.router("cisco-7507-2");
        let r3 = b.router("cisco-7507-3");
        let premium_dst = b.host("premium-dst");
        let competitive_dst = b.host("competitive-dst");

        // Host attachments. Hosts get generous drop-tail egress queues (the
        // OS can buffer); router-to-host egress uses priority queuing too.
        let host_q = QueueCfg::DropTail {
            cap_bytes: 512 * 1024,
        };
        b.link_asym(
            premium_src,
            r1,
            cfg.host_link,
            host_q,
            cfg.host_link,
            cfg.core_queue,
        );
        b.link_asym(
            competitive_src,
            r1,
            cfg.host_link,
            host_q,
            cfg.host_link,
            cfg.core_queue,
        );
        b.link_asym(
            premium_dst,
            r3,
            cfg.host_link,
            host_q,
            cfg.host_link,
            cfg.core_queue,
        );
        b.link_asym(
            competitive_dst,
            r3,
            cfg.host_link,
            host_q,
            cfg.host_link,
            cfg.core_queue,
        );

        // Core trunks: the contended path.
        let core = LinkCfg {
            bandwidth_bps: cfg.core_bandwidth_bps,
            delay: cfg.core_delay,
            framing: cfg.core_framing,
        };
        b.link(r1, r2, core, cfg.core_queue);
        b.link(r2, r3, core, cfg.core_queue);

        Garnet {
            net: b.build(),
            premium_src,
            premium_dst,
            competitive_src,
            competitive_dst,
            routers: [r1, r2, r3],
        }
    }
}

/// A minimal dumbbell for unit tests: `src — r1 — r2 — dst`.
pub struct Dumbbell {
    pub net: Net,
    pub src: NodeId,
    pub dst: NodeId,
    pub r1: NodeId,
}

impl Dumbbell {
    pub fn build(bottleneck_bps: u64, delay: SimDelta, seed: u64) -> Dumbbell {
        let mut b = TopoBuilder::new(seed);
        let src = b.host("src");
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let dst = b.host("dst");
        let fast = LinkCfg {
            bandwidth_bps: bottleneck_bps * 10,
            delay: SimDelta::from_micros(10),
            framing: Framing::None,
        };
        let core = LinkCfg {
            bandwidth_bps: bottleneck_bps,
            delay,
            framing: Framing::None,
        };
        b.link(src, r1, fast, QueueCfg::priority_default());
        b.link(r1, r2, core, QueueCfg::priority_default());
        b.link(r2, dst, fast, QueueCfg::priority_default());
        Dumbbell {
            net: b.build(),
            src,
            dst,
            r1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NodeKind;

    #[test]
    fn garnet_wires_up() {
        let g = Garnet::build(GarnetCfg::default());
        assert_eq!(g.net.node_count(), 7);
        assert_eq!(g.net.node(g.routers[1]).kind, NodeKind::Router);
        // All host pairs are mutually reachable.
        for a in [g.premium_src, g.competitive_src] {
            for b in [g.premium_dst, g.competitive_dst] {
                assert!(g.net.route(a, b).is_some(), "{a} cannot reach {b}");
                assert!(g.net.route(b, a).is_some(), "{b} cannot reach {a}");
            }
        }
        // Premium path crosses both trunks: delay = 25us + 1ms + 1ms + 25us.
        let d = g.net.path_delay(g.premium_src, g.premium_dst).unwrap();
        assert_eq!(d, SimDelta::from_micros(25 + 1000 + 1000 + 25));
    }

    #[test]
    fn dumbbell_wires_up() {
        let d = Dumbbell::build(10_000_000, SimDelta::from_millis(2), 7);
        assert!(d.net.route(d.src, d.dst).is_some());
        assert_eq!(
            d.net.path_delay(d.src, d.dst).unwrap(),
            SimDelta::from_micros(10 + 2000 + 10)
        );
    }
}
