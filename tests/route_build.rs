//! Route construction: identity against the full-scan reference, and scale.
//!
//! `TopoBuilder::build` computes hop-count shortest paths with one reverse
//! BFS per destination over an incoming-channel index. Which of several
//! equal-cost next hops a node gets is physics (it decides which queues a
//! flow shares), so the tie-break is a contract (DESIGN.md §7): first
//! discovery, a popped node's incoming channels visited in ascending channel
//! index. The reference below is the original formulation of that rule —
//! every pop scans every channel — kept here as the oracle.

use mpichgq::netsim::{
    ChanId, Dumbbell, Garnet, GarnetCfg, LinkCfg, Net, NodeId, Partition, QueueCfg, TopoBuilder,
};
use mpichgq::qcheck::{build, Inject, ScenarioSpec};
use mpichgq::sim::{SimDelta, SimRng};
use std::collections::VecDeque;
use std::time::Instant;

/// The full-scan reverse BFS: `table[from * n + to]` is the next-hop
/// channel index. Also counts the equal-cost alternatives the tie-break
/// passed over (a channel from an already-discovered node at the same
/// distance). O(n·n·E) — reference only.
fn reference_routes(n: usize, chans: &[(usize, usize)]) -> (Vec<Option<u32>>, usize) {
    let mut table = vec![None; n * n];
    let mut ties = 0;
    for dst in 0..n {
        let mut dist = vec![u32::MAX; n];
        dist[dst] = 0;
        let mut frontier = VecDeque::from([dst]);
        while let Some(cur) = frontier.pop_front() {
            for (ci, &(from, to)) in chans.iter().enumerate() {
                if to != cur {
                    continue;
                }
                if dist[from] == u32::MAX {
                    dist[from] = dist[cur] + 1;
                    table[from * n + dst] = Some(ci as u32);
                    frontier.push_back(from);
                } else if dist[from] == dist[cur] + 1 {
                    ties += 1;
                }
            }
        }
    }
    (table, ties)
}

/// Every ordered pair of `net` routes as the reference says; returns the
/// number of equal-cost ties the topology made the tie-break settle.
fn assert_routes_match_reference(net: &Net, what: &str) -> usize {
    let n = net.node_count();
    let chans: Vec<(usize, usize)> = net
        .chan_ids()
        .map(|id| (net.chan(id).from.0 as usize, net.chan(id).to.0 as usize))
        .collect();
    let (want, ties) = reference_routes(n, &chans);
    for from in 0..n {
        for to in 0..n {
            assert_eq!(
                net.route(NodeId(from as u32), NodeId(to as u32)),
                want[from * n + to].map(ChanId),
                "{what}: next hop {from} -> {to}"
            );
        }
    }
    ties
}

fn lan() -> LinkCfg {
    LinkCfg::fast_ethernet(SimDelta::from_micros(50))
}

fn q() -> QueueCfg {
    QueueCfg::droptail_default()
}

#[test]
fn qcheck_topologies_route_as_the_reference() {
    for seed in 0..200 {
        let scenario = build(&ScenarioSpec::from_seed(seed), &Inject::default());
        assert_routes_match_reference(&scenario.sim.net, &format!("qcheck seed {seed}"));
    }
}

#[test]
fn random_trees_with_chords_route_as_the_reference() {
    let mut rng = SimRng::new(0x7075_E5ED);
    let mut ties = 0;
    for case in 0..64 {
        let mut b = TopoBuilder::new(case);
        let n = rng.range(3, 24) as u32;
        let nodes: Vec<NodeId> = (0..n).map(|i| b.router(&format!("r{i}"))).collect();
        // A random tree, then chords: every chord closes a cycle, and the
        // even-length ones create equal-cost pairs.
        for i in 1..n {
            let parent = rng.below(i as u64) as usize;
            b.link(nodes[i as usize], nodes[parent], lan(), q());
        }
        for _ in 0..rng.range(1, n as u64) {
            let (x, y) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            if x != y {
                b.link(nodes[x], nodes[y], lan(), q());
            }
        }
        ties += assert_routes_match_reference(&b.build(), &format!("random case {case}"));
    }
    assert!(
        ties > 100,
        "only {ties} equal-cost ties: the cases are too easy"
    );
}

#[test]
fn hand_cases_route_as_the_reference() {
    // Two parallel links between one router pair: the lower channel wins.
    let mut b = TopoBuilder::new(1);
    let (h0, r0, r1, h1) = (b.host("h0"), b.router("r0"), b.router("r1"), b.host("h1"));
    b.link(h0, r0, lan(), q());
    let (first, _) = b.link(r0, r1, lan(), q());
    b.link(r0, r1, lan(), q());
    b.link(r1, h1, lan(), q());
    let net = b.build();
    assert!(assert_routes_match_reference(&net, "parallel links") > 0);
    assert_eq!(net.route(r0, h1), Some(first));

    // Asymmetric per-direction configurations.
    let mut b = TopoBuilder::new(2);
    let (a, r, c) = (b.host("a"), b.router("r"), b.host("c"));
    let slow = LinkCfg::atm_vc(1_000_000, SimDelta::from_millis(20));
    b.link_asym(a, r, lan(), q(), slow, QueueCfg::priority_default());
    b.link_asym(r, c, slow, QueueCfg::priority_default(), lan(), q());
    assert_routes_match_reference(&b.build(), "link_asym");

    // A disconnected island: no route either way.
    let mut b = TopoBuilder::new(3);
    let (a, r, c) = (b.host("a"), b.router("r"), b.host("c"));
    let (x, y) = (b.host("x"), b.host("y"));
    b.link(a, r, lan(), q());
    b.link(r, c, lan(), q());
    b.link(x, y, lan(), q());
    let net = b.build();
    assert_routes_match_reference(&net, "island");
    assert_eq!(net.route(a, x), None);
    assert_eq!(net.route(y, c), None);
    assert!(net.route(x, y).is_some());

    // A single node, and no node at all.
    let mut b = TopoBuilder::new(4);
    let only = b.host("only");
    let net = b.build();
    assert_routes_match_reference(&net, "single node");
    assert_eq!(net.route(only, only), None);
    assert_eq!(TopoBuilder::new(5).build().node_count(), 0);

    // A ring of 6: two equal-cost directions to the antipode.
    let mut b = TopoBuilder::new(6);
    let ring: Vec<NodeId> = (0..6).map(|i| b.router(&format!("r{i}"))).collect();
    for i in 0..6 {
        b.link(ring[i], ring[(i + 1) % 6], lan(), q());
    }
    let net = b.build();
    assert_eq!(assert_routes_match_reference(&net, "ring of 6"), 6);
    assert_eq!(net.path_chans(ring[0], ring[3]).map(|p| p.len()), Some(3));

    let garnet = Garnet::build(GarnetCfg::default());
    assert_routes_match_reference(&garnet.net, "GARNET");
    let dumbbell = Dumbbell::build(10_000_000, SimDelta::from_millis(2), 7);
    assert_routes_match_reference(&dumbbell.net, "Dumbbell");
}

/// `routers` routers in a line, 20 ms apart, each with `hosts` hosts.
fn line_of_stars(routers: usize, hosts: usize) -> (TopoBuilder, Vec<NodeId>) {
    let mut b = TopoBuilder::new(9);
    let wan = LinkCfg::atm_vc(622_080_000, SimDelta::from_millis(20));
    let mut all_hosts = Vec::new();
    let mut prev = None;
    for r in 0..routers {
        let router = b.router(&format!("r{r}"));
        if let Some(p) = prev {
            b.link(p, router, wan, QueueCfg::priority_default());
        }
        prev = Some(router);
        for h in 0..hosts {
            let host = b.host(&format!("h{r}.{h}"));
            b.link(host, router, lan(), q());
            all_hosts.push(host);
        }
    }
    (b, all_hosts)
}

#[test]
fn a_two_thousand_node_world_builds_in_under_two_seconds() {
    let (b, hosts) = line_of_stars(64, 32);
    assert_eq!(b.node_count(), 2_112);
    let partition = Partition::by_min_delay(&b, SimDelta::from_millis(1)).expect("partition");
    assert_eq!(partition.shards(), 64);

    let t0 = Instant::now();
    let net = b.build();
    let took = t0.elapsed();
    assert_eq!(net.chan_ids().count(), 4_222);
    // The full scan took 8.8 s here in release; the indexed walk ~50 ms.
    assert!(took.as_secs_f64() < 2.0, "build took {took:?}");

    let (first, last) = (hosts[0], hosts[hosts.len() - 1]);
    assert_eq!(net.path_chans(first, last).map(|p| p.len()), Some(65));
    let holes = hosts
        .iter()
        .flat_map(|&a| hosts.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a != b && net.route(a, b).is_none())
        .count();
    assert_eq!(holes, 0, "every host reaches every other");
}
