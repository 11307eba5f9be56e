//! Route construction: identity against the full-scan reference, and scale.
//!
//! `TopoBuilder::build` computes hop-count shortest paths with one reverse
//! BFS per core destination over an incoming-channel index, and stores next
//! hops only for core nodes: a single-homed host (a leaf) keeps its uplink
//! and borrows its router's row. Which of several equal-cost next hops a
//! node gets is physics (it decides which queues a flow shares), so the
//! tie-break is a contract (DESIGN.md §7): first discovery, a popped node's
//! incoming channels visited in ascending channel index. The reference below
//! is the original formulation of that rule over every node — every pop
//! scans every channel — kept here as the oracle.

use mpichgq::netsim::{
    ChanId, Dumbbell, Garnet, GarnetCfg, LinkCfg, Net, NodeId, NodeKind, Partition, QueueCfg,
    TopoBuilder,
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

/// Routers on a random forest with chords (a router starts its own island
/// one time in five), and hosts in every role: single-homed, multi-homed,
/// two parallel uplinks to one router, host–host pairs, `h–h–r` chains and
/// isolated. Routers and hosts take interleaved ids and the links are made
/// in shuffled order and direction, so a leaf's downlink may sit below or
/// above its uplink.
fn random_mixed_world(rng: &mut SimRng, seed: u64) -> TopoBuilder {
    let mut b = TopoBuilder::new(seed);
    let (nr, nh) = (rng.range(1, 9) as usize, rng.range(2, 24) as usize);
    let (mut routers, mut hosts) = (Vec::new(), Vec::new());
    while routers.len() + hosts.len() < nr + nh {
        if hosts.len() == nh || (routers.len() < nr && rng.below((nr + nh) as u64) < nr as u64) {
            routers.push(b.router(&format!("r{}", routers.len())));
        } else {
            hosts.push(b.host(&format!("h{}", hosts.len())));
        }
    }
    let mut links = Vec::new();
    for i in 1..nr {
        if !rng.chance(0.2) {
            links.push((routers[i], routers[rng.below(i as u64) as usize]));
        }
    }
    for _ in 0..rng.below(nr as u64) {
        let (x, y) = (rng.below(nr as u64), rng.below(nr as u64));
        if x != y {
            links.push((routers[x as usize], routers[y as usize]));
        }
    }
    let router = |rng: &mut SimRng| routers[rng.below(nr as u64) as usize];
    let mut i = 0;
    while i < nh {
        let h = hosts[i];
        match rng.below(8) {
            0..=2 => links.push((h, router(rng))),
            3 => {
                links.push((h, router(rng)));
                links.push((h, router(rng)));
            }
            4 => {
                let r = router(rng);
                links.extend([(h, r), (h, r)]);
            }
            5 if i + 1 < nh => {
                links.push((h, hosts[i + 1]));
                i += 1;
            }
            6 if i + 1 < nh => {
                links.push((h, hosts[i + 1]));
                links.push((hosts[i + 1], router(rng)));
                i += 1;
            }
            _ => {} // isolated
        }
        i += 1;
    }
    for k in (1..links.len()).rev() {
        links.swap(k, rng.below(k as u64 + 1) as usize);
    }
    for (x, y) in links {
        let (x, y) = if rng.chance(0.5) { (x, y) } else { (y, x) };
        b.link(x, y, lan(), q());
    }
    b
}

/// `(leaves, linked core hosts)`: hosts whose one channel goes to a router,
/// and hosts with at least one channel that are not leaves.
fn host_roles(net: &Net) -> (usize, usize) {
    let (mut leaves, mut core) = (0, 0);
    for v in 0..net.node_count() {
        let node = net.node(NodeId(v as u32));
        if node.kind != NodeKind::Host || node.ifaces.is_empty() {
            continue;
        }
        match node.ifaces[..] {
            [up] if net.node(net.chan(up).to).kind == NodeKind::Router => leaves += 1,
            _ => core += 1,
        }
    }
    (leaves, core)
}

#[test]
fn random_mixed_worlds_route_as_the_reference() {
    let mut rng = SimRng::new(0x1EAF_5EED);
    let (mut ties, mut leaves, mut core_hosts) = (0, 0, 0);
    for case in 0..160 {
        let net = random_mixed_world(&mut rng, case).build();
        ties += assert_routes_match_reference(&net, &format!("mixed case {case}"));
        let (l, c) = host_roles(&net);
        leaves += l;
        core_hosts += c;
    }
    assert!(
        leaves > 400 && core_hosts > 400 && ties > 1_000,
        "too easy: {leaves} leaves, {core_hosts} core hosts, {ties} ties"
    );
}

#[test]
fn leaves_route_through_their_router() {
    // Two islands: `ra` with leaves `a0` (uplink made first) and `a1`
    // (downlink made first), and `rb` with the leaf `b0`.
    let mut b = TopoBuilder::new(10);
    let (ra, a0, rb, a1, b0) = (
        b.router("ra"),
        b.host("a0"),
        b.router("rb"),
        b.host("a1"),
        b.host("b0"),
    );
    let (up, down) = b.link(a0, ra, lan(), q());
    let (down1, up1) = b.link(ra, a1, lan(), q());
    let (up_b, _) = b.link(b0, rb, lan(), q());
    let net = b.build();
    assert_eq!(host_roles(&net), (3, 0));
    assert_routes_match_reference(&net, "leaf islands");

    assert_eq!(net.route(a0, ra), Some(up));
    assert_eq!(net.route(ra, a0), Some(down));
    assert_eq!(net.route(ra, a1), Some(down1));
    assert_eq!(net.route(a0, a1), Some(up));
    assert_eq!(net.route(a1, a0), Some(up1));
    assert_eq!(net.route(b0, rb), Some(up_b));
    // Nothing crosses to the other island, in either direction.
    for (x, y) in [(a0, rb), (a0, b0), (b0, a0), (b0, ra), (ra, b0), (rb, a1)] {
        assert_eq!(net.route(x, y), None, "{x:?} -> {y:?}");
    }
    // A leaf to itself.
    assert_eq!(net.route(a0, a0), None);
    assert_eq!(net.route(b0, b0), None);
    // Ids past the last node, from and to leaves and routers.
    let past = NodeId(net.node_count() as u32);
    for id in [ra, a0, rb, a1, b0] {
        for bad in [past, NodeId(u32::MAX)] {
            assert_eq!(net.route(id, bad), None, "{id:?} -> {bad:?}");
            assert_eq!(net.route(bad, id), None, "{bad:?} -> {id:?}");
        }
    }
    assert_eq!(net.path_chans(a0, a1), Some(vec![up, down1]));
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
    // Release, 2 cores: the full scan over every node took 8.8 s, a reverse
    // BFS per node into an n² table 34 ms, the core-only BFS 0.5 ms.
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
