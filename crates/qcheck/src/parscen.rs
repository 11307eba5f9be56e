//! Partitionable fuzz scenarios: the cross-thread determinism gate.
//!
//! The main fuzz corpus ([`crate::scenario`]) is deliberately monolithic —
//! its GARA controller is global state — so it never exercises the
//! parallel engine. The scenarios here are the complement: a seed expands
//! into `2..=4` WAN-separated islands with island-local UDP plus
//! cross-island TCP and UDP flows, the topology partitions on the WAN
//! delay cut, and the world runs through
//! [`mpichgq_netsim::run_partitioned`] on a caller-chosen thread count.
//!
//! Every draw comes from a labeled fork of the seed's stream and every
//! worker rebuilds its shard from the same spec, so the run's FNV-1a
//! fingerprint must be invariant in the thread count — that equality,
//! checked seed by seed, is qcheck's parallel-engine determinism gate.
//!
//! Thread invariance does not show that the partitioned run computes the
//! sequential run's physics. [`run_par_scenario_monolithic`] runs the same
//! seed as one shard, and its [`ParOutcome::physics`] digest — which does
//! not depend on where the partition cuts — must equal the partitioned
//! run's: the monolithic run is the parallel engine's oracle.

use crate::workload::{QcTcpSender, QcTcpSink, QcUdpPulse, QcUdpSink};
use mpichgq_netsim::{run_partitioned, LinkCfg, Net, NodeId, Partition, QueueCfg, TopoBuilder};
use mpichgq_sim::{Fnv, SimDelta, SimRng, SimTime};
use mpichgq_tcp::{ConnStats, Stack, TcpCfg};

/// What a partitioned run reports. Equal fingerprints ⇔ every shard ended
/// in a bit-identical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParOutcome {
    /// FNV-1a over per-shard digests in shard order.
    pub fingerprint: u64,
    /// FNV-1a over what the partition cannot change: per-channel
    /// `(tx_packets, rx_packets)` summed over the shard copies, then the
    /// sorted multiset of per-connection [`ConnStats`].
    pub physics: u64,
    /// Events processed, summed over shards.
    pub events: u64,
    /// Number of shards the seed's topology split into.
    pub shards: u32,
    /// Worker threads actually used.
    pub threads: usize,
}

/// The shape a seed expands into (kept tiny on purpose: the interesting
/// state space is the interleaving, not the topology zoo).
struct ParShape {
    islands: u64,
    hosts_per_island: u64,
    wan_delay: SimDelta,
    t_end: SimTime,
    seed: u64,
}

impl ParShape {
    fn from_seed(seed: u64) -> ParShape {
        let mut rng = SimRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut shape = rng.fork_labeled("par-shape");
        ParShape {
            islands: shape.range(2, 5),
            hosts_per_island: shape.range(2, 4),
            wan_delay: SimDelta::from_millis(shape.range(5, 21)),
            t_end: SimTime::from_millis(shape.range(150, 400)),
            seed,
        }
    }

    /// Node id of host `h` on island `i` (islands are laid out
    /// router-first, then hosts, in island order).
    fn host(&self, island: u64, h: u64) -> u64 {
        island * (1 + self.hosts_per_island) + 1 + h
    }

    /// The full topology: one router + `hosts_per_island` hosts per
    /// island, islands joined in a line by WAN links of `wan_delay`.
    fn topo(&self) -> TopoBuilder {
        let mut b = TopoBuilder::new(self.seed);
        let mut routers = Vec::new();
        for i in 0..self.islands {
            let r = b.router(&format!("i{i}-r"));
            for h in 0..self.hosts_per_island {
                let host = b.host(&format!("i{i}-h{h}"));
                b.link(
                    host,
                    r,
                    LinkCfg::fast_ethernet(SimDelta::from_micros(50)),
                    QueueCfg::priority_default(),
                );
            }
            if let Some(&prev) = routers.last() {
                b.link(
                    prev,
                    r,
                    LinkCfg::atm_vc(45_000_000, self.wan_delay),
                    QueueCfg::Priority {
                        ef_cap_bytes: 500_000,
                        be_cap_bytes: 120_000,
                    },
                );
            }
            routers.push(r);
        }
        b
    }

    /// Build the shard copy: full topology, apps only on owned hosts.
    /// Workloads are drawn from labeled forks *per flow*, so a worker can
    /// skip foreign flows without consuming draws another flow depends on.
    fn build(&self, shard: u32, part: &Partition) -> (Net, Stack) {
        let mut net = self.topo().build();
        let mut stack = Stack::new();
        let tcp_cfg = TcpCfg::default();
        let owned = |node: u64| part.shard_of(NodeId(node as u32)) == shard;

        for i in 0..self.islands {
            let next = (i + 1) % self.islands;
            let mut rng = SimRng::new(self.seed ^ 0xA076_1D64_78BD_642F);
            let mut f = rng.fork_labeled(&format!("island-{i}"));

            // Island-local UDP: h0 -> h1, entirely inside one shard.
            let (src, dst) = (self.host(i, 0), self.host(i, 1));
            let payload = f.range(200, 1_200) as u32;
            let interval = SimDelta::from_micros(f.range(300, 3_000));
            let start = SimDelta::from_millis(f.range(0, 50));
            let count = f.range(50, 300);
            if owned(dst) {
                stack.spawn_app(
                    &mut net,
                    NodeId(dst as u32),
                    Box::new(QcUdpSink { port: 6000 }),
                );
            }
            if owned(src) {
                stack.spawn_app(
                    &mut net,
                    NodeId(src as u32),
                    Box::new(QcUdpPulse::new(
                        NodeId(dst as u32),
                        6000,
                        7000,
                        payload,
                        interval,
                        start,
                        count,
                    )),
                );
            }

            // Cross-island TCP: island i's h0 -> island i+1's h1. The SYN,
            // data, and ACKs all cross the WAN cut, exercising the
            // outbox/merge path in both directions.
            let (csrc, cdst) = (self.host(i, 0), self.host(next, 1));
            let port = 5_000 + i as u16;
            let cstart = SimDelta::from_millis(f.range(0, 80));
            let total = f.range(30_000, 400_000);
            let close = f.chance(0.5);
            if owned(cdst) {
                stack.spawn_app(
                    &mut net,
                    NodeId(cdst as u32),
                    Box::new(QcTcpSink { port, cfg: tcp_cfg }),
                );
            }
            if owned(csrc) {
                stack.spawn_app(
                    &mut net,
                    NodeId(csrc as u32),
                    Box::new(QcTcpSender::new(
                        NodeId(cdst as u32),
                        port,
                        tcp_cfg,
                        cstart,
                        total,
                        close,
                    )),
                );
            }

            // Cross-island UDP the other way: i+1's h0 -> i's h1.
            let (usrc, udst) = (self.host(next, 0), self.host(i, 1));
            let uport = 6_500 + i as u16;
            let upayload = f.range(200, 1_200) as u32;
            let uinterval = SimDelta::from_micros(f.range(500, 4_000));
            let ustart = SimDelta::from_millis(f.range(0, 60));
            let ucount = f.range(30, 200);
            if owned(udst) {
                stack.spawn_app(
                    &mut net,
                    NodeId(udst as u32),
                    Box::new(QcUdpSink { port: uport }),
                );
            }
            if owned(usrc) {
                stack.spawn_app(
                    &mut net,
                    NodeId(usrc as u32),
                    Box::new(QcUdpPulse::new(
                        NodeId(udst as u32),
                        uport,
                        7_500 + i as u16,
                        upayload,
                        uinterval,
                        ustart,
                        ucount,
                    )),
                );
            }
        }
        (net, stack)
    }
}

/// One connection's counters, in a fixed field order.
fn conn_row(st: ConnStats) -> [u64; 9] {
    [
        st.segs_sent,
        st.bytes_sent,
        st.rtx_segs,
        st.rtos,
        st.fast_retransmits,
        st.dup_acks_received,
        st.slow_start_restarts,
        st.karn_violations,
        st.invariant_violations,
    ]
}

/// What one shard copy hands back at the end of its run.
struct ShardEnd {
    events: u64,
    /// FNV-1a digest of the shard's end state: engine clock + wire
    /// counters via [`Net::state_fingerprint`], plus per-connection TCP
    /// stats in socket-creation order.
    digest: u64,
    /// `(tx_packets, rx_packets)` per channel, in channel order.
    wires: Vec<(u64, u64)>,
    conns: Vec<[u64; 9]>,
}

impl ShardEnd {
    fn new(net: &Net, stack: &Stack) -> ShardEnd {
        let conns: Vec<[u64; 9]> = stack
            .tcp_sock_ids()
            .into_iter()
            .map(|sock| conn_row(stack.conn_stats(sock).expect("tcp sock has stats")))
            .collect();
        let wires = net.audit().chans;
        let mut h = Fnv::resume(net.state_fingerprint());
        conns.iter().flatten().for_each(|&v| h.u64(v));
        ShardEnd {
            events: net.events_processed(),
            digest: h.finish(),
            wires: wires.iter().map(|c| (c.tx_packets, c.rx_packets)).collect(),
            conns,
        }
    }
}

impl ParShape {
    /// Run the scenario under `part` on `threads` worker threads.
    fn run(&self, part: &Partition, threads: usize) -> ParOutcome {
        let ends = run_partitioned(
            part,
            threads,
            self.t_end,
            |shard| self.build(shard, part),
            |_, net, stack| ShardEnd::new(&net, &stack),
        );
        let (mut h, mut events) = (Fnv::new(), 0u64);
        let mut wires = vec![(0u64, 0u64); ends[0].wires.len()];
        let mut conns = Vec::new();
        for end in &ends {
            events += end.events;
            h.u64(end.digest);
            for (sum, &(tx, rx)) in wires.iter_mut().zip(&end.wires) {
                *sum = (sum.0 + tx, sum.1 + rx);
            }
            conns.extend_from_slice(&end.conns);
        }
        conns.sort_unstable();
        let mut p = Fnv::new();
        for (tx, rx) in wires {
            p.u64(tx);
            p.u64(rx);
        }
        conns.iter().flatten().for_each(|&v| p.u64(v));
        ParOutcome {
            fingerprint: h.finish(),
            physics: p.finish(),
            events,
            shards: part.shards(),
            threads,
        }
    }
}

/// Expand `seed` into a partitioned scenario and run it on `threads`
/// worker threads. The outcome's fingerprint is a pure function of the
/// seed — any dependence on `threads` is a determinism bug in the
/// parallel engine, which is exactly what the self-test hunts.
pub fn run_par_scenario(seed: u64, threads: usize) -> ParOutcome {
    let shape = ParShape::from_seed(seed);
    let part = Partition::by_min_delay(&shape.topo(), SimDelta::from_millis(1))
        .expect("island topologies have positive WAN delays");
    assert_eq!(
        part.shards(),
        shape.islands as u32,
        "delay cut must split exactly at the WAN links"
    );
    shape.run(&part, threads)
}

/// [`run_par_scenario`]'s scenario run as one shard: a cut above the WAN
/// delay fuses every island, and a one-shard run keeps the monolithic
/// RNG stream. Its [`ParOutcome::physics`] must equal the partitioned
/// run's; a difference is a determinism break in the parallel engine.
pub fn run_par_scenario_monolithic(seed: u64) -> ParOutcome {
    let shape = ParShape::from_seed(seed);
    let cut = shape.wan_delay + SimDelta::from_nanos(1);
    let part = Partition::by_min_delay(&shape.topo(), cut).expect("the cut is positive");
    assert_eq!(part.shards(), 1, "the cut fuses every island");
    shape.run(&part, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shard's `(timeline_json, metrics_json)` for [`run_par_scenario`]'s
    /// partition with the timeline sampler armed on every shard.
    fn run_par_scenario_observed(seed: u64, threads: usize) -> Vec<(String, String)> {
        let shape = ParShape::from_seed(seed);
        let part = Partition::by_min_delay(&shape.topo(), SimDelta::from_millis(1))
            .expect("island topologies have positive WAN delays");
        let t_end = shape.t_end;
        let interval = SimDelta::from_nanos((t_end.as_nanos() / 16).max(1_000_000));
        run_partitioned(
            &part,
            threads,
            t_end,
            |shard| {
                let (mut net, stack) = shape.build(shard, &part);
                net.enable_timeline(interval);
                (net, stack)
            },
            |_, mut net, mut stack| {
                net.timeline_finalize(&mut stack, t_end);
                let tl = net.timeline_json().expect("sampler was armed");
                (tl, net.metrics_json())
            },
        )
    }

    #[test]
    fn par_scenarios_do_real_cross_shard_work() {
        let out = run_par_scenario(0, 1);
        assert!(out.shards >= 2);
        assert!(out.events > 1_000, "only {} events", out.events);
    }

    /// The sampling grid is a pure function of the seed, so — exactly like
    /// the state fingerprint — every shard's timeline and metrics snapshot
    /// must be byte-identical in the thread count.
    #[test]
    fn shard_timelines_and_metrics_are_thread_count_invariant() {
        for seed in 0..2 {
            let one = run_par_scenario_observed(seed, 1);
            let four = run_par_scenario_observed(seed, 4);
            assert!(one.len() >= 2, "seed {seed} did not partition");
            for (i, (a, b)) in one.iter().zip(&four).enumerate() {
                assert_eq!(
                    a.0, b.0,
                    "seed {seed} shard {i}: timeline depends on threads"
                );
                assert_eq!(a.1, b.1, "seed {seed} shard {i}: metrics depend on threads");
            }
        }
    }

    #[test]
    fn fingerprint_is_thread_count_invariant() {
        for seed in 0..4 {
            let one = run_par_scenario(seed, 1);
            for threads in [2, 4] {
                let n = run_par_scenario(seed, threads);
                assert_eq!(
                    (one.fingerprint, one.physics, one.events, one.shards),
                    (n.fingerprint, n.physics, n.events, n.shards),
                    "seed {seed}: 1 vs {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn partitioned_physics_matches_the_monolithic_run() {
        for seed in 0..6 {
            let whole = run_par_scenario_monolithic(seed);
            let split = run_par_scenario(seed, 2);
            assert_eq!(whole.shards, 1);
            assert!(split.shards >= 2, "seed {seed} did not partition");
            assert_eq!(
                whole.physics, split.physics,
                "seed {seed}: partitioned run diverged from the monolithic one"
            );
        }
    }
}
