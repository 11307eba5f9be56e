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

use crate::workload::{QcTcpSender, QcTcpSink, QcUdpPulse, QcUdpSink};
use mpichgq_netsim::{run_partitioned, LinkCfg, Net, NodeId, Partition, QueueCfg, TopoBuilder};
use mpichgq_sim::{Fnv, SimDelta, SimRng, SimTime};
use mpichgq_tcp::{Stack, TcpCfg};

/// What a partitioned run reports. Equal fingerprints ⇔ every shard ended
/// in a bit-identical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParOutcome {
    /// FNV-1a over per-shard digests in shard order.
    pub fingerprint: u64,
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

/// FNV-1a digest of one shard's end state: engine clock + wire counters
/// via [`Net::state_fingerprint`], plus per-connection TCP stats in
/// socket-creation order. The shard's event count travels beside it.
fn shard_digest(net: &Net, stack: &Stack) -> u64 {
    let mut h = Fnv::resume(net.state_fingerprint());
    for sock in stack.tcp_sock_ids() {
        let st = stack.conn_stats(sock).expect("tcp sock has stats");
        h.u64(st.segs_sent);
        h.u64(st.bytes_sent);
        h.u64(st.rtx_segs);
        h.u64(st.rtos);
        h.u64(st.fast_retransmits);
        h.u64(st.dup_acks_received);
    }
    h.finish()
}

/// Expand `seed` into a partitioned scenario and run it on `threads`
/// worker threads. The outcome's fingerprint is a pure function of the
/// seed — any dependence on `threads` is a determinism bug in the
/// parallel engine, which is exactly what the self-test hunts.
pub fn run_par_scenario(seed: u64, threads: usize) -> ParOutcome {
    let shape = ParShape::from_seed(seed);
    let topo = shape.topo();
    let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1))
        .expect("island topologies have positive WAN delays");
    assert_eq!(
        part.shards(),
        shape.islands as u32,
        "delay cut must split exactly at the WAN links"
    );
    let per_shard = run_partitioned(
        &part,
        threads,
        shape.t_end,
        |shard| shape.build(shard, &part),
        |_, net, stack| (net.events_processed(), shard_digest(&net, &stack)),
    );
    let mut h = Fnv::new();
    let mut events = 0u64;
    for &(ev, digest) in &per_shard {
        events += ev;
        h.u64(digest);
    }
    ParOutcome {
        fingerprint: h.finish(),
        events,
        shards: part.shards(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpichgq_obs::{Registry, Timeline};

    /// A partitioned run's merged observability: the shard-merged timeline
    /// plus the merged metrics registry.
    struct ParTimelines {
        /// Order-independent merge of the per-shard timelines (shards sampled
        /// on the same grid, merged in shard order — but
        /// `Timeline::merge_from` is commutative, so the order is cosmetic).
        timeline: Timeline,
        /// Merged registry after [`Registry::refine_gauge_peaks`]: gauge
        /// high-water marks are true combined peaks at sampling resolution
        /// wherever a series exists, the documented sum-of-peaks upper bound
        /// elsewhere.
        registry: Registry,
        /// Gauge high-water marks as the naive registry merge left them
        /// (sums of per-shard peaks), captured before refinement so tests can
        /// prove the refinement actually tightens the bound.
        summed_peaks: Vec<(String, f64)>,
    }

    /// [`run_par_scenario`] with the timeline sampler armed on every shard.
    /// The sampling grid is a pure function of the seed, so — exactly like
    /// the state fingerprint — the merged timeline's JSON must be
    /// byte-identical in the thread count.
    fn run_par_scenario_timeline(seed: u64, threads: usize) -> ParTimelines {
        let shape = ParShape::from_seed(seed);
        let topo = shape.topo();
        let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1))
            .expect("island topologies have positive WAN delays");
        let t_end = shape.t_end;
        let interval = SimDelta::from_nanos((t_end.as_nanos() / 16).max(1_000_000));
        let per_shard = run_partitioned(
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
                net.publish_metrics();
                let tl = net.take_timeline().expect("sampler was armed");
                (tl, std::mem::take(&mut net.obs.metrics))
            },
        );
        let mut timeline = Timeline::new(interval.as_nanos());
        let mut registry = Registry::default();
        for (tl, reg) in &per_shard {
            timeline.merge_from(tl);
            registry.merge_from(reg);
        }
        let names: Vec<String> = registry.gauges().map(|(n, _)| n.to_owned()).collect();
        let summed_peaks: Vec<(String, f64)> = names
            .into_iter()
            .map(|n| {
                let hw = registry.gauge_high_water(&n).expect("touched gauge");
                (n, hw)
            })
            .collect();
        registry.refine_gauge_peaks(&timeline);
        ParTimelines {
            timeline,
            registry,
            summed_peaks,
        }
    }

    #[test]
    fn par_scenarios_do_real_cross_shard_work() {
        let out = run_par_scenario(0, 1);
        assert!(out.shards >= 2);
        assert!(out.events > 1_000, "only {} events", out.events);
    }

    #[test]
    fn merged_timeline_is_thread_count_invariant() {
        for seed in 0..2 {
            let one = run_par_scenario_timeline(seed, 1);
            let four = run_par_scenario_timeline(seed, 4);
            assert_eq!(
                one.timeline.to_json(),
                four.timeline.to_json(),
                "seed {seed}: merged timeline depends on thread count"
            );
            assert_eq!(
                one.registry.snapshot_json(),
                four.registry.snapshot_json(),
                "seed {seed}: merged registry depends on thread count"
            );
        }
    }

    /// Satellite check for the gauge-peak merge fix: the naive registry
    /// merge sums per-shard high-water marks (an upper bound — shards
    /// need not peak simultaneously), and `refine_gauge_peaks` replaces
    /// that with the true combined peak read off the merged series.
    #[test]
    fn merged_gauge_peaks_are_refined_not_summed() {
        let out = run_par_scenario_timeline(0, 2);
        let name = "engine.pending_events";
        let refined = out
            .registry
            .gauge_high_water(name)
            .expect("every shard publishes the engine gauge");
        let summed = out
            .summed_peaks
            .iter()
            .find(|(n, _)| n == name)
            .expect("captured before refinement")
            .1;
        let from_series = out
            .timeline
            .gauge_peak(name)
            .expect("the sampler records the engine gauge");
        let final_value = out.registry.gauge_value(name).unwrap_or(0.0);
        // Each shard publishes this gauge once, at the end of its run, so
        // the "peak" the naive merge sums is just every shard's last value
        // — a bound on nothing. (It used to look like one: uninserted
        // events were once all in the queue, which therefore only grew, and
        // the last value was the largest.) The merged series knows better.
        assert_eq!(summed, final_value);
        assert_eq!(
            refined,
            from_series.max(final_value),
            "refined peak must come from the merged series"
        );
    }

    #[test]
    fn fingerprint_is_thread_count_invariant() {
        for seed in 0..4 {
            let one = run_par_scenario(seed, 1);
            for threads in [2, 4] {
                let n = run_par_scenario(seed, threads);
                assert_eq!(
                    (one.fingerprint, one.events, one.shards),
                    (n.fingerprint, n.events, n.shards),
                    "seed {seed}: 1 vs {threads} threads diverged"
                );
            }
        }
    }
}
