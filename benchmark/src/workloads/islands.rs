//! `sharded_islands`: the parallel engine's scaling world, rebuilt from
//! the public API. Four WAN-separated groups (each an OC12 trunk with 8
//! bulk flows) in a line, one cross-group flow per WAN link;
//! `Partition::by_min_delay(10 ms)` cuts it into one shard per group and
//! `run_partitioned` runs them on 2 worker threads. Measures
//! `netsim::shard`'s window / barrier / inbox cost and the per-shard
//! duplication of the world (every shard builds the full topology).

use super::bulk::{edge_link, oc12, BulkRx, BulkTx};
use super::{
    add, check, collect, drive, fold_shards, get, start_jitter, Counts, Extras, Params, Rep,
    Workload,
};
use crate::fingerprint::physics_fp;
use crate::host::thread_schedstat;
use crate::spans::Tracer;
use mpichgq_netsim::{run_partitioned, Net, NetAudit, NodeId, Partition, QueueCfg, TopoBuilder};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{Sim, Stack};
use std::time::Instant;

const GROUPS: usize = 4;
const LOCAL_FLOWS: usize = 8;
/// The measured configuration: both cores of the reference box.
const THREADS: usize = 2;
/// Simulated length at scale 1 (≈ 1 s of host time on 2 threads).
const SIM_LEN: SimDelta = SimDelta::from_millis(1_000);

/// One flow: endpoints, port, and the sender's start offset.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    port: u16,
    start: SimDelta,
}

/// The scaling topology and its flows. Every call with the same `p`
/// makes the identical calls in the identical order, so each shard worker
/// re-derives the same node ids.
fn topo(p: &Params) -> (TopoBuilder, Vec<Flow>) {
    let mut b = TopoBuilder::new(p.derive("topo"));
    let q = QueueCfg::priority_default();
    let mut jitter = p.rng("flow-start");
    let mut flows = Vec::new();
    let mut prev: Option<(NodeId, NodeId)> = None; // (r2, cross-source) of the group before
    for g in 0..GROUPS {
        let r1 = b.router(&format!("g{g}-r1"));
        let r2 = b.router(&format!("g{g}-r2"));
        // Intra-group trunk at 2 ms, so the group clusters into one shard.
        b.link(r1, r2, oc12(SimDelta::from_millis(2)), q);
        for i in 0..LOCAL_FLOWS {
            let src = b.host(&format!("g{g}-src{i}"));
            let dst = b.host(&format!("g{g}-dst{i}"));
            b.link(src, r1, edge_link(), q);
            b.link(r2, dst, edge_link(), q);
            flows.push(Flow {
                src,
                dst,
                port: 7000,
                start: start_jitter(&mut jitter),
            });
        }
        let cross_src = b.host(&format!("g{g}-xsrc"));
        let cross_dst = b.host(&format!("g{g}-xdst"));
        b.link(cross_src, r2, edge_link(), q);
        b.link(cross_dst, r1, edge_link(), q);
        if let Some((prev_r2, prev_src)) = prev {
            // The 20 ms WAN link is the cut, and the lookahead bound.
            b.link(prev_r2, r1, oc12(SimDelta::from_millis(20)), q);
            // SYNs, data and ACKs of this flow all cross shards.
            flows.push(Flow {
                src: prev_src,
                dst: cross_dst,
                port: 7100,
                start: start_jitter(&mut jitter),
            });
        }
        prev = Some((r2, cross_src));
    }
    (b, flows)
}

/// One world: the whole topology, apps only on hosts `owned` says are ours.
fn world(p: &Params, owned: impl Fn(NodeId) -> bool) -> (Net, Stack) {
    let (b, flows) = topo(p);
    let mut net = b.build();
    let mut stack = Stack::new();
    for f in flows {
        if owned(f.dst) {
            stack.spawn_app(&mut net, f.dst, Box::new(BulkRx::new(f.port).0));
        }
        if owned(f.src) {
            stack.spawn_app(
                &mut net,
                f.src,
                Box::new(BulkTx::new(f.dst, f.port, f.start)),
            );
        }
    }
    (net, stack)
}

fn partition(p: &Params) -> Partition {
    let part = Partition::by_min_delay(&topo(p).0, SimDelta::from_millis(10))
        .expect("the WAN links are a positive-delay cut");
    assert_eq!(part.shards() as usize, GROUPS, "one shard per group");
    part
}

struct ShardOut {
    counts: Counts,
    audit: NetAudit,
    clock: SimTime,
    /// Lock-step windows this shard ran (the same on every shard).
    windows: u64,
    worker_wait_ns: u64,
}

/// Run the partitioned world on `threads` workers.
fn run_sharded(p: &Params, part: &Partition, threads: usize, t_end: SimTime) -> Rep {
    let t0 = Instant::now();
    let shards = run_partitioned(
        part,
        threads,
        t_end,
        |shard| world(p, |n| part.shard_of(n) == shard),
        |_, net, stack| {
            // Still on the worker that ran this shard: its run-queue wait
            // is lost once the thread exits.
            let (_, worker_wait_ns) = thread_schedstat();
            let mut sim = Sim { net, stack };
            let mut counts = Counts::new();
            let audit = collect(&mut sim, &mut counts);
            // Published by `collect` as `shardNN.windows`.
            let windows = sim
                .net
                .obs
                .metrics
                .counters()
                .find(|(name, _)| name.starts_with("shard") && name.ends_with(".windows"))
                .map_or(0, |(_, v)| v);
            ShardOut {
                counts,
                audit,
                clock: sim.now(),
                windows,
                worker_wait_ns,
            }
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let clock = shards.iter().map(|s| s.clock).max().expect("shards");
    let worker_wait_s = shards.iter().map(|s| s.worker_wait_ns).max().unwrap_or(0) as f64 / 1e9;
    let windows = shards.iter().map(|s| s.windows).max().unwrap_or(0);
    let (mut counts, audit) =
        fold_shards(shards.into_iter().map(|s| (s.counts, s.audit)).collect());
    add(&mut counts, "shard.windows", windows as f64);
    Rep {
        // `run_partitioned` builds, runs and tears down in one call: the
        // whole repetition is one slice.
        slices: vec![wall_s],
        worker_wait_s,
        physics_fp: physics_fp(clock, &audit, &[]),
        work: audit.delivered,
        checks: vec![
            check("merged ledger conserved", audit.conserved()),
            check(
                "no karn/invariant violations",
                get(&counts, "tcp.violations") == 0.0,
            ),
            check("flows moved packets", audit.delivered > 0),
        ],
        counts,
        facts: vec![("pkts_delivered", audit.delivered)],
    }
}

pub struct ShardedIslands;

pub struct World {
    part: Partition,
    t_end: SimTime,
}

impl Workload for ShardedIslands {
    type World = World;

    fn name(&self) -> &'static str {
        "sharded_islands"
    }

    fn work_unit(&self) -> &'static str {
        "delivered packet"
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn setup_builds(&self) -> u32 {
        400
    }

    /// The partition, plus every shard's world built once and dropped:
    /// `run_partitioned` builds them again on its workers (inside the
    /// measured region, which is where a user pays for it).
    fn build(&self, p: &Params) -> World {
        let part = partition(p);
        for shard in 0..part.shards() {
            std::hint::black_box(world(p, |n| part.shard_of(n) == shard));
        }
        World {
            part,
            t_end: p.scaled_time(SIM_LEN),
        }
    }

    fn run(&self, world: World, p: &Params, t: &mut Tracer) -> Rep {
        let span = t.begin("run.t2");
        let rep = run_sharded(p, &world.part, THREADS, world.t_end);
        t.end(span);
        rep
    }

    /// One thread must simulate exactly what two do; the traced pass also
    /// runs the same world unpartitioned, to split `speedup_2t` into
    /// imbalance + synchronisation and plain partitioning overhead.
    fn extras(&self, p: &Params, t: &mut Tracer, rep: &Rep, base_wall_s: f64) -> Extras {
        let mut x = Extras::default();
        let part = partition(p);
        let t_end = p.scaled_time(SIM_LEN);
        let span = t.begin("run.t1");
        let t1 = run_sharded(p, &part, 1, t_end);
        t.end(span);
        x.checks.push(check(
            "2-thread physics_fp == 1-thread physics_fp",
            t1.physics_fp == rep.physics_fp,
        ));
        if !t.is_on() {
            return x;
        }
        let (net, stack) = world(p, |_| true);
        let mut sim = Sim { net, stack };
        let mut counts = Counts::new();
        let span = t.begin("run.mono");
        let mono_s: f64 = drive(&mut sim, t_end, t, &mut counts).iter().sum();
        t.end(span);
        let audit = collect(&mut sim, &mut counts);
        x.checks.push(check(
            "partitioned physics_fp == unpartitioned physics_fp",
            physics_fp(sim.now(), &audit, &[]) == rep.physics_fp,
        ));
        add(&mut x.counts, "shard.t1_wall_s", t1.wall_s());
        add(&mut x.counts, "shard.mono_wall_s", mono_s);
        add(&mut x.counts, "shard.speedup_2t", t1.wall_s() / base_wall_s);
        add(
            &mut x.counts,
            "shard.partition_overhead_ratio",
            t1.wall_s() / mono_s,
        );
        for k in ["engine.pending_sum", "engine.pending_samples"] {
            add(&mut x.counts, k, get(&counts, k));
        }
        x
    }
}
