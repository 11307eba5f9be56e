//! Conservative-lookahead parallel execution of a partitioned topology.
//!
//! A [`Partition`] splits a topology's nodes into `k` shards. Each shard
//! runs a complete [`Net`] copy but only ever schedules events for the
//! nodes it owns: a channel belongs to the shard of its `from` node (its
//! queue, its transmitter's busy-until key, and its `TxDone` events live
//! there) and a delivery executes in the shard of its `to` node. The
//! single place where simulated causality crosses a shard boundary — a
//! transmission whose channel lands on a foreign node — becomes a
//! timestamped outbox message instead of an entry on the channel's wire
//! FIFO (see `Net::try_start_tx`).
//!
//! Packets in flight live in `Net`, not in the engine: each channel keeps
//! a FIFO in the shard of its `to` node and only the FIFO head owns an
//! engine event. An injected cross-shard message joins that FIFO under a
//! delivery key reserved at the barrier, exactly where it used to be
//! scheduled. `Net::peek_time`, which drives the idle-window vote, is
//! therefore the time of the next thing that can *happen* in a shard —
//! transmissions that end with nobody waiting and re-armed TCP timers no
//! longer hold the vote back — while `shardNN.pending_events` no longer
//! says how many packets a shard has in flight (`NetAudit` does).
//!
//! **Lookahead bound.** Let `L` be the minimum propagation delay over all
//! cross-shard channels. A packet transmitted at time `s` arrives at
//! `s + serialization + delay >= s + L`, so while a shard executes the
//! window `[T, T+L)` every message it can possibly emit arrives at or
//! after `T+L` — strictly in every other shard's future. Shards therefore
//! advance in lock-step windows of width `L` with a barrier between
//! windows, exchanging outboxes at the barrier. Zero-delay cross-shard
//! links would make `L = 0` and the window empty, so [`Partition`]
//! construction rejects them up front instead of deadlocking.
//!
//! **Deterministic merge rule.** At each barrier a shard drains the
//! messages addressed to it sorted by `(timestamp, source shard id,
//! source sequence number)`. The triple is unique per message and depends
//! only on simulated state, never on thread interleaving, so any thread
//! count — including one — produces bit-identical shard states. The
//! engine's own tie-break (insertion order at equal timestamps) is then
//! fed identically on every run.
//!
//! **Worker-local construction.** Handlers (TCP stacks, apps) are not
//! `Send` and never need to be: [`run_partitioned`] takes a *builder*
//! closure and each worker thread constructs, runs, and summarizes its
//! own shards entirely on one thread. Only the summaries (`R: Send`)
//! cross threads. By contract the builder spawns traffic only on hosts
//! the given shard owns; `Net` asserts ownership at the scheduling sites.

use crate::net::{Net, NetHandler, TopoBuilder};
use crate::packet::NodeId;
use mpichgq_sim::{SimDelta, SimTime};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Why a shard map was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The map's length does not equal the topology's node count.
    WrongLength { nodes: usize, map: usize },
    /// Shard ids must be contiguous `0..k`; this id has no member.
    EmptyShard { shard: u32 },
    /// A cross-shard channel with zero propagation delay: the lookahead
    /// window would be empty and the engine could never advance.
    ZeroDelayCrossLink { from: usize, to: usize },
    /// The auto-partitioner needs a positive delay cut.
    ZeroCut,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PartitionError::WrongLength { nodes, map } => {
                write!(f, "shard map has {map} entries for {nodes} nodes")
            }
            PartitionError::EmptyShard { shard } => {
                write!(
                    f,
                    "shard ids are not contiguous: shard {shard} has no nodes"
                )
            }
            PartitionError::ZeroDelayCrossLink { from, to } => write!(
                f,
                "channel {from} -> {to} crosses shards with zero propagation \
                 delay; conservative lookahead would be zero and no window \
                 could advance — keep zero-delay links inside one shard"
            ),
            PartitionError::ZeroCut => {
                write!(f, "partition_by_delay needs a positive delay cut")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A validated node→shard map with its conservative lookahead bound.
#[derive(Debug, Clone)]
pub struct Partition {
    shard_of: Arc<[u32]>,
    shards: u32,
    /// Minimum propagation delay over cross-shard channels; `None` when no
    /// channel crosses shards (disconnected islands or a single shard).
    lookahead: Option<SimDelta>,
}

impl Partition {
    /// Validate an explicit node→shard map against the topology: the map
    /// must cover every node (there must be at least one) with contiguous
    /// shard ids, and every channel that crosses shards must have nonzero
    /// propagation delay (that minimum becomes the lookahead window).
    pub(crate) fn from_map(
        topo: &TopoBuilder,
        shard_of: Vec<u32>,
    ) -> Result<Partition, PartitionError> {
        let nodes = topo.node_count();
        if shard_of.len() != nodes {
            return Err(PartitionError::WrongLength {
                nodes,
                map: shard_of.len(),
            });
        }
        if nodes == 0 {
            // No node can own shard 0, and a partition has at least one.
            return Err(PartitionError::EmptyShard { shard: 0 });
        }
        let shards = shard_of.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        // With no empty shard there are at most as many shards as nodes, so
        // an id at or past the node count leaves a gap below it: `seen`
        // never needs more than one slot per node.
        let mut seen = vec![false; nodes];
        for &s in &shard_of {
            if let Some(slot) = seen.get_mut(s as usize) {
                *slot = true;
            }
        }
        if let Some(empty) = seen[..shards.min(nodes)].iter().position(|&s| !s) {
            return Err(PartitionError::EmptyShard {
                shard: empty as u32,
            });
        }
        let mut lookahead: Option<SimDelta> = None;
        for (from, to, delay) in topo.chan_meta() {
            if shard_of[from] == shard_of[to] {
                continue;
            }
            if delay.is_zero() {
                return Err(PartitionError::ZeroDelayCrossLink { from, to });
            }
            lookahead = Some(lookahead.map_or(delay, |l| l.min(delay)));
        }
        Ok(Partition {
            shard_of: shard_of.into(),
            shards: shards as u32,
            lookahead,
        })
    }

    /// Auto-partition: nodes joined by any channel with propagation delay
    /// below `cut` are fused into one shard (union-find), so only links
    /// with delay `>= cut` — the WAN links of the paper's setting — cross
    /// shards. Shard ids are assigned in first-node order, making the
    /// partition a pure function of the topology.
    pub fn by_min_delay(topo: &TopoBuilder, cut: SimDelta) -> Result<Partition, PartitionError> {
        if cut.is_zero() {
            return Err(PartitionError::ZeroCut);
        }
        let n = topo.node_count();
        let mut parent: Vec<usize> = (0..n).collect();
        fn root(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (from, to, delay) in topo.chan_meta() {
            if delay < cut {
                let (a, b) = (root(&mut parent, from), root(&mut parent, to));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        let mut ids = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut shard_of = Vec::with_capacity(n);
        for node in 0..n {
            let r = root(&mut parent, node);
            if ids[r] == u32::MAX {
                ids[r] = next;
                next += 1;
            }
            shard_of.push(ids[r]);
        }
        Partition::from_map(topo, shard_of)
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Which shard owns `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.0 as usize]
    }

    fn map(&self) -> Arc<[u32]> {
        Arc::clone(&self.shard_of)
    }
}

/// Bind a freshly built shard copy: install the ownership map and give
/// multi-shard worlds a per-shard RNG stream split off the topology seed.
/// Single-shard partitions keep the monolithic stream untouched, so the
/// degenerate case stays bit-identical to an unpartitioned run.
fn bind_shard(net: &mut Net, shard: u32, part: &Partition) {
    net.set_shard_ctx(shard, part.map());
    if part.shards > 1 {
        let forked = net.rng.fork_labeled(&format!("shard-{shard}"));
        net.rng = forked;
    }
}

/// Execute a partitioned world on `threads` OS threads until `limit`.
///
/// `build(shard)` constructs that shard's complete `Net` (the full
/// topology — routes need the whole graph) plus its handler, spawning
/// traffic **only on hosts the shard owns**. After the run, `finish`
/// reduces each shard to a `Send` summary on the worker that owns it;
/// summaries are returned in shard order. Neither `Net` nor the handler
/// ever crosses a thread.
///
/// Shard `i` is pinned to worker `i % threads` and workers process their
/// shards in ascending order; combined with the deterministic merge rule
/// this makes the result a pure function of `(build, limit)`, independent
/// of the thread count.
///
/// A panic in `build`, in a window (a handler's `assert!`, say) or in
/// `finish` stops every worker by the next barrier and resumes on the
/// caller with its original payload.
pub fn run_partitioned<H, R, B, F>(
    part: &Partition,
    threads: usize,
    limit: SimTime,
    build: B,
    finish: F,
) -> Vec<R>
where
    H: NetHandler,
    R: Send,
    B: Fn(u32) -> (Net, H) + Sync,
    F: Fn(u32, Net, H) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    let k = part.shards as usize;
    debug_assert!(
        k >= 1,
        "a Partition has at least one shard: from_map rejects a topology with no nodes"
    );
    let threads = threads.min(k);
    // With no cross-shard channel there is no coupling: a single maximal
    // window runs every shard straight to the limit.
    let la_ns = part.lookahead.map_or(u64::MAX, |l| l.as_nanos());
    let limit_ns = limit.as_nanos();

    let inboxes: Vec<Mutex<Vec<crate::net::XMsg>>> =
        (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let peeks: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(threads);
    // The index of the barrier a worker panic preceded. The panicking
    // worker makes one more `barrier.wait()`, the one its peers are blocked
    // on, and all stop once past it. (A bare flag could be seen by a peer
    // still leaving the previous barrier: it would stop one barrier early.)
    let failed = AtomicUsize::new(usize::MAX);
    let (inboxes, peeks, barrier, failed, build, finish) =
        (&inboxes, &peeks, &barrier, &failed, &build, &finish);

    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for w in 0..threads {
            workers.push(s.spawn(move || -> Vec<(usize, R)> {
                let mut passed = 0;
                let mut sync = || {
                    barrier.wait();
                    passed += 1;
                    (failed.load(Ordering::SeqCst) >= passed).then_some(())
                };
                let run = || {
                    let mut mine: Vec<(usize, Net, H)> = (w..k)
                        .step_by(threads)
                        .map(|i| {
                            let (mut net, h) = build(i as u32);
                            bind_shard(&mut net, i as u32, part);
                            (i, net, h)
                        })
                        .collect();
                    let mut t_ns = 0u64;
                    // Whole idle windows the schedule jumped before the current
                    // one (the idle-skip vote) — recorded per barrier via
                    // `shard_window_mark` for the parallel-engine self-profile.
                    let mut skipped = 0u64;
                    loop {
                        let end_ns = t_ns.saturating_add(la_ns);
                        let final_win = end_ns > limit_ns;
                        let process_to = if final_win {
                            limit
                        } else {
                            SimTime::from_nanos(end_ns - 1)
                        };
                        for (_, net, h) in mine.iter_mut() {
                            net.run_until(h, process_to);
                        }
                        // Route this worker's outboxes. Inboxes are mutexed;
                        // push order across workers is arbitrary, which is why
                        // the drain below sorts by (at, src_shard, seq).
                        for (_, net, _) in mine.iter_mut() {
                            for m in net.take_outbox() {
                                let dest = part.shard_of(net.chan(m.chan).to) as usize;
                                inboxes[dest].lock().unwrap().push(m);
                            }
                        }
                        sync()?;
                        // All sends for this window are in. Drain own inboxes
                        // under the merge rule and publish the next pending
                        // event time for the idle-skip vote.
                        for (i, net, _) in mine.iter_mut() {
                            let mut msgs = std::mem::take(&mut *inboxes[*i].lock().unwrap());
                            msgs.sort_unstable_by_key(|m| (m.at, m.src_shard, m.seq));
                            let injected = msgs.len() as u64;
                            for m in msgs {
                                net.inject_cross(m);
                            }
                            net.shard_window_mark(process_to.as_nanos(), injected, skipped);
                            let peek = net.peek_time().map_or(u64::MAX, |p| p.as_nanos());
                            peeks[*i].store(peek, Ordering::SeqCst);
                        }
                        sync()?;
                        if final_win {
                            return Some(mine);
                        }
                        // Every worker computes the same minimum from the same
                        // published peeks, so all take the same next window —
                        // no third barrier needed: peeks are rewritten only
                        // after the next window's barrier, which nobody can
                        // reach before everyone has read them.
                        let min_peek = peeks
                            .iter()
                            .map(|p| p.load(Ordering::SeqCst))
                            .min()
                            .expect("at least one shard");
                        t_ns = end_ns.max(min_peek.min(limit_ns));
                        skipped = (t_ns - end_ns) / la_ns;
                    }
                };
                match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(mine) => mine
                        .into_iter()
                        .flatten()
                        .map(|(i, net, h)| (i, finish(i as u32, net, h)))
                        .collect(),
                    Err(payload) => {
                        failed.fetch_min(passed, Ordering::SeqCst);
                        barrier.wait();
                        resume_unwind(payload)
                    }
                }
            }));
        }
        // A panicking worker's payload reaches the caller unchanged.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCfg;
    use crate::packet::{NodeId, Packet, L4};
    use crate::queue::QueueCfg;

    /// Two islands (host–router each) joined by a WAN link; `sep` controls
    /// which side of the delay cut the WAN link falls on.
    fn two_island_topo(wan_delay: SimDelta) -> TopoBuilder {
        let mut t = TopoBuilder::new(7);
        let h0 = t.host("h0");
        let r0 = t.router("r0");
        let h1 = t.host("h1");
        let r1 = t.router("r1");
        let fast = LinkCfg::fast_ethernet(SimDelta::from_micros(10));
        let wan = LinkCfg::fast_ethernet(wan_delay);
        t.link(h0, r0, fast, QueueCfg::droptail_default());
        t.link(h1, r1, fast, QueueCfg::droptail_default());
        t.link(r0, r1, wan, QueueCfg::droptail_default());
        t
    }

    #[test]
    fn by_min_delay_splits_at_the_cut() {
        let topo = two_island_topo(SimDelta::from_millis(5));
        let p = Partition::by_min_delay(&topo, SimDelta::from_millis(1)).unwrap();
        assert_eq!(p.shards(), 2);
        assert_eq!(p.shard_of(NodeId(0)), p.shard_of(NodeId(1)));
        assert_eq!(p.shard_of(NodeId(2)), p.shard_of(NodeId(3)));
        assert_ne!(p.shard_of(NodeId(0)), p.shard_of(NodeId(2)));
        assert_eq!(p.lookahead, Some(SimDelta::from_millis(5)));
    }

    #[test]
    fn zero_delay_cross_link_is_rejected_not_deadlocked() {
        let topo = two_island_topo(SimDelta::ZERO);
        let err = Partition::from_map(&topo, vec![0, 0, 1, 1]).unwrap_err();
        assert!(matches!(err, PartitionError::ZeroDelayCrossLink { .. }));
        let msg = err.to_string();
        assert!(msg.contains("zero propagation delay"), "unhelpful: {msg}");
    }

    #[test]
    fn sparse_and_mislength_maps_are_rejected() {
        let topo = two_island_topo(SimDelta::from_millis(5));
        assert!(matches!(
            Partition::from_map(&topo, vec![0, 0, 2, 2]).unwrap_err(),
            PartitionError::EmptyShard { shard: 1 }
        ));
        // Ids past the node count: one whose `+ 1` would wrap, and one that
        // would size a 400 MB bitmap if the check were sized by the id.
        assert!(matches!(
            Partition::from_map(&topo, vec![0, 0, 1, u32::MAX]).unwrap_err(),
            PartitionError::EmptyShard { shard: 2 }
        ));
        assert!(matches!(
            Partition::from_map(&topo, vec![0, 0, 1, 400_000_000]).unwrap_err(),
            PartitionError::EmptyShard { shard: 2 }
        ));
        assert!(matches!(
            Partition::from_map(&topo, vec![0, 0, 1]).unwrap_err(),
            PartitionError::WrongLength { nodes: 4, map: 3 }
        ));
        // No nodes, so no shard 0: both constructors refuse instead of
        // handing `run_partitioned` a partition with nothing to run.
        let empty = TopoBuilder::new(1);
        assert!(matches!(
            Partition::from_map(&empty, vec![]).unwrap_err(),
            PartitionError::EmptyShard { shard: 0 }
        ));
        assert!(matches!(
            Partition::by_min_delay(&empty, SimDelta::from_millis(1)).unwrap_err(),
            PartitionError::EmptyShard { shard: 0 }
        ));
    }

    struct Count {
        got: u64,
    }
    /// A host-timer token that makes [`Count`] panic.
    const PANIC: u64 = u64::MAX;
    impl NetHandler for Count {
        fn deliver(&mut self, _net: &mut Net, _host: NodeId, _pkt: Packet) {
            self.got += 1;
        }
        fn host_timer(&mut self, net: &mut Net, host: NodeId, token: u64) {
            if token == PANIC {
                panic!("host timer on node {}", host.0);
            }
            // Token encodes the destination; one packet per tick, 1 ms apart.
            let pkt = Packet {
                src: host,
                dst: NodeId(token as u32),
                src_port: 0,
                dst_port: 0,
                dscp: crate::packet::Dscp::BestEffort,
                l4: L4::Udp,
                payload_len: 512,
                id: 0,
                born: SimTime::ZERO,
            };
            net.send_ip(pkt);
            let at = net.now() + SimDelta::from_millis(1);
            if at < SimTime::from_millis(200) {
                net.set_host_timer(host, at, token);
            }
        }
        fn cpu_done(&mut self, _net: &mut Net, _host: NodeId, _proc: mpichgq_dsrt::ProcId) {}
        fn control(&mut self, _net: &mut Net, _token: u64) {}
    }

    fn build_cross_traffic(shard: u32, part: &Partition) -> (Net, Count) {
        let topo = two_island_topo(SimDelta::from_millis(5));
        let mut net = topo.build();
        // Each shard arms its own host's tick: h0 (node 0, shard 0)
        // streams to h1 (node 2, shard 1) and vice versa.
        for (host, dst) in [(NodeId(0), NodeId(2)), (NodeId(2), NodeId(0))] {
            if part.shard_of(host) == shard {
                net.set_host_timer(host, SimTime::from_nanos(0), dst.0 as u64);
            }
        }
        (net, Count { got: 0 })
    }

    /// The acid test: a 2-shard world run on 1 and 2 threads, and the
    /// same physics run monolithically, all agree on delivered counts and
    /// per-channel wire counters.
    #[test]
    fn sharded_run_matches_monolithic_physics_and_is_thread_invariant() {
        let limit = SimTime::from_millis(250);
        let topo = two_island_topo(SimDelta::from_millis(5));
        let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1)).unwrap();
        assert_eq!(part.shards(), 2);

        // Monolithic reference: both traffic sources in one world.
        let mut mono = two_island_topo(SimDelta::from_millis(5)).build();
        let mut mh = Count { got: 0 };
        mono.set_host_timer(NodeId(0), SimTime::from_nanos(0), 2);
        mono.set_host_timer(NodeId(2), SimTime::from_nanos(0), 0);
        mono.run_until(&mut mh, limit);
        assert!(mh.got > 0, "monolithic run delivered nothing");

        let run = |threads: usize| {
            run_partitioned(
                &part,
                threads,
                limit,
                |shard| build_cross_traffic(shard, &part),
                |shard, net, h| {
                    let wire: Vec<(u64, u64)> = net
                        .chan_ids()
                        .map(|c| (net.chan(c).tx_packets, net.chan(c).rx_packets))
                        .collect();
                    (
                        shard,
                        h.got,
                        net.state_fingerprint(),
                        net.events_processed(),
                        wire,
                    )
                },
            )
        };
        let one = run(1);
        let two = run(2);
        assert_eq!(one, two, "thread count changed simulated state");

        // Per-channel physics: tx counted in the owner-of-from copy, rx in
        // the owner-of-to copy; summed across shard copies they must equal
        // the monolithic run exactly.
        let delivered: u64 = one.iter().map(|(_, got, ..)| got).sum();
        assert_eq!(delivered, mh.got, "sharding changed delivery count");
        for c in mono.chan_ids() {
            let i = c.0 as usize;
            let tx: u64 = one.iter().map(|(.., w)| w[i].0).sum();
            let rx: u64 = one.iter().map(|(.., w)| w[i].1).sum();
            assert_eq!(tx, mono.chan(c).tx_packets, "chan {i} tx diverged");
            assert_eq!(rx, mono.chan(c).rx_packets, "chan {i} rx diverged");
        }
    }

    /// A node-local policer is published by the one shard copy that
    /// executes its node, with the monolithic run's values; the foreign
    /// copy's idle, full bucket publishes nothing under that name.
    #[test]
    fn only_the_owning_shard_publishes_a_node_local_policer() {
        use crate::classifier::{FlowSpec, PolicingAction};
        use crate::packet::{Dscp, Proto};
        let limit = SimTime::from_millis(250);
        let topo = two_island_topo(SimDelta::from_millis(5));
        let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1)).unwrap();
        // h0's 4.3 Mb/s stream against a 1 Mb/s policer on r0 (node 1).
        let police_r0 = |net: &mut Net| {
            net.node_mut(NodeId(1)).classifier.install(
                FlowSpec::host_pair(NodeId(0), NodeId(2), Proto::Udp),
                Dscp::Ef,
                Some(crate::TokenBucket::new(1_000_000, 20_000)),
                PolicingAction::Drop,
            );
        };

        let mut mono = two_island_topo(SimDelta::from_millis(5)).build();
        police_r0(&mut mono);
        mono.set_host_timer(NodeId(0), SimTime::from_nanos(0), 2);
        mono.set_host_timer(NodeId(2), SimTime::from_nanos(0), 0);
        mono.run_until(&mut Count { got: 0 }, limit);
        mono.publish_metrics();

        let shards = run_partitioned(
            &part,
            2,
            limit,
            |shard| {
                let (mut net, h) = build_cross_traffic(shard, &part);
                police_r0(&mut net);
                (net, h)
            },
            |_, mut net, _| {
                net.publish_metrics();
                std::mem::take(&mut net.obs.metrics)
            },
        );

        let policed = mono
            .obs
            .metrics
            .counter_value("node001.rule000.policed_pkts");
        assert!(policed > Some(0), "the policer never bit: {policed:?}");
        let level = mono
            .obs
            .metrics
            .gauge_value("node001.rule000.bucket_level_bytes");
        assert!(
            level.is_some_and(|l| l < 20_000.0),
            "bucket idle: {level:?}"
        );
        let owner = part.shard_of(NodeId(1)) as usize;
        for (i, r) in shards.iter().enumerate() {
            let published = r
                .counters()
                .map(|(n, _)| n)
                .chain(r.gauges().map(|(n, _)| n))
                .any(|n| n.starts_with("node001.rule000."));
            assert_eq!(published, i == owner, "shard {i}");
        }
        let r = &shards[owner];
        assert_eq!(r.counter_value("node001.rule000.policed_pkts"), policed);
        assert_eq!(r.gauge_value("node001.rule000.bucket_level_bytes"), level);
    }

    /// `run_until` with the sampler armed reaches the same state and the
    /// same timeline in one call as in steps that do and do not divide the
    /// 7 ms sampling grid.
    #[test]
    fn run_until_is_independent_of_call_granularity() {
        let limit = SimTime::from_millis(250);
        let run = |step_us: u64| {
            let mut net = two_island_topo(SimDelta::from_millis(5)).build();
            net.enable_timeline(SimDelta::from_millis(7));
            let mut h = Count { got: 0 };
            net.set_host_timer(NodeId(0), SimTime::ZERO, 2);
            let mut t = SimTime::ZERO;
            while t < limit {
                t = (t + SimDelta::from_micros(step_us)).min(limit);
                net.run_until(&mut h, t);
            }
            net.timeline_finalize(&mut h, limit);
            let tl = net.timeline_json();
            (
                net.state_fingerprint(),
                h.got,
                net.events_processed(),
                net.now(),
                tl,
            )
        };
        let once = run(250_000);
        assert!(once.1 > 0, "nothing delivered");
        for step_us in [37, 1000, 7000] {
            assert_eq!(run(step_us), once, "{step_us} us steps diverged");
        }
    }

    /// A panic in one shard — while building it or in a handler mid-window
    /// — fails the whole run with its own payload instead of leaving the
    /// other workers blocked at a barrier.
    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let runs = std::thread::spawn(move || {
            let topo = two_island_topo(SimDelta::from_millis(5));
            let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1)).unwrap();
            let limit = SimTime::from_millis(250);
            for threads in [2, 1] {
                for (victim, in_build) in [(0, true), (0, false), (1, true), (1, false)] {
                    let build = |shard| {
                        assert!(
                            !(in_build && shard == victim),
                            "build on node {}",
                            2 * shard
                        );
                        let (mut net, h) = build_cross_traffic(shard, &part);
                        if shard == victim {
                            net.set_host_timer(NodeId(2 * shard), SimTime::from_millis(50), PANIC);
                        }
                        (net, h)
                    };
                    let run = || run_partitioned(&part, threads, limit, build, |_, _, h| h.got);
                    let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must fail");
                    let stage = if in_build { "build" } else { "host timer" };
                    let want = format!("{stage} on node {}", 2 * victim);
                    assert_eq!(err.downcast_ref::<String>(), Some(&want));
                }
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_partitioned hung on, or misreported, a panicking shard");
        runs.join().expect("every case checked");
    }

    /// Cross-shard fault plans are rejected loudly.
    #[test]
    #[should_panic(expected = "cross-shard")]
    fn cross_shard_fault_plan_is_rejected() {
        let topo = two_island_topo(SimDelta::from_millis(5));
        let part = Partition::by_min_delay(&topo, SimDelta::from_millis(1)).unwrap();
        let mut net = two_island_topo(SimDelta::from_millis(5)).build();
        bind_shard(&mut net, 0, &part);
        // Channels 4/5 are the WAN pair r0<->r1 (two islands built first).
        let plan = crate::faults::FaultPlan::new(1).at(
            SimTime::from_millis(1),
            crate::faults::FaultAction::LinkDown(crate::link::ChanId(4)),
        );
        net.install_fault_plan(plan);
    }
}
