//! The physics fingerprint: what must be identical across commits.
//!
//! FNV-1a over the final clock, the conservation ledger (totals and every
//! per-channel row) and the application-level result. It deliberately
//! takes no event count: `events_processed()`, `Net::state_fingerprint()`
//! and qcheck's `RunOutcome.fingerprint` all fold in how many events the
//! engine happened to schedule, which an optimisation that stops
//! simulating no-op events (ROADMAP item 2) is supposed to change.

use mpichgq_netsim::{ChanAudit, NetAudit};
use mpichgq_sim::SimTime;

/// Incremental FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one finished world. `app` is the application-level
/// result (rounds, bytes, iterations ...), in a fixed order per workload.
pub fn physics_fp(clock: SimTime, audit: &NetAudit, app: &[u64]) -> u64 {
    let mut h = Fnv::default();
    h.put(clock.as_nanos());
    for v in [
        audit.sent,
        audit.delivered,
        audit.policed,
        audit.queue_full,
        audit.misrouted,
        audit.fault_drops,
        audit.queued_pkts,
        audit.shaper_pkts,
        audit.wire_pkts,
        audit.prio_inversions,
        audit.sched_violations,
        audit.bucket_violations,
        audit.chans.len() as u64,
    ] {
        h.put(v);
    }
    for c in &audit.chans {
        for v in [
            c.chan.0 as u64,
            c.enqueued,
            c.dequeued,
            c.queued_pkts,
            c.tx_packets,
            c.rx_packets,
            c.purged,
            c.prio_inversions,
        ] {
            h.put(v);
        }
    }
    h.put(app.len() as u64);
    for &v in app {
        h.put(v);
    }
    h.finish()
}

/// Sum the ledgers of a partitioned world's shards, row by row. A channel
/// that crosses shards is transmitted on one shard and received on
/// another, so wires in flight are recomputed from the merged rows — the
/// merged ledger is then the one an unpartitioned run would produce.
pub fn merge_audits(shards: &[NetAudit]) -> NetAudit {
    let mut m = shards[0].clone();
    for s in &shards[1..] {
        assert_eq!(s.chans.len(), m.chans.len(), "shards share one topology");
        m.sent += s.sent;
        m.delivered += s.delivered;
        m.policed += s.policed;
        m.queue_full += s.queue_full;
        m.misrouted += s.misrouted;
        m.fault_drops += s.fault_drops;
        m.queued_pkts += s.queued_pkts;
        m.shaper_pkts += s.shaper_pkts;
        m.prio_inversions += s.prio_inversions;
        m.sched_violations += s.sched_violations;
        m.bucket_violations += s.bucket_violations;
        for (a, b) in m.chans.iter_mut().zip(&s.chans) {
            a.enqueued += b.enqueued;
            a.dequeued += b.dequeued;
            a.queued_pkts += b.queued_pkts;
            a.tx_packets += b.tx_packets;
            a.rx_packets += b.rx_packets;
            a.purged += b.purged;
            a.prio_inversions += b.prio_inversions;
        }
    }
    m.wire_pkts = m.chans.iter().map(ChanAudit::wire_in_flight).sum();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpichgq_netsim::{LinkCfg, NodeId, QueueCfg, TopoBuilder};
    use mpichgq_sim::SimDelta;
    use mpichgq_tcp::{App, Ctx, Sim};

    /// Sends `pkts` datagrams, and separately burns `idle_timers` timer
    /// events that do nothing — events without physics.
    struct Talker {
        dst: NodeId,
        pkts: u32,
        idle_timers: u32,
    }

    impl App for Talker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let s = ctx.udp_bind(9);
            for _ in 0..self.pkts {
                ctx.udp_send(s, self.dst, 9, 100);
            }
            for i in 0..self.idle_timers {
                ctx.set_timer(SimDelta::from_micros(10 + i as u64), 1);
            }
        }
    }

    struct Sink;
    impl App for Sink {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.udp_bind(9);
        }
    }

    /// The final clock, ledger and event count of a two-host world.
    fn world(pkts: u32, idle_timers: u32) -> (SimTime, NetAudit, u64) {
        let mut b = TopoBuilder::new(7);
        let (a, z) = (b.host("a"), b.host("z"));
        b.link(
            a,
            z,
            LinkCfg::fast_ethernet(SimDelta::from_micros(5)),
            QueueCfg::droptail_default(),
        );
        let mut sim = Sim::new(b.build());
        sim.spawn_app(z, Box::new(Sink));
        sim.spawn_app(
            a,
            Box::new(Talker {
                dst: z,
                pkts,
                idle_timers,
            }),
        );
        sim.run_until(SimTime::from_millis(10));
        let audit = sim.net.audit();
        assert_eq!(audit.delivered, pkts as u64);
        (sim.now(), audit, sim.net.events_processed())
    }

    #[test]
    fn fingerprint_ignores_the_processed_event_count() {
        let (clock_a, ledger_a, events_a) = world(5, 0);
        let (clock_b, ledger_b, events_b) = world(5, 50);
        assert_ne!(events_a, events_b, "the two states differ in event count");
        assert_eq!(
            physics_fp(clock_a, &ledger_a, &[5]),
            physics_fp(clock_b, &ledger_b, &[5]),
            "same ledgers, same clock, same app result"
        );
    }

    #[test]
    fn fingerprint_sees_ledger_and_app_changes() {
        let (clock, five, _) = world(5, 0);
        let (_, four, _) = world(4, 0);
        assert_ne!(
            physics_fp(clock, &five, &[5]),
            physics_fp(clock, &four, &[5])
        );
        assert_ne!(
            physics_fp(clock, &five, &[5]),
            physics_fp(clock, &five, &[6])
        );
    }
}
