//! End-system traffic shaping (the globus-io hook).
//!
//! "Shaping is important when application traffic is bursty. If these bursts
//! are not smoothed to be less bursty, policing may cause packets to be
//! dropped. ... shaping can be performed either in the router or in the
//! application." (§2) and "An alternative approach is to incorporate
//! traffic-shaping support into the MPICH-GQ implementation on the
//! end-system." (§5.4)
//!
//! A [`Shaper`] sits on a host's egress path: packets matching its flow spec
//! are *delayed* (never dropped) until the token bucket conforms, smoothing
//! bursts so the edge policer sees an in-profile flow. MPICH-GQ's QoS agent
//! installs one when shaping is enabled (the paper's proposed remedy for the
//! Table 1 burstiness penalty).

use crate::classifier::FlowSpec;
use crate::packet::Packet;
use crate::tokenbucket::TokenBucket;
use mpichgq_sim::SimTime;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, Default)]
pub struct ShaperStats {
    pub passed: u64,
    pub delayed: u64,
    pub max_backlog_bytes: u64,
}

/// A leaky-bucket pacer for one flow on one host.
#[derive(Debug)]
pub struct Shaper {
    pub id: u64,
    pub spec: FlowSpec,
    pub bucket: TokenBucket,
    pub queue: VecDeque<Packet>,
    backlog_bytes: u64,
    /// Generation for lazy-cancelling release events.
    pub gen: u64,
    /// Whether a release event is currently scheduled.
    pub armed: bool,
    pub stats: ShaperStats,
}

/// What the host should do with a freshly sent packet.
#[derive(Debug)]
pub enum ShapeOutcome {
    /// Forward immediately (conformant, nothing queued ahead).
    PassThrough(Packet),
    /// Queued; if `arm_at` is set, schedule a release event for that time.
    Queued { arm_at: Option<SimTime> },
}

impl Shaper {
    pub fn new(id: u64, spec: FlowSpec, bucket: TokenBucket) -> Self {
        Shaper {
            id,
            spec,
            bucket,
            queue: VecDeque::new(),
            backlog_bytes: 0,
            gen: 0,
            armed: false,
            stats: ShaperStats::default(),
        }
    }

    pub(crate) fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Offer a packet to the shaper.
    pub fn offer(&mut self, now: SimTime, pkt: Packet) -> ShapeOutcome {
        let len = pkt.ip_len();
        if self.queue.is_empty() && self.bucket.try_consume(now, len) {
            self.stats.passed += 1;
            return ShapeOutcome::PassThrough(pkt);
        }
        self.stats.delayed += 1;
        self.backlog_bytes += len as u64;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes);
        self.queue.push_back(pkt);
        let arm_at = if self.armed {
            None
        } else {
            self.armed = true;
            self.gen += 1;
            Some(self.next_release(now))
        };
        ShapeOutcome::Queued { arm_at }
    }

    fn next_release(&mut self, now: SimTime) -> SimTime {
        let len = self
            .queue
            .front()
            .expect("release with empty queue")
            .ip_len();
        self.bucket.time_until_conformant(now, len)
    }

    /// A release event fired: drain all now-conformant packets into `out`
    /// (a caller-owned scratch buffer, so the per-release path allocates
    /// nothing), returning the time of the next release event if more
    /// packets remain queued.
    pub fn release_into(
        &mut self,
        now: SimTime,
        gen: u64,
        out: &mut Vec<Packet>,
    ) -> Option<SimTime> {
        if gen != self.gen || !self.armed {
            return None;
        }
        while let Some(front) = self.queue.front() {
            let len = front.ip_len();
            if self.bucket.try_consume(now, len) {
                self.backlog_bytes -= len as u64;
                out.push(self.queue.pop_front().unwrap());
            } else {
                break;
            }
        }
        if self.queue.is_empty() {
            self.armed = false;
            None
        } else {
            self.gen += 1;
            Some(self.next_release(now))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dscp, NodeId, L4};

    fn pkt(payload: u32) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 1,
            dst_port: 2,
            dscp: Dscp::BestEffort,
            l4: L4::Udp,
            payload_len: payload,
            id: 0,
            born: SimTime::ZERO,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn conformant_packets_pass_through() {
        // 1000 B/s, 2000 B bucket.
        let mut s = Shaper::new(0, FlowSpec::any(), TokenBucket::new(8_000, 2_000));
        match s.offer(t(0), pkt(972)) {
            ShapeOutcome::PassThrough(_) => {}
            other => panic!("expected pass-through, got {other:?}"),
        }
        assert_eq!(s.stats.passed, 1);
    }

    #[test]
    fn burst_is_delayed_not_dropped() {
        let mut s = Shaper::new(0, FlowSpec::any(), TokenBucket::new(8_000, 1_000));
        // First 1000-byte packet passes; second queues with a release time.
        assert!(matches!(
            s.offer(t(0), pkt(972)),
            ShapeOutcome::PassThrough(_)
        ));
        let arm = match s.offer(t(0), pkt(972)) {
            ShapeOutcome::Queued { arm_at } => arm_at.unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(arm, t(1_000)); // 1000 bytes at 1000 B/s
                                   // Third packet queues behind without re-arming.
        assert!(matches!(
            s.offer(t(0), pkt(972)),
            ShapeOutcome::Queued { arm_at: None }
        ));
        assert_eq!(s.backlog_bytes(), 2_000);
        // Release at t=1s frees exactly one packet, re-arms for the next.
        let mut pkts = Vec::new();
        let next = s.release_into(arm, s.gen, &mut pkts);
        assert_eq!(pkts.len(), 1);
        assert_eq!(next.unwrap(), t(2_000));
        pkts.clear();
        let next = s.release_into(t(2_000), s.gen, &mut pkts);
        assert_eq!(pkts.len(), 1);
        assert!(next.is_none());
        assert_eq!(s.backlog_bytes(), 0);
        assert_eq!(s.stats.delayed, 2);
    }

    #[test]
    fn packet_deeper_than_the_bucket_is_never_released() {
        // 8 kb/s with a 1 000 B bucket: a 1 500 B packet can never conform,
        // so the shaper arms once at the end of time instead of re-arming
        // every (len − depth)/rate for ever.
        let mut s = Shaper::new(0, FlowSpec::any(), TokenBucket::new(8_000, 1_000));
        let arm = match s.offer(t(0), pkt(1_472)) {
            ShapeOutcome::Queued { arm_at } => arm_at,
            other => panic!("{other:?}"),
        };
        assert_eq!(arm, Some(SimTime::MAX));
        let mut pkts = Vec::new();
        for at in [t(500), t(1_000), t(60_000)] {
            let next = s.release_into(at, s.gen, &mut pkts);
            assert!(matches!(next, None | Some(SimTime::MAX)), "{next:?}");
        }
        assert!(pkts.is_empty());
        assert_eq!(s.backlog_bytes(), 1_500);
    }

    #[test]
    fn stale_release_is_ignored() {
        let mut s = Shaper::new(0, FlowSpec::any(), TokenBucket::new(8_000, 1_000));
        let _ = s.offer(t(0), pkt(972));
        let _ = s.offer(t(0), pkt(972));
        let old_gen = s.gen;
        // Force a re-arm by draining with the correct gen first.
        let mut got = Vec::new();
        let _ = s.release_into(t(1_000), old_gen, &mut got);
        assert_eq!(got.len(), 1);
        // The old generation no longer matches.
        got.clear();
        let next = s.release_into(t(1_000), old_gen, &mut got);
        assert!(got.is_empty() && next.is_none());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut s = Shaper::new(0, FlowSpec::any(), TokenBucket::new(80_000, 1_000));
        let mut first = pkt(972);
        first.id = 1;
        let mut second = pkt(972);
        second.id = 2;
        let _ = s.offer(t(0), first);
        let _ = s.offer(t(0), second);
        let mut got = Vec::new();
        let _ = s.release_into(t(10_000), s.gen, &mut got);
        let ids: Vec<u64> = got.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2]); // first passed through; queue holds second
    }
}
