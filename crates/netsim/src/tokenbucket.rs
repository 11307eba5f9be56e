//! Token buckets: the paper's central policing and shaping mechanism.
//!
//! "Policing is often implemented through a token bucket mechanism. The size
//! of the token bucket controls how quickly an application can send data:
//! tokens are gradually added to the token bucket and packets are only sent
//! if there are tokens in the bucket." (§2)
//!
//! MPICH-GQ's DS module sizes the bucket as `depth = bandwidth × delay`
//! bytes, in practice `bandwidth/40` ("normal") or `bandwidth/4` ("large",
//! §5.4); [`depth_for`] implements these rules.

use mpichgq_sim::SimTime;

/// A token bucket with lazy refill (no timer events needed).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: f64,
    depth_bytes: f64,
    tokens: f64,
    last: SimTime,
}

/// Bucket-depth sizing rules from §4.3 and §5.4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthRule {
    /// `depth = bandwidth × delay` with depth in bytes, bandwidth in bits/s
    /// and delay in seconds — the paper's formula as stated in §4.3. (Note
    /// the paper's own worked example, "a two millisecond delay would
    /// suggest bandwidth/62", implies an extra ×8 safety margin over this
    /// formula; operationally they use the still-larger `bandwidth/40`.)
    BandwidthDelay { delay_ns: u64 },
    /// `depth = bandwidth / 40` bytes — the "normal" operational choice.
    Normal,
    /// `depth = bandwidth / 4` bytes — the "large" bucket of Table 1.
    Large,
    /// An explicit depth in bytes.
    Bytes(u64),
}

/// Compute a bucket depth in bytes for a reservation of `rate_bps`.
pub fn depth_for(rule: DepthRule, rate_bps: u64) -> u64 {
    match rule {
        DepthRule::BandwidthDelay { delay_ns } => {
            ((rate_bps as u128 * delay_ns as u128) / 1_000_000_000) as u64
        }
        DepthRule::Normal => rate_bps / 40,
        DepthRule::Large => rate_bps / 4,
        DepthRule::Bytes(b) => b,
    }
    .max(1)
}

impl TokenBucket {
    /// Create a bucket that is initially full.
    pub fn new(rate_bps: u64, depth_bytes: u64) -> Self {
        assert!(rate_bps > 0, "token bucket with zero rate");
        assert!(depth_bytes > 0, "token bucket with zero depth");
        TokenBucket {
            rate_bps: rate_bps as f64,
            depth_bytes: depth_bytes as f64,
            tokens: depth_bytes as f64,
            last: SimTime::ZERO,
        }
    }

    pub fn rate_bps(&self) -> u64 {
        self.rate_bps as u64
    }

    pub fn depth_bytes(&self) -> u64 {
        self.depth_bytes as u64
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_secs_f64();
        self.last = self.last.max(now);
        if dt > 0.0 && self.rate_bps > 0.0 {
            self.tokens = (self.tokens + dt * self.rate_bps / 8.0).min(self.depth_bytes);
        }
    }

    /// Token count in bytes at `now`, without committing the refill: the
    /// only level read there is, for snapshots, samplers and audits. A
    /// lazy refill in two float steps is not bit-identical to one step, so
    /// a reader that refilled would perturb later conformance decisions —
    /// a read-only projection cannot.
    #[inline]
    pub fn peek_available(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last).as_secs_f64();
        if dt > 0.0 && self.rate_bps > 0.0 {
            (self.tokens + dt * self.rate_bps / 8.0).min(self.depth_bytes)
        } else {
            self.tokens
        }
    }

    /// Try to consume `bytes` tokens; returns whether the packet conforms.
    /// Non-conforming packets leave the bucket untouched (RFC 2697-style
    /// strict policing: no partial consumption).
    #[inline]
    pub fn try_consume(&mut self, now: SimTime, bytes: u32) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// The earliest time at which `bytes` tokens will be available (used by
    /// the end-system shaper to *delay* rather than drop). A frozen
    /// (zero-rate) bucket that cannot cover `bytes` reports
    /// [`SimTime::MAX`]: the deficit never clears.
    #[inline]
    pub fn time_until_conformant(&mut self, now: SimTime, bytes: u32) -> SimTime {
        self.refill(now);
        let deficit = bytes as f64 - self.tokens;
        if deficit <= 0.0 {
            return now;
        }
        if self.rate_bps <= 0.0 {
            return SimTime::MAX;
        }
        let secs = deficit * 8.0 / self.rate_bps;
        now + mpichgq_sim::SimDelta::from_nanos((secs * 1e9).ceil() as u64)
    }

    /// Reconfigure rate/depth in place (reservation modification); keeps the
    /// current fill level clamped to the new depth.
    ///
    /// Unlike [`TokenBucket::new`], `rate_bps = 0` is legal here: it
    /// *freezes* the bucket, admitting only whatever tokens remain — the
    /// state a policer enters when its backing reservation is revoked but
    /// the rule has not yet been torn down.
    pub fn reconfigure(&mut self, now: SimTime, rate_bps: u64, depth_bytes: u64) {
        self.refill(now);
        self.rate_bps = rate_bps as f64;
        self.depth_bytes = depth_bytes as f64;
        self.tokens = self.tokens.min(self.depth_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpichgq_sim::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_full_and_polices_burst() {
        // 8 Kb/s = 1000 bytes/s; depth 500 bytes.
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.try_consume(t(0), 500));
        assert!(!tb.try_consume(t(0), 1));
        // After 100 ms, 100 bytes of tokens.
        assert!(tb.try_consume(t(100), 100));
        assert!(!tb.try_consume(t(100), 1));
    }

    #[test]
    fn refill_caps_at_depth() {
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.try_consume(t(0), 500));
        // 10 seconds would refill 10_000 bytes; capped at 500.
        assert!((tb.peek_available(t(10_000)) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn nonconforming_packet_consumes_nothing() {
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.try_consume(t(0), 400));
        assert!(!tb.try_consume(t(0), 200)); // only 100 left
        assert!(tb.try_consume(t(0), 100)); // still there
    }

    #[test]
    fn long_run_rate_is_bounded() {
        // Property: over a long window, conformant bytes <= depth + rate*T.
        let mut tb = TokenBucket::new(80_000, 1_000); // 10 KB/s
        let mut sent = 0u64;
        for step in 0..10_000u64 {
            let now = SimTime::from_micros(step * 100); // 1 second total
            if tb.try_consume(now, 120) {
                sent += 120;
            }
        }
        let bound = 1_000 + 10_000; // depth + 1s at 10 KB/s
        assert!(sent <= bound, "sent {sent} > bound {bound}");
        // And it should achieve close to the full rate.
        assert!(sent >= 10_000, "sent {sent} too low");
    }

    #[test]
    fn time_until_conformant_is_exact() {
        let mut tb = TokenBucket::new(8_000, 500); // 1000 B/s
        assert!(tb.try_consume(t(0), 500));
        let when = tb.time_until_conformant(t(0), 250);
        assert_eq!(when, t(250));
        assert!(tb.try_consume(when, 250));
        assert!(!tb.try_consume(when, 1));
    }

    #[test]
    fn depth_rules_match_paper() {
        // depth = bandwidth * delay: 40 Mb/s * 2 ms = 80_000 (= bw/500).
        let d = depth_for(
            DepthRule::BandwidthDelay {
                delay_ns: 2_000_000,
            },
            40_000_000,
        );
        assert_eq!(d, 80_000);
        assert_eq!(depth_for(DepthRule::Normal, 40_000_000), 1_000_000);
        assert_eq!(depth_for(DepthRule::Large, 40_000_000), 10_000_000);
        assert_eq!(depth_for(DepthRule::Bytes(123), 1), 123);
        // Depth never collapses to zero.
        assert_eq!(depth_for(DepthRule::Normal, 10), 1);
    }

    #[test]
    fn reconfigure_clamps_tokens() {
        let mut tb = TokenBucket::new(8_000, 1_000);
        tb.reconfigure(t(0), 16_000, 200);
        assert!(tb.peek_available(t(0)) <= 200.0);
        assert_eq!(tb.rate_bps(), 16_000);
    }

    // -----------------------------------------------------------------
    // Edge cases the fault-injection layer stresses.
    // -----------------------------------------------------------------

    #[test]
    fn zero_rate_bucket_freezes_after_revocation() {
        // Revocation reconfigures the policer to rate 0: residual tokens
        // may still be spent, but nothing ever refills.
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.try_consume(t(0), 200));
        tb.reconfigure(t(100), 0, 500);
        let residual = tb.peek_available(t(100));
        assert!(tb.try_consume(t(100), residual as u32));
        // Hours later, still empty.
        assert!((tb.peek_available(t(10_000_000))).abs() < 1e-6);
        assert!(!tb.try_consume(t(10_000_000), 1));
        assert_eq!(tb.rate_bps(), 0);
    }

    #[test]
    fn zero_rate_deficit_is_never_conformant() {
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.try_consume(t(0), 500));
        tb.reconfigure(t(0), 0, 500);
        assert_eq!(tb.time_until_conformant(t(0), 1), SimTime::MAX);
        // But a request the residual tokens can cover conforms now.
        let mut tb2 = TokenBucket::new(8_000, 500);
        tb2.reconfigure(t(0), 0, 500);
        assert_eq!(tb2.time_until_conformant(t(0), 500), t(0));
    }

    #[test]
    fn refill_across_link_down_gap_caps_at_depth() {
        // A link outage stops traffic entirely; the bucket idles with
        // lazy refill. When traffic resumes after the gap, exactly one
        // full burst is available — the dead time does not bank extra.
        let mut tb = TokenBucket::new(8_000, 500); // 1000 B/s
        assert!(tb.try_consume(t(0), 500));
        // 60 s outage would nominally refill 60_000 bytes.
        let gap_end = t(60_000);
        assert!((tb.peek_available(gap_end) - 500.0).abs() < 1e-6);
        assert!(tb.try_consume(gap_end, 500));
        assert!(!tb.try_consume(gap_end, 1));
        // And the refill clock restarts from the gap's end, not its start.
        assert!(tb.try_consume(t(60_100), 100));
        assert!(!tb.try_consume(t(60_100), 1));
    }

    #[test]
    fn burst_exactly_at_capacity_conforms_once() {
        let mut tb = TokenBucket::new(8_000, 1_500);
        // A burst of exactly the bucket depth conforms in one consume...
        assert!(tb.try_consume(t(0), 1_500));
        // ...but one byte more would not have, and strict policing means
        // the failed attempt leaves the level untouched.
        let mut tb2 = TokenBucket::new(8_000, 1_500);
        assert!(!tb2.try_consume(t(0), 1_501));
        assert!((tb2.peek_available(t(0)) - 1_500.0).abs() < 1e-6);
        assert!(tb2.try_consume(t(0), 1_500));
    }
}
