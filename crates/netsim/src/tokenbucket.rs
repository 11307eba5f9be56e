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
//!
//! The bucket is exact integer arithmetic. Its fill is one credit in
//! bit·ns — bytes × 8·10⁹ — so a refill over `dt` nanoseconds at
//! `rate_bps` adds exactly `rate_bps · dt`, with no rounding anywhere.
//! Refill is therefore idempotent: refilling at any intermediate instant
//! yields the same credit as one refill at the end, so reading a level
//! ([`TokenBucket::peek_available`]) or committing an empty consume never
//! moves a later conformance decision.

use mpichgq_sim::time::NANOS_PER_SEC;
use mpichgq_sim::SimTime;

/// Credit units per byte: 8 bits × 10⁹ ns.
const UNITS_PER_BYTE: u128 = 8 * NANOS_PER_SEC as u128;

/// A token bucket with lazy refill (no timer events needed).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: u64,
    depth_bytes: u64,
    /// Fill level in bit·ns (bytes × [`UNITS_PER_BYTE`]), at most
    /// `depth_bytes × UNITS_PER_BYTE`.
    credit: u128,
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
            rate_bps,
            depth_bytes,
            credit: depth_bytes as u128 * UNITS_PER_BYTE,
            last: SimTime::ZERO,
        }
    }

    pub(crate) fn depth_bytes(&self) -> u64 {
        self.depth_bytes
    }

    /// The credit at `now`: the stored credit plus `rate · dt`, capped at
    /// the depth. An instant before the last refill adds nothing.
    #[inline]
    fn credit_at(&self, now: SimTime) -> u128 {
        let dt = now.since(self.last).as_nanos();
        let cap = self.depth_bytes as u128 * UNITS_PER_BYTE;
        self.credit
            .saturating_add(self.rate_bps as u128 * dt as u128)
            .min(cap)
    }

    #[inline]
    fn refill(&mut self, now: SimTime) {
        self.credit = self.credit_at(now);
        self.last = self.last.max(now);
    }

    /// Token count in bytes at `now`, for snapshots, samplers and audits:
    /// whole bytes plus the fraction, so a level of 671 650.33 bytes reads
    /// as that decimal.
    #[inline]
    pub(crate) fn peek_available(&self, now: SimTime) -> f64 {
        let credit = self.credit_at(now);
        let (whole, frac) = (credit / UNITS_PER_BYTE, credit % UNITS_PER_BYTE);
        whole as f64 + frac as f64 / UNITS_PER_BYTE as f64
    }

    /// Try to consume `bytes` tokens; returns whether the packet conforms.
    /// Non-conforming packets leave the bucket untouched (RFC 2697-style
    /// strict policing: no partial consumption).
    #[inline]
    pub fn try_consume(&mut self, now: SimTime, bytes: u32) -> bool {
        self.refill(now);
        let need = bytes as u128 * UNITS_PER_BYTE;
        if self.credit >= need {
            self.credit -= need;
            true
        } else {
            false
        }
    }

    /// The earliest time at which `bytes` tokens will be available (used by
    /// the end-system shaper to *delay* rather than drop): the deficit in
    /// bit·ns divided by the rate, rounded up to the next nanosecond. A
    /// packet that can never conform — longer than the bucket is deep, or
    /// short of credit in a frozen (zero-rate) bucket — and a wait past the
    /// end of time report [`SimTime::MAX`].
    #[inline]
    pub(crate) fn time_until_conformant(&mut self, now: SimTime, bytes: u32) -> SimTime {
        self.refill(now);
        let deficit = (bytes as u128 * UNITS_PER_BYTE).saturating_sub(self.credit);
        if deficit == 0 {
            return now;
        }
        if self.rate_bps == 0 || bytes as u64 > self.depth_bytes {
            return SimTime::MAX;
        }
        u64::try_from(deficit.div_ceil(self.rate_bps as u128))
            .ok()
            .and_then(|ns| now.as_nanos().checked_add(ns))
            .map_or(SimTime::MAX, SimTime::from_nanos)
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
        self.rate_bps = rate_bps;
        self.depth_bytes = depth_bytes;
        self.credit = self.credit.min(depth_bytes as u128 * UNITS_PER_BYTE);
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
        assert_eq!(tb.peek_available(t(10_000)), 500.0);
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
        assert_eq!(tb.peek_available(t(0)), 200.0);
        assert_eq!(tb.rate_bps, 16_000);
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
        assert_eq!(tb.peek_available(t(10_000_000)), 0.0);
        assert!(!tb.try_consume(t(10_000_000), 1));
        assert_eq!(tb.rate_bps, 0);
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
        assert_eq!(tb.peek_available(gap_end), 500.0);
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
        assert_eq!(tb2.peek_available(t(0)), 1_500.0);
        assert!(tb2.try_consume(t(0), 1_500));
    }

    #[test]
    fn fractional_level_reads_as_its_decimal() {
        // 8 b/s = 1 B/s: 330 ms after spending one byte of a full bucket,
        // the level is 671 650.33 bytes, and the gauge prints exactly that.
        let mut tb = TokenBucket::new(8, 671_651);
        assert!(tb.try_consume(t(0), 1));
        assert_eq!(tb.peek_available(t(330)), 671_650.33);
        assert_eq!(format!("{}", tb.peek_available(t(330))), "671650.33");
    }

    #[test]
    fn packet_deeper_than_the_bucket_never_conforms() {
        // 8 kb/s, 1 000 B deep: a 1 500 B packet waits for ever, however
        // long the bucket has been filling.
        let mut tb = TokenBucket::new(8_000, 1_000);
        assert_eq!(tb.time_until_conformant(t(0), 1_500), SimTime::MAX);
        assert_eq!(tb.time_until_conformant(t(60_000), 1_500), SimTime::MAX);
        assert_eq!(tb.time_until_conformant(t(60_000), 1_000), t(60_000));
    }

    #[test]
    fn unreachable_release_saturates_at_max() {
        // 1 b/s needs 8·10⁹ ns per byte: 4 GB of deficit is past u64 ns.
        let mut tb = TokenBucket::new(1, u32::MAX as u64);
        assert!(tb.try_consume(t(0), u32::MAX));
        assert_eq!(tb.time_until_conformant(t(0), u32::MAX), SimTime::MAX);
        // A deficit that fits lands on the exact nanosecond.
        assert_eq!(tb.time_until_conformant(t(0), 1), SimTime::from_secs(8));
    }

    /// One step of a random bucket program: a send of `bytes` after `gap`
    /// ns, where `bytes == 0` stands for an idle read.
    type Step = (u64, u32);

    /// Half the gaps are zero and a third of the sends are tiny, so bursts
    /// drain the bucket to its last bytes and the bound is met, not only
    /// approached.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (0u64..10_000_000, 0u32..3_000).prop_map(|(gap, bytes)| {
            let gap = if gap % 2 == 0 { 0 } else { gap };
            let bytes = if bytes % 3 == 0 { bytes % 8 } else { bytes };
            (gap, bytes)
        });
        proptest::collection::vec(step, 1..150)
    }

    use proptest::prelude::*;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..proptest::ProptestConfig::default() })]

        /// The token-bucket bound, in integers with no tolerance: over every
        /// window `[s, t]` from one conformant send to a later one, the
        /// bytes sent satisfy `Σ·8·10⁹ ≤ ∫rate dt + depth(s)·8·10⁹` (bit·ns),
        /// across a reconfiguration that may raise, lower or freeze the rate.
        #[test]
        fn conformant_sends_obey_the_bound_exactly(
            rate in 1u64..20_000_000,
            depth in 1u64..50_000,
            reconf in (0u64..20_000_000, 1u64..50_000, 0u64..300_000_000),
            prog in steps(),
        ) {
            let (rate2, depth2, at) = reconf;
            let mut tb = TokenBucket::new(rate, depth);
            let mut now = 0u64;
            let mut moved = false;
            let mut sends: Vec<(u64, u128)> = Vec::new();
            for (gap, bytes) in prog {
                now += gap;
                if !moved && now >= at {
                    tb.reconfigure(SimTime::from_nanos(at), rate2, depth2);
                    moved = true;
                }
                if tb.try_consume(SimTime::from_nanos(now), bytes) {
                    sends.push((now, bytes as u128 * UNITS_PER_BYTE));
                }
            }
            // ∫ rate over [s, t], the reconfiguration taking effect at `at`.
            let refill = |s: u64, t: u64| -> u128 {
                let before = at.clamp(s, t) - s;
                let after = t - at.clamp(s, t);
                rate as u128 * before as u128 + rate2 as u128 * after as u128
            };
            for (i, &(s, _)) in sends.iter().enumerate() {
                let depth_s = if s >= at { depth2 } else { depth };
                let mut sum = 0u128;
                for &(t, units) in &sends[i..] {
                    sum += units;
                    let bound = refill(s, t) + depth_s as u128 * UNITS_PER_BYTE;
                    prop_assert!(sum <= bound, "window [{s}, {t}]: {sum} > {bound} bit·ns");
                }
            }
        }

        /// Refill is idempotent: a bucket that also commits refills at
        /// arbitrary instants (empty consumes) makes every decision the
        /// plain one does, and reads bit-equal levels throughout.
        #[test]
        fn committed_refills_change_nothing(
            rate in 0u64..20_000_000,
            depth in 1u64..200_000,
            prog in proptest::collection::vec((0u64..5_000_000, 0u32..3_000, 0u64..5_000_000), 1..150),
        ) {
            let mut plain = TokenBucket::new(rate.max(1), depth);
            let mut poked = plain.clone();
            if rate == 0 {
                plain.reconfigure(SimTime::ZERO, 0, depth);
                poked.reconfigure(SimTime::ZERO, 0, depth);
            }
            let mut now = 0u64;
            for (gap, bytes, poke) in prog {
                // The extra refill lands anywhere in the gap, ends included.
                let mid = SimTime::from_nanos(now + poke % (gap + 1));
                prop_assert!(poked.try_consume(mid, 0));
                now += gap;
                let at = SimTime::from_nanos(now);
                prop_assert_eq!(plain.peek_available(at), poked.peek_available(at));
                prop_assert_eq!(plain.try_consume(at, bytes), poked.try_consume(at, bytes));
                prop_assert_eq!(
                    plain.clone().time_until_conformant(at, bytes),
                    poked.clone().time_until_conformant(at, bytes)
                );
            }
        }

        /// `time_until_conformant` names the first conformant nanosecond: a
        /// consume succeeds at `when` and fails at `when − 1 ns`.
        #[test]
        fn time_until_conformant_is_minimal(
            rate in 1u64..20_000_000,
            depth in 1u64..200_000,
            prog in steps(),
            want in 0u64..200_000,
        ) {
            let mut tb = TokenBucket::new(rate, depth);
            let mut now = 0u64;
            for (gap, bytes) in prog {
                now += gap;
                tb.try_consume(SimTime::from_nanos(now), bytes);
            }
            let now = SimTime::from_nanos(now);
            let bytes = (want % depth + 1) as u32;
            let when = tb.clone().time_until_conformant(now, bytes);
            prop_assert!(when >= now);
            prop_assert!(tb.clone().try_consume(when, bytes));
            if when > now {
                let before = SimTime::from_nanos(when.as_nanos() - 1);
                prop_assert!(!tb.clone().try_consume(before, bytes));
            }
        }
    }
}
