//! Simulation time.
//!
//! All simulation time is kept as an integer number of nanoseconds since the
//! start of the run. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and makes runs bit-for-bit reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time (nanoseconds since t=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDelta(u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any time reachable in practice.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }
    /// Construct from fractional seconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimTime seconds: {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    /// Time elapsed since `earlier`; saturates at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDelta {
        SimDelta(self.0.saturating_sub(earlier.0))
    }
}

impl SimDelta {
    pub const ZERO: SimDelta = SimDelta(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDelta(ns)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDelta(us * 1_000)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDelta(ms * 1_000_000)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDelta(s * NANOS_PER_SEC)
    }
    /// Construct from fractional seconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimDelta seconds: {s}");
        SimDelta((s * NANOS_PER_SEC as f64).round() as u64)
    }
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// The time it takes to transmit `bytes` at `bits_per_sec`.
    ///
    /// Rounds up to the next nanosecond so that back-to-back transmissions
    /// never exceed the configured rate.
    #[inline]
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> SimDelta {
        assert!(bits_per_sec > 0, "zero bandwidth");
        // Every packet fits the u64 path (it overflows only past 2.3 GB);
        // the u128 division is a library call, the u64 one an instruction.
        if let Some(bit_ns) = bytes.checked_mul(8 * NANOS_PER_SEC) {
            return SimDelta(bit_ns.div_ceil(bits_per_sec));
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * NANOS_PER_SEC as u128).div_ceil(bits_per_sec as u128);
        SimDelta(ns as u64)
    }
}

impl Add<SimDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDelta> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDelta) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDelta;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDelta {
        SimDelta(self.0.saturating_sub(rhs.0))
    }
}
impl Add for SimDelta {
    type Output = SimDelta;
    #[inline]
    fn add(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0 + rhs.0)
    }
}
impl AddAssign for SimDelta {
    #[inline]
    fn add_assign(&mut self, rhs: SimDelta) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDelta {
    type Output = SimDelta;
    #[inline]
    fn sub(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for SimDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDelta) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}
impl Mul<u64> for SimDelta {
    type Output = SimDelta;
    #[inline]
    fn mul(self, rhs: u64) -> SimDelta {
        SimDelta(self.0 * rhs)
    }
}
impl Div<u64> for SimDelta {
    type Output = SimDelta;
    #[inline]
    fn div(self, rhs: u64) -> SimDelta {
        SimDelta(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDelta::from_micros(250).as_nanos(), 250_000);
        assert_eq!(SimTime::from_secs_f64(0.25), SimTime::from_millis(250));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDelta::from_millis(500);
        assert_eq!(t, SimTime::from_millis(1500));
        assert_eq!(t - SimTime::from_secs(1), SimDelta::from_millis(500));
        // saturating subtraction
        assert_eq!(
            SimTime::from_secs(1) - SimDelta::from_secs(5),
            SimTime::ZERO
        );
        assert_eq!(SimTime::ZERO.since(SimTime::from_secs(1)), SimDelta::ZERO);
    }

    #[test]
    fn transmission_time_exact() {
        // 1500 bytes at 12000 bits/s = 1 second.
        assert_eq!(SimDelta::transmission(1500, 12_000), SimDelta::from_secs(1));
        // Rounds up: 1 byte at 1 Gb/s = 8 ns exactly.
        assert_eq!(SimDelta::transmission(1, 1_000_000_000).as_nanos(), 8);
        // 1 byte at 3 Gb/s = 2.67 ns -> 3 ns.
        assert_eq!(SimDelta::transmission(1, 3_000_000_000).as_nanos(), 3);
    }

    #[test]
    fn transmission_u64_path_matches_u128_formula() {
        // Both sides of the `bytes * 8e9` overflow boundary (2 305 843 009).
        let sizes = [
            1,
            40,
            53,
            1_500,
            65_535,
            1 << 31,
            2_305_843_008,
            2_305_843_009,
            2_305_843_010,
            u64::MAX / 8,
        ];
        let rates = [
            1,
            12_000,
            155_520_000,
            622_080_000,
            10_000_000_000,
            u64::MAX,
        ];
        for bytes in sizes {
            for bps in rates {
                let wide = (bytes as u128 * 8 * NANOS_PER_SEC as u128).div_ceil(bps as u128);
                assert_eq!(
                    SimDelta::transmission(bytes, bps).as_nanos(),
                    wide as u64,
                    "{bytes} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn transmission_zero_bw_panics() {
        let _ = SimDelta::transmission(1, 0);
    }
}
