//! A small, fully deterministic PRNG for simulation workloads.
//!
//! We implement xoshiro256** directly rather than pulling in `rand` here so
//! that the core simulation's determinism does not depend on an external
//! crate's version-to-version stream stability. Workload generators in
//! higher crates may still use `rand` seeded from this stream.

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed the generator. Any seed (including 0) yields a good stream,
    /// because the state is expanded through SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream, e.g. one per traffic source.
    pub(crate) fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24BAED4963EE407))
    }

    /// Derive an independent child stream named by a label instead of a
    /// bare integer. The label is hashed (FNV-1a) into the stream id, so
    /// call sites read as `rng.fork_labeled("topology")` rather than
    /// `rng.fork(1)` and two dimensions can never collide by both picking
    /// the same small constant.
    ///
    /// Like a plain fork, this consumes one draw from the parent, so the
    /// *sequence* of forks at a call site is part of the deterministic
    /// contract: reordering fork calls reseeds every later child.
    pub fn fork_labeled(&mut self, label: &str) -> SimRng {
        self.fork(fnv1a(label.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Uses Lemire's multiply-shift rejection method.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// Streaming 64-bit FNV-1a, small enough to inline here rather than depend
/// on a hashing crate. The determinism gates digest end states with it:
/// integers go in as their little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// An empty digest (the FNV-1a offset basis).
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Continue a digest whose state so far is `state` (a previous
    /// [`Fnv::finish`]).
    pub fn resume(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Fold in a byte string.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold in `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte string; used by [`SimRng::fork_labeled`].
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_streams_the_reference_digest() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.u64(7);
        h.u64(u64::MAX);
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend(u64::MAX.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
        let mut first = Fnv::new();
        first.u64(7);
        let mut resumed = Fnv::resume(first.finish());
        resumed.u64(u64::MAX);
        assert_eq!(resumed.finish(), h.finish());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_mean() {
        let mut r = SimRng::new(9);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// Labeled forks from identical parent state must yield pairwise
    /// distinct streams: hash the first few draws of each child and check
    /// for collisions across a large label population.
    #[test]
    fn labeled_forks_do_not_collide() {
        let labels: Vec<String> = (0..1000).map(|i| format!("stream-{i}")).collect();
        let mut seen = std::collections::HashSet::new();
        for label in &labels {
            // Fresh parent per label: collisions here would mean the label
            // hash (not parent stream position) failed to separate them.
            let mut parent = SimRng::new(0xD15EA5E);
            let mut child = parent.fork_labeled(label);
            let sig = (child.next_u64(), child.next_u64(), child.next_u64());
            assert!(seen.insert(sig), "label {label} collided");
        }
    }

    /// A labeled fork is a real stream split: the child is statistically
    /// well-behaved (uniform mean, balanced bits) and decorrelated from
    /// both the parent continuation and siblings.
    #[test]
    fn labeled_forks_are_statistically_sound() {
        let mut parent = SimRng::new(99);
        let mut child = parent.fork_labeled("traffic");
        let mut sibling = parent.fork_labeled("faults");
        let n = 10_000;
        let mut sum = 0.0;
        let mut bit_counts = [0u32; 64];
        let mut eq_parent = 0;
        let mut eq_sibling = 0;
        for _ in 0..n {
            let v = child.next_u64();
            if v == parent.next_u64() {
                eq_parent += 1;
            }
            if v == sibling.next_u64() {
                eq_sibling += 1;
            }
            for (b, c) in bit_counts.iter_mut().enumerate() {
                *c += ((v >> b) & 1) as u32;
            }
            sum += (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
        assert_eq!(eq_parent, 0, "child stream tracked the parent");
        assert_eq!(eq_sibling, 0, "sibling streams coincided");
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "child mean {mean}");
        for (b, &c) in bit_counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.05, "bit {b} biased: {frac}");
        }
    }

    /// `fork_labeled` is `fork` of the label's FNV-1a hash — pins the
    /// mapping so scenario streams stay stable across refactors.
    #[test]
    fn labeled_fork_matches_explicit_hash() {
        let mut a = SimRng::new(4242);
        let mut b = SimRng::new(4242);
        let mut ca = a.fork_labeled("gara");
        let mut cb = b.fork(fnv1a(b"gara"));
        for _ in 0..32 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_parent_continuation() {
        let mut parent = SimRng::new(5);
        let mut child = parent.fork(1);
        let c1: Vec<u64> = (0..10).map(|_| child.next_u64()).collect();
        // Re-derive with identical parent history.
        let mut parent2 = SimRng::new(5);
        let mut child2 = parent2.fork(1);
        let c2: Vec<u64> = (0..10).map(|_| child2.next_u64()).collect();
        assert_eq!(c1, c2);
    }
}
