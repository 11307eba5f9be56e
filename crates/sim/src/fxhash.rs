//! A fast, deterministic hasher for small fixed-shape keys.
//!
//! Per-packet demultiplexing (TCP/UDP 4-tuples, port maps) sits on the
//! simulator's hottest path; SipHash's DoS resistance buys nothing in a
//! closed deterministic simulation and costs real time per lookup. This is
//! the well-known FxHash multiply-mix (the rustc hasher): one wrapping
//! multiply per word, no per-process random state, so runs are identical
//! across processes and platforms.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: `state = (state rotl 5 ^ word) * SEED` per word of input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic Fx hash (no random seed).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a: FxHashMap<(u32, u16, u32, u16), u64> = FxHashMap::default();
        a.insert((1, 2, 3, 4), 42);
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write_u64(0xdead_beef);
        h2.write_u64(0xdead_beef);
        assert_eq!(h1.finish(), h2.finish());
        assert_eq!(a.get(&(1, 2, 3, 4)), Some(&42));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_ne!(hash(0), hash(1));
        assert_ne!(hash(1), hash(1 << 32));
    }
}
