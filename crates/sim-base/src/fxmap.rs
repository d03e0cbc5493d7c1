//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! The standard library's `HashMap` defaults to SipHash with a
//! per-process random seed. That costs in two ways that matter here:
//!
//! * SipHash is comparatively slow for the tiny integer keys
//!   (`LineAddr`, packet ids) the simulator hashes millions of times
//!   per run.
//! * The random seed makes iteration order differ between *processes*,
//!   which is hostile to the determinism suite: any code that iterates
//!   a map (e.g. collecting matured directory transactions) would see a
//!   different order on every run.
//!
//! [`FxHasher`] is the classic multiply-xor hash used by rustc
//! (firefox's "Fx" hash), implemented in-tree because this workspace is
//! deliberately dependency-free. It is seedless, so iteration order is
//! a pure function of the operation history — two runs performing the
//! same inserts/removes iterate identically.
//!
//! This is *not* a DoS-resistant hash; the simulator only ever hashes
//! its own trusted keys.

// This module IS the sanctioned wrapper: the std containers are
// re-hashed with the seedless FxHasher below.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of the Fx hash (64-bit golden-ratio
/// derived, same constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, seedless multiply-xor hasher for trusted integer-like keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`std::hash::BuildHasher`] for [`FxHasher`] (zero-sized,
/// seedless).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast deterministic [`FxHasher`].
#[allow(clippy::disallowed_types)] // the wrapper definition itself
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast deterministic [`FxHasher`].
#[allow(clippy::disallowed_types)] // the wrapper definition itself
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LineAddr;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<LineAddr, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(LineAddr(i * 7), i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&LineAddr(i * 7)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn iteration_order_is_a_function_of_history() {
        let build = |ops: &[(u64, bool)]| {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for &(k, insert) in ops {
                if insert {
                    m.insert(k, k);
                } else {
                    m.remove(&k);
                }
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        let ops: Vec<(u64, bool)> = (0..200).map(|i| (i * 31 % 97, i % 3 != 0)).collect();
        assert_eq!(build(&ops), build(&ops));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        // Collision test on raw hashes; iteration order is never observed.
        #[allow(clippy::disallowed_types)]
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(bh.hash_one(LineAddr(i)));
        }
        assert_eq!(seen.len(), 10_000, "64-bit hashes of small ints collided");
    }

    #[test]
    fn partial_chunks_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello worle");
        assert_ne!(a.finish(), c.finish());
    }
}
