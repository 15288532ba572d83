//! A small, fast, non-cryptographic hasher in the style of `FxHash`.
//!
//! The partitioning and join algorithms hash interned `u32` ids millions of
//! times per window. SipHash (the standard-library default) is a poor fit for
//! such short keys, and HashDoS resistance is irrelevant for ids we assign
//! ourselves, so every hot map in this workspace uses [`FxHashMap`] /
//! [`FxHashSet`]. The algorithm is the multiply-and-rotate scheme used by the
//! Rust compiler's `FxHasher`; it is reimplemented here (~40 lines) to keep
//! the dependency set to the approved list.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx hashing scheme (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast hasher for short keys (interned ids, small tuples).
///
/// Not resistant to adversarial inputs; do not use for untrusted keys.
#[derive(Default, Clone, Copy)]
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
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a single `u64` with the Fx scheme; handy for fields groupings.
#[inline]
pub fn hash_u64(word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(word);
    h.finish()
}

/// Hash a string's bytes with the Fx scheme.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        let hashes: Vec<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        let unique: FxHashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn distinguishes_prefix_strings() {
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&"a"), hash_of(&"aa"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, String> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, format!("v{i}"));
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&7).map(String::as_str), Some("v7"));
    }

    #[test]
    fn hash_u64_spreads_low_bits() {
        // Sequential ids must not collide modulo small table sizes too badly;
        // check the bottom 6 bits take many distinct values over 64 inputs.
        let distinct: FxHashSet<u64> = (0u64..64).map(|i| hash_u64(i) & 63).collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct buckets",
            distinct.len()
        );
    }
}
