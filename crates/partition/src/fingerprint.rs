//! 128-bit docset fingerprints.
//!
//! Equivalence grouping (§IV, Definition 1) buckets attribute-value pairs by
//! their exact document set. Keying a hash map with the docset itself means
//! re-hashing a whole `Vec<u32>` per lookup and moving the vector in as the
//! key; instead both the batch path and the incremental [`GroupIndex`] key
//! groups by a 128-bit fingerprint of the docset and fall back to a full
//! equality comparison only when two distinct docsets collide on the same
//! fingerprint (the fallback keeps the partitioning *exact* rather than
//! probabilistic).
//!
//! The docset fingerprint is **commutative**: the sum of a strong per-id
//! mix over both lanes. Commutativity costs some mixing strength versus a
//! chained hash — which the equality fallback absorbs — and buys O(1)
//! *incremental* updates: the [`GroupIndex`] adjusts a pair's fingerprint
//! with [`Fp128::add_doc`] / [`Fp128::remove_doc`] as documents arrive and
//! expire, never rescanning the docset (popular pairs sit in docsets
//! spanning most of the window, and re-fingerprinting them on every delta
//! dominated the refresh).
//!
//! [`GroupIndex`]: crate::incremental::GroupIndex

/// A 128-bit docset fingerprint (two independent SplitMix64-style lanes,
/// summed per document id so membership updates are O(1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp128 {
    /// First hash lane.
    pub hi: u64,
    /// Second hash lane (independent seed and multiplier).
    pub lo: u64,
}

// Independent odd multipliers: the Fx constant and a SplitMix64-style one.
const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const K2: u64 = 0x94_d0_49_bb_13_31_11_eb;

/// SplitMix64 finalizer: a bijective avalanche of one id, so the per-lane
/// sums of distinct docsets agree only by 64-bit accident per lane.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Fp128 {
    /// The fingerprint of the empty docset.
    pub fn empty() -> Fp128 {
        Fp128::default()
    }

    /// Fold document `d` into the set — O(1), order-independent.
    #[inline]
    pub fn add_doc(&mut self, d: u32) {
        self.hi = self.hi.wrapping_add(splitmix(d as u64 ^ K1));
        self.lo = self.lo.wrapping_add(splitmix(d as u64 ^ K2));
    }

    /// Remove document `d` from the set — the exact inverse of
    /// [`add_doc`](Self::add_doc).
    #[inline]
    pub fn remove_doc(&mut self, d: u32) {
        self.hi = self.hi.wrapping_sub(splitmix(d as u64 ^ K1));
        self.lo = self.lo.wrapping_sub(splitmix(d as u64 ^ K2));
    }
}

/// Fingerprint a docset from scratch: the fold of [`Fp128::add_doc`] over
/// its ids, so the batch path and the incrementally maintained fingerprints
/// of the [`GroupIndex`](crate::incremental::GroupIndex) agree exactly.
#[inline]
pub fn fingerprint_docs(docs: &[u32]) -> Fp128 {
    let mut fp = Fp128::empty();
    for &d in docs {
        fp.add_doc(d);
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_docsets_distinct_fingerprints() {
        let a = fingerprint_docs(&[1, 2, 3]);
        let b = fingerprint_docs(&[1, 2, 4]);
        let c = fingerprint_docs(&[1, 2]);
        let d = fingerprint_docs(&[]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
        assert_eq!(a, fingerprint_docs(&[1, 2, 3]));
    }

    #[test]
    fn lanes_are_independent() {
        // If both lanes used the same constants they would always be equal
        // and the fingerprint would effectively be 64-bit.
        let fp = fingerprint_docs(&[7, 9, 11]);
        assert_ne!(fp.hi, fp.lo);
    }
}
