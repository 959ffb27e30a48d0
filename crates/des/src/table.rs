//! The runtime's one hash table: [`Map`] and [`Set`].
//!
//! The paper's name tables are hash tables (§4.2: "Name tables are
//! implemented as hash tables whose entries are actor locality
//! descriptors"), and Table 2 prices the locality check that consults one
//! at under a microsecond. Every hashed map of the simulator and the live
//! runtime — name table, FIR table, per-link FIFO state, reliable-layer
//! peers, recorder indices — is one of these two types: std's
//! `HashMap`/`HashSet` over [`WordHasher`], a multiplicative word hasher,
//! instead of std's default SipHash-1-3 `RandomState`.
//!
//! **Why that is safe here.** SipHash with a random key exists to resist
//! keys chosen by an outside party (hash flooding). Every key these tables
//! hold — mail-address keys, node ids, message ids, sequence numbers, tags
//! — is minted by this process's own kernels, never chosen by an outside
//! party. A transport that accepts keys from another process (ROADMAP's
//! parked multi-process distribution) must revisit this choice.
//!
//! A side effect: a table's iteration order is a fixed function of its
//! inserts (there is no per-instance random seed), so two runs that insert
//! the same keys iterate alike. Code that needs an order still states it
//! (a `BTreeMap`, or a sort); this only keeps an unstated one from
//! differing between runs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map over [`WordHasher`]. Build with `Map::default()`.
pub type Map<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A hash set over [`WordHasher`]. Build with `Set::default()`.
pub type Set<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

/// Multiplicative word hasher: each word written is folded in with one add
/// and one multiply by an odd constant.
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

/// Odd, with well-spread bits. With the rotation in `finish` it spreads
/// sequential ids, `(node, index)` pairs and `node << 48 | seq` ids over
/// bucket and tag bits about as well as random hashing does.
const K: u64 = 0xE703_7ED1_A0B4_28DB;

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// Byte strings fold a byte at a time; no runtime key is one.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
    /// The product's well-mixed high bits are rotated down: the table
    /// picks a bucket from the low bits and a tag from the top seven.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inserts_iterate_in_the_same_order() {
        let fill = || {
            let mut m: Map<(u16, u32), u64> = Map::default();
            for i in 0..500u32 {
                let key = ((i % 7) as u16, i.wrapping_mul(2_654_435_761));
                m.insert(key, u64::from(i));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    #[test]
    fn low_and_top_bits_both_vary_over_small_keys() {
        let hash = |i: u32| {
            let mut h = WordHasher::default();
            h.write_u32(i);
            h.finish()
        };
        let low: Set<u64> = (0..256).map(|i| hash(i) & 0xff).collect();
        let top: Set<u64> = (0..256).map(|i| hash(i) >> 57).collect();
        assert!(low.len() > 128, "bucket bits: {} of 256 distinct", low.len());
        assert!(top.len() > 64, "tag bits: {} of 128 distinct", top.len());
    }
}
