//! The hasher behind the optimizer's associative maps.
//!
//! GVN's expression table and read–write elimination's location maps are
//! keyed by tuples of dense ids and small enums, rebuilt for every graph
//! and every block. SipHash — the standard library's default, built to
//! resist crafted keys — costs more than the lookups it serves. These maps
//! never outlive one pass over one graph, so a multiply–rotate hash is
//! enough; a crafted `.ir` file can make one block's map degenerate, which
//! costs that compilation time and nothing else.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–rotate word hasher (the scheme of rustc's `FxHasher`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FastHasher(u64);

/// 2⁶⁴ / φ, odd: multiplication by it is a bijection that spreads low bits
/// upwards.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes by the low bits and tags by the high ones; the
        // multiply leaves the low bits weakest, so bring the strong ones down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` on [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` on [`FastHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut h = FastHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        // 4096 consecutive ids must not pile up in a 256-bucket table, by
        // the low bits (bucket index) or by the top seven (the tag).
        let mut low = [0u32; 256];
        let mut high = [0u32; 128];
        for id in 0..4096u32 {
            let h = hash_of(id);
            low[(h & 0xff) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&n| n <= 64), "low bits cluster: {low:?}");
        assert!(
            high.iter().all(|&n| n <= 128),
            "high bits cluster: {high:?}"
        );
    }

    #[test]
    fn tuple_components_both_count() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        assert_ne!(hash_of((0u32, 1u32)), hash_of((1u32, 0u32)));
        assert_eq!(hash_of((7u32, 9u32)), hash_of((7u32, 9u32)));
    }

    #[test]
    fn byte_strings_hash_every_byte() {
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
    }
}
