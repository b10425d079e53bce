//! The one hasher behind every per-row lookup: a std-only, deterministic
//! Fx-style hash (rotate, xor, multiply per word, as in rustc's
//! `FxHasher`).
//!
//! It is fast rather than collision-resistant. Keys are interned
//! symbols, integers and tuples of them, or the strings of the log being
//! analyzed: a log crafted to collide can slow an analysis down but not
//! change its output. As with the manifest fingerprint, this is not a
//! security boundary. There is no per-process seed, so equal keys hash
//! equally in every run; no output may depend on a map's iteration
//! order all the same.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc-hash 2 (odd, with well-spread bits).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style hasher state. [`Hasher::finish`] rotates the well-mixed
/// high bits down, where `std`'s tables and [`crate::intern`] take
/// their slot index from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        // A tail of 1–7 bytes goes in one word whose top byte is its
        // length, so zero padding cannot alias a zero byte of the input.
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            last[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] of [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`]; build it with `default()` or
/// `with_capacity_and_hasher`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_equally_across_builders() {
        let key = (7u32, 0xDEAD_BEEF_u64, "GPTBot/1.0");
        assert_eq!(FxBuildHasher::default().hash_one(key), FxBuildHasher::default().hash_one(key));
    }

    #[test]
    fn hash_is_seedless_and_tails_do_not_alias() {
        let h = |s: &str| FxBuildHasher::default().hash_one(s);
        assert_ne!(h("ab"), h("ab\0"), "zero padding does not alias a zero byte");
        assert_ne!(h("abcdefgh"), h("abcdefgh\0"));
        // No per-process seed: this value holds in every run.
        let mut hasher = FxHasher::default();
        hasher.write_u64(1);
        assert_eq!(hasher.finish(), K.rotate_left(26));
    }

    #[test]
    fn maps_work_with_tuple_keys() {
        let mut m: FxHashMap<(u32, u64), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            *m.entry((i % 10, u64::from(i) << 40)).or_default() += 1;
        }
        assert_eq!(m.len(), 1000);
        let s: FxHashSet<u32> = (0..100).map(|i| i % 7).collect();
        assert_eq!(s.len(), 7);
    }
}
