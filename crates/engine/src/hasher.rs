//! The one hasher behind every hash table the executor builds: join
//! build sides, `DISTINCT` and set-operation tables, `GROUP BY` indexes
//! and `COUNT(DISTINCT)` sets, under both access methods.
//!
//! Keys are mostly one or a few 64-bit code words, which SipHash spends
//! far more time on than on the probe itself. [`WordHasher`] folds each
//! word in with one 64×64→128-bit multiply whose two halves are xored,
//! so a bit anywhere in a word reaches both the low bits (the bucket)
//! and the high bits (the tag) of the hash. It is keyed: every state
//! starts from a seed drawn once per process from the standard
//! library's [`RandomState`], so keys a client writes cannot be chosen
//! to collide by a fixed formula, as they could under an unkeyed
//! constant multiply.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`std::collections::HashMap`] under the executor's hasher.
pub(crate) type HashMap<K, V> = std::collections::HashMap<K, V, KeyedState>;
/// A [`std::collections::HashSet`] under the executor's hasher.
pub(crate) type HashSet<T> = std::collections::HashSet<T, KeyedState>;

/// Odd multiplier with well-mixed bits (2⁶⁴ divided by the golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds [`WordHasher`]s that all start from this process's seed, so
/// two builders hash a key alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyedState {
    seed: u64,
}

impl Default for KeyedState {
    fn default() -> KeyedState {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(MULTIPLIER));
        KeyedState { seed }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.seed }
    }
}

/// A folded-multiply hasher over 64-bit words; see the module docs.
pub(crate) struct WordHasher {
    state: u64,
}

impl Hasher for WordHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Byte strings (string payloads) go in as their length, then as
    /// little-endian words, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many keys share the most common value of their hashes' low 12
    /// bits (the bucket of a 4,096-slot table), and how many values the
    /// top 7 bits (the tag) take.
    fn spread(keys: impl Iterator<Item = u64>) -> (usize, usize) {
        let state = KeyedState::default();
        let mut low = vec![0usize; 1 << 12];
        let mut top = [false; 128];
        for key in keys {
            let h = state.hash_one(key);
            low[(h & 0xfff) as usize] += 1;
            top[(h >> 57) as usize] = true;
        }
        let fullest = low.into_iter().max().unwrap_or(0);
        (fullest, top.iter().filter(|&&t| t).count())
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_buckets_and_tags() {
        for shift in [20, 40] {
            let (fullest, tags) = spread((0..4_096u64).map(|i| i << shift));
            assert!(fullest <= 16, "i << {shift}: {fullest} keys share low bits");
            assert_eq!(tags, 128, "i << {shift}: top 7 bits take {tags} values");
        }
        // An unkeyed constant multiply sends all of them to one bucket.
        let fx = (0..4_096u64).map(|i| (i << 20).wrapping_mul(MULTIPLIER) & 0xfff);
        assert!(fx.into_iter().all(|b| b == 0));
    }

    #[test]
    fn builders_in_one_process_hash_alike() {
        let (a, b) = (KeyedState::default(), KeyedState::default());
        for key in [0u64, 1, u64::MAX, 1 << 40] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one("SCITY"), b.hash_one("SCITY"));
        assert_ne!(a.hash_one("ab"), a.hash_one("ab\0"), "lengths are hashed");
    }
}
