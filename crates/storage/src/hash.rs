//! The key hasher of the executor's per-row tables.
//!
//! The hash join, `DISTINCT`, non-`ALL` `UNION`, `GROUP BY`, the native
//! TopK's group and witness maps and [`HashIndex`](crate::HashIndex) hash a
//! key for every row they touch. [`KeyHasher`] hashes it once: each `u64`
//! word is xor-ed into the state, which is then multiplied by an odd
//! constant (a string is read 8 bytes at a time, its tail folded in with its
//! length), and murmur3's `fmix64` finalises. The finaliser is needed, not
//! decoration: a product's low bits depend only on its factors' low bits,
//! [`Value::Int`] hashes its `f64` bit pattern, whose low bits are all zero
//! for small integers, and a table picks its bucket from the low bits.
//!
//! **Seed.** One per process, drawn on first use from the operating
//! system's randomness through [`RandomState`] ([`KeyState::new`]); there
//! is no knob. An execution reads it once, and tests pass their own through
//! [`KeyState::with_seed`]. None of these tables is ever iterated — each
//! keeps its entries in first-seen order beside the map — so no answer's
//! order depends on the seed.
//!
//! **Threat model.** This hasher is fast because it gives up SipHash's
//! resistance to keys crafted to collide. It is used only for keys drawn
//! from stored rows or from rows the executor derived from them. Over the
//! wire a client sends only queries and profile values, and profile values
//! become literals in a plan, never rows. Every map keyed by client input
//! keeps std's SipHash [`RandomState`]: the prepared-statement cache (SQL
//! text), the plan cache (user id + canonical SQL), the profile shards, the
//! planner's name and schema interning sets and the catalog.
//!
//! [`Value::Int`]: crate::Value::Int

use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::OnceLock;

/// The odd multiplier of a fold (the 64-bit golden ratio): multiplying by
/// it is a bijection, so one fold never merges two states.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// `state` with the word `w` folded in.
#[inline]
fn fold(state: u64, w: u64) -> u64 {
    (state ^ w).wrapping_mul(MUL)
}

/// murmur3's 64-bit finaliser: every input bit flips each output bit with
/// probability about one half.
#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// A seeded multiply-fold hasher over `u64` words (see the module doc).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    fn with_seed(seed: u64) -> KeyHasher {
        KeyHasher { state: seed }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.state = fold(self.state, w);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        // The tail takes at most seven bytes, so the length's low byte fits
        // above it.
        self.word(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fmix64(self.state)
    }
}

/// The [`BuildHasher`] of the executor's key tables: a [`KeyHasher`] per
/// key, all from one seed.
#[derive(Debug, Clone, Copy)]
pub struct KeyState {
    seed: u64,
}

impl KeyState {
    /// Hashers seeded with this process's seed.
    pub fn new() -> KeyState {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyState::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64)))
    }

    /// Hashers seeded with `seed`.
    pub fn with_seed(seed: u64) -> KeyState {
        KeyState { seed }
    }
}

impl Default for KeyState {
    fn default() -> KeyState {
        KeyState::new()
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::with_seed(self.seed)
    }
}

/// The hasher of a map keyed by a [`KeyHasher`] hash: a `u64` key passes
/// through unchanged. Anything else is folded in byte by byte rather than
/// refused, since this sits on the serving path.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThrough {
    state: u64,
}

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = fold(self.state, u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state ^= n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// The [`BuildHasher`] of a map keyed by [`KeyHasher`] hashes.
pub type PreHashed = BuildHasherDefault<PassThrough>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        KeyState::with_seed(7).hash_one(v)
    }

    #[test]
    fn hash_agrees_with_equality() {
        let equal = [
            (Value::Int(3), Value::Float(3.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Null, Value::Null),
            (Value::Bool(true), Value::Bool(true)),
        ];
        for (a, b) in &equal {
            assert_eq!(a, b);
            assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
        }
        assert_ne!(hash_of(&Value::Bool(true)), hash_of(&Value::Bool(false)));
        assert_ne!(hash_of(&Value::Null), hash_of(&Value::Bool(false)));
        // 0, 7, 8, 9 and 16 bytes: no tail, a tail alone, words alone, both.
        for len in [0, 7, 8, 9, 16] {
            let s = &"abcdefghijklmnop"[..len];
            let h = hash_of(&Value::str(s));
            assert_eq!(h, hash_of(&Value::from(s.to_string())), "len {len}");
            assert_ne!(h, hash_of(&Value::str(format!("{s}\0"))), "len {len}");
            if let Some(head) = s.get(..len.wrapping_sub(1)) {
                assert_ne!(h, hash_of(&Value::str(format!("{head}z"))), "len {len}");
            }
        }
    }

    #[test]
    fn slice_keys_that_split_differently_differ() {
        let ab_c = [Value::str("ab"), Value::str("c")];
        let a_bc = [Value::str("a"), Value::str("bc")];
        assert_ne!(hash_of(&ab_c[..]), hash_of(&a_bc[..]));
        let one = [Value::str("abcdefgh")];
        let two = [Value::str("abcd"), Value::str("efgh")];
        assert_ne!(hash_of(&one[..]), hash_of(&two[..]));
    }

    #[test]
    fn small_integers_spread_over_buckets_and_tags() {
        let mut low = vec![false; 4096];
        let mut tags = [false; 128];
        for i in 0..4096 {
            let h = hash_of(&Value::Int(i));
            low[(h & 4095) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        let filled = low.iter().filter(|&&b| b).count();
        // Uniform hashes fill 1 - 1/e, about 63 %.
        assert!(filled * 100 >= 55 * 4096, "{filled} of 4096 low-12-bit buckets");
        assert!(tags.iter().all(|&t| t), "every top-7-bit tag");
    }

    #[test]
    fn seeds_change_the_hash() {
        let v = Value::str("comedy");
        assert_ne!(KeyState::with_seed(1).hash_one(&v), KeyState::with_seed(2).hash_one(&v));
        assert_eq!(KeyState::new().hash_one(&v), KeyState::new().hash_one(&v));
    }

    #[test]
    fn pass_through_keeps_a_u64_and_folds_bytes() {
        let pre = PreHashed::default();
        assert_eq!(pre.hash_one(0xdead_beef_u64), 0xdead_beef);
        let mut h = pre.build_hasher();
        h.write(b"abc");
        assert_ne!(h.finish(), 0);
    }
}
