//! Stable 64-bit structural hashing.
//!
//! Design and environment fingerprints, coverage signatures and flight
//! recordings all carry hashes that must agree across processes.
//! `std::hash::Hasher` implementations may vary between runs (SipHash
//! keys) or releases, so they use this fixed, process-independent mixer
//! instead: same inputs → same 64-bit hash, on every run, platform, and
//! compiler version.

/// A deterministic 64-bit streaming hasher (xorshift-multiply mixing with a
/// SplitMix64 finaliser).
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher with a fixed initial state.
    pub fn new() -> Self {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorb one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let x = (v ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.state = (self.state ^ x)
            .rotate_left(27)
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
    }

    /// Absorb a signed 64-bit value.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorb a 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Absorb a usize (always widened to 64 bits).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb a boolean.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(v as u64);
    }

    /// Absorb a string (length-prefixed, byte-exact).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Finalise to a well-mixed 64-bit digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = StableHasher::new();
        for w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            a.write_u64(v);
            b.write_u64(v);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_are_length_prefixed() {
        // "ab" + "c" must differ from "a" + "bc".
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn zero_stream_is_not_fixed_point() {
        assert_ne!(stable_hash_words([0]), stable_hash_words([0, 0]));
        assert_ne!(stable_hash_words([0]), 0);
    }

    #[test]
    fn single_bit_flips_spread() {
        let base = stable_hash_words([42]);
        for bit in 0..64 {
            assert_ne!(base, stable_hash_words([42u64 ^ (1 << bit)]));
        }
    }
}
