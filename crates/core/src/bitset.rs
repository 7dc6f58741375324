//! Dense bitsets and square bit matrices.
//!
//! The model's order relations (`F⁺`, `⇒`, `α`, `∥`, `◇` — paper Defs. 2.3
//! and 4.3/4.4) are dense boolean matrices over a few hundred to a few
//! thousand control elements. A cache-friendly `u64`-word representation
//! with a blocked Warshall closure keeps the scaling experiments (E7) honest.

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    bits: usize,
}

impl BitSet {
    /// A set able to hold values `0..bits`, initially empty.
    pub fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// A process-independent 64-bit hash of the set's contents and
    /// capacity (see [`crate::hash::StableHasher`]).
    pub fn stable_hash64(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_usize(self.bits);
        for &w in &self.words {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Insert `i`; returns whether the bit was newly set.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] = old | (1 << b);
        old & (1 << b) == 0
    }

    /// Remove `i`; returns whether the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] = old & !(1 << b);
        old & (1 << b) != 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.bits {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ∪= other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.bits, other.bits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The raw `u64` words backing the set (bit `i` lives in word `i / 64`).
    /// Exposed for word-parallel consumers such as the coverage collector.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// OR raw words into this set, zip-truncated to the shorter side, so a
    /// smaller source never panics and bits beyond this set's capacity are
    /// dropped. The word-parallel hot path of coverage recording.
    pub fn union_words(&mut self, words: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(words) {
            *a |= b;
        }
        // Mask stray bits past the capacity in the last word.
        if let Some(last) = self.words.last_mut() {
            let used = self.bits % 64;
            if used != 0 {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// `self ∩= other`. Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.bits, other.bits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// True when `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let bits = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(bits);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// A square boolean matrix over `n` elements, one [`BitSet`] row per element.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    rows: Vec<u64>,
    words_per_row: usize,
}

impl BitMatrix {
    /// An `n × n` all-false matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64).max(1);
        Self {
            n,
            rows: vec![0; n * words_per_row],
            words_per_row,
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.rows[i * self.words_per_row + j / 64] |= 1 << (j % 64);
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.rows[i * self.words_per_row + j / 64] & (1 << (j % 64)) != 0
    }

    fn row_words(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Iterate over the column indices set in row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row_words(i).iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// In-place reflexive-free transitive closure (Warshall, word-parallel).
    ///
    /// After the call, `get(i, j)` is true iff a path `i → ... → j` of
    /// length ≥ 1 existed in the input relation.
    pub fn transitive_closure(&mut self) {
        let wpr = self.words_per_row;
        for k in 0..self.n {
            let (kw, kb) = (k / 64, 1u64 << (k % 64));
            // Copy row k once; it is read by every other row.
            let row_k: Vec<u64> = self.row_words(k).to_vec();
            for i in 0..self.n {
                let base = i * wpr;
                if self.rows[base + kw] & kb != 0 {
                    for (w, &kwrd) in row_k.iter().enumerate() {
                        self.rows[base + w] |= kwrd;
                    }
                }
            }
        }
    }

    /// The union of this matrix with its transpose.
    pub fn symmetric_or(&self) -> BitMatrix {
        let mut out = self.clone();
        for i in 0..self.n {
            for j in self.row_iter(i).collect::<Vec<_>>() {
                out.set(j, i);
            }
        }
        out
    }

    /// Count of true entries.
    pub fn count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BitMatrix({}) {{", self.n)?;
        for i in 0..self.n {
            let row: Vec<usize> = self.row_iter(i).collect();
            if !row.is_empty() {
                writeln!(f, "  {i} -> {row:?}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basic_ops() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn bitset_set_algebra() {
        let a: BitSet = [1usize, 3, 5].into_iter().collect();
        let b: BitSet = [3usize, 4, 5].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 5]);
        assert!(a.intersects(&b));
        let c: BitSet = {
            let mut c = BitSet::new(6);
            c.insert(0);
            c
        };
        assert!(!c.intersects(&{
            let mut d = BitSet::new(6);
            d.insert(2);
            d
        }));
    }

    #[test]
    fn union_words_truncates_and_masks() {
        let mut s = BitSet::new(70);
        let src: BitSet = [0usize, 63, 64, 69].into_iter().collect();
        s.union_words(src.words());
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 69]);
        // A wider source: bits past capacity must be dropped, not panic.
        let mut small = BitSet::new(3);
        let wide: BitSet = [1usize, 2, 40, 64].into_iter().collect();
        small.union_words(wide.words());
        assert_eq!(small.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(small.count(), 2);
    }

    /// Adversarial patterns: shifted, rotated, prefix-sharing and
    /// padding-only-different sets must all hash distinctly (coverage
    /// signatures depend on it). The probes target classic weak-hash
    /// failure modes — XOR-cancelling bit pairs, equal popcount, trailing
    /// empty words.
    #[test]
    fn adversarial_bitset_patterns_hash_distinctly() {
        let patterns: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![63],
            vec![64],
            vec![0, 63],
            vec![0, 64],
            vec![63, 64],
            vec![0, 1],
            vec![1, 2],
            vec![0, 65],
            vec![1, 64], // same popcount, shifted pair
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],    // same popcount, disjoint run
            (0..64).collect(),   // full first word
            (64..128).collect(), // full second word
            (0..128).collect(),
        ];
        let mut seen = std::collections::HashMap::new();
        for (i, pat) in patterns.iter().enumerate() {
            let mut s = BitSet::new(128);
            for &b in pat {
                s.insert(b);
            }
            if let Some(j) = seen.insert(s.stable_hash64(), i) {
                panic!(
                    "patterns {j:?} and {i:?} collide: {:?} vs {pat:?}",
                    patterns[j]
                );
            }
        }
    }

    #[test]
    fn closure_of_chain() {
        // 0 -> 1 -> 2 -> 3
        let mut m = BitMatrix::new(4);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 3);
        m.transitive_closure();
        assert!(m.get(0, 3));
        assert!(m.get(1, 3));
        assert!(!m.get(3, 0));
        assert!(!m.get(0, 0));
        assert_eq!(m.count(), 6);
    }

    #[test]
    fn closure_of_cycle_is_complete() {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        m.transitive_closure();
        for i in 0..3 {
            for j in 0..3 {
                assert!(m.get(i, j), "({i},{j}) should be reachable");
            }
        }
    }

    #[test]
    fn closure_crosses_word_boundaries() {
        let n = 200;
        let mut m = BitMatrix::new(n);
        for i in 0..n - 1 {
            m.set(i, i + 1);
        }
        m.transitive_closure();
        assert!(m.get(0, n - 1));
        assert!(!m.get(n - 1, 0));
        assert_eq!(m.count(), n * (n - 1) / 2);
    }

    #[test]
    fn symmetric_or_adds_transpose() {
        let mut m = BitMatrix::new(3);
        m.set(0, 2);
        let s = m.symmetric_or();
        assert!(s.get(0, 2));
        assert!(s.get(2, 0));
        assert!(!s.get(1, 0));
    }
}
