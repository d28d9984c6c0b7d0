//! A compact growable bit set used by the incremental transitive closure.
//!
//! The closure maintains one successor and one predecessor set per graph
//! node; execution graphs of litmus programs stay small (tens to a few
//! hundred nodes), so `Vec<u64>` rows give both simplicity and speed. This
//! module is deliberately minimal — it implements exactly the operations the
//! closure algebra in [`crate::closure`] needs.

use std::fmt;

const WORD_BITS: usize = 64;

/// A growable set of small `usize` values backed by a vector of 64-bit words.
///
/// # Examples
///
/// ```
/// use samm_core::bitset::BitSet;
///
/// let mut s = BitSet::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Creates an empty set with room for values below `bits` without
    /// reallocation.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(bits.div_ceil(WORD_BITS)),
        }
    }

    /// Returns `true` when `bit` is in the set.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        let word = bit / WORD_BITS;
        match self.words.get(word) {
            Some(w) => (w >> (bit % WORD_BITS)) & 1 == 1,
            None => false,
        }
    }

    /// Inserts `bit`; returns `true` if the set changed.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        let word = bit / WORD_BITS;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % WORD_BITS);
        let changed = self.words[word] & mask == 0;
        self.words[word] |= mask;
        changed
    }

    /// Removes `bit`; returns `true` if the set changed.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        let word = bit / WORD_BITS;
        match self.words.get_mut(word) {
            Some(w) => {
                let mask = 1u64 << (bit % WORD_BITS);
                let changed = *w & mask != 0;
                *w &= !mask;
                changed
            }
            None => false,
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds every element of `other` to `self`; returns `true` if `self`
    /// changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        // Accumulate newly-set bits word-wise instead of branching per
        // word: the loop body is a straight or/and/xor chain the compiler
        // can vectorize across the row.
        let mut added = 0u64;
        for (dst, &src) in self.words.iter_mut().zip(other.words.iter()) {
            added |= src & !*dst;
            *dst |= src;
        }
        added != 0
    }

    /// Returns `true` when every element of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Keeps only elements also present in `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, dst) in self.words.iter_mut().enumerate() {
            *dst &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Returns the intersection of two sets as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Writes the intersection of two sets into `out`, reusing its
    /// storage (for hot loops that intersect many pairs).
    pub fn intersection_into(&self, other: &BitSet, out: &mut BitSet) {
        out.words.clear();
        out.words.extend(
            self.words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b),
        );
    }

    /// Makes `self` the set encoded by `words`, reusing its storage.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        self.words.clear();
        self.words.extend_from_slice(words);
    }

    /// Returns `true` when `self` and `other` share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Returns the backing words, least-significant word first. Trailing
    /// zero words may or may not be present; callers must not read
    /// meaning into the slice length.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// A borrowed, read-only view of a bit set backed by a word slice —
/// the row type of the arena-layout [`crate::closure::Closure`], where
/// per-node rows are slices of one flat matrix rather than owned
/// allocations. Mirrors the read-only half of [`BitSet`]'s API.
#[derive(Clone, Copy)]
pub struct BitSetRef<'a> {
    words: &'a [u64],
}

impl<'a> BitSetRef<'a> {
    /// Wraps a word slice (least-significant word first).
    pub fn from_words(words: &'a [u64]) -> Self {
        BitSetRef { words }
    }

    /// The backing words. Like [`BitSet::words`], trailing zero words
    /// carry no meaning.
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Returns `true` when `bit` is in the set.
    #[inline]
    pub fn contains(self, bit: usize) -> bool {
        self.words
            .get(bit / WORD_BITS)
            .is_some_and(|w| w >> (bit % WORD_BITS) & 1 != 0)
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements in the set.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Writes the intersection with `other` into `out`, reusing its
    /// storage.
    pub fn intersection_into(self, other: BitSetRef<'_>, out: &mut BitSet) {
        out.words.clear();
        out.words.extend(
            self.words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b),
        );
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(self) -> Iter<'a> {
        Iter {
            words: self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for BitSetRef<'a> {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for bit in iter {
            s.insert(bit);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for bit in iter {
            self.insert(bit);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut s = BitSet::new();
        for bit in [0, 63, 64, 65, 127, 128, 1000] {
            assert!(s.insert(bit));
        }
        for bit in [0, 63, 64, 65, 127, 128, 1000] {
            assert!(s.contains(bit));
        }
        assert_eq!(s.len(), 7);
        assert!(!s.contains(999));
    }

    #[test]
    fn iter_yields_sorted_elements() {
        let s: BitSet = [700usize, 3, 64, 3].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 700]);
    }

    #[test]
    fn union_reports_change() {
        let mut a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [2usize, 300].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 300]);
    }

    #[test]
    fn intersection_and_intersects() {
        let a: BitSet = [1usize, 2, 65].into_iter().collect();
        let b: BitSet = [2usize, 65, 66].into_iter().collect();
        let c: BitSet = [400usize].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 65]);
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn intersect_with_shorter_set_clears_tail() {
        let mut a: BitSet = [1usize, 600].into_iter().collect();
        let b: BitSet = [1usize].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn empty_set_behaves() {
        let s = BitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn debug_is_nonempty() {
        let s: BitSet = [1usize].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        assert_eq!(format!("{:?}", BitSet::new()), "{}");
    }

    /// Exhaustive oracle over a small universe: every pair of subsets of
    /// `{0..6}` (placed at a word-straddling offset) must agree with the
    /// reference `BTreeSet` semantics for union, intersection, and subset.
    #[test]
    fn exhaustive_small_universe_matches_btreeset_oracle() {
        use std::collections::BTreeSet;
        // Offset 61 puts the universe across the first word boundary, so
        // the word-wise fast paths see mixed word counts.
        for offset in [0usize, 61] {
            for a_bits in 0u32..64 {
                for b_bits in 0u32..64 {
                    let expand = |bits: u32| -> BTreeSet<usize> {
                        (0..6)
                            .filter(|i| bits >> i & 1 == 1)
                            .map(|i| i + offset)
                            .collect()
                    };
                    let oa = expand(a_bits);
                    let ob = expand(b_bits);
                    let a: BitSet = oa.iter().copied().collect();
                    let b: BitSet = ob.iter().copied().collect();

                    let mut u = a.clone();
                    let changed = u.union_with(&b);
                    let ou: BTreeSet<usize> = oa.union(&ob).copied().collect();
                    assert_eq!(u.iter().collect::<BTreeSet<_>>(), ou);
                    assert_eq!(changed, ou != oa, "union change flag ({a_bits},{b_bits})");

                    let oi: BTreeSet<usize> = oa.intersection(&ob).copied().collect();
                    assert_eq!(a.intersection(&b).iter().collect::<BTreeSet<_>>(), oi);
                    assert_eq!(a.intersects(&b), !oi.is_empty());

                    assert_eq!(
                        a.is_subset(&b),
                        oa.is_subset(&ob),
                        "subset ({a_bits},{b_bits})"
                    );
                    assert_eq!(a.len(), oa.len());
                }
            }
        }
    }

    #[test]
    fn is_subset_handles_length_mismatch() {
        let small: BitSet = [1usize].into_iter().collect();
        let large: BitSet = [1usize, 700].into_iter().collect();
        assert!(small.is_subset(&large));
        assert!(!large.is_subset(&small));
        assert!(BitSet::new().is_subset(&small));
        assert!(small.is_subset(&small));
    }

    #[test]
    fn words_exposes_backing_storage() {
        let s: BitSet = [0usize, 64].into_iter().collect();
        assert_eq!(s.words(), &[1u64, 1u64]);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        // Two sets with the same elements should compare equal even if one
        // allocated more words at some point.
        let mut a = BitSet::new();
        a.insert(500);
        a.remove(500);
        a.insert(1);
        let b: BitSet = [1usize].into_iter().collect();
        // Note: representation with trailing zeros differs, so we compare via
        // membership rather than Eq here; Eq is word-wise.
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}
