//! Deterministic active-set scheduling primitive.
//!
//! An [`ActiveSet`] is a set of small component indices (routers, home
//! banks, tiles, cores) that can possibly make progress this cycle.
//! Subsystems update membership on enqueue/dequeue *edges* — a flit
//! arrives, a transaction starts, a queue drains — so a quiet component
//! costs zero per-tick work even while its neighbours are busy.
//!
//! The contract that makes active-set iteration bit-identical to a
//! dense scan (see DESIGN.md §8 "Active sets") is:
//!
//! 1. **Superset invariant**: a component that can transition this
//!    cycle is in the set. The converse need not hold — stale members
//!    are allowed as long as visiting them is a no-op (the dense scan
//!    skips them with the same guard).
//! 2. **Deterministic order**: iteration visits members in ascending
//!    index order, exactly the order of the dense `for i in 0..n` loop.
//!
//! The set is a plain bitset, one bit per index: `insert`, `remove` and
//! `contains` are one word operation each, and iteration walks the
//! words with `trailing_zeros`, which yields ascending order without a
//! sort. A walk costs `n / 64` word loads plus one step per member (16
//! words at 1024 tiles). The tick paths walk a set while changing it
//! ([`ActiveSet::word_members`] copies one word at a time), so no work
//! list is ever materialised. No operation allocates, which keeps the
//! simulator's zero-allocation tick property (`tests/zero_alloc.rs`).

/// A deterministically-ordered set of component indices `0..n`.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    /// Membership bits, index `i` at bit `i % 64` of word `i / 64`.
    words: Vec<u64>,
    /// Size of the index domain (indices are `0..n`).
    n: usize,
    /// Member count.
    len: usize,
}

impl ActiveSet {
    /// An empty set over the index domain `0..n`.
    pub fn new(n: usize) -> ActiveSet {
        assert!(n <= u32::MAX as usize, "index domain too large");
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            n,
            len: 0,
        }
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no member is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `i` is a live member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.n, "index {i} outside 0..{}", self.n);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Inserts `i`; a no-op if already present.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.n, "index {i} outside 0..{}", self.n);
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len += (*w & bit == 0) as usize;
        *w |= bit;
    }

    /// Removes `i`; a no-op if absent.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.n, "index {i} outside 0..{}", self.n);
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len -= (*w & bit != 0) as usize;
        *w &= !bit;
    }

    /// The membership bits, index `i` at bit `i % 64` of word `i / 64`
    /// (read-only: for callers that combine several sets word by word).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of 64-index words the domain spans.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The live members among indices `64 * w..64 * w + 64`, ascending.
    ///
    /// The iterator owns a copy of the word, so a caller walking the
    /// set word by word may [`insert`](Self::insert)/
    /// [`remove`](Self::remove) freely as it goes: members of the word
    /// being walked are visited as they stood when its walk began, and
    /// later words as they stand when their turn comes — ascending
    /// order, no scratch list. (The tick paths only ever remove the
    /// member in hand, so for them the walk is an exact snapshot.)
    #[inline]
    pub fn word_members(&self, w: usize) -> WordMembers {
        WordMembers {
            base: w * 64,
            bits: self.words[w],
        }
    }

    /// Visits every live member once, in ascending index order.
    pub fn for_each_live(&self, mut f: impl FnMut(usize)) {
        for w in 0..self.num_words() {
            self.word_members(w).for_each(&mut f);
        }
    }
}

/// The members of one word of an [`ActiveSet`], ascending
/// ([`ActiveSet::word_members`]).
#[derive(Clone, Debug)]
pub struct WordMembers {
    base: usize,
    bits: u64,
}

impl Iterator for WordMembers {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(8);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(1);
        s.insert(3); // dedup
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(1) && !s.contains(0));
        s.remove(3);
        s.remove(3); // absent: no-op
        assert_eq!(s.len(), 1);
        assert!(!s.contains(3));
    }

    fn members(s: &ActiveSet) -> Vec<usize> {
        let mut out = Vec::new();
        s.for_each_live(|i| out.push(i));
        out
    }

    #[test]
    fn iteration_is_ascending_and_deduplicated() {
        let mut s = ActiveSet::new(16);
        for i in [9, 2, 11, 5, 2] {
            s.insert(i);
        }
        s.remove(5);
        s.insert(5);
        assert_eq!(members(&s), vec![2, 5, 9, 11]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn a_word_walk_survives_mutation_and_sees_later_words_live() {
        let mut s = ActiveSet::new(130);
        for i in [0, 5, 63, 64, 129] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        for w in 0..s.num_words() {
            for i in s.word_members(w) {
                seen.push(i);
                s.remove(i);
                if i == 0 {
                    s.insert(6); // this word: walked as it stood
                    s.remove(64); // a later word: gone by its turn
                    s.insert(70);
                }
            }
        }
        assert_eq!(seen, vec![0, 5, 63, 70, 129]);
        assert_eq!(members(&s), vec![6]);
    }

    #[test]
    fn for_each_live_skips_removed() {
        let mut s = ActiveSet::new(8);
        s.insert(6);
        s.insert(4);
        s.insert(1);
        s.remove(4);
        let mut seen = Vec::new();
        s.for_each_live(|i| seen.push(i));
        assert_eq!(seen, vec![1, 6]);
    }

    #[test]
    #[should_panic(expected = "outside 0..65")]
    fn index_past_the_domain_is_rejected_even_inside_the_last_word() {
        ActiveSet::new(65).insert(65);
    }
}
