//! A fixed-capacity bitset over dense `u32` ids.
//!
//! Boolean per-entry state over a dense id space packs 64 ids per word
//! here instead of one `bool` per `BTreeMap` node — the §4 cleaning pass
//! keeps its "hitlist index already answered" set this way, which is part
//! of what lets a million-block scan stay resident.
//!
//! Semantics are deliberately tiny: fixed length at construction, set/get,
//! popcount, an ascending-id iterator, and a disjoint-union merge with the
//! same algebra the shard merges rely on (associative, order-insensitive).

/// A fixed-length bitset; ids run `0..len`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zero bitset with capacity for ids `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable ids (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set addresses no ids at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn set(&mut self, id: usize) {
        assert!(id < self.len, "bit {id} out of range (len {})", self.len);
        if let Some(w) = self.words.get_mut(id / 64) {
            *w |= 1u64 << (id % 64);
        }
    }

    /// Clears bit `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn clear(&mut self, id: usize) {
        assert!(id < self.len, "bit {id} out of range (len {})", self.len);
        if let Some(w) = self.words.get_mut(id / 64) {
            *w &= !(1u64 << (id % 64));
        }
    }

    /// Whether bit `id` is set; ids at or past `len()` read as unset.
    pub fn get(&self, id: usize) -> bool {
        id < self.len
            && self
                .words
                .get(id / 64)
                .is_some_and(|w| (w >> (id % 64)) & 1 == 1)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates set ids in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Absorbs another bitset's bits (set union). Shard columns cover
    /// disjoint id ranges, so for them this is a disjoint union: the
    /// operation is associative and order-insensitive either way (bitwise
    /// OR), which the shard merge relies on.
    ///
    /// # Panics
    /// Panics if the two sets have different lengths.
    pub fn merge(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch in merge");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 4);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
        // Out-of-range reads are false, not panics.
        assert!(!b.get(130));
        assert!(!b.get(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitSet::new(10).set(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitSet::new(200);
        for id in [5usize, 0, 199, 64, 63, 128] {
            b.set(id);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn merge_is_union_and_order_insensitive() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(1);
        a.set(70);
        b.set(2);
        b.set(99);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count_ones(), 4);
        assert!(ab.get(1) && ab.get(2) && ab.get(70) && ab.get(99));
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }
}
