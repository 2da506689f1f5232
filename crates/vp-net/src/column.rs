//! A block-keyed column pair: the one sorted-columns table behind the
//! catchment map (block → site), the RTT table (block → nanoseconds) and
//! the monitor's origins (block → origin AS).
//!
//! Storage is two parallel columns — strictly ascending [`Block24`]s and
//! one value per block — so a lookup is a binary search over one hot `u32`
//! column, and comparing or combining two tables is one linear
//! [`BlockColumn::join`]. The sort, the keep-last rule for duplicate
//! blocks, the merge-join and the shard merge live here once; the tables
//! built on it add only what their value type needs.

use std::cmp::Ordering;

use crate::Block24;

/// Sorted block column plus a parallel value column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockColumn<V> {
    /// Mapped blocks, strictly ascending.
    blocks: Vec<Block24>,
    /// Value of `blocks[i]`, parallel to `blocks`.
    values: Vec<V>,
}

/// One row of [`BlockColumn::join`]: a block held by the left table only,
/// by the right table only, or by both (left value, then right value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Joined<A, B = A> {
    Left(Block24, A),
    Right(Block24, B),
    Both(Block24, A, B),
}

impl<V> Default for BlockColumn<V> {
    fn default() -> Self {
        BlockColumn {
            blocks: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Collecting `(block, value)` pairs is [`BlockColumn::from_pairs`].
impl<V: Copy> FromIterator<(Block24, V)> for BlockColumn<V> {
    fn from_iter<I: IntoIterator<Item = (Block24, V)>>(pairs: I) -> Self {
        Self::from_pairs(pairs)
    }
}

impl<V: Copy> BlockColumn<V> {
    /// Builds a table from `(block, value)` pairs in any order; later pairs
    /// win on duplicate blocks, matching map-insert semantics.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Block24, V)>) -> Self {
        let (blocks, values) = pairs.into_iter().unzip();
        Self::from_columns(blocks, values)
    }

    /// Builds a table from parallel columns in any order: already strictly
    /// ascending columns are taken as they are, anything else is sorted by
    /// block with the last row of each block kept.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn from_columns(mut blocks: Vec<Block24>, mut values: Vec<V>) -> Self {
        assert_eq!(blocks.len(), values.len(), "columns must be parallel");
        let ascending = blocks.iter().zip(blocks.iter().skip(1)).all(|(a, b)| a < b);
        if !ascending {
            sort_by_block(&mut blocks, &mut values);
            // The sort is stable, so the last row of a run of equal blocks
            // is the last one given: keep each block's last value, then
            // collapse the (equal) blocks of the run.
            let mut next = blocks.iter().skip(1);
            let mut current = blocks.iter();
            values.retain(|_| current.next() != next.next());
            blocks.dedup();
        }
        BlockColumn { blocks, values }
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The value recorded for `block`, if any.
    pub fn get(&self, block: Block24) -> Option<V> {
        let row = self.blocks.binary_search(&block).ok()?;
        self.values.get(row).copied()
    }

    /// The value column, in ascending block order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Iterates `(block, value)` in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, V)> + '_ {
        self.blocks.iter().copied().zip(self.values.iter().copied())
    }

    /// Merge-joins two tables on block: one linear two-pointer pass over
    /// the sorted columns, yielding every block of either table once, in
    /// ascending order. Diffs and merges are folds over this.
    pub fn join<'a, W: Copy>(
        &'a self,
        other: &'a BlockColumn<W>,
    ) -> impl Iterator<Item = Joined<V, W>> + 'a {
        let mut left = self.iter().peekable();
        let mut right = other.iter().peekable();
        std::iter::from_fn(move || {
            let order = match (left.peek(), right.peek()) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            match order {
                Ordering::Less => left.next().map(|(b, v)| Joined::Left(b, v)),
                Ordering::Greater => right.next().map(|(b, v)| Joined::Right(b, v)),
                Ordering::Equal => left
                    .next()
                    .zip(right.next())
                    .map(|((b, ours), (_, theirs))| Joined::Both(b, ours, theirs)),
            }
        })
    }

    /// Absorbs another table's entries; `other` wins where both hold a
    /// block, like a map insert. Over disjoint inputs — the per-shard
    /// tables of one partitioned scan — the merge is associative and
    /// order-insensitive, so any shard merge order yields the same table.
    pub fn merge(&mut self, other: &BlockColumn<V>) {
        if other.is_empty() {
            return;
        }
        // Fast path: the common shard-merge case appends a strictly later
        // block range — a plain column extend, no re-sort.
        if self.blocks.last() < other.blocks.first() {
            self.blocks.extend_from_slice(&other.blocks);
            self.values.extend_from_slice(&other.values);
            return;
        }
        let rows = self.len() + other.len();
        let (mut blocks, mut values) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        for row in self.join(other) {
            let (Joined::Left(b, v) | Joined::Right(b, v) | Joined::Both(b, _, v)) = row;
            blocks.push(b);
            values.push(v);
        }
        *self = BlockColumn { blocks, values };
    }
}

/// Stable sort of the parallel columns by block: an LSD radix sort, so it
/// is linear in the rows, and its only memory is one exact-size second
/// copy of the columns. A byte that every block shares costs one counting
/// pass and no move.
#[expect(
    clippy::indexing_slicing,
    reason = "a digit is below 256, and the prefix sums place each of the n rows in its own slot below n."
)]
fn sort_by_block<V: Copy>(blocks: &mut Vec<Block24>, values: &mut Vec<V>) {
    let mut moved_blocks = blocks.clone();
    let mut moved_values = values.clone();
    for byte in 0..4 {
        let digit = |b: &Block24| usize::from(b.0.to_le_bytes()[byte]);
        let mut slots = [0usize; 256];
        for b in blocks.iter() {
            slots[digit(b)] += 1;
        }
        if slots.contains(&blocks.len()) {
            continue;
        }
        let mut start = 0;
        for slot in &mut slots {
            start += std::mem::replace(slot, start);
        }
        for (b, v) in blocks.iter().zip(values.iter()) {
            let slot = &mut slots[digit(b)];
            moved_blocks[*slot] = *b;
            moved_values[*slot] = *v;
            *slot += 1;
        }
        std::mem::swap(blocks, &mut moved_blocks);
        std::mem::swap(values, &mut moved_values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(u32, u8)]) -> BlockColumn<u8> {
        BlockColumn::from_pairs(rows.iter().map(|&(b, v)| (Block24(b), v)))
    }

    fn rows(t: &BlockColumn<u8>) -> Vec<(u32, u8)> {
        t.iter().map(|(b, v)| (b.0, v)).collect()
    }

    #[test]
    fn from_pairs_sorts_across_every_radix_byte() {
        // Blocks that differ only in one byte each, plus full-width ones,
        // in descending order with a duplicate at both ends of the input.
        let blocks = [
            u32::MAX,
            1 << 24,
            1 << 16,
            1 << 8,
            1,
            0,
            0xff_ff00,
            u32::MAX,
        ];
        let pairs: Vec<(u32, u8)> = blocks.iter().zip(0u8..).map(|(&b, i)| (b, i)).collect();
        let t = table(&pairs);
        let mut sorted = blocks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(t.iter().map(|(b, _)| b.0).collect::<Vec<_>>(), sorted);
        assert_eq!(t.get(Block24(u32::MAX)), Some(7)); // last wins
        assert_eq!(t.get(Block24(1 << 16)), Some(2));
    }

    #[test]
    fn join_yields_every_block_once_in_order() {
        let a = table(&[(1, 0), (2, 0), (3, 1), (9, 2)]);
        let b = table(&[(2, 1), (3, 1), (4, 0)]);
        let joined: Vec<Joined<u8>> = a.join(&b).collect();
        assert_eq!(
            joined,
            vec![
                Joined::Left(Block24(1), 0),
                Joined::Both(Block24(2), 0, 1),
                Joined::Both(Block24(3), 1, 1),
                Joined::Right(Block24(4), 0),
                Joined::Left(Block24(9), 2),
            ]
        );
        let empty = BlockColumn::<u8>::default();
        assert_eq!(empty.join(&empty).count(), 0);
        assert_eq!(a.join(&empty).count(), 4);
        assert_eq!(empty.join(&b).count(), 3);
    }

    #[test]
    fn merge_interleaved_appended_and_overlapping() {
        let mut a = table(&[(1, 0), (5, 1)]);
        a.merge(&table(&[(3, 2), (7, 3)])); // interleaved: join path
        a.merge(&table(&[(9, 1), (11, 0)])); // strictly later: append fast path
        a.merge(&BlockColumn::default());
        assert_eq!(
            rows(&a),
            vec![(1, 0), (3, 2), (5, 1), (7, 3), (9, 1), (11, 0)]
        );
        a.merge(&table(&[(5, 9), (6, 4)])); // other wins like map insert
        assert_eq!(a.get(Block24(5)), Some(9));
        assert_eq!(a.len(), 7);
    }
}
