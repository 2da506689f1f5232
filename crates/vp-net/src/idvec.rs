//! Dense tables keyed by typed ids ([`IdVec`]).

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A dense id: the row it names in every table over its id space.
pub trait Id: Copy + fmt::Debug {
    /// The id of row `index`.
    fn from_index(index: usize) -> Self;
    /// The row this id names.
    fn index(self) -> usize;
}

/// A table with one row per id of a dense id space, indexed by that id
/// type alone: a per-AS table takes an `Asn`, never a `PopId` or a bare
/// `usize`. `table[id]` is the workspace's one out-of-range panic, audited
/// once here and naming the id (an id minted by another world is a bug);
/// [`IdVec::lookup`] is the lookup whose miss means something. It is not
/// called `get`: clippy's `indexing_slicing` lints every `[]` on a type
/// with an inherent `get`, which would restate this audit at each call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdVec<I, T> {
    rows: Vec<T>,
    ids: PhantomData<fn(I)>,
}

impl<I: Id, T> IdVec<I, T> {
    /// Number of ids in the space.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row of `id`, if it is one of this space.
    pub fn lookup(&self, id: I) -> Option<&T> {
        self.rows.get(id.index())
    }

    /// The row of `id` to write, if it is one of this space.
    pub fn lookup_mut(&mut self, id: I) -> Option<&mut T> {
        self.rows.get_mut(id.index())
    }

    /// The rows in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.rows.iter()
    }

    /// Every id of the space, ascending.
    pub fn ids(&self) -> impl Iterator<Item = I> {
        (0..self.rows.len()).map(I::from_index)
    }

    /// `(id, row)` pairs in id order.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.ids().zip(&self.rows)
    }

    /// A table over the same id space, row `id` being `f(&self[id])`.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> IdVec<I, U> {
        self.rows.iter().map(f).collect::<Vec<_>>().into()
    }

    /// The rows as a slice, position `id.index()` holding row `id`.
    pub fn as_slice(&self) -> &[T] {
        &self.rows
    }
}

/// Row `i` of `rows` becomes the row of `I::from_index(i)`.
impl<I, T> From<Vec<T>> for IdVec<I, T> {
    fn from(rows: Vec<T>) -> Self {
        IdVec {
            rows,
            ids: PhantomData,
        }
    }
}

impl<I: Id, T> Index<I> for IdVec<I, T> {
    type Output = T;

    #[track_caller]
    fn index(&self, id: I) -> &T {
        match self.rows.get(id.index()) {
            Some(row) => row,
            None => out_of_range(id, self.rows.len()),
        }
    }
}

impl<I: Id, T> IndexMut<I> for IdVec<I, T> {
    #[track_caller]
    fn index_mut(&mut self, id: I) -> &mut T {
        let len = self.rows.len();
        match self.rows.get_mut(id.index()) {
            Some(row) => row,
            None => out_of_range(id, len),
        }
    }
}

#[track_caller]
#[expect(
    clippy::panic,
    reason = "documented contract of `IdVec`'s index: every id is minted with the table it keys, so a miss is a bug and must fail loudly, by name."
)]
fn out_of_range(id: impl fmt::Debug, len: usize) -> ! {
    panic!("{id:?} is not an id of this table of {len} rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asn;

    fn table() -> IdVec<Asn, u32> {
        vec![10, 11, 12].into()
    }

    #[test]
    fn construction_sizes_the_table_to_its_id_space() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.ids().collect::<Vec<_>>(), [Asn(0), Asn(1), Asn(2)]);
        let scratch = t.map(|_| u32::MAX);
        assert_eq!(
            scratch.ids().collect::<Vec<_>>(),
            t.ids().collect::<Vec<_>>()
        );
        assert_eq!(t.iter_enumerated().last(), Some((Asn(2), &12)));
        assert!(IdVec::<Asn, u32>::from(Vec::new()).is_empty());
    }

    #[test]
    fn rows_are_read_and_written_by_id() {
        let mut t = table();
        t[Asn(1)] += 5;
        assert_eq!(t[Asn(1)], 16);
        assert_eq!(t.lookup(Asn(2)), Some(&12));
        *t.lookup_mut(Asn(0)).unwrap() = 9;
        assert_eq!(t.as_slice(), [9, 16, 12]);
    }

    #[test]
    fn lookup_misses_past_the_end() {
        assert_eq!(table().lookup(Asn(3)), None);
        assert_eq!(table().lookup(Asn(u32::MAX)), None);
        assert_eq!(table().lookup_mut(Asn(3)), None);
    }

    #[test]
    #[should_panic(expected = "AS3 is not an id of this table of 3 rows")]
    fn an_id_past_the_end_panics_by_name() {
        let _ = table()[Asn(3)];
    }

    #[test]
    #[should_panic(expected = "AS7 is not an id of this table of 3 rows")]
    fn a_write_past_the_end_panics_by_name() {
        table()[Asn(7)] = 0;
    }
}
