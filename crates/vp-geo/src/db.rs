//! The MaxMind stand-in: a `/24 → location` database.

use vp_net::Block24;

use crate::world::CountryId;

/// A geolocated position for a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoLoc {
    pub country: CountryId,
    pub lat: f64,
    pub lon: f64,
}

/// The country of a row the database cannot place: no country table
/// comes near `u16::MAX` entries.
const UNLOCATED: CountryId = CountryId(u16::MAX);

/// Block-level geolocation database.
///
/// Built by the topology generator; consulted by every analysis that bins
/// observations geographically. Blocks the database cannot place are the
/// "no location" row of Table 4 — the paper discards 678 such blocks.
///
/// Storage is three parallel block-sorted columns (22 bytes a row): a
/// lookup is one binary search over a contiguous key column, and the
/// generator's ascending inserts are appends. An unlocatable block still
/// gets a row ([`GeoDb::insert_unlocated`]), so a database fed every block
/// of a table is **row-aligned** with it: [`GeoDb::keys`] is the table's
/// key column and [`GeoDb::coords_of_row`] is an index, not a search.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// Every row's block, strictly ascending.
    blocks: Vec<Block24>,
    /// `(lat, lon)` of every row: its location, or the stand-in position
    /// of a block that has none.
    coords: Vec<(f64, f64)>,
    /// Every row's country, [`UNLOCATED`] for a block that has none.
    countries: Vec<CountryId>,
    /// How many rows are located.
    located: usize,
}

impl GeoDb {
    pub fn new() -> Self {
        GeoDb::default()
    }

    /// An empty database with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        GeoDb {
            blocks: Vec::with_capacity(rows),
            coords: Vec::with_capacity(rows),
            countries: Vec::with_capacity(rows),
            located: 0,
        }
    }

    /// Registers a block's location (last write wins).
    pub fn insert(&mut self, block: Block24, loc: GeoLoc) {
        let GeoLoc { country, lat, lon } = loc;
        self.put(block, (lat, lon), country);
    }

    /// Registers a block that has no location (last write wins): `locate`
    /// answers `None` and `len`/`iter` skip it, but its row exists and
    /// [`GeoDb::coords_of_row`] reads `(lat, lon)` — the position that
    /// stands in for the block's own (the generator passes its PoP's).
    pub fn insert_unlocated(&mut self, block: Block24, lat: f64, lon: f64) {
        self.put(block, (lat, lon), UNLOCATED);
    }

    fn put(&mut self, block: Block24, coords: (f64, f64), country: CountryId) {
        self.located += usize::from(country != UNLOCATED);
        if self.blocks.last() < Some(&block) {
            self.blocks.push(block);
            self.coords.push(coords);
            self.countries.push(country);
            return;
        }
        match self.blocks.binary_search(&block) {
            Ok(i) => {
                if let (Some(c), Some(slot)) = (self.coords.get_mut(i), self.countries.get_mut(i)) {
                    self.located -= usize::from(*slot != UNLOCATED);
                    (*c, *slot) = (coords, country);
                }
            }
            Err(i) => {
                self.blocks.insert(i, block);
                self.coords.insert(i, coords);
                self.countries.insert(i, country);
            }
        }
    }

    /// The location of row `row`, if it has one.
    fn loc_of_row(&self, row: usize) -> Option<GeoLoc> {
        let country = *self.countries.get(row).filter(|&&c| c != UNLOCATED)?;
        let &(lat, lon) = self.coords.get(row)?;
        Some(GeoLoc { country, lat, lon })
    }

    /// Looks a block up; `None` reproduces the paper's unlocatable blocks.
    pub fn locate(&self, block: Block24) -> Option<GeoLoc> {
        self.loc_of_row(self.blocks.binary_search(&block).ok()?)
    }

    /// Number of locatable blocks.
    pub fn len(&self) -> usize {
        self.located
    }

    pub fn is_empty(&self) -> bool {
        self.located == 0
    }

    /// Iterates all `(block, location)` entries in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, GeoLoc)> + '_ {
        let rows = self.blocks.iter().enumerate();
        rows.filter_map(|(row, &block)| Some((block, self.loc_of_row(row)?)))
    }

    /// The block of every row, located or not, ascending.
    pub fn keys(&self) -> &[Block24] {
        &self.blocks
    }

    /// `(lat, lon)` of row `row` of [`GeoDb::keys`]: the block's location,
    /// or its stand-in position if it has none.
    pub fn coords_of_row(&self, row: usize) -> Option<(f64, f64)> {
        self.coords.get(row).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(country: u16, lat: f64, lon: f64) -> GeoLoc {
        GeoLoc {
            country: CountryId(country),
            lat,
            lon,
        }
    }

    #[test]
    fn insert_and_locate() {
        let mut db = GeoDb::new();
        assert!(db.is_empty());
        let b = Block24(100);
        db.insert(b, loc(3, 52.0, 5.0));
        assert_eq!(db.len(), 1);
        let got = db.locate(b).unwrap();
        assert_eq!(got.country, CountryId(3));
        assert!(db.locate(Block24(101)).is_none());
    }

    #[test]
    fn last_write_wins() {
        let mut db = GeoDb::new();
        let b = Block24(7);
        db.insert(b, loc(1, 0.0, 0.0));
        db.insert(b, loc(2, 10.0, 10.0));
        assert_eq!(db.len(), 1);
        assert_eq!(db.locate(b).unwrap().country, CountryId(2));
    }

    /// An unlocated row is invisible to the `Block24`-keyed view and
    /// present in the row view, and both kinds of write obey
    /// last-write-wins and out-of-order insertion.
    #[test]
    fn unlocated_rows_keep_their_row_and_stay_out_of_the_view() {
        let mut db = GeoDb::with_capacity(2);
        db.insert(Block24(30), loc(3, 30.0, 3.0));
        db.insert_unlocated(Block24(40), 40.0, 4.0);
        // Out of order, before both.
        db.insert_unlocated(Block24(10), 10.0, 1.0);
        db.insert(Block24(20), loc(2, 20.0, 2.0));
        assert_eq!(
            db.keys(),
            [Block24(10), Block24(20), Block24(30), Block24(40)]
        );
        assert_eq!((db.len(), db.is_empty()), (2, false));
        assert_eq!(db.locate(Block24(10)), None);
        assert_eq!(db.locate(Block24(40)), None);
        assert_eq!(db.locate(Block24(20)), Some(loc(2, 20.0, 2.0)));
        let view: Vec<_> = db.iter().collect();
        assert_eq!(
            view,
            [
                (Block24(20), loc(2, 20.0, 2.0)),
                (Block24(30), loc(3, 30.0, 3.0))
            ]
        );
        let coords: Vec<_> = (0..5).map(|row| db.coords_of_row(row)).collect();
        let want = [(10.0, 1.0), (20.0, 2.0), (30.0, 3.0), (40.0, 4.0)];
        assert_eq!(coords[..4], want.map(Some));
        assert_eq!(coords[4], None, "past the last row");

        // Last write wins in both directions, without moving a row.
        db.insert(Block24(10), loc(1, 11.0, 1.5));
        db.insert_unlocated(Block24(30), 33.0, 3.5);
        assert_eq!(db.keys().len(), 4);
        assert_eq!(db.len(), 2);
        assert_eq!(db.locate(Block24(10)), Some(loc(1, 11.0, 1.5)));
        assert_eq!(db.locate(Block24(30)), None);
        assert_eq!(db.coords_of_row(0), Some((11.0, 1.5)));
        assert_eq!(db.coords_of_row(2), Some((33.0, 3.5)));

        let mut none = GeoDb::new();
        none.insert_unlocated(Block24(1), 0.0, 0.0);
        assert!(none.is_empty() && none.iter().next().is_none());
    }

    /// A row costs its three columns and no padding: 22 bytes, where a
    /// padded row struct took 28.
    #[test]
    fn a_row_is_22_bytes() {
        fn element<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let db = GeoDb::new();
        assert_eq!(
            element(&db.blocks) + element(&db.coords) + element(&db.countries),
            22
        );
    }

    #[test]
    fn iter_covers_entries() {
        let mut db = GeoDb::new();
        for i in 0..10 {
            db.insert(Block24(i), loc(0, i as f64, 0.0));
        }
        assert_eq!(db.iter().count(), 10);
    }
}
