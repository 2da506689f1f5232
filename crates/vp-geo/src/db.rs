//! The MaxMind stand-in: a `/24 → location` database.

use serde::Serialize;
use vp_net::Block24;

use crate::world::CountryId;

/// A geolocated position for a block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GeoLoc {
    pub country: CountryId,
    pub lat: f64,
    pub lon: f64,
}

/// One stored row: a [`GeoLoc`] plus the unlocated mark, which lives in
/// the padding a `GeoLoc` already has — a row is 24 bytes either way.
#[derive(Debug, Clone, Copy)]
struct Row {
    lat: f64,
    lon: f64,
    country: CountryId,
    /// `false` for a block the database knows of but cannot place:
    /// `lat`/`lon` then hold its stand-in position and `country` nothing.
    located: bool,
}

/// Block-level geolocation database.
///
/// Built by the topology generator; consulted by every analysis that bins
/// observations geographically. Blocks the database cannot place are the
/// "no location" row of Table 4 — the paper discards 678 such blocks.
///
/// Storage is two parallel block-sorted columns: a lookup is one binary
/// search over a contiguous key column, and the generator's ascending
/// inserts are appends. An unlocatable block still gets a row
/// ([`GeoDb::insert_unlocated`]), so a database fed every block of a
/// table is **row-aligned** with it: [`GeoDb::keys`] is the table's key
/// column and [`GeoDb::coords_of_row`] is an index, not a search.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// Every row's block, strictly ascending.
    blocks: Vec<Block24>,
    /// Row of `blocks[i]`, parallel to `blocks`.
    rows: Vec<Row>,
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
            rows: Vec::with_capacity(rows),
            located: 0,
        }
    }

    /// Registers a block's location (last write wins).
    pub fn insert(&mut self, block: Block24, loc: GeoLoc) {
        let GeoLoc { country, lat, lon } = loc;
        self.put(block, Row { lat, lon, country, located: true });
    }

    /// Registers a block that has no location (last write wins): `locate`
    /// answers `None` and `len`/`iter` skip it, but its row exists and
    /// [`GeoDb::coords_of_row`] reads `(lat, lon)` — the position that
    /// stands in for the block's own (the generator passes its PoP's).
    pub fn insert_unlocated(&mut self, block: Block24, lat: f64, lon: f64) {
        self.put(block, Row { lat, lon, country: CountryId(0), located: false });
    }

    fn put(&mut self, block: Block24, row: Row) {
        self.located += usize::from(row.located);
        if self.blocks.last() < Some(&block) {
            self.blocks.push(block);
            self.rows.push(row);
            return;
        }
        match self.blocks.binary_search(&block) {
            Ok(i) => {
                if let Some(slot) = self.rows.get_mut(i) {
                    self.located -= usize::from(slot.located);
                    *slot = row;
                }
            }
            Err(i) => {
                self.blocks.insert(i, block);
                self.rows.insert(i, row);
            }
        }
    }

    /// Looks a block up; `None` reproduces the paper's unlocatable blocks.
    pub fn locate(&self, block: Block24) -> Option<GeoLoc> {
        let i = self.blocks.binary_search(&block).ok()?;
        self.rows.get(i).and_then(Row::loc)
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
        let rows = self.blocks.iter().zip(&self.rows);
        rows.filter_map(|(block, row)| Some((*block, row.loc()?)))
    }

    /// The block of every row, located or not, ascending.
    pub fn keys(&self) -> &[Block24] {
        &self.blocks
    }

    /// `(lat, lon)` of row `row` of [`GeoDb::keys`]: the block's location,
    /// or its stand-in position if it has none.
    pub fn coords_of_row(&self, row: usize) -> Option<(f64, f64)> {
        self.rows.get(row).map(|r| (r.lat, r.lon))
    }
}

impl Row {
    fn loc(&self) -> Option<GeoLoc> {
        self.located.then_some(GeoLoc {
            country: self.country,
            lat: self.lat,
            lon: self.lon,
        })
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
        assert_eq!(std::mem::size_of::<Row>(), std::mem::size_of::<GeoLoc>());
        let mut db = GeoDb::with_capacity(2);
        db.insert(Block24(30), loc(3, 30.0, 3.0));
        db.insert_unlocated(Block24(40), 40.0, 4.0);
        // Out of order, before both.
        db.insert_unlocated(Block24(10), 10.0, 1.0);
        db.insert(Block24(20), loc(2, 20.0, 2.0));
        assert_eq!(db.keys(), [Block24(10), Block24(20), Block24(30), Block24(40)]);
        assert_eq!((db.len(), db.is_empty()), (2, false));
        assert_eq!(db.locate(Block24(10)), None);
        assert_eq!(db.locate(Block24(40)), None);
        assert_eq!(db.locate(Block24(20)), Some(loc(2, 20.0, 2.0)));
        let view: Vec<_> = db.iter().collect();
        assert_eq!(view, [(Block24(20), loc(2, 20.0, 2.0)), (Block24(30), loc(3, 30.0, 3.0))]);
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

    #[test]
    fn iter_covers_entries() {
        let mut db = GeoDb::new();
        for i in 0..10 {
            db.insert(Block24(i), loc(0, i as f64, 0.0));
        }
        assert_eq!(db.iter().count(), 10);
    }
}
