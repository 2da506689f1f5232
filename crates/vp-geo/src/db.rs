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

/// Block-level geolocation database.
///
/// Built by the topology generator; consulted by every analysis that bins
/// observations geographically. Blocks absent from the database are the
/// "no location" row of Table 4 — the paper discards 678 such blocks.
///
/// Storage is two parallel block-sorted columns: a lookup is one binary
/// search over a contiguous key column, and the generator's ascending
/// inserts are appends.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// Located blocks, strictly ascending.
    blocks: Vec<Block24>,
    /// Location of `blocks[i]`, parallel to `blocks`.
    locs: Vec<GeoLoc>,
}

impl GeoDb {
    pub fn new() -> Self {
        GeoDb::default()
    }

    /// Registers a block's location (last write wins).
    pub fn insert(&mut self, block: Block24, loc: GeoLoc) {
        if self.blocks.last() < Some(&block) {
            self.blocks.push(block);
            self.locs.push(loc);
            return;
        }
        match self.blocks.binary_search(&block) {
            Ok(i) => {
                if let Some(slot) = self.locs.get_mut(i) {
                    *slot = loc;
                }
            }
            Err(i) => {
                self.blocks.insert(i, block);
                self.locs.insert(i, loc);
            }
        }
    }

    /// Looks a block up; `None` reproduces the paper's unlocatable blocks.
    pub fn locate(&self, block: Block24) -> Option<GeoLoc> {
        let i = self.blocks.binary_search(&block).ok()?;
        self.locs.get(i).copied()
    }

    /// Number of locatable blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates all `(block, location)` entries in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, GeoLoc)> + '_ {
        self.blocks.iter().copied().zip(self.locs.iter().copied())
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

    #[test]
    fn iter_covers_entries() {
        let mut db = GeoDb::new();
        for i in 0..10 {
            db.insert(Block24(i), loc(0, i as f64, 0.0));
        }
        assert_eq!(db.iter().count(), 10);
    }
}
