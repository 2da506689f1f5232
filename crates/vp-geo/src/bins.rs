//! Two-degree geographic binning — the coordinate system of the map figures.
//!
//! Figures 2, 3 and 4 of the paper aggregate observations "in two-degree
//! geographic bins", drawing a pie per bin colored by anycast site and sized
//! by block count (or query rate). [`BinnedMap`] produces exactly that data:
//! per-bin, per-key weights.

use std::collections::BTreeMap;

/// A two-degree by two-degree geographic bin.
///
/// `lat_bin = floor(lat / 2)`, `lon_bin = floor(lon / 2)`; valid latitudes
/// give `-45..=44`, longitudes `-90..=89`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GeoBin {
    pub lat_bin: i16,
    pub lon_bin: i16,
}

impl GeoBin {
    /// The bin containing a coordinate.
    pub fn containing(lat: f64, lon: f64) -> GeoBin {
        GeoBin {
            lat_bin: (lat / 2.0).floor() as i16,
            lon_bin: (lon / 2.0).floor() as i16,
        }
    }

    /// Center coordinate of the bin, for plotting.
    pub fn center(self) -> (f64, f64) {
        (
            self.lat_bin as f64 * 2.0 + 1.0,
            self.lon_bin as f64 * 2.0 + 1.0,
        )
    }
}

/// Accumulates per-bin, per-key weights (key = anycast site, typically).
///
/// Storage is ordered end to end (bin, then key), so every iteration —
/// and therefore every figure built from one — is deterministic.
#[derive(Debug, Clone)]
pub struct BinnedMap<K: Ord + Copy> {
    bins: BTreeMap<GeoBin, BTreeMap<K, f64>>,
}

impl<K: Ord + Copy> Default for BinnedMap<K> {
    fn default() -> Self {
        BinnedMap {
            bins: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> BinnedMap<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` for `key` at the bin containing `(lat, lon)`.
    pub fn add(&mut self, lat: f64, lon: f64, key: K, weight: f64) {
        *self
            .bins
            .entry(GeoBin::containing(lat, lon))
            .or_default()
            .entry(key)
            .or_insert(0.0) += weight;
    }

    /// Number of non-empty bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Total weight across all bins and keys.
    pub fn total(&self) -> f64 {
        self.bins.values().flat_map(|m| m.values()).copied().sum()
    }

    /// Total weight per key, across all bins, sorted by key.
    pub fn totals_by_key(&self) -> BTreeMap<K, f64> {
        let mut out = BTreeMap::new();
        for m in self.bins.values() {
            for (k, w) in m {
                *out.entry(*k).or_insert(0.0) += *w;
            }
        }
        out
    }

    /// Rows for a map figure: `(bin, per-key weights sorted by key)`,
    /// ordered by bin. The storage is already ordered, so this is a copy.
    pub fn rows(&self) -> Vec<(GeoBin, BTreeMap<K, f64>)> {
        self.bins.iter().map(|(bin, m)| (*bin, m.clone())).collect()
    }

    /// The maximum single-bin total weight (used to scale the figure's
    /// circle legend, e.g. Fig. 2b's "185k+" top bucket).
    pub fn max_bin_total(&self) -> f64 {
        self.bins
            .values()
            .map(|m| m.values().sum::<f64>())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_floors_correctly() {
        assert_eq!(
            GeoBin::containing(52.3, 5.2),
            GeoBin {
                lat_bin: 26,
                lon_bin: 2
            }
        );
        assert_eq!(
            GeoBin::containing(-0.1, -0.1),
            GeoBin {
                lat_bin: -1,
                lon_bin: -1
            }
        );
        assert_eq!(
            GeoBin::containing(0.0, 0.0),
            GeoBin {
                lat_bin: 0,
                lon_bin: 0
            }
        );
    }

    #[test]
    fn center_is_inside_bin() {
        let b = GeoBin::containing(51.9, 4.4);
        let (lat, lon) = b.center();
        assert_eq!(GeoBin::containing(lat, lon), b);
    }

    #[test]
    fn accumulation_and_totals() {
        let mut m: BinnedMap<u8> = BinnedMap::new();
        m.add(52.0, 5.0, 1, 2.0);
        m.add(52.5, 5.5, 1, 3.0); // same bin
        m.add(52.5, 5.5, 2, 1.0); // same bin, other key
        m.add(-10.0, -60.0, 2, 4.0); // different bin
        assert_eq!(m.bin_count(), 2);
        assert_eq!(m.total(), 10.0);
        let per_key = m.totals_by_key();
        assert_eq!(per_key[&1], 5.0);
        assert_eq!(per_key[&2], 5.0);
        assert_eq!(m.max_bin_total(), 6.0);
    }

    #[test]
    fn rows_are_sorted_and_complete() {
        let mut m: BinnedMap<u8> = BinnedMap::new();
        m.add(10.0, 10.0, 0, 1.0);
        m.add(-10.0, 10.0, 0, 1.0);
        m.add(10.0, -10.0, 1, 1.0);
        let rows = m.rows();
        assert_eq!(rows.len(), 3);
        let mut sorted = rows.clone();
        sorted.sort_by_key(|(b, _)| *b);
        assert_eq!(rows, sorted);
    }

    #[test]
    fn empty_map() {
        let m: BinnedMap<u8> = BinnedMap::new();
        assert_eq!(m.bin_count(), 0);
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.max_bin_total(), 0.0);
        assert!(m.rows().is_empty());
    }
}
