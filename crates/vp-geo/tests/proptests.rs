//! Property-based tests of the geolocation substrate.

use proptest::prelude::*;
use vp_geo::{distance_km, BinnedMap, GeoBin, GeoDb, GeoLoc};

proptest! {
    /// Binning is a function: equal coordinates map to equal bins, and the
    /// bin center lands back in the same bin.
    #[test]
    fn bin_center_roundtrip(lat in -89.9f64..89.9, lon in -179.9f64..179.9) {
        let bin = GeoBin::containing(lat, lon);
        let (clat, clon) = bin.center();
        prop_assert_eq!(GeoBin::containing(clat, clon), bin);
        // 2-degree bins: the coordinate is within 2 degrees of the center.
        prop_assert!((clat - lat).abs() <= 2.0);
        prop_assert!((clon - lon).abs() <= 2.0);
    }

    /// Accumulated totals equal the sum of inserted weights, regardless of
    /// where the points fall.
    #[test]
    fn binned_map_conserves_weight(
        points in prop::collection::vec(
            (-89.9f64..89.9, -179.9f64..179.9, 0u8..4, 0.0f64..100.0),
            0..100,
        ),
    ) {
        let mut m: BinnedMap<u8> = BinnedMap::new();
        let mut expected = 0.0;
        for (lat, lon, key, w) in &points {
            m.add(*lat, *lon, *key, *w);
            expected += w;
        }
        prop_assert!((m.total() - expected).abs() < 1e-6);
        let by_key: f64 = m.totals_by_key().values().sum();
        prop_assert!((by_key - expected).abs() < 1e-6);
        prop_assert!(m.max_bin_total() <= expected + 1e-9);
        // Rows cover every bin exactly once.
        prop_assert_eq!(m.rows().len(), m.bin_count());
    }

    /// Distance is a semi-metric: non-negative, symmetric, zero on equal
    /// points, bounded by half the Earth's circumference.
    #[test]
    fn distance_semi_metric(
        lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
        lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0,
    ) {
        let d = distance_km(lat1, lon1, lat2, lon2);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= 6371.0 * std::f64::consts::PI + 1.0);
        let back = distance_km(lat2, lon2, lat1, lon1);
        prop_assert!((d - back).abs() < 1e-6);
        prop_assert!(distance_km(lat1, lon1, lat1, lon1) < 1e-9);
    }

    /// The columnar GeoDb is a `BTreeMap` under arbitrary insert order
    /// with repeats, located and unlocated writes mixed: last write wins,
    /// `iter` is ascending over the located entries, `locate` agrees on
    /// located, unlocated and absent blocks alike, and the row view holds
    /// every written block with the coordinates last written for it.
    #[test]
    fn geodb_map_semantics(
        inserts in prop::collection::vec((0u32..500, 0u16..40, -80.0f64..80.0, any::<bool>()), 0..200),
    ) {
        let mut db = GeoDb::new();
        let mut model = std::collections::BTreeMap::new();
        for (block, country, lat, located) in &inserts {
            let loc = GeoLoc { country: vp_geo::CountryId(*country), lat: *lat, lon: 0.0 };
            if *located {
                db.insert(vp_net::Block24(*block), loc);
            } else {
                db.insert_unlocated(vp_net::Block24(*block), loc.lat, loc.lon);
            }
            model.insert(vp_net::Block24(*block), (located.then_some(loc), (loc.lat, loc.lon)));
        }
        let located: Vec<_> = model.iter().filter_map(|(b, (l, _))| Some((*b, (*l)?))).collect();
        prop_assert_eq!(db.len(), located.len());
        prop_assert_eq!(db.is_empty(), located.is_empty());
        prop_assert_eq!(db.iter().collect::<Vec<_>>(), located);
        for block in (0..500).map(vp_net::Block24) {
            prop_assert_eq!(db.locate(block), model.get(&block).and_then(|(l, _)| *l));
        }
        prop_assert_eq!(db.keys(), model.keys().copied().collect::<Vec<_>>());
        for (row, (_, coords)) in model.values().enumerate() {
            prop_assert_eq!(db.coords_of_row(row), Some(*coords));
        }
        prop_assert_eq!(db.coords_of_row(model.len()), None);
    }
}
