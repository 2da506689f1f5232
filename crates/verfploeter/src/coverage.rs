//! Coverage accounting (Table 4) and geographic map data (Figs. 2–3).

use std::collections::BTreeSet;

use vp_bgp::SiteId;
use vp_geo::{BinnedMap, GeoDb};
use vp_hitlist::Hitlist;
use vp_net::Block24;

use crate::catchment::CatchmentMap;

/// The rows of Table 4: coverage of the same anycast service from the
/// perspective of the two measurement systems.
#[derive(Debug, Clone, Copy)]
pub struct CoverageReport {
    // Atlas, in VPs.
    pub atlas_vps_considered: u64,
    pub atlas_vps_responding: u64,
    // Atlas, in /24 blocks.
    pub atlas_blocks_considered: u64,
    pub atlas_blocks_responding: u64,
    pub atlas_blocks_geolocatable: u64,
    // Verfploeter, in /24 blocks.
    pub vp_blocks_considered: u64,
    pub vp_blocks_responding: u64,
    pub vp_blocks_no_location: u64,
    pub vp_blocks_geolocatable: u64,
    // Overlap.
    pub atlas_unique_blocks: u64,
    pub vp_unique_blocks: u64,
    pub shared_blocks: u64,
}
serde_json::impl_serialize! { CoverageReport {
    atlas_vps_considered, atlas_vps_responding, atlas_blocks_considered, atlas_blocks_responding,
    atlas_blocks_geolocatable, vp_blocks_considered, vp_blocks_responding, vp_blocks_no_location,
    vp_blocks_geolocatable, atlas_unique_blocks, vp_unique_blocks, shared_blocks,
} }

impl CoverageReport {
    /// The paper's headline: how many times more blocks Verfploeter sees.
    pub fn coverage_ratio(&self) -> f64 {
        self.vp_blocks_responding as f64 / self.atlas_blocks_responding.max(1) as f64
    }

    /// Fraction of Atlas blocks also seen by Verfploeter (~77% in Table 4).
    pub fn atlas_overlap_fraction(&self) -> f64 {
        self.shared_blocks as f64 / self.atlas_blocks_responding.max(1) as f64
    }
}

/// Inputs describing one Atlas scan for coverage accounting, decoupled from
/// the `vp-atlas` crate (which depends on this one for nothing — the
/// experiment binaries adapt its result type into this struct).
#[derive(Debug, Clone)]
pub struct AtlasCoverage {
    pub vps_considered: u64,
    pub vps_responding: u64,
    pub blocks_considered: u64,
    /// Blocks with at least one responding VP.
    pub responding_blocks: BTreeSet<Block24>,
}

/// Computes Table 4 from one Verfploeter scan and one Atlas scan of the
/// same service.
pub fn coverage(
    catchments: &CatchmentMap,
    hitlist: &Hitlist,
    geodb: &GeoDb,
    atlas: &AtlasCoverage,
) -> CoverageReport {
    let vp_responding: BTreeSet<Block24> = catchments.iter().map(|(b, _)| b).collect();
    let vp_no_location = vp_responding
        .iter()
        .filter(|b| geodb.locate(**b).is_none())
        .count() as u64;
    let shared = atlas
        .responding_blocks
        .iter()
        .filter(|b| vp_responding.contains(*b))
        .count() as u64;
    let atlas_responding = atlas.responding_blocks.len() as u64;
    let atlas_geolocatable = atlas
        .responding_blocks
        .iter()
        .filter(|b| geodb.locate(**b).is_some())
        .count() as u64;

    CoverageReport {
        atlas_vps_considered: atlas.vps_considered,
        atlas_vps_responding: atlas.vps_responding,
        atlas_blocks_considered: atlas.blocks_considered,
        atlas_blocks_responding: atlas_responding,
        atlas_blocks_geolocatable: atlas_geolocatable,
        vp_blocks_considered: hitlist.len() as u64,
        vp_blocks_responding: vp_responding.len() as u64,
        vp_blocks_no_location: vp_no_location,
        vp_blocks_geolocatable: vp_responding.len() as u64 - vp_no_location,
        atlas_unique_blocks: atlas_responding - shared,
        vp_unique_blocks: vp_responding.len() as u64 - shared,
        shared_blocks: shared,
    }
}

/// Bins a catchment map geographically: per 2° bin, blocks per site — the
/// data behind Figs. 2b/3b. Unlocatable blocks are skipped, as in the
/// paper.
pub fn catchment_bins(catchments: &CatchmentMap, geodb: &GeoDb) -> BinnedMap<SiteId> {
    let mut bins = BinnedMap::new();
    for (block, site) in catchments.iter() {
        if let Some(loc) = geodb.locate(block) {
            bins.add(loc.lat, loc.lon, site, 1.0);
        }
    }
    bins
}

/// Bins per-block site observations with an explicit weight each — used
/// for Atlas VP maps (Figs. 2a/3a), where the weight is VPs per block.
pub fn weighted_bins(
    observations: impl IntoIterator<Item = (Block24, SiteId, f64)>,
    geodb: &GeoDb,
) -> BinnedMap<SiteId> {
    let mut bins = BinnedMap::new();
    for (block, site, w) in observations {
        if let Some(loc) = geodb.locate(block) {
            bins.add(loc.lat, loc.lon, site, w);
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_hitlist::HitlistConfig;
    use vp_topology::{Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(91))
    }

    fn synthetic_catchments(w: &Internet, n: usize) -> CatchmentMap {
        CatchmentMap::from_pairs(
            "t",
            w.blocks
                .iter()
                .take(n)
                .map(|b| (b.block, SiteId((b.block.0 % 2) as u8))),
        )
    }

    #[test]
    fn table4_accounting_is_consistent() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let catchments = synthetic_catchments(&w, 500);
        let atlas_blocks: BTreeSet<Block24> =
            w.blocks.iter().take(60).map(|b| b.block).collect();
        let atlas = AtlasCoverage {
            vps_considered: 80,
            vps_responding: 70,
            blocks_considered: 65,
            responding_blocks: atlas_blocks,
        };
        let r = coverage(&catchments, &hl, &w.geodb, &atlas);
        assert_eq!(r.vp_blocks_considered, hl.len() as u64);
        assert_eq!(r.vp_blocks_responding, 500);
        assert_eq!(
            r.vp_blocks_geolocatable + r.vp_blocks_no_location,
            r.vp_blocks_responding
        );
        // The first 60 blocks are all within the catchment map's 500.
        assert_eq!(r.shared_blocks, 60);
        assert_eq!(r.atlas_unique_blocks, 0);
        assert_eq!(r.vp_unique_blocks, 440);
        assert!((r.atlas_overlap_fraction() - 1.0).abs() < 1e-12);
        assert!((r.coverage_ratio() - 500.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_sets_have_unique_blocks() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let catchments = synthetic_catchments(&w, 100);
        let atlas_blocks: BTreeSet<Block24> = w
            .blocks
            .iter()
            .skip(200)
            .take(50)
            .map(|b| b.block)
            .collect();
        let atlas = AtlasCoverage {
            vps_considered: 50,
            vps_responding: 50,
            blocks_considered: 50,
            responding_blocks: atlas_blocks,
        };
        let r = coverage(&catchments, &hl, &w.geodb, &atlas);
        assert_eq!(r.shared_blocks, 0);
        assert_eq!(r.atlas_unique_blocks, 50);
        assert_eq!(r.vp_unique_blocks, 100);
        assert_eq!(r.atlas_overlap_fraction(), 0.0);
    }

    #[test]
    fn bins_cover_located_blocks() {
        let w = world();
        let catchments = synthetic_catchments(&w, 300);
        let bins = catchment_bins(&catchments, &w.geodb);
        let located = catchments
            .iter()
            .filter(|(b, _)| w.geodb.locate(*b).is_some())
            .count();
        assert!((bins.total() - located as f64).abs() < 1e-9);
        assert!(bins.bin_count() > 1);
    }

    #[test]
    fn weighted_bins_respect_weights() {
        let w = world();
        let obs: Vec<(Block24, SiteId, f64)> = w
            .blocks
            .iter()
            .take(10)
            .map(|b| (b.block, SiteId(0), 2.0))
            .collect();
        let bins = weighted_bins(obs.clone(), &w.geodb);
        let located = obs
            .iter()
            .filter(|(b, _, _)| w.geodb.locate(*b).is_some())
            .count();
        assert!((bins.total() - 2.0 * located as f64).abs() < 1e-9);
    }
}
