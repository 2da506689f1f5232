//! Load weighting: from block counts to query counts (§3.2, §5.4).

use std::collections::BTreeMap;

use vp_bgp::SiteId;
use vp_dns::QueryLog;
use vp_geo::BinnedMap;

use crate::catchment::CatchmentMap;

/// Table 5: how much of the service's real traffic the catchment map can
/// account for.
#[derive(Debug, Clone, Copy)]
pub struct MappabilityReport {
    /// Blocks the service saw queries from.
    pub blocks_seen: u64,
    /// ... of which Verfploeter mapped to a site.
    pub blocks_mapped: u64,
    /// Queries per day the service saw.
    pub queries_seen: f64,
    /// ... of which came from mapped blocks.
    pub queries_mapped: f64,
}
serde_json::impl_serialize! { MappabilityReport {
    blocks_seen, blocks_mapped, queries_seen, queries_mapped,
} }

impl MappabilityReport {
    pub fn blocks_mapped_frac(&self) -> f64 {
        self.blocks_mapped as f64 / (self.blocks_seen.max(1)) as f64
    }
    pub fn queries_mapped_frac(&self) -> f64 {
        if self.queries_seen <= 0.0 {
            0.0
        } else {
            self.queries_mapped / self.queries_seen
        }
    }
}

/// Computes Table 5: traffic-weighted coverage of a catchment map.
pub fn mappability(catchments: &CatchmentMap, log: &QueryLog) -> MappabilityReport {
    let mut report = MappabilityReport {
        blocks_seen: 0,
        blocks_mapped: 0,
        queries_seen: 0.0,
        queries_mapped: 0.0,
    };
    for (b, q) in log.per_block() {
        if q <= 0.0 {
            continue;
        }
        report.blocks_seen += 1;
        report.queries_seen += q;
        if catchments.site_of(b.block).is_some() {
            report.blocks_mapped += 1;
            report.queries_mapped += q;
        }
    }
    report
}

/// The predicted load split: daily queries per site, with `None` holding
/// the load of blocks the map could not place ("unknown", the red slices
/// of Fig. 4a). Blocks with traffic but no catchment entry land there.
pub fn load_split(catchments: &CatchmentMap, log: &QueryLog) -> BTreeMap<Option<SiteId>, f64> {
    let mut split: BTreeMap<Option<SiteId>, f64> = BTreeMap::new();
    for (b, q) in log.per_block() {
        if q <= 0.0 {
            continue;
        }
        *split.entry(catchments.site_of(b.block)).or_insert(0.0) += q;
    }
    split
}

/// Fraction of *mapped* load going to `site` — the paper's load-weighted
/// "% LAX" excludes unknown blocks from the denominator ("we assume their
/// traffic will go to our sites in similar proportion to blocks in known
/// catchments", §5.4).
pub fn load_fraction_to(catchments: &CatchmentMap, log: &QueryLog, site: SiteId) -> f64 {
    let split = load_split(catchments, log);
    let mapped: f64 = split
        .iter()
        .filter(|(k, _)| k.is_some())
        .map(|(_, v)| *v)
        .sum();
    if mapped <= 0.0 {
        return 0.0;
    }
    split.get(&Some(site)).copied().unwrap_or(0.0) / mapped
}

/// Geographic load map (Fig. 4): per 2° bin, queries/sec per site, with
/// `None` = unmappable (red in the paper's rendering).
pub fn load_bins(catchments: &CatchmentMap, log: &QueryLog) -> BinnedMap<Option<SiteId>> {
    let mut bins = BinnedMap::new();
    let world = log.world();
    for (b, q) in log.per_block() {
        if q <= 0.0 {
            continue;
        }
        if let Some(loc) = world.geodb.locate(b.block) {
            bins.add(loc.lat, loc.lon, catchments.site_of(b.block), q / 86_400.0);
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_dns::LoadModel;
    use vp_topology::{Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(101))
    }

    fn full_map(w: &Internet) -> CatchmentMap {
        CatchmentMap::from_pairs(
            "full",
            w.blocks
                .iter()
                .map(|b| (b.block, SiteId((b.block.0 % 2) as u8))),
        )
    }

    #[test]
    fn full_map_accounts_for_all_traffic() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let m = mappability(&full_map(&w), &log);
        assert_eq!(m.blocks_seen, m.blocks_mapped);
        assert!((m.queries_mapped_frac() - 1.0).abs() < 1e-12);
        assert!((m.blocks_mapped_frac() - 1.0).abs() < 1e-12);
        assert!(m.queries_seen > 0.0);
    }

    #[test]
    fn partial_map_leaves_unknown_load() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        // Map only every other block.
        let partial = CatchmentMap::from_pairs(
            "partial",
            w.blocks
                .iter()
                .filter(|b| b.block.0 % 2 == 0)
                .map(|b| (b.block, SiteId(0))),
        );
        let m = mappability(&partial, &log);
        assert!(m.blocks_mapped < m.blocks_seen);
        assert!(m.queries_mapped_frac() < 1.0);
        let split = load_split(&partial, &log);
        let unknown = split.get(&None).copied().unwrap_or(0.0);
        assert!(unknown > 0.0, "no unknown load");
        let total: f64 = split.values().sum();
        assert!((total - m.queries_seen).abs() < 1e-6);
    }

    #[test]
    fn load_fraction_excludes_unknown_from_denominator() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let partial = CatchmentMap::from_pairs(
            "partial",
            w.blocks
                .iter()
                .filter(|b| b.block.0 % 3 != 0)
                .map(|b| (b.block, SiteId((b.block.0 % 2) as u8))),
        );
        let f0 = load_fraction_to(&partial, &log, SiteId(0));
        let f1 = load_fraction_to(&partial, &log, SiteId(1));
        assert!((f0 + f1 - 1.0).abs() < 1e-9, "fractions must sum to 1");
        assert!(f0 > 0.0 && f1 > 0.0);
    }

    #[test]
    fn load_differs_from_block_count_weighting() {
        // The paper's central point: % by blocks != % by load.
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let map = full_map(&w);
        let by_blocks = map.fraction_to(SiteId(0));
        let by_load = load_fraction_to(&map, &log, SiteId(0));
        assert!(
            (by_blocks - by_load).abs() > 1e-4,
            "block and load weighting coincide suspiciously: {by_blocks} vs {by_load}"
        );
    }

    #[test]
    fn load_bins_total_matches_rate() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let bins = load_bins(&full_map(&w), &log);
        // All blocks are locatable except the unlocatable sliver.
        let located_load: f64 = log
            .per_block()
            .filter(|(b, _)| w.geodb.locate(b.block).is_some())
            .map(|(_, q)| q)
            .sum();
        assert!((bins.total() - located_load / 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn empty_log_yields_empty_reports() {
        let w = world();
        let model = LoadModel {
            participation: 0.0,
            ..LoadModel::default()
        };
        let log = QueryLog::ditl(&w, model, "empty");
        let m = mappability(&full_map(&w), &log);
        assert_eq!(m.blocks_seen, 0);
        assert_eq!(m.queries_mapped_frac(), 0.0);
        assert_eq!(load_fraction_to(&full_map(&w), &log, SiteId(0)), 0.0);
    }
}
