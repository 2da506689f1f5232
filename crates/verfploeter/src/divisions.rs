//! Catchment divisions inside ASes and prefixes (Figs. 7 and 8).
//!
//! §6.2: prior work often assumed one VP can represent a whole AS. The
//! dense Verfploeter view shows large ASes split across anycast sites —
//! 12.7% of prefix-announcing ASes see more than one site, and ASes that
//! announce more prefixes see more sites (Fig. 7); prefixes longer than
//! /15 are usually single-site but large prefixes split further (Fig. 8).
//! Unstable VPs are removed first so flapping is not mistaken for a split.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;
use vp_bgp::SiteId;
use vp_net::conv;
use vp_net::{Asn, Block24};
use vp_topology::Internet;

use crate::catchment::CatchmentMap;

/// Sites seen per AS, with the AS's announced-prefix count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AsDivision {
    pub asn: Asn,
    pub announced_prefixes: u32,
    pub sites_seen: u32,
    /// Blocks of this AS with a (stable) catchment observation.
    pub observed_blocks: u32,
}

/// Computes per-AS division records from a catchment map, skipping blocks
/// in `exclude` (the unstable set). ASes without any observed block are
/// omitted.
pub fn as_divisions(
    catchments: &CatchmentMap,
    world: &Internet,
    exclude: &BTreeSet<Block24>,
) -> Vec<AsDivision> {
    // Per AS: the distinct sites its blocks see, and how many blocks.
    let mut per_as: BTreeMap<Asn, (BTreeSet<SiteId>, u32)> = BTreeMap::new();
    for (block, site) in catchments.iter() {
        if exclude.contains(&block) {
            continue;
        }
        if let Some(info) = world.block(block) {
            let (sites, blocks) = per_as.entry(info.origin).or_default();
            sites.insert(site);
            *blocks += 1;
        }
    }
    per_as
        .into_iter()
        .map(|(asn, (sites, blocks))| AsDivision {
            asn,
            announced_prefixes: world.announced_prefixes(asn),
            sites_seen: conv::sat_u32(sites.len()),
            observed_blocks: blocks,
        })
        .collect()
}

/// Fraction of observed ASes seeing more than one site (the 12.7% result).
pub fn split_as_fraction(divisions: &[AsDivision]) -> f64 {
    if divisions.is_empty() {
        return 0.0;
    }
    divisions.iter().filter(|d| d.sites_seen > 1).count() as f64 / divisions.len() as f64
}

/// One Fig. 7 row: among ASes seeing exactly `sites` sites, the
/// distribution of their announced-prefix counts.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    pub sites: u32,
    pub ases: usize,
    /// 5th, 25th, 50th, 75th, 95th percentiles of announced prefixes.
    pub prefix_percentiles: [f64; 5],
}

/// Groups divisions by sites-seen and summarizes announced-prefix counts.
pub fn fig7_rows(divisions: &[AsDivision]) -> Vec<Fig7Row> {
    let mut by_sites: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for d in divisions {
        by_sites
            .entry(d.sites_seen)
            .or_default()
            .push(d.announced_prefixes as f64);
    }
    by_sites
        .into_iter()
        .map(|(sites, mut counts)| {
            counts.sort_by(f64::total_cmp);
            // idx = round((len-1)·p) with p <= 1: always a position of counts.
            let pct = |p: f64| -> f64 {
                let idx = conv::index(conv::sat_f64_to_u32(((counts.len() - 1) as f64 * p).round()));
                counts.get(idx).copied().unwrap_or_default()
            };
            Fig7Row {
                sites,
                ases: counts.len(),
                prefix_percentiles: [pct(0.05), pct(0.25), pct(0.50), pct(0.75), pct(0.95)],
            }
        })
        .collect()
}

/// One Fig. 8 panel: for announced prefixes of one length, how many sites
/// the VPs inside each prefix see.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    pub prefix_len: u8,
    /// Announced prefixes of this length with ≥1 observed block.
    pub prefixes: usize,
    /// `fractions[k]` = fraction of those prefixes whose VPs see exactly
    /// `k+1` sites.
    pub fractions: Vec<f64>,
    /// Fraction of these prefixes covered by only a single observed VP.
    pub single_vp_fraction: f64,
}

/// Computes Fig. 8: per announced prefix, the number of distinct sites its
/// observed blocks see, grouped by prefix length.
pub fn fig8_rows(
    catchments: &CatchmentMap,
    world: &Internet,
    exclude: &BTreeSet<Block24>,
    max_sites: usize,
) -> Vec<Fig8Row> {
    // Per announced prefix: distinct sites and observed block count.
    let mut per_prefix: Vec<(BTreeSet<SiteId>, u32)> =
        vec![(BTreeSet::new(), 0); world.prefixes.len()];
    for (block, site) in catchments.iter() {
        if exclude.contains(&block) {
            continue;
        }
        let slot = world
            .block(block)
            .and_then(|info| per_prefix.get_mut(conv::index(info.prefix_idx)));
        if let Some((sites, blocks)) = slot {
            sites.insert(site);
            *blocks += 1;
        }
    }
    let mut grouped: BTreeMap<u8, Vec<&(BTreeSet<SiteId>, u32)>> = BTreeMap::new();
    for (slot, info) in per_prefix.iter().zip(&world.prefixes) {
        if slot.1 == 0 {
            continue;
        }
        grouped.entry(info.prefix.prefix_len()).or_default().push(slot);
    }
    grouped
        .into_iter()
        .map(|(len, slots)| {
            let n = slots.len();
            let mut counts = vec![0usize; max_sites];
            let mut single_vp = 0usize;
            for (sites, blocks) in slots {
                if let Some(c) = counts.get_mut(sites.len().clamp(1, max_sites) - 1) {
                    *c += 1;
                }
                if *blocks == 1 {
                    single_vp += 1;
                }
            }
            Fig8Row {
                prefix_len: len,
                prefixes: n,
                fractions: counts.iter().map(|&c| c as f64 / n as f64).collect(),
                single_vp_fraction: single_vp as f64 / n as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::Scenario;
    use vp_topology::TopologyConfig;

    fn scenario() -> (Scenario, CatchmentMap) {
        let s = Scenario::tangled(TopologyConfig::tiny(131), 7);
        let table = s.routing();
        let map = CatchmentMap::from_pairs(
            "perfect",
            s.world
                .blocks
                .iter()
                .filter_map(|b| table.site_of_pop(b.pop).map(|site| (b.block, site))),
        );
        (s, map)
    }

    #[test]
    fn divisions_cover_all_observed_ases() {
        let (s, map) = scenario();
        let divs = as_divisions(&map, &s.world, &BTreeSet::new());
        let observed_ases: BTreeSet<Asn> = map
            .iter()
            .filter_map(|(b, _)| s.world.block(b).map(|i| i.origin))
            .collect();
        assert_eq!(divs.len(), observed_ases.len());
        for d in &divs {
            assert!(d.sites_seen >= 1);
            assert!(d.observed_blocks >= 1);
            assert_eq!(d.announced_prefixes, s.world.announced_prefixes(d.asn));
        }
    }

    #[test]
    fn some_ases_split_and_fraction_in_range() {
        let (s, map) = scenario();
        let divs = as_divisions(&map, &s.world, &BTreeSet::new());
        let frac = split_as_fraction(&divs);
        assert!(frac > 0.0, "no split ASes in nine-site world");
        assert!(frac < 1.0);
    }

    #[test]
    fn excluding_blocks_removes_observations() {
        let (s, map) = scenario();
        let all: BTreeSet<Block24> = map.iter().map(|(b, _)| b).collect();
        let divs = as_divisions(&map, &s.world, &all);
        assert!(divs.is_empty());
    }

    #[test]
    fn fig7_percentiles_are_ordered() {
        let (s, map) = scenario();
        let divs = as_divisions(&map, &s.world, &BTreeSet::new());
        let rows = fig7_rows(&divs);
        assert!(!rows.is_empty());
        let total: usize = rows.iter().map(|r| r.ases).sum();
        assert_eq!(total, divs.len());
        for r in &rows {
            let p = r.prefix_percentiles;
            assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?} not sorted");
            assert!(p[0] >= 1.0, "every AS announces at least one prefix");
        }
    }

    #[test]
    fn fig7_split_ases_announce_more_prefixes() {
        // The paper's correlation: more announced prefixes -> more sites.
        let (s, map) = scenario();
        let divs = as_divisions(&map, &s.world, &BTreeSet::new());
        let rows = fig7_rows(&divs);
        if rows.len() >= 2 {
            let first = &rows[0];
            let last = &rows[rows.len() - 1];
            assert!(
                last.prefix_percentiles[2] >= first.prefix_percentiles[2],
                "median prefixes should not decrease with sites seen"
            );
        }
    }

    #[test]
    fn fig8_fractions_sum_to_one_per_length() {
        let (s, map) = scenario();
        let rows = fig8_rows(&map, &s.world, &BTreeSet::new(), 9);
        assert!(!rows.is_empty());
        for r in &rows {
            let sum: f64 = r.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "/{}: sum {sum}", r.prefix_len);
            assert!((0.0..=1.0).contains(&r.single_vp_fraction));
            assert!(r.prefixes > 0);
        }
    }

    #[test]
    fn fig8_sees_multi_site_prefixes_and_counts_match() {
        let (s, map) = scenario();
        let rows = fig8_rows(&map, &s.world, &BTreeSet::new(), 9);
        let multi: f64 = rows
            .iter()
            .map(|r| (1.0 - r.fractions[0]) * r.prefixes as f64)
            .sum();
        assert!(multi > 0.0, "no prefix splits across sites");
        // Every observed prefix is counted in exactly one length bucket.
        let counted: usize = rows.iter().map(|r| r.prefixes).sum();
        let observed: std::collections::BTreeSet<u32> = map
            .iter()
            .filter_map(|(b, _)| s.world.block(b).map(|i| i.prefix_idx))
            .collect();
        assert_eq!(counted, observed.len());
    }
}
