//! Site-placement suggestion from measured RTTs — the paper's §7 closer:
//! "it is possible that RTTs of Verfploeter measurements can be used to
//! suggest where new anycast sites would be helpful".
//!
//! Every cleaned reply carries a round-trip time (probe out, reply back via
//! the block's catchment site). Blocks whose RTT is persistently high are
//! poorly served; clustering them by country, weighted by their query load,
//! ranks the places where a new site would help most.

use std::collections::BTreeMap;

use serde::Serialize;
use vp_dns::QueryLog;
use vp_geo::{CountryId, GeoDb};
use vp_net::conv;
use vp_net::SimDuration;

use crate::rtt::RttTable;

/// One candidate location for a new site.
#[derive(Debug, Clone, Serialize)]
pub struct PlacementSuggestion {
    pub country: CountryId,
    /// Blocks in this country whose RTT exceeds the threshold.
    pub high_rtt_blocks: u64,
    /// Median RTT of those blocks.
    pub median_rtt: SimDuration,
    /// Daily queries originating from those blocks (0 without a log).
    pub affected_queries: f64,
}

/// Ranks countries by how much badly served traffic a new site there would
/// capture. `threshold` marks a block as badly served; `load` (optional)
/// weights blocks by their query volume; `top` limits the result length.
pub fn suggest_sites(
    rtts: &RttTable,
    geodb: &GeoDb,
    load: Option<&QueryLog>,
    threshold: SimDuration,
    top: usize,
) -> Vec<PlacementSuggestion> {
    struct Acc {
        rtts: Vec<SimDuration>,
        queries: f64,
    }
    let mut per_country: BTreeMap<CountryId, Acc> = BTreeMap::new();
    for (block, rtt) in rtts.iter() {
        if rtt < threshold {
            continue;
        }
        let Some(loc) = geodb.locate(block) else {
            continue;
        };
        let acc = per_country.entry(loc.country).or_insert(Acc {
            rtts: Vec::new(),
            queries: 0.0,
        });
        acc.rtts.push(rtt);
        acc.queries += load.map_or(0.0, |l| l.daily(block));
    }
    let mut out: Vec<PlacementSuggestion> = per_country
        .into_iter()
        .filter_map(|(country, mut acc)| {
            acc.rtts.sort_unstable();
            // Groups are created on first push, so rtts is never empty.
            Some(PlacementSuggestion {
                country,
                high_rtt_blocks: acc.rtts.len() as u64,
                median_rtt: *acc.rtts.get(acc.rtts.len() / 2)?,
                affected_queries: acc.queries,
            })
        })
        .collect();
    // Rank by affected traffic when a log is present, else by block count;
    // country id breaks ties deterministically.
    out.sort_by(|a, b| {
        b.affected_queries
            .total_cmp(&a.affected_queries)
            .then(b.high_rtt_blocks.cmp(&a.high_rtt_blocks))
            .then(a.country.cmp(&b.country))
    });
    out.truncate(top);
    out
}

/// Summary RTT statistics of a scan: `(p50, p90, max)` over mapped blocks.
pub fn rtt_percentiles(rtts: &RttTable) -> Option<(SimDuration, SimDuration, SimDuration)> {
    if rtts.is_empty() {
        return None;
    }
    let mut v: Vec<SimDuration> = rtts.values().collect();
    v.sort_unstable();
    let p90 = conv::index(conv::sat_f64_to_u32(v.len() as f64 * 0.9)).min(v.len() - 1);
    let last = *v.last()?;
    Some((*v.get(v.len() / 2)?, *v.get(p90)?, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_geo::GeoLoc;
    use vp_net::Block24;

    fn geodb_two_countries() -> GeoDb {
        let mut db = GeoDb::new();
        // Blocks 0..10 in country 0; 10..20 in country 1.
        for i in 0..20u32 {
            db.insert(
                Block24(i),
                GeoLoc {
                    country: CountryId(if i < 10 { 0 } else { 1 }),
                    lat: 0.0,
                    lon: 0.0,
                },
            );
        }
        db
    }

    fn rtts(ms_by_block: &[(u32, u64)]) -> RttTable {
        RttTable::from_pairs(
            ms_by_block
                .iter()
                .map(|&(b, ms)| (Block24(b), SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn high_rtt_country_is_suggested_first() {
        let db = geodb_two_countries();
        // Country 1's blocks are all slow; country 0's fast except one.
        let mut rows = Vec::new();
        for i in 0..10u32 {
            rows.push((i, 20u64));
        }
        for i in 10..20u32 {
            rows.push((i, 250u64));
        }
        rows.push((3, 300)); // overwrite one fast block as slow
        let r = rtts(&rows);
        let s = suggest_sites(&r, &db, None, SimDuration::from_millis(150), 5);
        assert!(!s.is_empty());
        assert_eq!(s[0].country, CountryId(1));
        assert_eq!(s[0].high_rtt_blocks, 10);
        assert!(s[0].median_rtt >= SimDuration::from_millis(150));
        // Country 0 appears after, with exactly one slow block.
        assert_eq!(s[1].country, CountryId(0));
        assert_eq!(s[1].high_rtt_blocks, 1);
    }

    #[test]
    fn threshold_filters_everything_when_high() {
        let db = geodb_two_countries();
        let r = rtts(&[(0, 10), (11, 20)]);
        let s = suggest_sites(&r, &db, None, SimDuration::from_secs(5), 5);
        assert!(s.is_empty());
    }

    #[test]
    fn unlocatable_blocks_are_skipped() {
        let db = geodb_two_countries();
        let r = rtts(&[(99, 500)]); // block 99 not in the db
        let s = suggest_sites(&r, &db, None, SimDuration::from_millis(100), 5);
        assert!(s.is_empty());
    }

    #[test]
    fn top_limits_results() {
        let db = geodb_two_countries();
        let r = rtts(&[(0, 500), (11, 500)]);
        let s = suggest_sites(&r, &db, None, SimDuration::from_millis(100), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn percentiles_ordered() {
        let r = rtts(&[(0, 10), (1, 20), (2, 30), (3, 40), (4, 1000)]);
        let (p50, p90, max) = rtt_percentiles(&r).unwrap();
        assert!(p50 <= p90 && p90 <= max);
        assert_eq!(max, SimDuration::from_millis(1000));
        assert!(rtt_percentiles(&RttTable::default()).is_none());
    }
}
