//! Load prediction vs measured load (Table 6, Figs. 5 and 6).
//!
//! The paper's §5.5 workflow: map catchments with Verfploeter, weight each
//! mapped block by its historical query volume, and compare the predicted
//! per-site split against the split actually measured at the sites. The
//! measured side here is a ground-truth replay: every traffic-sending
//! block's queries are delivered to the site its routing actually selects
//! — which is what B-Root's site logs record.

use std::collections::BTreeMap;

use serde::Serialize;
use vp_bgp::{RoutingTable, SiteId};
use vp_dns::QueryLog;

use crate::catchment::CatchmentMap;
use crate::load::load_fraction_to;

/// One row of Table 6: a method, what it measures, and the split.
#[derive(Debug, Clone, Serialize)]
pub struct MethodRow {
    pub date: String,
    pub method: String,
    /// Human description of the measurement size (e.g. "9,682 VPs").
    pub measurement: String,
    /// Fraction of the measured quantity going to the reference site.
    pub fraction: f64,
}

/// The actually *measured* load split: queries of every traffic-sending
/// block delivered to its true site under `routing`. Returns the fraction
/// arriving at `site`.
pub fn actual_load_fraction(routing: &RoutingTable, log: &QueryLog, site: SiteId) -> f64 {
    let mut at_site = 0.0;
    let mut total = 0.0;
    for (b, q) in log.per_block() {
        if q <= 0.0 {
            continue;
        }
        total += q;
        if routing.site_of_pop(b.pop) == Some(site) {
            at_site += q;
        }
    }
    if total <= 0.0 {
        0.0
    } else {
        at_site / total
    }
}

/// Predicted per-site load over hourly bins (Fig. 6): for each UTC hour,
/// queries/sec per site, with `None` = the unmappable "UNKNOWN" share.
pub fn hourly_prediction(
    catchments: &CatchmentMap,
    log: &QueryLog,
) -> Vec<BTreeMap<Option<SiteId>, f64>> {
    let mut hours: Vec<BTreeMap<Option<SiteId>, f64>> = vec![BTreeMap::new(); 24];
    for (b, q) in log.per_block() {
        if q <= 0.0 {
            continue;
        }
        let site = catchments.site_of(b.block);
        for (h, slot) in (0..).zip(&mut hours) {
            *slot.entry(site).or_insert(0.0) += log.hourly(b, q, h) / 3600.0;
        }
    }
    hours
}

/// The prediction error of a load-weighted catchment map against the
/// ground-truth replay, in absolute percentage points at `site`.
pub fn prediction_error_pp(
    catchments: &CatchmentMap,
    routing: &RoutingTable,
    log: &QueryLog,
    site: SiteId,
) -> f64 {
    let predicted = load_fraction_to(catchments, log, site);
    let actual = actual_load_fraction(routing, log, site);
    (predicted - actual).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_dns::LoadModel;
    use vp_sim::Scenario;
    use vp_topology::TopologyConfig;

    fn setup() -> (Scenario, RoutingTable) {
        let s = Scenario::broot(TopologyConfig::tiny(111), 7);
        let table = s.routing();
        (s, table)
    }

    /// A catchment map that exactly matches the routing table (what a
    /// perfect fault-free scan of fully responsive blocks would produce).
    fn perfect_map(s: &Scenario, table: &RoutingTable) -> CatchmentMap {
        CatchmentMap::from_pairs(
            "perfect",
            s.world
                .blocks
                .iter()
                .filter_map(|b| table.site_of_pop(b.pop).map(|site| (b.block, site))),
        )
    }

    #[test]
    fn perfect_map_predicts_actual_exactly() {
        let (s, table) = setup();
        let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
        let map = perfect_map(&s, &table);
        for site in s.announcement.sites.iter() {
            let err = prediction_error_pp(&map, &table, &log, site.id);
            assert!(err < 1e-9, "site {}: error {err}pp", site.name);
        }
    }

    #[test]
    fn actual_fractions_sum_to_one() {
        let (s, table) = setup();
        let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
        let total: f64 = s
            .announcement
            .sites
            .iter()
            .map(|site| actual_load_fraction(&table, &log, site.id))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn partial_map_has_bounded_error() {
        let (s, table) = setup();
        let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
        let map = perfect_map(&s, &table);
        // Remove 30% of entries — prediction should still be close because
        // unknown blocks are assumed to split like known ones.
        let partial = CatchmentMap::from_pairs(
            "partial",
            map.iter().filter(|(b, _)| b.0 % 10 >= 3),
        );
        let site = s.announcement.sites[0].id;
        let err = prediction_error_pp(&partial, &table, &log, site);
        assert!(err < 12.0, "error {err}pp too large");
    }

    #[test]
    fn hourly_prediction_sums_to_daily_split() {
        let (s, table) = setup();
        let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
        let map = perfect_map(&s, &table);
        let hours = hourly_prediction(&map, &log);
        assert_eq!(hours.len(), 24);
        // Sum of q/s × 3600 over hours ≈ daily split.
        let split = crate::load::load_split(&map, &log);
        for (site, daily) in &split {
            let from_hours: f64 = hours
                .iter()
                .map(|h| h.get(site).copied().unwrap_or(0.0) * 3600.0)
                .sum();
            let rel = (from_hours - daily).abs() / daily.max(1.0);
            assert!(rel < 0.05, "site {site:?}: {from_hours} vs {daily}");
        }
    }

    #[test]
    fn stale_catchments_predict_worse_than_fresh() {
        // §5.5's long-duration observation: predicting with a month-old
        // catchment map is worse than with a same-day one.
        let (s, table_now) = setup();
        let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
        let fresh = perfect_map(&s, &table_now);
        // "April" routing: same world, different announcement (prepending
        // changed between the dates, as B-Root actually did).
        let mut old_ann = s.announcement.clone();
        old_ann.set_prepend("LAX", 3);
        let table_old = s.routing_for(&old_ann);
        let stale = CatchmentMap::from_pairs(
            "stale",
            s.world
                .blocks
                .iter()
                .filter_map(|b| table_old.site_of_pop(b.pop).map(|site| (b.block, site))),
        );
        // The routing change must affect some traffic-sending block for the
        // stale map to mispredict.
        let moved_load: f64 = log
            .per_block()
            .filter(|(b, _)| table_old.site_of_pop(b.pop) != table_now.site_of_pop(b.pop))
            .map(|(_, q)| q)
            .sum();
        assert!(moved_load > 0.0, "prepending moved no traffic-sending block");
        let site = s.announcement.sites[0].id;
        let err_fresh = prediction_error_pp(&fresh, &table_now, &log, site);
        let err_stale = prediction_error_pp(&stale, &table_now, &log, site);
        assert!(
            err_stale > err_fresh,
            "stale {err_stale}pp should exceed fresh {err_fresh}pp"
        );
    }
}
