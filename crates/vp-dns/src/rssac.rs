//! RSSAC-002-style daily reporting.
//!
//! §3.2: "all root operators collect this information as part of standard
//! RSSAC-002 performance reporting". This module produces the equivalent
//! daily metrics over a [`QueryLog`] and a per-block site assignment — the
//! artifact an operator would use as the "historical data" input to
//! load-aware catchment calibration.

use std::collections::BTreeMap;

use serde::Serialize;
use vp_net::Block24;

use crate::log::QueryLog;

/// One day of RSSAC-002-style traffic metrics for one site (or the whole
/// service when unaggregated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DailyMetrics {
    /// Queries received (the "traffic-volume" metric).
    pub queries: f64,
    /// Responses sent (RRL suppresses some).
    pub responses: f64,
    /// Responses carrying useful data (non-NXDOMAIN share).
    pub good_responses: f64,
    /// Distinct /24 sources observed.
    pub sources: u64,
}

/// A per-site daily report.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Rssac002Report<K: Ord> {
    pub per_site: BTreeMap<K, DailyMetrics>,
}

impl<K: Ord + Copy> Rssac002Report<K> {
    /// Builds the report by attributing every traffic-sending block's
    /// volume to the site `assign` returns for it (`None` entries are
    /// dropped — blocks whose site is unknown to the reporting pipeline).
    pub fn build(log: &QueryLog, mut assign: impl FnMut(Block24) -> Option<K>) -> Self {
        let mut per_site: BTreeMap<K, DailyMetrics> = BTreeMap::new();
        for (b, q) in log.per_block() {
            if q <= 0.0 {
                continue;
            }
            let Some(site) = assign(b.block) else {
                continue;
            };
            let m = per_site.entry(site).or_default();
            m.queries += q;
            m.responses += q * log.reply_frac(b.block);
            m.good_responses += q * log.good_reply_frac(b.block);
            m.sources += 1;
        }
        Rssac002Report { per_site }
    }

    /// Service-wide totals.
    pub fn totals(&self) -> DailyMetrics {
        let mut t = DailyMetrics::default();
        for m in self.per_site.values() {
            t.queries += m.queries;
            t.responses += m.responses;
            t.good_responses += m.good_responses;
            t.sources += m.sources;
        }
        t
    }

    /// Fraction of queries arriving at `site` (0 if absent).
    pub fn query_share(&self, site: K) -> f64 {
        let total = self.totals().queries;
        if total <= 0.0 {
            return 0.0;
        }
        self.per_site.get(&site).map_or(0.0, |m| m.queries) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LoadModel;
    use vp_topology::{Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(151))
    }

    #[test]
    fn report_partitions_all_traffic() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        // Assign blocks to two sites by parity.
        let report = Rssac002Report::build(&log, |b| Some((b.0 % 2) as u8));
        let t = report.totals();
        assert!((t.queries - log.total_daily()).abs() < 1e-6);
        assert!(t.responses < t.queries, "RRL must suppress something");
        assert!(t.good_responses < t.responses);
        let share: f64 = [0u8, 1].iter().map(|s| report.query_share(*s)).sum();
        assert!((share - 1.0).abs() < 1e-9);
        // Sources = traffic-sending blocks.
        let senders = log.per_block().filter(|&(_, q)| q > 0.0).count() as u64;
        assert_eq!(t.sources, senders);
    }

    #[test]
    fn unknown_blocks_are_dropped() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let all = Rssac002Report::build(&log, |_| Some(0u8));
        let none = Rssac002Report::build(&log, |_| Option::<u8>::None);
        assert!(all.totals().queries > 0.0);
        assert_eq!(none.totals().queries, 0.0);
        assert_eq!(none.query_share(0), 0.0);
    }

    #[test]
    fn per_site_shares_reflect_assignment() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        // Everything to site 7.
        let report = Rssac002Report::build(&log, |_| Some(7u8));
        assert!((report.query_share(7) - 1.0).abs() < 1e-12);
        assert_eq!(report.query_share(3), 0.0);
        assert_eq!(report.per_site.len(), 1);
    }
}
