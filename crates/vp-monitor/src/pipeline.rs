//! The end-to-end diff pipeline: rounds (+ optional origins and obs
//! report) → per-round diffs → drift summary + alert evaluation →
//! canonical JSON documents.
//!
//! Both the `vp-monitor diff` CLI path and the golden integration tests
//! call [`run_diff_pipeline`], so the bytes the tests pin are exactly the
//! bytes the tool writes.

use std::collections::BTreeMap;

use serde_json::Value;
use verfploeter::catchment::CatchmentMap;

use crate::alert::{Alert, AlertConfig};
use crate::diff::{DriftSummary, Origins, RoundDiff};
use crate::stream::DriftTracker;

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
pub struct DiffOutput {
    /// Per-round diffs, in round order.
    pub diffs: Vec<RoundDiff>,
    /// Window aggregate of all diffs.
    pub summary: DriftSummary,
    /// Fired alerts (cleared and still-active).
    pub alerts: Vec<Alert>,
    /// Fired/cleared transition lines, for `watch`-style display.
    pub transitions: Vec<String>,
    /// Canonical `vp-monitor-drift/v1` document.
    pub drift_doc: Value,
    /// Canonical `vp-monitor-alert/v1` document.
    pub alert_doc: Value,
}

pub(crate) fn u64_map_value<K: ToString>(map: &BTreeMap<K, u64>) -> Value {
    Value::Object(
        map.iter()
            .map(|(k, v)| (k.to_string(), Value::U64(*v)))
            .collect(),
    )
}

pub(crate) fn diff_value(d: &RoundDiff) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("round".to_owned(), Value::U64(u64::from(d.round)));
    obj.insert("prev".to_owned(), Value::Str(d.prev_name.clone()));
    obj.insert("cur".to_owned(), Value::Str(d.cur_name.clone()));
    obj.insert("stable".to_owned(), Value::U64(d.stable));
    obj.insert("flipped".to_owned(), Value::U64(d.flipped));
    obj.insert("to_nr".to_owned(), Value::U64(d.to_nr));
    obj.insert("from_nr".to_owned(), Value::U64(d.from_nr));
    obj.insert("prev_blocks".to_owned(), Value::U64(d.prev_blocks));
    obj.insert("cur_blocks".to_owned(), Value::U64(d.cur_blocks));
    obj.insert(
        "coverage_delta_permille".to_owned(),
        Value::I64(d.coverage_delta_permille),
    );
    obj.insert(
        "flip_rate_permille".to_owned(),
        Value::U64(d.flip_rate_permille),
    );
    obj.insert(
        "site_shares_permille".to_owned(),
        u64_map_value(&d.site_shares_permille),
    );
    obj.insert(
        "max_share_delta_permille".to_owned(),
        Value::U64(d.max_share_delta_permille),
    );
    obj.insert("flips_by_as".to_owned(), u64_map_value(&d.flips_by_as));
    Value::Object(obj)
}

pub(crate) fn summary_value(s: &DriftSummary) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("rounds".to_owned(), Value::U64(s.rounds));
    obj.insert("stable".to_owned(), Value::U64(s.stable));
    obj.insert("flipped".to_owned(), Value::U64(s.flipped));
    obj.insert("to_nr".to_owned(), Value::U64(s.to_nr));
    obj.insert("from_nr".to_owned(), Value::U64(s.from_nr));
    obj.insert("max_flipped".to_owned(), Value::U64(s.max_flipped));
    obj.insert(
        "max_flip_rate_permille".to_owned(),
        Value::U64(s.max_flip_rate_permille),
    );
    obj.insert(
        "max_coverage_drop_permille".to_owned(),
        Value::U64(s.max_coverage_drop_permille),
    );
    obj.insert(
        "max_share_delta_permille".to_owned(),
        Value::U64(s.max_share_delta_permille),
    );
    obj.insert("flips_by_as".to_owned(), u64_map_value(&s.flips_by_as));
    Value::Object(obj)
}

/// Renders diffs + summary as the canonical `vp-monitor-drift/v1`
/// document.
pub fn build_drift_doc(source: &str, diffs: &[RoundDiff], summary: &DriftSummary) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_owned(),
        Value::Str("vp-monitor-drift/v1".to_owned()),
    );
    doc.insert("source".to_owned(), Value::Str(source.to_owned()));
    doc.insert(
        "rounds".to_owned(),
        Value::Array(diffs.iter().map(diff_value).collect()),
    );
    doc.insert("summary".to_owned(), summary_value(summary));
    Value::Object(doc)
}

/// Runs the whole monitoring pipeline over a time-ordered round sequence:
/// a fold of the rounds, in order, through a [`DriftTracker`] — the same
/// state machine the daemon and `watch --follow` stream into, so batch
/// and streaming outputs are the same bytes by construction.
///
/// * `source` names the sequence in the output documents (e.g.
///   `"fig9_stability/tiny"`).
/// * `origins` enables per-AS flip attribution.
/// * `durations` maps 1-based round indices (the index of the *current*
///   round of each transition, matching [`RoundDiff::round`]) to sim-time
///   scan spans; it feeds the `scan-duration` rule. Typically built from
///   an obs report via
///   [`ObsReportDoc::round_durations`](crate::ingest::ObsReportDoc::round_durations).
pub fn run_diff_pipeline(
    source: &str,
    rounds: impl IntoIterator<Item = CatchmentMap>,
    origins: Option<Origins>,
    durations: Option<&BTreeMap<u32, u64>>,
    config: &AlertConfig,
) -> DiffOutput {
    // The batch outputs never read the rolling windows: minimum width.
    let mut tracker = DriftTracker::new(config.clone(), 1, origins);
    for map in rounds {
        let dur = durations.and_then(|m| m.get(&tracker.next_round()).copied());
        tracker.observe_round(map, dur);
    }
    DiffOutput {
        diffs: tracker.diffs().to_vec(),
        summary: tracker.summary().clone(),
        alerts: tracker.alerts_snapshot(),
        transitions: tracker.transitions().to_vec(),
        drift_doc: tracker.drift_doc(source),
        alert_doc: tracker.alert_doc(source),
    }
}

impl DiffOutput {
    /// One-paragraph human summary for the CLI.
    pub fn summary_text(&self) -> String {
        let s = &self.summary;
        let active = self
            .alerts
            .iter()
            .filter(|a| a.cleared_round.is_none())
            .count();
        format!(
            "{rounds} round transitions: {stable} stable, {flipped} flipped, \
             {to_nr} to-NR, {from_nr} from-NR; worst round {max_flipped} flips \
             ({max_rate} permille); {total} alerts ({active} active)",
            rounds = s.rounds,
            stable = s.stable,
            flipped = s.flipped,
            to_nr = s.to_nr,
            from_nr = s.from_nr,
            max_flipped = s.max_flipped,
            max_rate = s.max_flip_rate_permille,
            total = self.alerts.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_bgp::SiteId;
    use vp_net::Block24;

    fn map(name: &str, pairs: &[(u32, u8)]) -> CatchmentMap {
        CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))))
    }

    fn drifting_rounds() -> Vec<CatchmentMap> {
        // 4 blocks; one flips every round from round 2 on -> sustained
        // 333 permille flip rate fires the default flip-rate rule.
        vec![
            map("r0", &[(1, 0), (2, 0), (3, 1), (4, 1)]),
            map("r1", &[(1, 0), (2, 0), (3, 1), (4, 1)]),
            map("r2", &[(1, 1), (2, 0), (3, 1)]),
            map("r3", &[(1, 0), (2, 0), (3, 1)]),
            map("r4", &[(1, 1), (2, 0), (3, 1)]),
        ]
    }

    #[test]
    fn pipeline_is_deterministic() {
        let rounds = drifting_rounds();
        let a = run_diff_pipeline("t", rounds.clone(), None, None, &AlertConfig::default());
        let b = run_diff_pipeline("t", rounds, None, None, &AlertConfig::default());
        assert_eq!(
            serde_json::to_string_pretty(&a.drift_doc).ok(),
            serde_json::to_string_pretty(&b.drift_doc).ok()
        );
        assert_eq!(
            serde_json::to_string_pretty(&a.alert_doc).ok(),
            serde_json::to_string_pretty(&b.alert_doc).ok()
        );
    }

    #[test]
    fn pipeline_fires_on_sustained_drift() {
        let out = run_diff_pipeline("t", drifting_rounds(), None, None, &AlertConfig::default());
        assert_eq!(out.diffs.len(), 4);
        assert!(
            out.alerts.iter().any(|a| a.rule == "flip-rate"),
            "{:?}",
            out.alerts
        );
        assert!(!out.transitions.is_empty());
        assert!(out.summary_text().contains("4 round transitions"));
        // Doc shape sanity.
        assert_eq!(
            out.drift_doc.get("schema").and_then(Value::as_str),
            Some("vp-monitor-drift/v1")
        );
        assert_eq!(
            out.alert_doc.get("schema").and_then(Value::as_str),
            Some("vp-monitor-alert/v1")
        );
        assert_eq!(
            out.drift_doc
                .get("rounds")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(4)
        );
    }

    #[test]
    fn stable_sequence_raises_nothing() {
        let r = map("r", &[(1, 0), (2, 1)]);
        let out = run_diff_pipeline("t", [r.clone(), r.clone(), r], None, None, &AlertConfig::default());
        assert!(out.alerts.is_empty());
        assert!(out.transitions.is_empty());
        assert_eq!(out.summary.flipped, 0);
    }
}
