//! The end-to-end diff pipeline: rounds (+ optional origins and obs
//! report) → per-round diffs → drift summary + alert evaluation →
//! canonical JSON documents.
//!
//! Both the `vp-monitor diff` CLI path and the golden integration tests
//! call [`run_diff_pipeline`], so the bytes the tests pin are exactly the
//! bytes the tool writes.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use verfploeter::CatchmentMap;

use crate::alert::{Alert, AlertConfig};
use crate::diff::{DriftSummary, Origins, RoundDiff};
use crate::stream::DriftTracker;

/// Everything one pipeline run produces: what the tracker holds after the
/// last round, so the lists are the newest [`TAIL`](crate::stream::TAIL) entries.
#[derive(Debug, Clone)]
pub struct DiffOutput {
    /// The newest per-round diffs, in round order.
    pub diffs: Vec<RoundDiff>,
    /// Window aggregate of every diff.
    pub summary: DriftSummary,
    /// The newest cleared alerts and the still-active ones.
    pub alerts: Vec<Alert>,
    /// The newest fired/cleared transition lines, for `watch`-style display.
    pub transitions: Vec<String>,
    /// Canonical `vp-monitor-drift/v1` document.
    pub drift_doc: Value,
    /// Canonical `vp-monitor-alert/v1` document.
    pub alert_doc: Value,
}

/// Renders the canonical `vp-monitor-drift/v1` document: `schema`,
/// `source`, the diffs as `rounds` and `summary`, each diff and the
/// summary in its `Serialize` form. A [`DriftTracker`] passes its
/// newest [`TAIL`](crate::stream::TAIL) diffs, so `rounds` lists at most
/// that many while `summary` covers every transition ingested.
pub(crate) fn build_drift_doc<'a>(
    source: &str,
    diffs: impl IntoIterator<Item = &'a RoundDiff>,
    summary: &DriftSummary,
) -> Value {
    json!({
        "schema": "vp-monitor-drift/v1",
        "source": source,
        "rounds": diffs.into_iter().collect::<Vec<_>>(),
        "summary": summary,
    })
}

/// Runs the whole monitoring pipeline over a time-ordered round sequence:
/// a fold of the rounds, in order, through a [`DriftTracker`] — the same
/// state machine the daemon and `watch --follow` stream into, so batch
/// and streaming outputs are the same bytes by construction.
///
/// * `source` names the sequence in the output documents (e.g.
///   `"fig9_stability/tiny"`).
/// * `start_round` is the global number of the first round, so the diff
///   against it is numbered `start_round + 1` (0 for a whole stream).
/// * `origins` enables per-AS flip attribution.
/// * `durations` maps global round numbers (the *current* round of each
///   transition, matching [`RoundDiff::round`]) to sim-time scan spans;
///   it feeds the `scan-duration` rule. Typically built from an obs
///   report via
///   [`ObsReportDoc::round_durations`](crate::ingest::ObsReportDoc::round_durations).
pub fn run_diff_pipeline(
    source: &str,
    start_round: u32,
    rounds: impl IntoIterator<Item = CatchmentMap>,
    origins: Option<Origins>,
    durations: Option<&BTreeMap<u32, u64>>,
    config: &AlertConfig,
) -> DiffOutput {
    // The batch outputs never read the rolling windows: minimum width.
    let mut tracker = DriftTracker::with_start_round(config.clone(), 1, origins, start_round);
    for map in rounds {
        let dur = durations.and_then(|m| m.get(&tracker.next_round()).copied());
        tracker.observe_round(map, dur);
    }
    DiffOutput {
        diffs: tracker.diffs().iter().cloned().collect(),
        summary: tracker.summary().clone(),
        alerts: tracker.alerts_snapshot(),
        transitions: tracker.transitions().iter().cloned().collect(),
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
        let a = run_diff_pipeline("t", 0, rounds.clone(), None, None, &AlertConfig::default());
        let b = run_diff_pipeline("t", 0, rounds, None, None, &AlertConfig::default());
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
        let out = run_diff_pipeline("t", 0, drifting_rounds(), None, None, &AlertConfig::default());
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
        let out = run_diff_pipeline("t", 0, [r.clone(), r.clone(), r], None, None, &AlertConfig::default());
        assert!(out.alerts.is_empty());
        assert!(out.transitions.is_empty());
        assert_eq!(out.summary.flipped, 0);
    }
}
