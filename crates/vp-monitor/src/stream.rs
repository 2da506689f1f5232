//! The streaming half of the monitor: fold rounds one at a time.
//!
//! Public by path: the benchmark harness imports `vp_monitor::stream::DriftTracker`.
//!
//! A daemon watching a live scan loop never has the whole round sequence
//! in hand. [`DriftTracker`] ingests one catchment map at a time and
//! maintains the monitor's outputs incrementally — the newest [`TAIL`]
//! per-round diffs, the merged [`DriftSummary`], the hysteresis alert
//! state, and rolling fixed-width windows of the alert signals (flip rate,
//! share skew, coverage) backed by [`RollingWindow`]. It is the monitor's only drift
//! implementation: the batch
//! [`run_diff_pipeline`](crate::pipeline::run_diff_pipeline) is a fold of
//! its rounds through a tracker, so streaming equals batch by
//! construction. Proptests pin the one property that is not structural:
//! splitting the stream at any point
//! ([`DriftTracker::with_start_round`]) concatenates and merges back to
//! the whole-stream result.
//!
//! The same module renders the daemon's two publication surfaces, so the
//! `vp-daemon` binary, `vp-monitor watch --follow`, and the golden tests
//! all share one code path:
//!
//! * [`build_status_doc`] — the canonical `vp-daemon-status/v2` JSON
//!   document (current round, rolling windows, live alert log, the last
//!   round's sim-time instants), schema-validated like every other
//!   document family.
//! * [`build_scrape`] — a Prometheus text exposition combining the scan
//!   engine's cumulative registry with `daemon.*` gauges derived from the
//!   tracker.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;

use serde_json::{json, Value};
use verfploeter::CatchmentMap;
use vp_obs::{Registry, RollingWindow};

use crate::alert::{build_alert_doc, Alert, AlertConfig, Evaluator};
use crate::diff::{diff_rounds, DriftSummary, Origins, RoundDiff};
use crate::pipeline::build_drift_doc;

/// Entries each history of the monitor keeps — diffs, transition lines,
/// cleared alerts: one day of 15-minute rounds.
pub const TAIL: usize = 96;

/// The newest [`TAIL`] entries of a history, oldest first. A push past the
/// bound drops the oldest entry, so the memory stays flat however long the
/// stream runs; reads go through the deque.
#[derive(Debug, Clone)]
pub(crate) struct Tail<T>(VecDeque<T>);

impl<T> Default for Tail<T> {
    fn default() -> Tail<T> {
        Tail(VecDeque::new())
    }
}

impl<T> Tail<T> {
    pub(crate) fn push(&mut self, entry: T) {
        if self.0.len() == TAIL {
            self.0.pop_front();
        }
        self.0.push_back(entry);
    }
}

impl<T> Deref for Tail<T> {
    type Target = VecDeque<T>;

    fn deref(&self) -> &VecDeque<T> {
        &self.0
    }
}

/// What one [`DriftTracker::observe_round`] call produced.
#[derive(Debug, Clone)]
pub struct StreamStep {
    /// Rounds ingested so far, including this one (1-based).
    pub index: u64,
    /// The diff against the previous round; `None` for the first round.
    pub diff: Option<RoundDiff>,
    /// Fired/cleared alert transitions, for live display.
    pub transitions: Vec<String>,
}

/// Incremental drift state over a stream of catchment rounds.
///
/// Folding rounds one at a time maintains the diffs, summary, alert
/// state, and documents. Every history it keeps is bounded: the diffs,
/// the transition lines and the evaluator's cleared alerts hold their
/// newest [`TAIL`] entries, and the rolling windows their width, so a
/// week of rounds costs what a day does. The [`DriftSummary`], the windows
/// and the hysteresis state fold every round: the drift document's
/// `rounds` and the alert log list the tail, while its `summary` covers
/// every transition.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    origins: Option<Origins>,
    prev: Option<CatchmentMap>,
    /// Global round number of the round *before* the first ingested map;
    /// 0 for a whole-stream tracker. Lets a tracker resume mid-stream and
    /// still emit globally numbered diffs.
    start_round: u32,
    rounds_ingested: u64,
    diffs: Tail<RoundDiff>,
    summary: DriftSummary,
    evaluator: Evaluator,
    transitions: Tail<String>,
    flip_window: RollingWindow,
    skew_window: RollingWindow,
    coverage_window: RollingWindow,
}

impl DriftTracker {
    /// A tracker starting at the beginning of a stream. `window` is the
    /// rolling-window width in rounds (clamped to at least 1).
    pub fn new(config: AlertConfig, window: usize, origins: Option<Origins>) -> DriftTracker {
        DriftTracker::with_start_round(config, window, origins, 0)
    }

    /// A tracker resuming mid-stream: the first ingested map is treated
    /// as global round `start_round` (so its first diff is numbered
    /// `start_round + 1`). Feeding segment `rounds[k..]` of a stream with
    /// `start_round = k` produces the same globally numbered diffs the
    /// whole-stream tracker would — the windowed-split fold the
    /// equivalence proptests pin down.
    pub fn with_start_round(
        config: AlertConfig,
        window: usize,
        origins: Option<Origins>,
        start_round: u32,
    ) -> DriftTracker {
        DriftTracker {
            origins,
            prev: None,
            start_round,
            rounds_ingested: 0,
            diffs: Tail::default(),
            summary: DriftSummary::default(),
            evaluator: Evaluator::new(config),
            transitions: Tail::default(),
            flip_window: RollingWindow::new(window),
            skew_window: RollingWindow::new(window),
            coverage_window: RollingWindow::new(window),
        }
    }

    /// The global round number the *next* ingested map's diff will carry
    /// (meaningful once at least one map has been ingested). Callers use
    /// it to look up the matching scan duration before feeding the map.
    pub fn next_round(&self) -> u32 {
        self.start_round + self.rounds_ingested as u32
    }

    /// Ingests the next round. `duration_ns` is the round's sim-time scan
    /// span, if known; it feeds the `scan-duration` alert rule.
    pub fn observe_round(&mut self, map: CatchmentMap, duration_ns: Option<u64>) -> StreamStep {
        let round = self.next_round();
        self.rounds_ingested += 1;
        let mut step = StreamStep {
            index: self.rounds_ingested,
            diff: None,
            transitions: Vec::new(),
        };
        if let Some(prev) = &self.prev {
            let d = diff_rounds(prev, &map, round, self.origins.as_ref());
            self.summary.merge(&DriftSummary::from_diff(&d));
            let r = u64::from(round);
            self.flip_window.push(r, d.flip_rate_permille);
            self.skew_window.push(r, d.max_share_delta_permille);
            self.coverage_window.push(r, d.cur_blocks);
            step.transitions = self.evaluator.observe(&d, duration_ns);
            for t in &step.transitions {
                self.transitions.push(t.clone());
            }
            self.diffs.push(d.clone());
            step.diff = Some(d);
        }
        self.prev = Some(map);
        step
    }

    /// Maps ingested so far (one more than the diffs produced).
    pub fn rounds_ingested(&self) -> u64 {
        self.rounds_ingested
    }

    /// The newest [`TAIL`] diffs, in round order.
    pub fn diffs(&self) -> &VecDeque<RoundDiff> {
        &self.diffs
    }

    /// The most recent diff.
    pub fn last_diff(&self) -> Option<&RoundDiff> {
        self.diffs.back()
    }

    /// The merged drift summary over every ingested transition.
    pub fn summary(&self) -> &DriftSummary {
        &self.summary
    }

    /// The newest [`TAIL`] alert transitions, in order.
    pub fn transitions(&self) -> &VecDeque<String> {
        &self.transitions
    }

    /// Rolling window of per-round flip rates (permille).
    pub fn flip_window(&self) -> &RollingWindow {
        &self.flip_window
    }

    /// Rolling window of per-round max site-share deltas (permille).
    pub fn skew_window(&self) -> &RollingWindow {
        &self.skew_window
    }

    /// Rolling window of responding-block counts per round.
    pub fn coverage_window(&self) -> &RollingWindow {
        &self.coverage_window
    }

    /// Live alert state as of the last ingested round: the newest [`TAIL`]
    /// cleared alerts plus still-active ones (`cleared_round: null`),
    /// sorted by `(fired_round, rule)`.
    pub fn alerts_snapshot(&self) -> Vec<Alert> {
        self.evaluator.snapshot()
    }

    /// The canonical `vp-monitor-drift/v1` document: the diff tail and the
    /// summary of everything ingested so far.
    pub fn drift_doc(&self, source: &str) -> Value {
        build_drift_doc(source, self.diffs.iter(), &self.summary)
    }

    /// The canonical `vp-monitor-alert/v1` document: what
    /// [`DriftTracker::alerts_snapshot`] lists, over the summary's rounds.
    pub fn alert_doc(&self, source: &str) -> Value {
        build_alert_doc(
            source,
            self.summary.rounds,
            self.evaluator.config(),
            &self.alerts_snapshot(),
        )
    }
}

/// Static facts about a daemon run, rendered into both publication
/// surfaces.
#[derive(Debug, Clone)]
pub struct DaemonMeta {
    /// Names the round stream (e.g. `"vp-daemon/tiny"`).
    pub source: String,
    /// Scenario scale name (`tiny`, `small`, ...).
    pub scale: String,
    /// Scan shard count.
    pub shards: u64,
    /// Configured inter-round interval (sim time, nanoseconds).
    pub interval_ns: u64,
    /// Rounds the daemon was asked to run (0 = unbounded).
    pub rounds_total: u64,
}

/// A scan round's three sim-time instants: it starts, its last probe
/// leaves, and its last arrival lands. Named as the obs report's `scans[]`
/// entries name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundInstants {
    pub started_ns: u64,
    pub last_probe_ns: u64,
    pub sim_end_ns: u64,
}
serde_json::impl_serialize! { RoundInstants { started_ns, last_probe_ns, sim_end_ns } }

/// One rolling window's digest in the status document.
fn window_value(w: &RollingWindow) -> Value {
    json!({
        "width": w.width(),
        "len": w.len(),
        "last": w.last().map(|(_, v)| v),
        "min": w.min_value(),
        "max": w.max_value(),
        "mean": w.mean(),
    })
}

/// Renders the canonical `vp-daemon-status/v2` document: run config
/// (`source`, `scale`, `shards`, `interval_ns`, `rounds_total`), ingest
/// progress (`rounds_ingested`), the current round's diff (`current`,
/// `null` before the second round), a digest of each rolling signal window
/// (`windows`), the cumulative drift `summary`, the live alert log
/// (`alerts`: the `active` count and the `log` of the newest [`TAIL`]
/// cleared alerts and the active ones), and (`profile`, `null` before the
/// first round) the last round's three sim-time instants. Keys are `BTreeMap`-sorted and all values integers, strings or
/// nulls, so equal states serialize byte-identically.
pub fn build_status_doc(
    meta: &DaemonMeta,
    tracker: &DriftTracker,
    profile: Option<&RoundInstants>,
) -> Value {
    let alerts = tracker.alerts_snapshot();
    let active = alerts.iter().filter(|a| a.cleared_round.is_none()).count();
    json!({
        "schema": "vp-daemon-status/v2",
        "source": meta.source,
        "scale": meta.scale,
        "shards": meta.shards,
        "interval_ns": meta.interval_ns,
        "rounds_total": meta.rounds_total,
        "rounds_ingested": tracker.rounds_ingested(),
        "current": tracker.last_diff(),
        "windows": {
            "flip_rate_permille": window_value(tracker.flip_window()),
            "share_skew_permille": window_value(tracker.skew_window()),
            "coverage_blocks": window_value(tracker.coverage_window()),
        },
        "summary": tracker.summary(),
        "alerts": { "active": active, "log": alerts },
        "profile": profile,
    })
}

/// The four alert rules, in the order the scrape publishes their
/// active/inactive gauges.
pub(crate) const ALERT_RULES: [&str; 4] = ["coverage-drop", "flip-rate", "load-skew", "scan-duration"];

/// Renders the daemon's Prometheus scrape: the scan engine's cumulative
/// registry (counters/histograms summed over every round so far) plus
/// `daemon.*` gauges derived from the tracker — ingest progress, the
/// newest and window-mean value of each rolling signal, a 0/1
/// `daemon.alert.active{rule=...}` gauge for every rule, and the current
/// per-site load shares. `site_names` maps raw site ids to display names
/// for the `site` label (ids are used verbatim when absent).
pub fn build_scrape(
    meta: &DaemonMeta,
    tracker: &DriftTracker,
    scan_metrics: &Registry,
    site_names: &BTreeMap<u8, String>,
) -> String {
    let mut reg = scan_metrics.clone();
    reg.gauge_add("daemon.rounds.ingested", &[], tracker.rounds_ingested() as i64);
    reg.gauge_add("daemon.rounds.total", &[], meta.rounds_total as i64);
    reg.gauge_add("daemon.shards", &[], meta.shards as i64);
    reg.gauge_add("daemon.interval.ns", &[], meta.interval_ns as i64);

    let last = |w: &RollingWindow| w.last().map(|(_, v)| v).unwrap_or(0);
    reg.gauge_add("daemon.flip.rate.permille", &[], last(tracker.flip_window()) as i64);
    reg.gauge_add(
        "daemon.flip.rate.window.mean.permille",
        &[],
        tracker.flip_window().mean() as i64,
    );
    reg.gauge_add("daemon.share.skew.permille", &[], last(tracker.skew_window()) as i64);
    reg.gauge_add(
        "daemon.share.skew.window.mean.permille",
        &[],
        tracker.skew_window().mean() as i64,
    );
    reg.gauge_add(
        "daemon.coverage.blocks",
        &[],
        last(tracker.coverage_window()) as i64,
    );
    reg.gauge_add(
        "daemon.coverage.blocks.window.mean",
        &[],
        tracker.coverage_window().mean() as i64,
    );

    let alerts = tracker.alerts_snapshot();
    for rule in ALERT_RULES {
        let active = alerts
            .iter()
            .any(|a| a.rule == rule && a.cleared_round.is_none());
        reg.gauge_add(
            "daemon.alert.active",
            &[("rule", rule)],
            i64::from(active),
        );
    }
    if let Some(d) = tracker.last_diff() {
        for (&site, &share) in &d.site_shares_permille {
            let id = site.to_string();
            let name = site_names.get(&site).map(String::as_str).unwrap_or(&id);
            reg.gauge_add("daemon.site.share.permille", &[("site", name)], share as i64);
        }
    }

    let mut help = BTreeMap::new();
    for (name, text) in [
        ("daemon.rounds.ingested", "Scan rounds ingested by the daemon."),
        ("daemon.rounds.total", "Rounds the daemon was asked to run (0 = unbounded)."),
        ("daemon.shards", "Scan shard count."),
        ("daemon.interval.ns", "Configured inter-round interval, sim-time nanoseconds."),
        ("daemon.flip.rate.permille", "Newest per-round catchment flip rate."),
        (
            "daemon.flip.rate.window.mean.permille",
            "Mean flip rate over the rolling window.",
        ),
        ("daemon.share.skew.permille", "Newest per-round max site-share delta."),
        (
            "daemon.share.skew.window.mean.permille",
            "Mean max site-share delta over the rolling window.",
        ),
        ("daemon.coverage.blocks", "Responding /24 blocks in the newest round."),
        (
            "daemon.coverage.blocks.window.mean",
            "Mean responding-block count over the rolling window.",
        ),
        ("daemon.alert.active", "1 while the rule's hysteresis alert is active."),
        ("daemon.site.share.permille", "Current load share per anycast site."),
    ] {
        help.insert(name.to_owned(), text.to_owned());
    }
    reg.to_prometheus_text(&help)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_tagged;
    use vp_bgp::SiteId;
    use vp_net::Block24;

    fn map(name: &str, pairs: &[(u32, u8)]) -> CatchmentMap {
        CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))))
    }

    fn drifting_rounds() -> Vec<CatchmentMap> {
        vec![
            map("r0", &[(1, 0), (2, 0), (3, 1), (4, 1)]),
            map("r1", &[(1, 0), (2, 0), (3, 1), (4, 1)]),
            map("r2", &[(1, 1), (2, 0), (3, 1)]),
            map("r3", &[(1, 0), (2, 0), (3, 1)]),
            map("r4", &[(1, 1), (2, 0), (3, 1)]),
        ]
    }

    fn meta() -> DaemonMeta {
        DaemonMeta {
            source: "unit".to_owned(),
            scale: "tiny".to_owned(),
            shards: 2,
            interval_ns: 900_000_000_000,
            rounds_total: 5,
        }
    }

    #[test]
    fn diffs_are_pairwise_and_numbered_from_one() {
        let rounds = [
            map("r0", &[(1, 0)]),
            map("r1", &[(1, 0)]),
            map("r2", &[(1, 1)]),
        ];
        let mut tracker = DriftTracker::new(AlertConfig::default(), 8, None);
        assert!(tracker.diffs().is_empty());
        // The first round only sets the baseline.
        assert!(tracker.observe_round(rounds[0].clone(), None).diff.is_none());
        assert!(tracker.diffs().is_empty());
        for r in &rounds[1..] {
            tracker.observe_round(r.clone(), None);
        }
        let diffs = tracker.diffs();
        assert_eq!(diffs.len(), 2);
        assert_eq!((diffs[0].round, diffs[0].flipped), (1, 0));
        assert_eq!((diffs[1].round, diffs[1].flipped), (2, 1));
        assert_eq!(tracker.summary().rounds, 2);
    }

    #[test]
    fn windows_track_the_newest_rounds_only() {
        let rounds = drifting_rounds();
        let mut tracker = DriftTracker::new(AlertConfig::default(), 2, None);
        for r in &rounds {
            tracker.observe_round(r.clone(), None);
        }
        // 4 diffs, window width 2: rounds 3 and 4 retained.
        assert_eq!(tracker.flip_window().len(), 2);
        assert_eq!(
            tracker.coverage_window().iter().collect::<Vec<_>>(),
            vec![(3, 3), (4, 3)]
        );
        assert_eq!(tracker.next_round(), 5);
    }

    #[test]
    fn status_doc_validates_and_is_stable() {
        let mut tracker = DriftTracker::new(AlertConfig::default(), 4, None);
        // Empty tracker: current is null, windows empty.
        let empty = build_status_doc(&meta(), &tracker, None);
        assert_eq!(validate_tagged(&empty), Vec::<String>::new());
        assert_eq!(empty.get("current"), Some(&Value::Null));

        for r in drifting_rounds() {
            tracker.observe_round(r, None);
        }
        let doc = build_status_doc(&meta(), &tracker, None);
        assert_eq!(validate_tagged(&doc), Vec::<String>::new());
        assert_eq!(
            serde_json::to_string_pretty(&doc).ok(),
            serde_json::to_string_pretty(&build_status_doc(&meta(), &tracker, None)).ok()
        );
        assert_eq!(
            doc.get("rounds_ingested").and_then(Value::as_u64),
            Some(5)
        );
        assert!(doc.get("current").is_some_and(|c| c.get("round").is_some()));
        let active = doc
            .get("alerts")
            .and_then(|a| a.get("active"))
            .and_then(Value::as_u64);
        // The sustained drift keeps both flip-rate and load-skew active.
        assert_eq!(active, Some(2), "{doc:?}");
    }

    #[test]
    fn scrape_carries_scan_and_daemon_series() {
        let mut tracker = DriftTracker::new(AlertConfig::default(), 4, None);
        for r in drifting_rounds() {
            tracker.observe_round(r, None);
        }
        let mut scan = Registry::new();
        scan.counter_add("scan.probes_sent", &[], 123);
        let names: BTreeMap<u8, String> = [(0, "LAX".to_owned())].into_iter().collect();
        let text = build_scrape(&meta(), &tracker, &scan, &names);
        assert!(text.contains("scan_probes_sent 123"), "{text}");
        assert!(text.contains("daemon_rounds_ingested 5"), "{text}");
        assert!(text.contains("# TYPE daemon_rounds_ingested gauge"), "{text}");
        assert!(
            text.contains("# HELP daemon_rounds_ingested Scan rounds ingested by the daemon."),
            "{text}"
        );
        // The sustained drift leaves flip-rate active; the other rules are 0.
        assert!(
            text.contains("daemon_alert_active{rule=\"flip-rate\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("daemon_alert_active{rule=\"coverage-drop\"} 0"),
            "{text}"
        );
        // Site 0 gets its display name; site 1 falls back to the raw id.
        assert!(
            text.contains("daemon_site_share_permille{site=\"LAX\"}"),
            "{text}"
        );
        assert!(
            text.contains("daemon_site_share_permille{site=\"1\"}"),
            "{text}"
        );
        // Deterministic for equal state.
        assert_eq!(text, build_scrape(&meta(), &tracker, &scan, &names));
    }
}
