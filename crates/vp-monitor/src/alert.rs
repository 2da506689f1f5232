//! Deterministic threshold + hysteresis alerting over round diffs.
//!
//! Four rules, all integer permille comparisons:
//!
//! * `flip-rate` — per-round site-flip rate above threshold. The paper's
//!   stable baseline is ~1‰ of responders flipping per round, an order of
//!   magnitude below responsiveness churn; a sustained excursion means a
//!   routing change, not noise.
//! * `load-skew` — a site's load share moved more than the bound in one
//!   round (the load-aware mapping signal: §5's motivation for watching
//!   per-site shares, and what an operator playbook keys on).
//! * `coverage-drop` — responding blocks fell by more than the bound
//!   (probe loss, a dead site, or a hitlist problem).
//! * `scan-duration` — a round's sim-time scan span blew past the
//!   baseline established from the first rounds (a scan that stops
//!   finishing on schedule can't drive a 15-minute cadence).
//!
//! Hysteresis: a rule must breach for `trigger_rounds` consecutive rounds
//! to fire and stay calm for `clear_rounds` consecutive rounds to clear,
//! so a single noisy round neither fires nor clears an alert. No wall
//! clock is involved anywhere — rounds are the only time axis — so the
//! same diff sequence always produces byte-identical alert documents.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::diff::RoundDiff;

/// Alert thresholds and hysteresis windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertConfig {
    /// `flip-rate` fires above this many flips per 1000 continuing
    /// responders.
    pub flip_rate_permille: u64,
    /// `load-skew` fires when a site's share moves more than this.
    pub share_delta_permille: u64,
    /// `coverage-drop` fires when responding blocks fall more than this.
    pub coverage_drop_permille: u64,
    /// `scan-duration` fires when a round's scan span exceeds
    /// `baseline * blowup / 1000`.
    pub duration_blowup_permille: u64,
    /// Rounds used to establish the duration baseline (median).
    pub duration_baseline_rounds: u32,
    /// Consecutive breaching rounds before an alert fires.
    pub trigger_rounds: u32,
    /// Consecutive calm rounds before an active alert clears.
    pub clear_rounds: u32,
}

impl Default for AlertConfig {
    fn default() -> AlertConfig {
        AlertConfig {
            // Paper baseline: flips ≈ 1‰ per round; 5‰ sustained is drift.
            flip_rate_permille: 5,
            share_delta_permille: 50,
            coverage_drop_permille: 100,
            duration_blowup_permille: 1500,
            duration_baseline_rounds: 4,
            trigger_rounds: 2,
            clear_rounds: 2,
        }
    }
}

/// One fired alert (cleared or still active at end of sequence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// `flip-rate`, `load-skew`, `coverage-drop` or `scan-duration`.
    pub rule: String,
    /// Round whose breach completed the trigger window.
    pub fired_round: u32,
    /// Round that completed the clear window; `None` = active at end.
    pub cleared_round: Option<u32>,
    /// Worst observed value while breaching/active.
    pub peak_value: u64,
    /// Round where the peak occurred.
    pub peak_round: u32,
    /// The configured threshold the value is compared against.
    pub threshold: u64,
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Default)]
struct Hysteresis {
    breaching: u32,
    calm: u32,
    /// Peak over the current breach window (pre-fire) or active alert.
    peak: u64,
    peak_round: u32,
    active: bool,
    fired_round: u32,
}

impl Hysteresis {
    /// Advances one round; returns a fired/cleared transition message.
    fn step(
        &mut self,
        rule: &'static str,
        round: u32,
        value: u64,
        threshold: u64,
        config: &AlertConfig,
        done: &mut Vec<Alert>,
    ) -> Option<String> {
        let breach = value > threshold;
        if breach {
            self.breaching += 1;
            self.calm = 0;
            if value > self.peak || self.breaching == 1 {
                self.peak = self.peak.max(value);
                if value >= self.peak {
                    self.peak_round = round;
                }
            }
            if !self.active && self.breaching >= config.trigger_rounds {
                self.active = true;
                self.fired_round = round;
                return Some(format!(
                    "round {round}: {rule} FIRED ({value} > {threshold} permille, \
                     {n} consecutive rounds)",
                    n = self.breaching
                ));
            }
        } else {
            self.breaching = 0;
            if self.active {
                self.calm += 1;
                if self.calm >= config.clear_rounds {
                    done.push(Alert {
                        rule: rule.to_owned(),
                        fired_round: self.fired_round,
                        cleared_round: Some(round),
                        peak_value: self.peak,
                        peak_round: self.peak_round,
                        threshold,
                    });
                    let fired = self.fired_round;
                    *self = Hysteresis::default();
                    return Some(format!(
                        "round {round}: {rule} cleared (fired round {fired})"
                    ));
                }
            } else {
                self.peak = 0;
                self.peak_round = 0;
            }
        }
        None
    }

    /// Flushes a still-active alert at end of sequence.
    fn finish(&self, rule: &str, threshold: u64, done: &mut Vec<Alert>) {
        if self.active {
            done.push(Alert {
                rule: rule.to_owned(),
                fired_round: self.fired_round,
                cleared_round: None,
                peak_value: self.peak,
                peak_round: self.peak_round,
                threshold,
            });
        }
    }
}

/// The incremental alert evaluator. Feed it round diffs in order (plus
/// optional sim-time scan durations); collect the final alert set with
/// [`Evaluator::finish`]. `watch` mode feeds it incrementally and prints
/// the transition messages [`Evaluator::observe`] returns.
#[derive(Debug, Clone)]
pub struct Evaluator {
    config: AlertConfig,
    flip: Hysteresis,
    skew: Hysteresis,
    coverage: Hysteresis,
    duration: Hysteresis,
    /// First-rounds durations, until the baseline is established.
    duration_window: Vec<u64>,
    duration_baseline: Option<u64>,
    rounds_seen: u64,
    done: Vec<Alert>,
}

impl Evaluator {
    pub fn new(config: AlertConfig) -> Evaluator {
        Evaluator {
            config,
            flip: Hysteresis::default(),
            skew: Hysteresis::default(),
            coverage: Hysteresis::default(),
            duration: Hysteresis::default(),
            duration_window: Vec::new(),
            duration_baseline: None,
            rounds_seen: 0,
            done: Vec::new(),
        }
    }

    pub fn config(&self) -> &AlertConfig {
        &self.config
    }

    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Integer median of the collected baseline window.
    fn establish_baseline(window: &[u64]) -> u64 {
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        // observe() only establishes a baseline from a full window.
        sorted.get(sorted.len() / 2).copied().unwrap_or(0)
    }

    /// Advances the evaluator by one round. `duration_ns` is the round's
    /// sim-time scan span (from the obs report), if known. Returns
    /// human-readable fired/cleared transitions for live display.
    pub fn observe(&mut self, d: &RoundDiff, duration_ns: Option<u64>) -> Vec<String> {
        self.rounds_seen += 1;
        let mut transitions = Vec::new();
        let c = self.config.clone();

        if let Some(t) = self.flip.step(
            "flip-rate",
            d.round,
            d.flip_rate_permille,
            c.flip_rate_permille,
            &c,
            &mut self.done,
        ) {
            transitions.push(t);
        }
        if let Some(t) = self.skew.step(
            "load-skew",
            d.round,
            d.max_share_delta_permille,
            c.share_delta_permille,
            &c,
            &mut self.done,
        ) {
            transitions.push(t);
        }
        let drop = (-d.coverage_delta_permille).max(0) as u64;
        if let Some(t) = self.coverage.step(
            "coverage-drop",
            d.round,
            drop,
            c.coverage_drop_permille,
            &c,
            &mut self.done,
        ) {
            transitions.push(t);
        }

        if let Some(dur) = duration_ns {
            match self.duration_baseline {
                None => {
                    self.duration_window.push(dur);
                    if self.duration_window.len() >= c.duration_baseline_rounds.max(1) as usize {
                        self.duration_baseline =
                            Some(Self::establish_baseline(&self.duration_window));
                    }
                }
                Some(baseline) => {
                    // Compare in permille of baseline so the threshold is
                    // scale-free; value 1000 = exactly baseline.
                    let rel = dur.saturating_mul(1000) / baseline.max(1);
                    if let Some(t) = self.duration.step(
                        "scan-duration",
                        d.round,
                        rel,
                        c.duration_blowup_permille,
                        &c,
                        &mut self.done,
                    ) {
                        transitions.push(t);
                    }
                }
            }
        }
        transitions
    }

    /// Live view of the alert state *as of the last observed round*:
    /// cleared alerts plus every still-active one (with `cleared_round:
    /// None`), sorted by `(fired_round, rule)` exactly like
    /// [`Evaluator::finish`]. The daemon status surface publishes this
    /// after every round; calling it never perturbs the hysteresis state,
    /// so a snapshot taken after the final round is byte-identical to what
    /// `finish` would return.
    pub fn snapshot(&self) -> Vec<Alert> {
        let mut all = self.done.clone();
        let c = &self.config;
        self.flip.finish("flip-rate", c.flip_rate_permille, &mut all);
        self.skew.finish("load-skew", c.share_delta_permille, &mut all);
        self.coverage
            .finish("coverage-drop", c.coverage_drop_permille, &mut all);
        self.duration
            .finish("scan-duration", c.duration_blowup_permille, &mut all);
        all.sort_by(|a, b| (a.fired_round, &a.rule).cmp(&(b.fired_round, &b.rule)));
        all
    }
}

fn config_value(c: &AlertConfig) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("flip_rate_permille".to_owned(), Value::U64(c.flip_rate_permille));
    obj.insert(
        "share_delta_permille".to_owned(),
        Value::U64(c.share_delta_permille),
    );
    obj.insert(
        "coverage_drop_permille".to_owned(),
        Value::U64(c.coverage_drop_permille),
    );
    obj.insert(
        "duration_blowup_permille".to_owned(),
        Value::U64(c.duration_blowup_permille),
    );
    obj.insert(
        "duration_baseline_rounds".to_owned(),
        Value::U64(u64::from(c.duration_baseline_rounds)),
    );
    obj.insert("trigger_rounds".to_owned(), Value::U64(u64::from(c.trigger_rounds)));
    obj.insert("clear_rounds".to_owned(), Value::U64(u64::from(c.clear_rounds)));
    Value::Object(obj)
}

pub(crate) fn alert_value(a: &Alert) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("rule".to_owned(), Value::Str(a.rule.clone()));
    obj.insert("fired_round".to_owned(), Value::U64(u64::from(a.fired_round)));
    obj.insert(
        "cleared_round".to_owned(),
        match a.cleared_round {
            Some(r) => Value::U64(u64::from(r)),
            None => Value::Null,
        },
    );
    obj.insert("peak_value".to_owned(), Value::U64(a.peak_value));
    obj.insert("peak_round".to_owned(), Value::U64(u64::from(a.peak_round)));
    obj.insert("threshold".to_owned(), Value::U64(a.threshold));
    Value::Object(obj)
}

/// Renders an alert set as the canonical `vp-monitor-alert/v1` document.
/// Keys are `BTreeMap`-sorted and all values integers or strings, so equal
/// inputs serialize byte-identically.
pub fn build_alert_doc(
    source: &str,
    rounds: u64,
    config: &AlertConfig,
    alerts: &[Alert],
) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_owned(),
        Value::Str("vp-monitor-alert/v1".to_owned()),
    );
    doc.insert("source".to_owned(), Value::Str(source.to_owned()));
    doc.insert("rounds".to_owned(), Value::U64(rounds));
    doc.insert("config".to_owned(), config_value(config));
    doc.insert(
        "alerts".to_owned(),
        Value::Array(alerts.iter().map(alert_value).collect()),
    );
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::RoundDiff;

    fn diff(round: u32, flip_rate: u64) -> RoundDiff {
        RoundDiff {
            round,
            prev_name: format!("r{}", round - 1),
            cur_name: format!("r{round}"),
            stable: 1000 - flip_rate,
            flipped: flip_rate,
            to_nr: 0,
            from_nr: 0,
            prev_blocks: 1000,
            cur_blocks: 1000,
            coverage_delta_permille: 0,
            flip_rate_permille: flip_rate,
            site_shares_permille: BTreeMap::new(),
            max_share_delta_permille: 0,
            flips_by_as: BTreeMap::new(),
        }
    }

    fn run(rates: &[u64], config: AlertConfig) -> Vec<Alert> {
        let mut ev = Evaluator::new(config);
        for (i, &r) in rates.iter().enumerate() {
            let _ = ev.observe(&diff(i as u32 + 1, r), None);
        }
        ev.snapshot()
    }

    #[test]
    fn single_breach_does_not_fire() {
        let alerts = run(&[1, 20, 1, 1, 1], AlertConfig::default());
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn sustained_breach_fires_then_clears() {
        let alerts = run(&[1, 20, 30, 20, 1, 1, 1], AlertConfig::default());
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.rule, "flip-rate");
        assert_eq!(a.fired_round, 3); // second consecutive breach
        assert_eq!(a.cleared_round, Some(6)); // second consecutive calm round
        assert_eq!(a.peak_value, 30);
        assert_eq!(a.peak_round, 3);
        assert_eq!(a.threshold, 5);
    }

    #[test]
    fn still_active_alert_has_null_clear() {
        let alerts = run(&[20, 20, 20], AlertConfig::default());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].cleared_round, None);
        assert_eq!(alerts[0].fired_round, 2);
    }

    #[test]
    fn one_calm_round_does_not_clear() {
        // Breach, blip calm, breach again: still one continuous alert.
        let alerts = run(&[20, 20, 1, 20, 20], AlertConfig::default());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].cleared_round, None);
    }

    #[test]
    fn trigger_rounds_one_fires_immediately() {
        let config = AlertConfig {
            trigger_rounds: 1,
            clear_rounds: 1,
            ..AlertConfig::default()
        };
        let alerts = run(&[20, 1, 20, 1], config);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].fired_round, 1);
        assert_eq!(alerts[0].cleared_round, Some(2));
        assert_eq!(alerts[1].fired_round, 3);
        assert_eq!(alerts[1].cleared_round, Some(4));
    }

    #[test]
    fn clear_then_immediate_retrigger_is_two_alerts() {
        // Fires at round 2, clears at round 4, and the drift resuming
        // right after the clear is a *new* incident, not a continuation.
        let alerts = run(&[20, 20, 1, 1, 20, 20], AlertConfig::default());
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].fired_round, 2);
        assert_eq!(alerts[0].cleared_round, Some(4));
        assert_eq!(alerts[1].fired_round, 6);
        assert_eq!(alerts[1].cleared_round, None);
        // The second incident starts its peak tracking from scratch.
        assert_eq!(alerts[1].peak_value, 20);
    }

    #[test]
    fn retrigger_within_clear_window_is_one_alert() {
        // A breach inside the clear window resets the calm counter, so the
        // alert never clears at round 5: one continuous incident that only
        // clears after two calm rounds *in a row* (rounds 5-6).
        let alerts = run(&[20, 20, 1, 20, 1, 1, 1], AlertConfig::default());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].fired_round, 2);
        assert_eq!(alerts[0].cleared_round, Some(6));
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let mut ev = Evaluator::new(AlertConfig::default());
        for (i, &r) in [20u64, 20, 20].iter().enumerate() {
            let _ = ev.observe(&diff(i as u32 + 1, r), None);
        }
        let snap = ev.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].cleared_round, None);
        // Snapshotting twice changes nothing.
        assert_eq!(ev.snapshot(), snap);
    }

    #[test]
    fn duration_rule_uses_median_baseline() {
        let mut ev = Evaluator::new(AlertConfig {
            trigger_rounds: 1,
            ..AlertConfig::default()
        });
        // Baseline window (4 rounds, median 100).
        for (i, dur) in [100u64, 90, 110, 100].into_iter().enumerate() {
            let t = ev.observe(&diff(i as u32 + 1, 0), Some(dur));
            assert!(t.is_empty(), "{t:?}");
        }
        // 1.4x baseline: below the 1.5x default threshold.
        assert!(ev.observe(&diff(5, 0), Some(140)).is_empty());
        // 1.6x baseline: fires.
        let t = ev.observe(&diff(6, 0), Some(160));
        assert_eq!(t.len(), 1, "{t:?}");
        let alerts = ev.snapshot();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "scan-duration");
        assert_eq!(alerts[0].peak_value, 1600);
    }

    #[test]
    fn alert_doc_is_canonical_and_stable() {
        let alerts = run(&[20, 20, 1, 1], AlertConfig::default());
        let doc = build_alert_doc("test", 4, &AlertConfig::default(), &alerts);
        let a = serde_json::to_string_pretty(&doc).ok();
        let b = serde_json::to_string_pretty(&build_alert_doc(
            "test",
            4,
            &AlertConfig::default(),
            &alerts,
        ))
        .ok();
        assert_eq!(a, b);
        assert!(a.is_some_and(|s| s.contains("\"vp-monitor-alert/v1\"")));
    }
}
