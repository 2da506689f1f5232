//! Per-experiment run reports: the experiment harness's view of the
//! [`vp_obs`] layer.
//!
//! While an experiment runs, the [`Lab`](crate::Lab) folds every fresh
//! scan's [`ScanObs`] and every BGP propagation's [`RouteObs`] into one
//! [`ObsState`]. After the experiment finishes, [`build_report`] renders
//! the accumulated state as a JSON run report
//! (`results/obs/<experiment>.report.json`), whose shape is pinned by the
//! schema snapshot embedded in `vp_monitor::schema` (the checked-in
//! `crates/vp-monitor/schema/obs_report.schema.json`).
//!
//! Two determinism rules shape this module:
//!
//! * Everything in a report is **sim-time or a counter** — wall-clock
//!   never appears, so reports are byte-stable across machines and runs.
//! * The `Lab` caches scans across experiments within one `run_all`
//!   process; only *fresh* work is recorded, so an experiment that reuses
//!   a cached scan honestly reports an empty `scans` array rather than
//!   double-counting another experiment's work.

use std::collections::BTreeMap;

use serde_json::Value;
use vp_obs::{Registry, TraceLevel, TraceSummary};
use verfploeter::scan::ScanObs;

/// Cap on events embedded in a report. `--obs full` traces can exceed the
/// ring capacity of every engine combined; the report keeps the earliest
/// slice and says so via `events_truncated`.
const REPORT_EVENT_CAP: usize = 512;

/// One fresh scan executed while the current experiment was running.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// Dataset name, e.g. `"SBV-5-15"` or `"STV-3-23/r17"`.
    pub name: String,
    /// Shard count the scan ran with (1 = serial path).
    pub shards: usize,
    pub probes_sent: u64,
    /// Blocks in the final catchment map.
    pub blocks_mapped: u64,
    /// Sim-time bounds of the probing phase.
    pub started_ns: u64,
    pub last_probe_ns: u64,
    /// Final event-loop clock (max over shards; shard-count-invariant).
    pub sim_end_ns: u64,
    /// Probes issued per shard, for the load-balance summary.
    pub shard_probes: Vec<u64>,
}

/// Observations accumulated across one experiment's fresh work.
#[derive(Debug, Default)]
pub struct ObsState {
    /// Merged metric registries of every fresh scan plus BGP counters.
    pub registry: Registry,
    /// Merged trace summaries (span aggregates + bounded event slices).
    pub trace: TraceSummary,
    /// Merged sim-time flight timelines (deterministic, DESIGN.md §9).
    pub flight: vp_obs::FlightTimeline,
    /// Merged wall-time flight timelines; empty unless the binary attached
    /// a wall channel. Outside the determinism contract.
    pub wall_flight: vp_obs::FlightTimeline,
    /// Per-scan records in execution order.
    pub scans: Vec<ScanRecord>,
}

impl ObsState {
    /// Folds one fresh scan's observability block into the state.
    pub fn record_scan(&mut self, record: ScanRecord, obs: &ScanObs) {
        self.registry.merge(&obs.registry);
        self.trace.merge(&obs.trace);
        self.flight.merge(&obs.flight);
        self.wall_flight.merge(&obs.wall_flight);
        self.scans.push(record);
    }

    /// Folds one BGP route-propagation's work counters into the state.
    pub fn record_route(&mut self, obs: &vp_bgp::RouteObs) {
        obs.record(&mut self.registry);
    }

    pub fn is_empty(&self) -> bool {
        self.scans.is_empty() && self.registry.is_empty() && self.trace.is_empty()
    }
}

/// Integer imbalance of a shard-probe split, in permille of the largest
/// shard: `(max - min) * 1000 / max`. 0 = perfectly balanced. Integer
/// arithmetic keeps the report byte-stable.
fn imbalance_permille(shard_probes: &[u64]) -> u64 {
    let max = shard_probes.iter().copied().max().unwrap_or(0);
    let min = shard_probes.iter().copied().min().unwrap_or(0);
    (max - min) * 1000 / max.max(1)
}

fn scan_value(rec: &ScanRecord) -> Value {
    let mut balance = BTreeMap::new();
    balance.insert("shards".to_owned(), Value::U64(rec.shards as u64));
    balance.insert(
        "min_probes".to_owned(),
        Value::U64(rec.shard_probes.iter().copied().min().unwrap_or(0)),
    );
    balance.insert(
        "max_probes".to_owned(),
        Value::U64(rec.shard_probes.iter().copied().max().unwrap_or(0)),
    );
    balance.insert(
        "imbalance_permille".to_owned(),
        Value::U64(imbalance_permille(&rec.shard_probes)),
    );

    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Value::Str(rec.name.clone()));
    obj.insert("probes_sent".to_owned(), Value::U64(rec.probes_sent));
    obj.insert("blocks_mapped".to_owned(), Value::U64(rec.blocks_mapped));
    obj.insert("started_ns".to_owned(), Value::U64(rec.started_ns));
    obj.insert("last_probe_ns".to_owned(), Value::U64(rec.last_probe_ns));
    obj.insert("sim_end_ns".to_owned(), Value::U64(rec.sim_end_ns));
    obj.insert("shard_balance".to_owned(), Value::Object(balance));
    Value::Object(obj)
}

/// Renders the accumulated state as the `vp-obs-report/v1` JSON document.
pub fn build_report(experiment: &str, mode: TraceLevel, state: &ObsState) -> Value {
    let scans: Vec<Value> = state.scans.iter().map(scan_value).collect();

    let phases: Vec<Value> = state
        .trace
        .spans
        .iter()
        .map(|(name, agg)| {
            let mut obj = BTreeMap::new();
            obj.insert("name".to_owned(), Value::Str(name.clone()));
            obj.insert("count".to_owned(), Value::U64(agg.count));
            obj.insert("total_nanos".to_owned(), Value::U64(agg.total_nanos));
            obj.insert("max_nanos".to_owned(), Value::U64(agg.max_nanos));
            Value::Object(obj)
        })
        .collect();

    // The registry already knows its canonical JSON form; round-trip it
    // through the parser instead of re-encoding metric-by-metric.
    #[expect(
        clippy::expect_used,
        reason = "parsing the registry's own canonical output cannot fail."
    )]
    let registry: Value =
        serde_json::from_str(&state.registry.to_canonical_json()).expect("canonical registry json");
    let metrics = match registry {
        Value::Object(mut obj) => obj.remove("metrics").unwrap_or(Value::Array(Vec::new())),
        _ => Value::Array(Vec::new()),
    };

    let truncated = state.trace.events.len() > REPORT_EVENT_CAP;
    let events: Vec<Value> = state
        .trace
        .events
        .iter()
        .take(REPORT_EVENT_CAP)
        .map(|e| {
            let mut obj = BTreeMap::new();
            obj.insert("at_nanos".to_owned(), Value::U64(e.at_nanos));
            obj.insert("name".to_owned(), Value::Str(e.name.clone()));
            obj.insert("detail".to_owned(), Value::Str(e.detail.clone()));
            Value::Object(obj)
        })
        .collect();

    let mut report = BTreeMap::new();
    report.insert(
        "schema".to_owned(),
        Value::Str("vp-obs-report/v1".to_owned()),
    );
    report.insert("experiment".to_owned(), Value::Str(experiment.to_owned()));
    report.insert("mode".to_owned(), Value::Str(mode.name().to_owned()));
    report.insert("scans".to_owned(), Value::Array(scans));
    report.insert("phases".to_owned(), Value::Array(phases));
    report.insert("metrics".to_owned(), metrics);
    report.insert("events".to_owned(), Value::Array(events));
    report.insert("events_truncated".to_owned(), Value::Bool(truncated));
    report.insert(
        "dropped_events".to_owned(),
        Value::U64(state.trace.dropped_events),
    );
    Value::Object(report)
}

/// The mini JSON-schema validator the report snapshot test uses. It
/// moved to [`vp_monitor::schema`] (the monitor validates four document
/// families against embedded snapshots); this re-export keeps the
/// harness-side call sites working.
pub use vp_monitor::schema::validate_schema;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_zero_for_balanced_and_empty() {
        assert_eq!(imbalance_permille(&[]), 0);
        assert_eq!(imbalance_permille(&[5, 5, 5]), 0);
        assert_eq!(imbalance_permille(&[100, 50]), 500);
        assert_eq!(imbalance_permille(&[10, 0]), 1000);
    }

    #[test]
    fn empty_state_builds_a_minimal_report() {
        let state = ObsState::default();
        assert!(state.is_empty());
        let report = build_report("x", TraceLevel::Summary, &state);
        let Value::Object(obj) = &report else {
            panic!("report not an object")
        };
        assert_eq!(
            obj.get("schema"),
            Some(&Value::Str("vp-obs-report/v1".to_owned()))
        );
        assert_eq!(obj.get("mode"), Some(&Value::Str("summary".to_owned())));
        assert_eq!(obj.get("events_truncated"), Some(&Value::Bool(false)));
    }

    /// The re-exported validator is the real one (its own tests live in
    /// `vp_monitor::schema`).
    #[test]
    fn reexported_validator_validates() {
        let schema: Value = serde_json::from_str(r#"{"type":"integer"}"#).unwrap();
        assert!(validate_schema(&Value::U64(7), &schema).is_empty());
        assert!(!validate_schema(&Value::Str("7".to_owned()), &schema).is_empty());
    }
}
