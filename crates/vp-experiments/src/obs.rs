//! Per-experiment run reports: the experiment harness's view of the
//! [`vp_obs`] layer.
//!
//! While an experiment runs, the [`Lab`](crate::Lab) folds every fresh
//! scan's [`ScanObs`] and every BGP propagation's [`vp_bgp::RouteObs`] into one
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

use serde_json::{json, Value};
use vp_obs::{EventLog, Registry, TraceLevel};
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
    /// Merged event logs (bounded event slices + eviction counts).
    pub events: EventLog,
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
        self.events.merge(&obs.events);
        self.wall_flight.merge(&obs.wall_flight);
        self.scans.push(record);
    }

    /// Folds one BGP route-propagation's work counters into the state.
    pub fn record_route(&mut self, obs: &vp_bgp::RouteObs) {
        obs.record(&mut self.registry);
    }

    pub fn is_empty(&self) -> bool {
        self.scans.is_empty() && self.registry.is_empty() && self.events.is_empty()
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

/// One `scans` entry: the record's counters and its shard-load balance.
fn scan_value(rec: &ScanRecord) -> Value {
    let probes = &rec.shard_probes;
    json!({
        "name": rec.name,
        "probes_sent": rec.probes_sent,
        "blocks_mapped": rec.blocks_mapped,
        "started_ns": rec.started_ns,
        "last_probe_ns": rec.last_probe_ns,
        "sim_end_ns": rec.sim_end_ns,
        "shard_balance": {
            "shards": rec.shards,
            "min_probes": probes.iter().copied().min().unwrap_or(0),
            "max_probes": probes.iter().copied().max().unwrap_or(0),
            "imbalance_permille": imbalance_permille(probes),
        },
    })
}

/// Renders the accumulated state as the `vp-obs-report/v2` JSON document:
/// `schema`, `experiment`, `mode`, one `scans` entry per fresh scan (its
/// three sim-time instants among them), the registry's `metrics`, the
/// first `REPORT_EVENT_CAP` `events` (`events_truncated` says whether
/// there were more) and the rings' `dropped_events`.
pub fn build_report(experiment: &str, mode: TraceLevel, state: &ObsState) -> Value {
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
    let log = &state.events;
    json!({
        "schema": "vp-obs-report/v2",
        "experiment": experiment,
        "mode": mode.name(),
        "scans": state.scans.iter().map(scan_value).collect::<Vec<_>>(),
        "metrics": metrics,
        "events": log
            .events
            .iter()
            .take(REPORT_EVENT_CAP)
            .map(|e| json!({ "at_nanos": e.at_nanos, "name": e.name, "detail": e.detail }))
            .collect::<Vec<_>>(),
        "events_truncated": log.events.len() > REPORT_EVENT_CAP,
        "dropped_events": log.dropped,
    })
}

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
            Some(&Value::Str("vp-obs-report/v2".to_owned()))
        );
        assert_eq!(obj.get("mode"), Some(&Value::Str("summary".to_owned())));
        assert_eq!(obj.get("events_truncated"), Some(&Value::Bool(false)));
    }
}
