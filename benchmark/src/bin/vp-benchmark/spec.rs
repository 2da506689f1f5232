//! The benchmark's vocabulary: workloads, metric names, units, directions.
//!
//! `BENCHMARK.json` at the repo root lists the same names (a self-test
//! compares the two); the bounds live only there.

use std::collections::BTreeMap;

use serde_json::{json, Value};

pub const WORKLOADS: [&str; 4] = ["scan-small", "scan-large", "daemon-live", "monitor-replay"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    lower("ns_per_block", "ns"),
    lower("cpu_ns_per_block", "ns"),
    lower("rss_bytes_per_block", "B"),
];

/// Single layers, measured in the traced pass. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 55] = [
    // Round checks (0 on a correct run; also carried by `failed`/`correct`).
    lower("error_rate", "ratio"),
    lower("output_mismatch", "count"),
    // Host.
    higher("host.nproc", "count"),
    lower("host.calibration_ns", "ns"),
    // Set-up.
    lower("topology.generate_s", "s"),
    lower("hitlist.build_s", "s"),
    lower("bgp.route_s", "s"),
    lower("daemon.new_s", "s"),
    lower("ingest.load_origins_s", "s"),
    lower("setup.rss_bytes", "B"),
    lower("harness.prep_s", "s"),
    // Round timing beyond the fast decile the end-to-end metrics report.
    higher("blocks_per_s", "1/s"),
    lower("round.median_ns_per_block", "ns"),
    lower("round.tail_ns_per_block", "ns"),
    higher("round.tail_percentile", "%"),
    higher("round.samples", "count"),
    lower("round.max_ns_per_block", "ns"),
    lower("trace.overhead_ratio", "ratio"),
    // Scan, from outside and through the wall flight channel.
    lower("scan.run_scan_s", "s"),
    lower("scan.result_drop_s", "s"),
    lower("scan.schedule_walk_s", "s"),
    lower("scan.sim_dispatch_s", "s"),
    lower("scan.cleaning_s", "s"),
    lower("scan.catchment_build_s", "s"),
    lower("scan.round_self_s", "s"),
    lower("scan.outside_round_s", "s"),
    // Scan counts from `ScanResult`'s public fields; they repeat exactly.
    lower("sim.events", "count"),
    lower("sim.events_per_block", "ratio"),
    higher("sim.replies", "count"),
    lower("sim.lost", "count"),
    higher("clean.total", "count"),
    higher("clean.kept", "count"),
    higher("clean.keep_ratio", "ratio"),
    higher("catchment.mapped_blocks", "count"),
    higher("scan.response_rate", "ratio"),
    higher("engine.events_per_s", "1/s"),
    // Allocation, counted only while the traced pass runs.
    lower("alloc.count_per_block", "ratio"),
    lower("alloc.bytes_per_block", "B"),
    lower("alloc.peak_live_bytes_per_block", "B"),
    // Daemon.
    lower("daemon.run_round_s", "s"),
    lower("daemon.status_doc_s", "s"),
    lower("daemon.scrape_s", "s"),
    lower("daemon.publish_write_s", "s"),
    lower("daemon.status_bytes", "B"),
    lower("daemon.scrape_bytes", "B"),
    higher("daemon.cpu_wall_ratio", "ratio"),
    higher("exec.workers", "count"),
    lower("drift.flipped_per_round", "count"),
    lower("drift.alert_transitions", "count"),
    // Monitor.
    lower("ingest.load_round_file_s", "s"),
    lower("ingest.bytes_per_round", "B"),
    higher("ingest.mib_per_s", "MiB/s"),
    lower("monitor.observe_round_s", "s"),
    lower("monitor.docs_s", "s"),
    lower("snapshot.write_s", "s"),
];

/// Metric values by name. Filled sparsely by the workloads; rendering
/// through [`render`] adds every listed metric, absent ones as 0.
pub type Metrics = BTreeMap<&'static str, f64>;

/// `{name: {"value": v, "unit": u}}` for every metric in `defs`.
pub fn render(defs: &[MetricDef], values: &Metrics) -> Value {
    let entry = |d: &MetricDef| {
        let value = values.get(d.name).copied().unwrap_or(0.0);
        (d.name.to_owned(), json!({"value": value, "unit": d.unit}))
    };
    Value::Object(defs.iter().map(entry).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn defs(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    /// `BENCHMARK.json` and the harness name the same workloads and the
    /// same metrics with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        assert_eq!(names(&doc, "end_to_end"), defs(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), defs(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("paths").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
