//! Schema snapshot test for the per-experiment observability reports.
//!
//! The report shape is a contract with downstream tooling (and with
//! `scripts/check.sh`, which validates the reports a real `run_all --obs
//! full` emits — via `vp-monitor validate`, the same embedded snapshot).
//! The schema lives at `crates/vp-monitor/schema/obs_report.schema.json`,
//! embedded as `vp_monitor::schema::OBS_REPORT_SCHEMA`; validating with
//! it here means the snapshot cannot drift from the validator.

use vp_experiments::obs::validate_schema;
use vp_experiments::{Lab, Scale};
use vp_obs::TraceLevel;

fn schema() -> serde_json::Value {
    serde_json::from_str(vp_monitor::schema::OBS_REPORT_SCHEMA).expect("parse schema snapshot")
}

/// Runs a real (tiny) experiment with full tracing and validates the
/// report it would write against the checked-in schema.
#[test]
fn generated_report_matches_schema_snapshot() {
    let mut lab = Lab::new(Scale::Tiny);
    lab.obs = TraceLevel::Full;
    let out = vp_experiments::experiments::fig2::run(&lab);
    assert!(!out.is_empty());
    let report = lab.take_obs_report("fig2_broot_maps").expect("report");

    let errors = validate_schema(&report, &schema());
    assert!(errors.is_empty(), "schema violations: {errors:#?}");

    // The report must reflect real work: fig2 runs at least one scan.
    let serde_json::Value::Object(obj) = &report else {
        panic!("report is not an object")
    };
    let scans = obj.get("scans").and_then(|v| v.as_array()).expect("scans");
    assert!(!scans.is_empty(), "fig2 recorded no scans");
    let metrics = obj
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics");
    assert!(
        metrics.len() > 10,
        "suspiciously few metrics: {}",
        metrics.len()
    );
}

/// Summary mode must also conform (no events, but same shape).
#[test]
fn summary_mode_report_matches_schema_snapshot() {
    let mut lab = Lab::new(Scale::Tiny);
    lab.obs = TraceLevel::Summary;
    let s = lab.broot();
    let hl = lab.broot_hitlist();
    let _ = lab.vp_scan("SBV-SCHEMA", s, hl, &s.announcement, 3);
    let report = lab.take_obs_report("schema-check").expect("report");
    let errors = validate_schema(&report, &schema());
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

/// Validates reports emitted by an actual `run_all --obs full` run when
/// `VP_OBS_REPORT_DIR` points at them (scripts/check.sh sets this after
/// running one experiment); skips silently otherwise so `cargo test`
/// stays hermetic.
#[test]
fn emitted_reports_match_schema_snapshot() {
    #[expect(
        clippy::disallowed_methods,
        reason = "scripts/check.sh points this test at a fresh run's reports; unset, it skips"
    )]
    let Ok(dir) = std::env::var("VP_OBS_REPORT_DIR") else {
        return;
    };
    let schema = schema();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("read VP_OBS_REPORT_DIR") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e == "json") != Some(true) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read report");
        let report: serde_json::Value = serde_json::from_str(&text).expect("parse report");
        let errors = validate_schema(&report, &schema);
        assert!(
            errors.is_empty(),
            "{} violates the schema: {errors:#?}",
            path.display()
        );
        seen += 1;
    }
    assert!(seen > 0, "VP_OBS_REPORT_DIR={dir} contained no reports");
}
