//! Integration: the fig9 → vp-monitor replay pipeline end to end.
//!
//! Runs the tiny-scale stability rounds, writes them through the
//! snapshot format `run_all fig9_stability --snapshots` emits, reloads
//! them with the vp-monitor ingest layer, and runs the full diff/alert
//! pipeline — twice, asserting byte-identical output. The serialized documents must
//! match the goldens committed under `results/monitor/` (the same files
//! `scripts/check.sh` regenerates and compares via the CLI).

use vp_experiments::monitor::write_round_snapshots;
use vp_experiments::{Lab, Scale};
use vp_monitor::alert::AlertConfig;
use vp_monitor::ingest::{load_origins_sidecar, load_rounds_dir};
use vp_monitor::run_diff_pipeline;

const SOURCE: &str = "fig9_stability/tiny";

#[test]
fn fig9_replay_is_deterministic_and_matches_goldens() {
    let lab = Lab::new(Scale::Tiny);
    let rounds = lab.tangled_rounds();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vp-monitor-pipeline-test");
    let _ = std::fs::remove_dir_all(&dir);
    write_round_snapshots(&dir, &rounds, &lab.tangled().world).expect("write snapshots");

    let origins = load_origins_sidecar(&dir).expect("sidecar").expect("present");
    let (start, reloaded) = load_rounds_dir(&dir, Some(&origins)).expect("reload rounds");
    let _ = std::fs::remove_dir_all(&dir);

    let config = AlertConfig::default();
    let first = run_diff_pipeline(SOURCE, start, reloaded.clone(), Some(origins.clone()), None, &config);
    let second = run_diff_pipeline(SOURCE, start, reloaded, Some(origins), None, &config);

    // Byte-identical across runs: the pipeline has no hidden state.
    let drift = serde_json::to_string_pretty(&first.drift_doc).expect("drift json");
    let alerts = serde_json::to_string_pretty(&first.alert_doc).expect("alert json");
    assert_eq!(
        drift,
        serde_json::to_string_pretty(&second.drift_doc).expect("drift json"),
    );
    assert_eq!(
        alerts,
        serde_json::to_string_pretty(&second.alert_doc).expect("alert json"),
    );

    // And the committed goldens are exactly what this pipeline produces.
    let golden_drift = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/monitor/fig9_tiny.drift.json"
    ))
    .expect("committed drift golden");
    let golden_alerts = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/monitor/fig9_tiny.alerts.json"
    ))
    .expect("committed alerts golden");
    assert_eq!(drift, golden_drift, "drift doc diverged from golden");
    assert_eq!(alerts, golden_alerts, "alert doc diverged from golden");
}
