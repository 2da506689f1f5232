//! Integration: the vp-daemon telemetry plane end to end.
//!
//! Drives the daemon's scan-round loop in sim time at tiny scale — the
//! same configuration `scripts/check.sh` runs through the `vp_daemon`
//! binary — and pins its two publication surfaces:
//!
//! * the canonical `vp-daemon-status/v1` document validates against its
//!   schema and byte-matches the golden under `results/daemon/`;
//! * the Prometheus scrape byte-matches its golden;
//! * both are shard-count-invariant (§7): a 1-shard daemon and a 2-shard
//!   daemon publish identical bytes apart from the declared shard count;
//! * the daemon's streamed diffs equal the offline batch pipeline over
//!   `Lab::tangled_rounds` — live and post-hoc views of STV-3-23 agree
//!   exactly, because the daemon reuses the dataset's seeds and names.

use serde_json::Value;
use vp_experiments::{Daemon, DaemonConfig, Lab, Scale};
use vp_monitor::pipeline::run_diff_pipeline;
use vp_monitor::schema::validate_tagged;

/// The golden configuration: tiny scale, 6 rounds, 2 shards, window 8 —
/// exactly what `scripts/check.sh` passes to the `vp_daemon` binary.
fn golden_config() -> DaemonConfig {
    DaemonConfig {
        shards: 2,
        rounds: 6,
        window: 8,
        ..DaemonConfig::new(Scale::Tiny)
    }
}

fn run_daemon(config: &DaemonConfig) -> Daemon {
    let mut daemon = Daemon::new(config);
    for _ in 0..config.rounds {
        daemon.run_round();
    }
    daemon
}

fn status_text(daemon: &Daemon) -> String {
    let mut text = serde_json::to_string_pretty(&daemon.status_doc()).expect("status json");
    text.push('\n'); // the binary writes a trailing newline
    text
}

#[test]
fn daemon_run_is_deterministic_and_matches_goldens() {
    let config = golden_config();
    let first = run_daemon(&config);
    let second = run_daemon(&config);

    // Schema-valid at every publication point.
    let doc = first.status_doc();
    assert_eq!(validate_tagged(&doc), Vec::<String>::new());
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("vp-daemon-status/v1")
    );

    // Byte-identical across runs: the loop has no hidden state.
    let status = status_text(&first);
    let scrape = first.scrape();
    assert_eq!(status, status_text(&second));
    assert_eq!(scrape, second.scrape());

    // And the committed goldens are exactly what the daemon publishes.
    let golden_status = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/daemon/vp_daemon_status.json"
    ))
    .expect("committed status golden");
    let golden_scrape = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/daemon/vp_daemon_scrape.prom"
    ))
    .expect("committed scrape golden");
    assert_eq!(status, golden_status, "status doc diverged from golden");
    assert_eq!(scrape, golden_scrape, "scrape diverged from golden");
}

/// §7 carried to the telemetry plane: the shard count changes wall-clock,
/// never the published telemetry (apart from the declared `shards`
/// config field and its gauge).
#[test]
fn daemon_telemetry_is_shard_count_invariant() {
    let two = run_daemon(&golden_config());
    let one = run_daemon(&DaemonConfig {
        shards: 1,
        ..golden_config()
    });

    assert_eq!(one.tracker().diffs(), two.tracker().diffs());
    assert_eq!(one.tracker().summary(), two.tracker().summary());
    assert_eq!(one.tracker().alerts_snapshot(), two.tracker().alerts_snapshot());
    assert_eq!(
        serde_json::to_string_pretty(&one.tracker().drift_doc("x")).ok(),
        serde_json::to_string_pretty(&two.tracker().drift_doc("x")).ok()
    );
    assert_eq!(
        one.scan_metrics().to_canonical_json(),
        two.scan_metrics().to_canonical_json()
    );

    // The full surfaces differ only where they declare the shard count.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("\"shards\"") && !l.contains("daemon_shards"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&status_text(&one)), strip(&status_text(&two)));
    assert_eq!(strip(&one.scrape()), strip(&two.scrape()));
}

/// The live stream and the offline batch are the same dataset: daemon
/// round r replays `tangled_rounds()[r]` bit for bit, so the streamed
/// drift documents equal `run_diff_pipeline` over the cached rounds.
#[test]
fn daemon_stream_equals_offline_batch_pipeline() {
    let config = golden_config();
    let daemon = run_daemon(&config);

    let lab = Lab::new(Scale::Tiny);
    let rounds = lab.tangled_rounds();
    let origins: vp_monitor::diff::Origins = lab
        .tangled()
        .world
        .blocks
        .iter()
        .map(|b| (b.block, b.origin))
        .collect();
    let batch = run_diff_pipeline(
        daemon.meta().source.as_str(),
        rounds.iter().take(config.rounds as usize).cloned(),
        Some(origins),
        None, // batch has no scan durations; diffs don't carry them
        &config.alert,
    );

    assert_eq!(daemon.tracker().diffs(), &batch.diffs[..]);
    assert_eq!(daemon.tracker().summary(), &batch.summary);
    assert_eq!(daemon.tracker().transitions(), &batch.transitions[..]);
}
