//! Integration: the vp-daemon telemetry plane end to end.
//!
//! Drives the daemon's scan-round loop in sim time at tiny scale — the
//! same configuration `scripts/check.sh` runs through the `vp_daemon`
//! binary — and pins its two publication surfaces:
//!
//! * the canonical `vp-daemon-status/v2` document validates against its
//!   schema and byte-matches the golden under `results/daemon/`;
//! * the Prometheus scrape byte-matches its golden;
//! * both are shard-count-invariant (§7): a 1-shard daemon and a 2-shard
//!   daemon publish identical bytes apart from the declared shard count;
//! * the daemon's streamed diffs equal the offline batch pipeline over
//!   `Lab::tangled_rounds` — live and post-hoc views of STV-3-23 agree
//!   exactly, because the daemon reuses the dataset's seeds and names.

use serde_json::Value;
use vp_experiments::{Daemon, DaemonArgs, DaemonConfig, Lab, Scale};
use vp_monitor::run_diff_pipeline;
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
        Some("vp-daemon-status/v2")
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

    // A library caller's zero shards runs one, and says so.
    let zero = Daemon::new(&DaemonConfig { shards: 0, ..golden_config() });
    assert_eq!(zero.status_doc().get("shards").and_then(Value::as_u64), Some(1));
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
        0,
        rounds.iter().take(config.rounds as usize).cloned(),
        Some(origins),
        None, // batch has no scan durations; diffs don't carry them
        &config.alert,
    );

    assert_eq!(*daemon.tracker().diffs(), batch.diffs);
    assert_eq!(daemon.tracker().summary(), &batch.summary);
    assert_eq!(*daemon.tracker().transitions(), batch.transitions);
}

fn parse(args: &[&str]) -> Result<DaemonArgs, String> {
    DaemonArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
}

/// `--rounds` given before `--scale` used to be reset to the scale's
/// default: an explicit count wins on either side.
#[test]
fn daemon_rounds_flag_wins_on_either_side_of_scale() {
    let golden = golden_config();
    for args in [
        ["--scale", "tiny", "--rounds", "6", "--shards", "2", "--window", "8"],
        ["--rounds", "6", "--shards", "2", "--window", "8", "--scale", "tiny"],
    ] {
        let parsed = parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        let c = &parsed.config;
        assert_eq!((c.scale, c.rounds, c.shards, c.window), (golden.scale, 6, 2, 8), "{args:?}");
    }
    let tiny = parse(&["--scale", "tiny"]).expect("parses");
    assert_eq!(tiny.config.rounds, Scale::Tiny.stability_rounds());
}

/// A trailing `--out` used to be dropped, so the run published nothing
/// and exited 0: every flag without its value is an error naming it.
#[test]
fn daemon_flag_without_value_is_an_error() {
    let flags = ["--scale", "--shards", "--rounds", "--window", "--obs", "--out", "--pace"];
    for flag in flags.into_iter().chain(["--interval-secs"]) {
        let err = parse(&["--scale", "tiny", flag]).err();
        assert_eq!(err, Some(format!("{flag} needs a value")));
    }
    let out = parse(&["--out", "o", "--pace", "wall"]).expect("parses");
    assert_eq!((out.out.as_deref(), out.wall_pace), (Some(std::path::Path::new("o")), true));
}

/// `--rounds` used to be read as a u64 and truncated, so 2^32 + 6 ran 6
/// rounds: a count its field cannot hold, a zero shard or window count
/// included, is an error naming the flag.
#[test]
fn daemon_out_of_range_count_is_an_error() {
    let cases = [
        ("--rounds", "4294967302"),
        ("--rounds", "-1"),
        ("--interval-secs", "x"),
        ("--shards", "0"),
        ("--window", "0"),
    ];
    for (flag, value) in cases {
        let err = parse(&[flag, value]).err().unwrap_or_else(|| panic!("{flag} {value} parsed"));
        assert!(err.starts_with(&format!("{flag} \"{value}\"")), "{err}");
    }
}
