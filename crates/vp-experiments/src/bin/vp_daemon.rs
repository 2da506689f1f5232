//! The live telemetry daemon: scheduled Verfploeter scans, streamed drift.
//!
//! Usage: vp_daemon [--scale tiny|small|default|paper] [--shards N]
//! [--rounds N] [--window N] [--out <dir>] [--obs off|summary|full]
//! [--pace sim|wall] [--interval-secs N]
//!
//! Each round runs one sharded scan of the Tangled world, folds it into
//! the streaming drift tracker, and (with `--out`) republishes
//! `status.json` (canonical `vp-daemon-status/v1`) and `metrics.prom`
//! (Prometheus text) — the scrape surface. `--pace sim` (the default)
//! runs the rounds back to back entirely in sim time, so the run is
//! deterministic and its outputs are byte-comparable against the goldens
//! in `results/daemon/`; `--pace wall` sleeps `--interval-secs` between
//! rounds for a live deployment.

use std::path::PathBuf;

use vp_experiments::{Daemon, DaemonConfig, Scale};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_num(args: &[String], i: usize, flag: &str) -> u64 {
    match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
        Some(n) => n,
        None => die(&format!("{flag} needs a non-negative integer")),
    }
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point — args select scale/output dir, never a result."
    )]
    let args: Vec<String> = std::env::args().collect();
    let mut config = DaemonConfig::new(Scale::Default);
    let mut out: Option<PathBuf> = None;
    let mut wall_pace = false;
    let mut interval_secs = 900u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("unknown scale; use tiny|small|default|paper"));
                config = DaemonConfig {
                    scale,
                    rounds: scale.stability_rounds(),
                    ..config
                };
            }
            "--shards" => {
                i += 1;
                config.shards = parse_num(&args, i, "--shards").max(1) as usize;
            }
            "--rounds" => {
                i += 1;
                config.rounds = parse_num(&args, i, "--rounds") as u32;
            }
            "--window" => {
                i += 1;
                config.window = parse_num(&args, i, "--window").max(1) as usize;
            }
            "--obs" => {
                i += 1;
                config.obs = args
                    .get(i)
                    .and_then(|s| vp_obs::TraceLevel::parse(s))
                    .unwrap_or_else(|| die("unknown obs mode; use off|summary|full"));
            }
            "--out" => {
                i += 1;
                out = args.get(i).map(PathBuf::from);
            }
            "--pace" => {
                i += 1;
                wall_pace = match args.get(i).map(String::as_str) {
                    Some("sim") => false,
                    Some("wall") => true,
                    _ => die("unknown pace; use sim|wall"),
                };
            }
            "--interval-secs" => {
                i += 1;
                interval_secs = parse_num(&args, i, "--interval-secs");
            }
            other => die(&format!(
                "unknown argument {other:?} (supported: --scale, --shards, --rounds, \
                 --window, --obs, --out, --pace, --interval-secs)"
            )),
        }
        i += 1;
    }

    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("create {}: {e}", dir.display()));
        }
    }

    let mut daemon = Daemon::new(&config);
    publish(&daemon, out.as_deref());
    for r in 0..config.rounds {
        if wall_pace && r > 0 {
            std::thread::sleep(std::time::Duration::from_secs(interval_secs));
        }
        let step = daemon.run_round();
        publish(&daemon, out.as_deref());
        let flips = step.diff.as_ref().map_or(0, |d| d.flipped);
        let alerts = daemon
            .tracker()
            .alerts_snapshot()
            .iter()
            .filter(|a| a.cleared_round.is_none())
            .count();
        println!(
            "round {:>3}/{}: flips {flips:>5}, active alerts {alerts}",
            r + 1,
            config.rounds
        );
    }
}

/// Republishes the two surfaces after every round, like a live daemon
/// republishing its scrape endpoint — atomically, so a scraper polling
/// the directory never reads a half-written document.
fn publish(daemon: &Daemon, out: Option<&std::path::Path>) {
    let Some(dir) = out else { return };
    let status = daemon.status_doc();
    let text = match serde_json::to_string_pretty(&status) {
        Ok(t) => t,
        Err(e) => die(&format!("serialize status doc: {e}")),
    };
    for (name, text) in [("status.json", text + "\n"), ("metrics.prom", daemon.scrape())] {
        if let Err(e) = vp_monitor::ingest::write_atomic(&dir.join(name), &text) {
            die(&e);
        }
    }
}
