//! The live telemetry daemon: scheduled Verfploeter scans, streamed drift.
//!
//! ```text
//! Usage: vp_daemon [--scale tiny|small|default|paper] [--shards N]
//! [--rounds N] [--window N] [--out <dir>] [--obs off|summary|full]
//! [--pace sim|wall] [--interval-secs N]
//! ```
//!
//! Each round runs one sharded scan of the Tangled world, folds it into
//! the streaming drift tracker, and (with `--out`) republishes
//! `status.json` (canonical `vp-daemon-status/v2`) and `metrics.prom`
//! (Prometheus text) — the scrape surface. `--pace sim` (the default)
//! runs the rounds back to back entirely in sim time, so the run is
//! deterministic and its outputs are byte-comparable against the goldens
//! in `results/daemon/`; `--pace wall` sleeps `--interval-secs` between
//! rounds for a live deployment.

use vp_experiments::{Daemon, DaemonArgs};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point — args select scale/output dir, never a result."
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let DaemonArgs {
        config,
        out,
        wall_pace,
        interval_secs,
    } = DaemonArgs::parse(&args).unwrap_or_else(|e| die(&e));

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
