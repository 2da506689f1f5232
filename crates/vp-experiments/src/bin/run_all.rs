//! Runs the table/figure regenerators in one process so expensive
//! artifacts (worlds, scans, the 96-round stability dataset) are shared.
//! Usage: run_all [<experiment-id>…] [--scale tiny|small|default|paper]
//!                [--out <dir>] [--obs off|summary|full]
//!                [--snapshots <dir>] [--flight <dir>]
//!
//! The leading experiment ids (`fig2_broot_maps`, `table4_coverage`, …)
//! select what runs, in paper order; with none, all fifteen run.
//!
//! With `--out <dir>` and `--obs summary` (the default) or `--obs full`,
//! each experiment writes a `vp-obs-report/v1` run report to
//! `<dir>/obs/<experiment>.report.json` covering the fresh work it
//! triggered (cached artifacts are reported by the experiment that built
//! them). `--snapshots <dir>` makes `fig9_stability` write each round's
//! catchment map (plus an origins sidecar) for offline replay with
//! `vp-monitor diff`/`watch`. With `--flight <dir>` each experiment
//! additionally writes a `vp-obs-flight/v1` flight document, with the
//! wall-time channel driven by this binary's [`WallClock`].

use std::sync::Arc;

use vp_experiments::{experiments, Lab};
use vp_obs::{Clock, WallChannel};

/// Wall-clock for the operator-facing progress display and the wall
/// flight channel. This is the one place outside `vp-bench` where real
/// time enters the workspace: it feeds only the stdout timing table and
/// `--flight` documents' wall channel, never a deterministic artifact —
/// reports carry sim-time exclusively (clippy's wall-clock ban keeps
/// wall-backed clocks out of library code).
struct WallClock {
    epoch: std::time::Instant,
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[expect(
    clippy::disallowed_methods,
    reason = "CLI entry point — args select experiments, scale and output dirs, never a result; the wall clock drives the progress display and wall flight channel only, never a deterministic artifact."
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, flags) = args.split_at(args.iter().take_while(|a| !a.starts_with("--")).count());
    let all = experiments::all();
    if let Some(unknown) = ids.iter().find(|id| all.iter().all(|(name, _)| name != id)) {
        let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        usage_error(&format!("unknown experiment {unknown:?}; valid ids: {}", names.join(", ")));
    }
    let mut lab = Lab::parse_args(flags).unwrap_or_else(|e| usage_error(&e));

    let clock = Arc::new(WallClock {
        epoch: std::time::Instant::now(),
    });
    // Scans record wall-time flight intervals through this channel; the
    // timelines only reach disk when `--flight <dir>` is set, and the
    // deterministic artifacts never see them.
    lab.flight_wall = Some(WallChannel::new(clock.clone()));
    let selected = |name: &str| ids.is_empty() || ids.iter().any(|id| id == name);
    for (name, run) in all.into_iter().filter(|(name, _)| selected(name)) {
        println!("==================== {name} ====================");
        let started = clock.now_nanos();
        print!("{}", run(&lab));
        let wall = clock.now_nanos() - started;
        lab.write_obs_report(name);
        println!("[{name} completed in {:.1}s]", wall as f64 / 1e9);
        println!();
    }
    println!("[all experiments completed in {:.1}s]", clock.now_nanos() as f64 / 1e9);
}
