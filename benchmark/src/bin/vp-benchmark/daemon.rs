//! `daemon-live`: the telemetry daemon's round — sharded scan on OS
//! threads, drift tracking, then rendering and publishing both documents.

use std::path::PathBuf;

use serde_json::Value;
use vp_experiments::{Daemon, DaemonConfig, Scale};
use vp_monitor::schema::validate_tagged;
use vp_obs::Clock;
use vp_sim::ShardExecutor;

use crate::digest::docs_digest;
use crate::host::WallClock;
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::workload::{Phase, Round, Stopwatch, Workload};
use crate::Options;

/// Scan shards of the measured daemon: the sharded path on two workers.
const SHARDS: usize = 2;
/// The round after which the drift and alert documents are digested and
/// compared with a `shards = 1` reference daemon. Fixed, so the digest
/// does not depend on how many rounds fit into the run.
const DIGEST_ROUND: u32 = 3;

fn config(quick: bool, shards: usize) -> DaemonConfig {
    DaemonConfig {
        shards,
        ..DaemonConfig::new(if quick { Scale::Tiny } else { Scale::Default })
    }
}

/// Digest of the daemon's drift and alert documents.
fn published_digest(daemon: &Daemon) -> u64 {
    docs_digest(daemon.tracker(), &daemon.meta().source)
}

pub struct DaemonLive {
    daemon: Daemon,
    quick: bool,
    /// Where `status.json` and `metrics.prom` are published.
    dir: PathBuf,
    /// Cumulative `scan.probes_sent` after the previous round.
    probes_seen: u64,
    /// Probes of the first round: the world's hitlist length.
    blocks: u64,
    digest: Option<u64>,
    first_status_valid: bool,
    last_status: Value,
    flipped: Vec<f64>,
    status_bytes: u64,
    scrape_bytes: u64,
}

impl DaemonLive {
    pub fn setup(opts: &Options, clock: &WallClock, setup: &mut Metrics) -> DaemonLive {
        let t0 = clock.now_nanos();
        let daemon = Daemon::new(&config(opts.quick, SHARDS));
        let new_s = (clock.now_nanos() - t0) as f64 / 1e9;
        setup.insert("daemon.new_s", new_s);
        setup.insert("setup_s", new_s);
        let dir = opts.out_dir.join(format!("daemon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the daemon's publish directory");
        DaemonLive {
            daemon,
            quick: opts.quick,
            dir,
            probes_seen: 0,
            blocks: 0,
            digest: None,
            first_status_valid: false,
            last_status: Value::Null,
            flipped: Vec::new(),
            status_bytes: 0,
            scrape_bytes: 0,
        }
    }
}

impl Drop for DaemonLive {
    fn drop(&mut self) {
        // Best effort: a leftover directory is listed in .gitignore.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for DaemonLive {
    fn round(&mut self, tracer: &mut Tracer, mut watch: Stopwatch) -> Round {
        let root = tracer.open("round");

        watch.resume();
        let span = tracer.open("daemon.run_round");
        let step = self.daemon.run_round();
        tracer.close(span);
        let span = tracer.open("daemon.status_doc");
        let status = self.daemon.status_doc();
        let status_text = serde_json::to_string_pretty(&status).expect("serialize status");
        tracer.close(span);
        let span = tracer.open("daemon.scrape");
        let scrape = self.daemon.scrape();
        tracer.close(span);
        let span = tracer.open("daemon.publish_write");
        std::fs::write(self.dir.join("status.json"), &status_text).expect("write status.json");
        std::fs::write(self.dir.join("metrics.prom"), &scrape).expect("write metrics.prom");
        tracer.close(span);
        self.status_bytes = status_text.len() as u64;
        self.scrape_bytes = scrape.len() as u64;
        // Round time includes giving the round's buffers back.
        drop((status_text, scrape));
        watch.pause();

        let check = tracer.open("harness.check");
        let rounds_run = self.daemon.rounds_run();
        let probes = self
            .daemon
            .scan_metrics()
            .counter_value("scan.probes_sent", &[]);
        let round_probes = probes - self.probes_seen;
        self.probes_seen = probes;
        if rounds_run == 1 {
            self.blocks = round_probes;
            self.first_status_valid = validate_tagged(&status).is_empty();
        }
        // Every round probes the same hitlist, and the tracker has
        // ingested exactly the rounds the daemon ran.
        let check_failed = round_probes == 0
            || round_probes != self.blocks
            || step.index != u64::from(rounds_run)
            || status.get("rounds_ingested").and_then(Value::as_u64) != Some(step.index);
        if rounds_run == DIGEST_ROUND {
            self.digest = Some(published_digest(&self.daemon));
        }
        self.flipped.extend(step.diff.map(|d| d.flipped as f64));
        self.last_status = status;
        tracer.close(check);

        tracer.close(root);
        Round {
            wall_ns: watch.wall_ns,
            cpu_ns: watch.cpu_ns,
            blocks: round_probes,
            check_failed,
            mismatch: false,
        }
    }

    fn warmup_rounds(&self) -> usize {
        1
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        // §7 on the daemon: shard count must not change what is published.
        let mut reference = Daemon::new(&config(self.quick, 1));
        for _ in 0..DIGEST_ROUND {
            reference.run_round();
        }
        if self.digest != Some(published_digest(&reference)) {
            failures.push(format!(
                "drift+alert documents after round {DIGEST_ROUND} differ from the shards=1 reference daemon's"
            ));
        }
        if !self.first_status_valid {
            failures.push("first status document fails its schema".to_owned());
        }
        let errors = validate_tagged(&self.last_status);
        if !errors.is_empty() {
            failures.push(format!("last status document fails its schema: {errors:?}"));
        }
        failures
    }

    fn output_digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    fn layer_metrics(&self, untraced: &Phase, out: &mut Metrics) {
        // Parallel efficiency of the sharded round: CPU over wall.
        out.insert(
            "daemon.cpu_wall_ratio",
            untraced.cpu_ns() as f64 / untraced.wall_ns().max(1) as f64,
        );
        out.insert("daemon.status_bytes", self.status_bytes as f64);
        out.insert("daemon.scrape_bytes", self.scrape_bytes as f64);
        out.insert(
            "exec.workers",
            ShardExecutor::host_parallel(SHARDS).workers() as f64,
        );
        out.insert(
            "drift.flipped_per_round",
            crate::stats::median(&self.flipped),
        );
        out.insert(
            "drift.alert_transitions",
            self.daemon.tracker().transitions().len() as f64,
        );
    }
}
