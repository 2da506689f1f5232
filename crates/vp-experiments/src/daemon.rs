//! The live telemetry daemon core: scan on a schedule, stream the drift.
//!
//! [`Daemon`] turns the fig9 stability study into an *operational loop*:
//! each [`Daemon::run_round`] runs one sharded Verfploeter scan of the
//! Tangled world (the same STV-3-23 dataset `Lab::tangled_rounds`
//! produces — both take each round's start, configuration and seed from
//! `context::stability_round`, over the same flipping oracle, so the
//! live stream and the offline batch are byte-comparable), feeds the
//! catchment map into a `vp_monitor::stream::DriftTracker`, folds the
//! round's scan metrics into a cumulative registry, and keeps the last
//! round's three sim-time instants. After any round the daemon can render
//! its two publication surfaces:
//!
//! * [`Daemon::status_doc`] — the canonical `vp-daemon-status/v2` JSON.
//! * [`Daemon::scrape`] — the Prometheus text exposition.
//!
//! Everything here runs in sim time (clippy's wall-clock ban keeps wall
//! clocks out of library code): the library never sleeps and never reads
//! a clock. Pacing a live deployment is the `vp_daemon` binary's job,
//! which may sleep between rounds; tests and golden runs call `run_round`
//! back to back and get a deterministic N-round run whose status/scrape
//! bytes are pinned under `results/daemon/`.

use std::collections::BTreeMap;
use std::num::{NonZeroUsize, ParseIntError};
use std::path::PathBuf;
use std::str::FromStr;

use serde_json::Value;
use verfploeter::scan::run_scan_sharded_on;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::stream::{
    build_scrape, build_status_doc, DaemonMeta, DriftTracker, RoundInstants, StreamStep,
};
use vp_obs::{Registry, TraceLevel};
use vp_sim::{CatchmentOracle, FaultConfig, FlippingOracle, Scenario, ShardExecutor};

use crate::context::{
    stability_round, Scale, FLIP_SEED, POLICY_SEED, STABILITY_INTERVAL, TANGLED_TOPO_SEED,
};

/// Static configuration for a daemon run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    pub scale: Scale,
    /// Scan shard count; 0 runs (and publishes) 1. Results are
    /// shard-count-invariant (§7), so this only affects wall-clock — and
    /// the `shards` field of the status doc.
    pub shards: usize,
    /// Rounds the run is sized for (published as `rounds_total`; the
    /// caller drives the actual loop).
    pub rounds: u32,
    /// Rolling-window width, in rounds.
    pub window: usize,
    /// Observability level for the scans (`full` keeps each engine's
    /// event ring).
    pub obs: TraceLevel,
    pub alert: AlertConfig,
}

impl DaemonConfig {
    pub fn new(scale: Scale) -> DaemonConfig {
        DaemonConfig {
            scale,
            shards: 1,
            rounds: scale.stability_rounds(),
            window: 8,
            obs: TraceLevel::Summary,
            alert: AlertConfig::default(),
        }
    }
}

/// What the `vp_daemon` command line asks for: the run's configuration,
/// plus where (`--out`) and at what pace the binary publishes.
#[derive(Debug, Clone)]
pub struct DaemonArgs {
    pub config: DaemonConfig,
    pub out: Option<PathBuf>,
    /// `--pace wall`: sleep `interval_secs` between rounds.
    pub wall_pace: bool,
    pub interval_secs: u64,
}

impl DaemonArgs {
    /// Parses the flags after the program name. An explicit `--rounds`
    /// wins on either side of `--scale`; a flag without its value, or a
    /// count its field cannot hold (a zero `--shards` or `--window`
    /// included), is an error that names the flag.
    pub fn parse(args: &[String]) -> Result<DaemonArgs, String> {
        fn count<T: FromStr<Err = ParseIntError>>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
        }
        let mut config = DaemonConfig::new(Scale::Default);
        let (mut rounds, mut out, mut wall_pace, mut interval_secs) = (None, None, false, 900);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    config.scale = Scale::parse(value()?)
                        .ok_or("unknown scale; use tiny|small|default|paper")?;
                }
                "--shards" => config.shards = count::<NonZeroUsize>(flag, value()?)?.get(),
                "--rounds" => rounds = Some(count(flag, value()?)?),
                "--window" => config.window = count::<NonZeroUsize>(flag, value()?)?.get(),
                "--obs" => {
                    config.obs =
                        TraceLevel::parse(value()?).ok_or("unknown obs mode; use off|summary|full")?;
                }
                "--out" => out = Some(PathBuf::from(value()?)),
                "--pace" => {
                    wall_pace = match value()?.as_str() {
                        "sim" => false,
                        "wall" => true,
                        _ => return Err("unknown pace; use sim|wall".to_owned()),
                    };
                }
                "--interval-secs" => interval_secs = count(flag, value()?)?,
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (supported: --scale, --shards, --rounds, \
                         --window, --obs, --out, --pace, --interval-secs)"
                    ));
                }
            }
        }
        config.rounds = rounds.unwrap_or(config.scale.stability_rounds());
        Ok(DaemonArgs {
            config,
            out,
            wall_pace,
            interval_secs,
        })
    }
}

/// The daemon state machine: call [`Daemon::run_round`] once per
/// scheduled round, then publish [`Daemon::status_doc`] and
/// [`Daemon::scrape`].
pub struct Daemon {
    scenario: Scenario,
    hitlist: Hitlist,
    /// Cloned once per round (a refcount bump: the table, graph and flip
    /// model are shared); every engine of a round borrows the clone.
    oracle: FlippingOracle,
    shards: usize,
    obs: TraceLevel,
    meta: DaemonMeta,
    tracker: DriftTracker,
    scan_metrics: Registry,
    site_names: BTreeMap<u8, String>,
    last_round: Option<RoundInstants>,
}

impl Daemon {
    /// Builds the world, routing table and flip model once; rounds then
    /// only pay for the scan itself.
    pub fn new(config: &DaemonConfig) -> Daemon {
        let scenario = Scenario::tangled(config.scale.topology(TANGLED_TOPO_SEED), POLICY_SEED);
        let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
        let table = scenario.routing();
        let model = scenario.flip_model(FLIP_SEED, &table);
        let oracle =
            FlippingOracle::new(table, scenario.world.graph.clone(), model, STABILITY_INTERVAL);
        let origins: Origins = scenario
            .world
            .blocks
            .iter()
            .map(|b| (b.block, b.origin))
            .collect();
        let site_names: BTreeMap<u8, String> = scenario
            .announcement
            .sites
            .iter()
            .map(|s| (s.id.0, s.name.clone()))
            .collect();
        let shards = config.shards.max(1);
        let meta = DaemonMeta {
            source: format!("vp-daemon/{}", config.scale.name()),
            scale: config.scale.name().to_owned(),
            shards: shards as u64,
            interval_ns: STABILITY_INTERVAL.0,
            rounds_total: u64::from(config.rounds),
        };
        Daemon {
            scenario,
            hitlist,
            oracle,
            shards,
            obs: config.obs,
            meta,
            tracker: DriftTracker::new(config.alert.clone(), config.window, Some(origins)),
            scan_metrics: Registry::new(),
            site_names,
            last_round: None,
        }
    }

    /// Runs the next scheduled scan round and streams it into the
    /// tracker. Round `r` is `stability_round(r)`, exactly what
    /// `Lab::tangled_rounds` scans, so a daemon run of N rounds reproduces
    /// the first N STV-3-23 maps — for any shard count (§7).
    pub fn run_round(&mut self) -> StreamStep {
        let (start, config, sim_seed) = stability_round(self.rounds_run(), self.obs, None);
        let result = run_scan_sharded_on(
            &ShardExecutor::host_parallel(self.shards),
            &self.scenario.world,
            &self.hitlist,
            &self.scenario.announcement,
            &|| Box::new(self.oracle.clone()) as Box<dyn CatchmentOracle>,
            FaultConfig::default(),
            start,
            &config,
            sim_seed,
            self.shards,
        );
        let round = RoundInstants {
            started_ns: result.started.as_nanos(),
            last_probe_ns: result.last_probe.as_nanos(),
            sim_end_ns: result.obs.sim_end.as_nanos(),
        };
        self.scan_metrics.merge(&result.obs.registry);
        self.last_round = Some(round);
        let duration = round.sim_end_ns.saturating_sub(round.started_ns);
        self.tracker.observe_round(result.catchments, Some(duration))
    }

    /// Rounds completed so far: the tracker's next round number, since it
    /// starts at round 0 and ingests every round.
    pub fn rounds_run(&self) -> u32 {
        self.tracker.next_round()
    }

    pub fn meta(&self) -> &DaemonMeta {
        &self.meta
    }

    /// The streaming drift state (diffs, summary, windows, live alerts).
    pub fn tracker(&self) -> &DriftTracker {
        &self.tracker
    }

    /// The cumulative scan registry merged over every round so far.
    pub fn scan_metrics(&self) -> &Registry {
        &self.scan_metrics
    }

    /// The canonical `vp-daemon-status/v2` document for the current
    /// state. Deterministic: equal round counts yield identical bytes,
    /// for any shard count (only the `shards` config field differs).
    pub fn status_doc(&self) -> Value {
        build_status_doc(&self.meta, &self.tracker, self.last_round.as_ref())
    }

    /// The Prometheus text scrape for the current state.
    pub fn scrape(&self) -> String {
        build_scrape(&self.meta, &self.tracker, &self.scan_metrics, &self.site_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_monitor::schema::validate_tagged;

    fn config() -> DaemonConfig {
        DaemonConfig {
            rounds: 3,
            window: 2,
            shards: 2,
            ..DaemonConfig::new(Scale::Tiny)
        }
    }

    #[test]
    fn daemon_rounds_match_the_offline_stability_dataset() {
        let lab = crate::Lab::new(Scale::Tiny);
        let offline = lab.tangled_rounds();
        let mut daemon = Daemon::new(&config());
        for _ in 0..3 {
            daemon.run_round();
        }
        // Live sharded rounds are the same maps the K=1 batch builds.
        let batch = [
            vp_monitor::diff::diff_rounds(&offline[0], &offline[1], 1, None),
            vp_monitor::diff::diff_rounds(&offline[1], &offline[2], 2, None),
        ];
        let live: Vec<_> = daemon
            .tracker()
            .diffs()
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.flips_by_as.clear(); // batch above ran without origins
                d
            })
            .collect();
        assert_eq!(live, batch);
    }

    #[test]
    fn status_doc_validates_and_scrape_is_stable() {
        let mut daemon = Daemon::new(&config());
        let empty = daemon.status_doc();
        assert_eq!(validate_tagged(&empty), Vec::<String>::new());
        for _ in 0..2 {
            daemon.run_round();
        }
        let doc = daemon.status_doc();
        assert_eq!(validate_tagged(&doc), Vec::<String>::new());
        assert_eq!(
            doc.get("rounds_ingested").and_then(Value::as_u64),
            Some(2)
        );
        // The status doc carries the last round's sim-time instants.
        assert!(doc.get("profile").is_some_and(|p| p.get("sim_end_ns").is_some()));
        let scrape = daemon.scrape();
        assert!(scrape.contains("daemon_rounds_ingested 2"), "{scrape}");
        assert!(scrape.contains("# TYPE scan_probes_sent"), "{scrape}");
        assert_eq!(scrape, daemon.scrape());
    }
}
