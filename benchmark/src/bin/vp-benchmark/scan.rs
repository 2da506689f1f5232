//! `scan-small` and `scan-large`: one serial `run_scan` per round over a
//! B-Root world, the `bench_scan` recipe at K=1.

use std::sync::Arc;

use verfploeter::scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanResult};
use vp_bgp::RoutingTable;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::SimTime;
use vp_obs::{Clock, WallChannel};
use vp_sim::{CatchmentOracle, FaultConfig, Scenario, ShardExecutor, StaticOracle};
use vp_topology::TopologyConfig;

use crate::digest::scan_digest;
use crate::host::WallClock;
use crate::spec::Metrics;
use crate::trace::{Open, Tracer};
use crate::workload::{Phase, Round, Stopwatch, Workload};
use crate::Options;

/// `bench_scan`'s policy and simulator seeds, so numbers line up with the
/// K=1 rows of the `BENCH_scan.json` trajectory.
const POLICY_SEED: u64 = 7;
const SIM_SEED: u64 = 0xbe9c;
/// Shard count of the K-invariance witness run (DESIGN.md §7).
const WITNESS_SHARDS: usize = 4;

/// Counts of the last round, from `ScanResult`'s public fields.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    events: u64,
    replies: u64,
    lost: u64,
    clean_total: u64,
    clean_kept: u64,
    mapped: u64,
}

pub struct Scan {
    scenario: Scenario,
    hitlist: Hitlist,
    table: Arc<RoutingTable>,
    clock: Arc<WallClock>,
    /// Digest of the first round; every later round has the same inputs.
    reference: Option<u64>,
    counts: Counts,
    /// Whether to run the sharded witness in `verify`.
    witness: bool,
}

/// Hitlist blocks per workload.
pub fn blocks_for(workload: &str, quick: bool) -> usize {
    match (workload, quick) {
        ("scan-large", false) => 1_000_000,
        ("scan-large", true) => 6_000,
        (_, false) => 15_000,
        (_, true) => 1_500,
    }
}

impl Scan {
    /// The system's own pre-round work, each step timed into `setup`.
    pub fn setup(
        workload: &str,
        opts: &Options,
        clock: &Arc<WallClock>,
        setup: &mut Metrics,
    ) -> Scan {
        let blocks = blocks_for(workload, opts.quick);
        let t0 = clock.now_nanos();
        let scenario = Scenario::broot(
            TopologyConfig {
                seed: opts.seed,
                num_ases: (blocks / 25).max(600),
                max_blocks: blocks,
                ..TopologyConfig::default()
            },
            POLICY_SEED,
        );
        let t1 = clock.now_nanos();
        let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
        let t2 = clock.now_nanos();
        let table = Arc::new(scenario.routing());
        let t3 = clock.now_nanos();
        setup.insert("topology.generate_s", (t1 - t0) as f64 / 1e9);
        setup.insert("hitlist.build_s", (t2 - t1) as f64 / 1e9);
        setup.insert("bgp.route_s", (t3 - t2) as f64 / 1e9);
        setup.insert("setup_s", (t3 - t0) as f64 / 1e9);
        Scan {
            scenario,
            hitlist,
            table,
            clock: clock.clone(),
            reference: None,
            counts: Counts::default(),
            witness: workload == "scan-small",
        }
    }

    /// Folds the scan's own wall-flight intervals under the harness span
    /// around `run_scan`: `scan.round` under it, the phases under
    /// `scan.round`. An interval the scan did not record is simply absent.
    fn fold_flight(result: &ScanResult, tracer: &mut Tracer, run_scan_span: Open) {
        let spans = &result.obs.wall_flight.spans;
        let Some(round) = spans.iter().find(|s| s.name == "scan.round") else {
            return;
        };
        let round_span = tracer.add("scan.round", round.start_ns, round.end_ns, run_scan_span);
        for s in spans.iter().filter(|s| s.name != "scan.round") {
            tracer.add(&s.name, s.start_ns, s.end_ns, round_span);
        }
    }
}

impl Workload for Scan {
    fn round(&mut self, tracer: &mut Tracer, mut watch: Stopwatch) -> Round {
        let config = ScanConfig {
            wall: tracer
                .enabled()
                .then(|| WallChannel::new(self.clock.clone() as Arc<dyn Clock + Send + Sync>)),
            ..ScanConfig::default()
        };
        let root = tracer.open("round");

        watch.resume();
        let span = tracer.open("scan.run_scan");
        let result = run_scan(
            &self.scenario.world,
            &self.hitlist,
            &self.scenario.announcement,
            Box::new(StaticOracle::shared(self.table.clone())),
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            SIM_SEED,
        );
        tracer.close(span);
        watch.pause();

        let check = tracer.open("harness.check");
        Scan::fold_flight(&result, tracer, span);
        let digest = scan_digest(&result);
        let reference = *self.reference.get_or_insert(digest);
        let check_failed =
            result.probes_sent != self.hitlist.len() as u64 || !result.cleaning.is_consistent();
        self.counts = Counts {
            events: result.obs.registry.counter_value("engine.events", &[]),
            replies: result.sim_stats.replies,
            lost: result.sim_stats.lost,
            clean_total: result.cleaning.total,
            clean_kept: result.cleaning.kept,
            mapped: result.catchments.len() as u64,
        };
        tracer.close(check);

        // Round time includes giving the round's memory back.
        watch.resume();
        let span = tracer.open("scan.result_drop");
        drop(result);
        tracer.close(span);
        watch.pause();

        tracer.close(root);
        Round {
            wall_ns: watch.wall_ns,
            cpu_ns: watch.cpu_ns,
            blocks: self.hitlist.len() as u64,
            check_failed,
            mismatch: digest != reference,
        }
    }

    fn warmup_rounds(&self) -> usize {
        // Small rounds need a few to fill caches and grow the allocator's
        // arenas; a million-block round does that within itself.
        if self.hitlist.len() > 100_000 {
            1
        } else {
            3
        }
    }

    fn verify(&mut self) -> Vec<String> {
        if !self.witness {
            return Vec::new();
        }
        let table = &self.table;
        let sharded = run_scan_sharded_on(
            &ShardExecutor::serial(),
            &self.scenario.world,
            &self.hitlist,
            &self.scenario.announcement,
            &|| Box::new(StaticOracle::shared(table.clone())) as Box<dyn CatchmentOracle>,
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            SIM_SEED,
            WITNESS_SHARDS,
        );
        if Some(scan_digest(&sharded)) == self.reference {
            Vec::new()
        } else {
            vec![format!(
                "K={WITNESS_SHARDS} sharded scan digest differs from the serial rounds'"
            )]
        }
    }

    fn output_digest(&self) -> u64 {
        self.reference.unwrap_or(0)
    }

    fn layer_metrics(&self, _untraced: &Phase, out: &mut Metrics) {
        let c = &self.counts;
        let blocks = self.hitlist.len().max(1) as f64;
        out.insert("sim.events", c.events as f64);
        out.insert("sim.events_per_block", c.events as f64 / blocks);
        out.insert("sim.replies", c.replies as f64);
        out.insert("sim.lost", c.lost as f64);
        out.insert("clean.total", c.clean_total as f64);
        out.insert("clean.kept", c.clean_kept as f64);
        out.insert(
            "clean.keep_ratio",
            c.clean_kept as f64 / c.clean_total.max(1) as f64,
        );
        out.insert("catchment.mapped_blocks", c.mapped as f64);
        out.insert("scan.response_rate", c.mapped as f64 / blocks);
    }
}
