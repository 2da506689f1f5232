//! `monitor-replay`: the `vp-monitor watch` loop over catchment snapshots —
//! the read side of what the scans write.
//!
//! The snapshots come from a helper process ([`prepare`]) so that the
//! world and the scans that produce them never count towards the measured
//! process's peak memory. The helper also records, from the in-memory maps,
//! what every reloaded map and every rendered document must digest to.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::{json, Value};
use verfploeter::scan::{run_scan_sharded_on, ScanConfig};
use verfploeter::CatchmentMap;
use vp_experiments::monitor::write_round_snapshots;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{list_round_files, load_origins_sidecar, load_round_file};
use vp_monitor::stream::DriftTracker;
use vp_net::{SimDuration, SimTime};
use vp_obs::Clock;
use vp_sim::{CatchmentOracle, FaultConfig, FlippingOracle, Scenario, ShardExecutor};
use vp_topology::TopologyConfig;

use crate::digest::{catchment_digest, docs_digest, hex};
use crate::host::WallClock;
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::workload::{Phase, Round, Stopwatch, Workload};
use crate::Options;

/// The daemon's policy, flip and per-round seeds and its window width, so
/// the snapshots are the kind of stream the daemon publishes.
const POLICY_SEED: u64 = 0x90;
const FLIP_SEED: u64 = 0xF11;
const WINDOW: usize = 8;
const SOURCE: &str = "vp-benchmark/monitor-replay";
/// Blocks of the replayed Tangled world: half the daemon's. With today's
/// parser, whose cost is quadratic in file size, that makes a round four
/// times shorter — some twenty rounds per run instead of five — which is
/// what lets the fast decile leave a neighbour's slow stretches out.
const WORLD_BLOCKS: usize = 60_000;
/// File the helper leaves next to the snapshots.
const EXPECTED: &str = "expected.json";

/// Snapshot files per replay pass. One pass fits several times into the
/// run's measuring time with today's parser (under a second a file).
fn snapshot_rounds(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

fn tracker(origins: Origins) -> DriftTracker {
    DriftTracker::new(AlertConfig::default(), WINDOW, Some(origins))
}

/// Helper-process side: builds the Tangled world for `seed`, scans it
/// `snapshot_rounds` times under the flipping oracle, writes the snapshot
/// directory and the expectations file.
pub fn prepare(dir: &Path, seed: u64, quick: bool, clock: &WallClock) -> Result<(), String> {
    let secs = |from: u64| (clock.now_nanos() - from) as f64 / 1e9;
    let topology = if quick {
        TopologyConfig::tiny(seed)
    } else {
        TopologyConfig {
            seed,
            max_blocks: WORLD_BLOCKS,
            ..TopologyConfig::default()
        }
    };
    let mut timings: BTreeMap<&str, f64> = BTreeMap::new();
    let t = clock.now_nanos();
    let scenario = Scenario::tangled(topology, POLICY_SEED);
    timings.insert("topology.generate_s", secs(t));
    let t = clock.now_nanos();
    let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
    timings.insert("hitlist.build_s", secs(t));
    let t = clock.now_nanos();
    let table = scenario.routing();
    timings.insert("bgp.route_s", secs(t));
    let model = scenario.flip_model(FLIP_SEED, &table);
    let interval = SimDuration::from_mins(15);

    let maps: Vec<CatchmentMap> = (0..snapshot_rounds(quick) as u64)
        .map(|r| {
            let mut config = ScanConfig {
                name: format!("replay/r{r}"),
                ..ScanConfig::default()
            };
            config.probe.ident = 100 + r as u16;
            config.probe.order_seed = 0x57ab ^ r;
            run_scan_sharded_on(
                &ShardExecutor::serial(),
                &scenario.world,
                &hitlist,
                &scenario.announcement,
                &|| {
                    Box::new(FlippingOracle::new(
                        table.clone(),
                        scenario.world.graph.clone(),
                        model.clone(),
                        interval,
                    )) as Box<dyn CatchmentOracle>
                },
                FaultConfig::default(),
                SimTime::ZERO + SimDuration(interval.0 * r),
                &config,
                0x0523 ^ r,
                1,
            )
            .catchments
        })
        .collect();

    let t = clock.now_nanos();
    write_round_snapshots(dir, &maps, &scenario.world)?;
    timings.insert("snapshot.write_s", secs(t) / maps.len() as f64);

    // What the measured process must reproduce from the files alone.
    let origins: Origins = scenario
        .world
        .blocks
        .iter()
        .map(|b| (b.block, b.origin))
        .collect();
    let mut reference = tracker(origins);
    let mut expected_maps = Vec::new();
    for map in maps {
        expected_maps.push(json!({"len": map.len(), "digest": hex(catchment_digest(&map))}));
        reference.observe_round(map, None);
    }
    let doc = json!({
        "blocks": hitlist.len(),
        "maps": expected_maps,
        "docs": hex(docs_digest(&reference, SOURCE)),
        "timings": timings,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(EXPECTED), text).map_err(|e| format!("write {EXPECTED}: {e}"))
}

/// What the helper recorded.
struct Expected {
    blocks: u64,
    /// `(len, digest)` per snapshot file.
    maps: Vec<(u64, String)>,
    /// Digest of the documents after one pass over the snapshots.
    docs: String,
    timings: BTreeMap<String, f64>,
}

impl Expected {
    fn load(dir: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(dir.join(EXPECTED))
            .map_err(|e| format!("read {EXPECTED}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{EXPECTED}: {e}"))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("{EXPECTED}: missing {k}"));
        let maps = field("maps")?
            .as_array()
            .into_iter()
            .flatten()
            .filter_map(|m| {
                Some((
                    m.get("len")?.as_u64()?,
                    m.get("digest")?.as_str()?.to_owned(),
                ))
            })
            .collect();
        let docs = field("docs")?
            .as_str()
            .ok_or("docs is not a digest")?
            .to_owned();
        let timings = field("timings")?
            .as_object()
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        Ok(Expected {
            blocks: field("blocks")?.as_u64().ok_or("blocks is not a count")?,
            maps,
            docs,
            timings,
        })
    }
}

/// Snapshot directory made by a helper process; removed when dropped.
pub struct Snapshots {
    dir: PathBuf,
}

impl Snapshots {
    /// Runs this executable as `--prepare-replay <dir>` and waits for it.
    pub fn make(opts: &Options) -> Result<Snapshots, String> {
        let snapshots = Snapshots {
            dir: opts.out_dir.join(format!("replay-{}", std::process::id())),
        };
        let mut cmd = std::process::Command::new(&opts.exe);
        cmd.arg("--prepare-replay").arg(&snapshots.dir);
        cmd.arg("--seed").arg(opts.seed.to_string());
        if opts.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", opts.exe))?;
        if status.success() {
            Ok(snapshots)
        } else {
            Err(format!("snapshot helper exited with {status}"))
        }
    }
}

impl Drop for Snapshots {
    fn drop(&mut self) {
        // Best effort: a leftover directory is listed in .gitignore.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Replay {
    files: Vec<PathBuf>,
    expected: Expected,
    tracker: DriftTracker,
    /// Rounds fed to the tracker so far; round `i` replays file `i % n`.
    fed: usize,
    /// Digest of the documents rendered after the first pass.
    digest: Option<u64>,
    bytes_per_round: u64,
    docs_s: f64,
    clock: Arc<WallClock>,
}

impl Replay {
    /// The system's pre-round work: load the origins sidecar, build the
    /// tracker. Listing the files and reading the expectations is the
    /// harness's own preparation and is not timed.
    pub fn setup(
        snapshots: &Snapshots,
        clock: &Arc<WallClock>,
        setup: &mut Metrics,
    ) -> Result<Replay, String> {
        let dir = &snapshots.dir;
        let t0 = clock.now_nanos();
        let origins = load_origins_sidecar(dir)?.ok_or("snapshot directory has no origins.json")?;
        let t1 = clock.now_nanos();
        let tracker = tracker(origins);
        let t2 = clock.now_nanos();
        setup.insert("ingest.load_origins_s", (t1 - t0) as f64 / 1e9);
        setup.insert("setup_s", (t2 - t0) as f64 / 1e9);

        let files = list_round_files(dir)?;
        let expected = Expected::load(dir)?;
        if files.is_empty() || files.len() != expected.maps.len() {
            return Err(format!(
                "{} snapshot files, {} expected maps",
                files.len(),
                expected.maps.len()
            ));
        }
        let bytes: u64 = files
            .iter()
            .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
            .sum();
        Ok(Replay {
            bytes_per_round: bytes / files.len() as u64,
            files,
            expected,
            tracker,
            fed: 0,
            digest: None,
            docs_s: 0.0,
            clock: clock.clone(),
        })
    }
}

impl Workload for Replay {
    fn round(&mut self, tracer: &mut Tracer, mut watch: Stopwatch) -> Round {
        let root = tracer.open("round");
        let file = self.fed % self.files.len();
        let (len, digest) = &self.expected.maps[file];

        watch.resume();
        let span = tracer.open("ingest.load_round_file");
        let loaded = load_round_file(&self.files[file]);
        tracer.close(span);
        watch.pause();

        let check = tracer.open("harness.check");
        let check_failed = loaded.is_err();
        let map =
            loaded.unwrap_or_else(|_| CatchmentMap::from_pairs("unreadable", std::iter::empty()));
        let mut mismatch = map.len() as u64 != *len || hex(catchment_digest(&map)) != *digest;
        tracer.close(check);

        // Feeding the tracker drops the previous round's map: round time
        // includes giving the round's memory back.
        watch.resume();
        let span = tracer.open("monitor.observe_round");
        self.tracker.observe_round(map, None);
        tracer.close(span);
        watch.pause();
        self.fed += 1;

        if self.fed == self.files.len() {
            // End of the first pass: render the documents as `watch` does
            // at its end, and compare them with the in-memory tracker's.
            // Later passes keep feeding the same tracker (the stream simply
            // goes on), so every round costs the same.
            let span = tracer.open("monitor.docs");
            let t0 = self.clock.now_nanos();
            let docs = docs_digest(&self.tracker, SOURCE);
            self.docs_s = (self.clock.now_nanos() - t0) as f64 / 1e9;
            tracer.close(span);
            mismatch |= hex(docs) != self.expected.docs;
            self.digest = Some(docs);
        }
        tracer.close(root);
        Round {
            wall_ns: watch.wall_ns,
            cpu_ns: watch.cpu_ns,
            blocks: self.expected.blocks,
            check_failed,
            mismatch,
        }
    }

    fn warmup_rounds(&self) -> usize {
        0
    }

    /// A whole pass, so the documents are rendered and checked.
    fn min_rounds(&self) -> usize {
        self.files.len()
    }

    fn verify(&mut self) -> Vec<String> {
        if self.digest.is_some() {
            Vec::new()
        } else {
            vec!["no replay pass completed, so no document was checked".to_owned()]
        }
    }

    fn output_digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    fn layer_metrics(&self, _untraced: &Phase, out: &mut Metrics) {
        out.insert("ingest.bytes_per_round", self.bytes_per_round as f64);
        out.insert("monitor.docs_s", self.docs_s);
        for name in [
            "topology.generate_s",
            "hitlist.build_s",
            "bgp.route_s",
            "snapshot.write_s",
        ] {
            if let Some(v) = self.expected.timings.get(name) {
                out.insert(name, *v);
            }
        }
    }
}
