//! The shared experiment context: scales, seeds, caching, output.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use vp_atlas::{AtlasConfig, AtlasPanel, AtlasResult};
use vp_bgp::Announcement;
use vp_dns::{LoadModel, QueryLog};
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::{SimDuration, SimTime};
use vp_obs::TraceLevel;
use vp_sim::{CatchmentOracle, FaultConfig, FlippingOracle, Scenario, StaticOracle};
use vp_topology::TopologyConfig;
use verfploeter::catchment::CatchmentMap;
use verfploeter::scan::{run_scan, run_scan_sharded, ScanConfig, ScanResult};
use verfploeter::ProbeConfig;

use vp_monitor::ingest::write_atomic;

use crate::obs::{build_report, ObsState, ScanRecord};

/// World sizes. `Default` runs every experiment in minutes in release
/// mode; `Tiny` is for tests; `Paper` pushes block counts toward the
/// paper's scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Small,
    Default,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The scale's name, as `--scale` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }

    pub(crate) fn topology(self, seed: u64) -> TopologyConfig {
        match self {
            Scale::Tiny => TopologyConfig::tiny(seed),
            Scale::Small => TopologyConfig {
                seed,
                num_ases: 1000,
                max_blocks: 30_000,
                ..TopologyConfig::default()
            },
            Scale::Default => TopologyConfig {
                seed,
                ..TopologyConfig::default()
            },
            Scale::Paper => TopologyConfig::paper_scale(seed),
        }
    }

    /// Atlas panel sized proportionally to the world, preserving the
    /// paper's VP-to-block ratio (9,807 VPs considered against 6.88M
    /// probed blocks ≈ 1:700). A fixed panel against a smaller world would
    /// flatten Table 4's headline coverage ratio.
    fn atlas(self, seed: u64, world_blocks: usize) -> AtlasConfig {
        let num_vps = (world_blocks / 700).clamp(60, 9807);
        AtlasConfig {
            num_vps,
            unavailable_prob: 455.0 / 9807.0,
            seed,
        }
    }

    /// Stability-study rounds (the paper runs 96 over 24 hours).
    pub fn stability_rounds(self) -> u32 {
        match self {
            Scale::Tiny => 12,
            _ => 96,
        }
    }
}

/// Hitlist rows per scan shard: a cache-sized range (ROADMAP item 4 —
/// eight 125k-row shards beat K=1 at 1M blocks because a shard's columns
/// fit in cache).
const SHARD_ROWS: usize = 131_072;

/// Shard count for a scan of `hitlist_len` blocks: a function of the
/// round alone, never of the host, so the shard-layout sections of the obs
/// reports (`scans[].shard_balance`, the `engine.run` span count, the
/// event ring) reproduce on any machine. The tiny, small and default
/// worlds fit one shard; `--scale paper` (700 000 blocks) gets six. How
/// many of those shards run at once is `ShardExecutor::host_parallel`'s
/// business.
fn scan_shards(hitlist_len: usize) -> usize {
    hitlist_len.div_ceil(SHARD_ROWS).max(1)
}

const BROOT_TOPO_SEED: u64 = 0xB007;
pub(crate) const TANGLED_TOPO_SEED: u64 = 0x7A9;
pub(crate) const POLICY_SEED: u64 = 0x90;
pub(crate) const FLIP_SEED: u64 = 0xF11;

/// Spacing of the STV-3-23 stability rounds (§4.2: every 15 minutes), and
/// the interval after which the flipping oracle redraws.
pub(crate) const STABILITY_INTERVAL: SimDuration = SimDuration::from_mins(15);

/// Round `r` of the STV-3-23 dataset — its start time, scan configuration
/// and simulator seed. The one definition behind [`Lab::tangled_rounds`]
/// and the live `Daemon::run_round`, so the offline batch and the daemon
/// stream measure the same rounds by construction.
pub(crate) fn stability_round(
    r: u32,
    trace: TraceLevel,
    wall: Option<vp_obs::WallChannel>,
) -> (SimTime, ScanConfig, u64) {
    let start = SimTime::ZERO + SimDuration(STABILITY_INTERVAL.0 * u64::from(r));
    let config = ScanConfig {
        name: format!("STV-3-23/r{r}"),
        probe: ProbeConfig {
            rate_per_sec: 10_000.0,
            ident: 100 + r as u16,
            order_seed: 0x57ab ^ u64::from(r),
        },
        cutoff: SimDuration::from_mins(15),
        trace,
        wall,
    };
    (start, config, 0x0523 ^ u64::from(r))
}

/// Lazily built, cached experiment artifacts.
pub struct Lab {
    pub scale: Scale,
    pub out_dir: Option<PathBuf>,
    /// Observability mode (`--obs off|summary|full`). `Off` disables all
    /// recording; `Summary` keeps metrics, span aggregates and run
    /// reports; `Full` additionally retains bounded event rings. The mode
    /// never changes any experiment output — only what gets observed.
    pub obs: TraceLevel,
    /// Where fig9 writes per-round catchment snapshots (`--snapshots
    /// <dir>`): one `r<NNN>.json` per round plus an `origins.json`
    /// sidecar, the replay input for `vp-monitor diff`/`watch`. `None`
    /// (the default) writes nothing — 96 default-scale rounds are too
    /// big to emit unasked.
    pub snapshot_dir: Option<PathBuf>,
    /// Where to write the round's `vp-obs-flight/v1` document (`--flight
    /// <dir>`): one `<experiment>.flight.json` per experiment. `None` (the
    /// default) writes nothing.
    pub flight_dir: Option<PathBuf>,
    /// Wall-time flight channel for scans, attached by binaries only
    /// (library code cannot construct wall clocks — DESIGN.md §8). With
    /// `None`, scans still record the deterministic sim-time channel.
    pub flight_wall: Option<vp_obs::WallChannel>,
    obs_state: RefCell<ObsState>,
    broot: OnceCell<Scenario>,
    tangled: OnceCell<Scenario>,
    broot_hitlist: OnceCell<Hitlist>,
    tangled_hitlist: OnceCell<Hitlist>,
    atlas_broot: OnceCell<AtlasPanel>,
    atlas_tangled: OnceCell<AtlasPanel>,
    vp_scans: RefCell<BTreeMap<String, Rc<ScanResult>>>,
    atlas_scans: RefCell<BTreeMap<String, Rc<AtlasResult>>>,
    tangled_rounds: OnceCell<Rc<Vec<CatchmentMap>>>,
}

impl Lab {
    pub fn new(scale: Scale) -> Lab {
        Lab {
            scale,
            out_dir: None,
            obs: TraceLevel::Summary,
            snapshot_dir: None,
            flight_dir: None,
            flight_wall: None,
            obs_state: RefCell::new(ObsState::default()),
            broot: OnceCell::new(),
            tangled: OnceCell::new(),
            broot_hitlist: OnceCell::new(),
            tangled_hitlist: OnceCell::new(),
            atlas_broot: OnceCell::new(),
            atlas_tangled: OnceCell::new(),
            vp_scans: RefCell::new(BTreeMap::new()),
            atlas_scans: RefCell::new(BTreeMap::new()),
            tangled_rounds: OnceCell::new(),
        }
    }

    /// Builds a lab from command-line flags: `--scale
    /// tiny|small|default|paper`, `--out <dir>` for JSON artifacts and obs
    /// reports, `--obs off|summary|full` for the observability mode,
    /// `--snapshots <dir>` for fig9's per-round catchment snapshots and
    /// `--flight <dir>` for flight documents. Anything else — an unknown
    /// flag, a flag without its value, an unknown scale or mode — is an
    /// error naming what was expected.
    pub fn parse_args(args: &[String]) -> Result<Lab, String> {
        let mut lab = Lab::new(Scale::Default);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    lab.scale = Scale::parse(value()?)
                        .ok_or("unknown scale; use tiny|small|default|paper")?;
                }
                "--out" => lab.out_dir = Some(PathBuf::from(value()?)),
                "--obs" => {
                    lab.obs =
                        TraceLevel::parse(value()?).ok_or("unknown obs mode; use off|summary|full")?;
                }
                "--snapshots" => lab.snapshot_dir = Some(PathBuf::from(value()?)),
                "--flight" => lab.flight_dir = Some(PathBuf::from(value()?)),
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (supported: --scale, --out, --obs, --snapshots, --flight)"
                    ));
                }
            }
        }
        Ok(lab)
    }

    /// The two-site B-Root world.
    pub fn broot(&self) -> &Scenario {
        self.broot
            .get_or_init(|| Scenario::broot(self.scale.topology(BROOT_TOPO_SEED), POLICY_SEED))
    }

    /// The nine-site Tangled world.
    pub fn tangled(&self) -> &Scenario {
        self.tangled
            .get_or_init(|| Scenario::tangled(self.scale.topology(TANGLED_TOPO_SEED), POLICY_SEED))
    }

    pub fn broot_hitlist(&self) -> &Hitlist {
        self.broot_hitlist
            .get_or_init(|| Hitlist::from_internet(&self.broot().world, &HitlistConfig::default()))
    }

    pub fn tangled_hitlist(&self) -> &Hitlist {
        self.tangled_hitlist.get_or_init(|| {
            Hitlist::from_internet(&self.tangled().world, &HitlistConfig::default())
        })
    }

    pub fn atlas_broot(&self) -> &AtlasPanel {
        self.atlas_broot.get_or_init(|| {
            let world = &self.broot().world;
            AtlasPanel::place(world, &self.scale.atlas(0xa1, world.blocks.len()))
        })
    }

    pub fn atlas_tangled(&self) -> &AtlasPanel {
        self.atlas_tangled.get_or_init(|| {
            let world = &self.tangled().world;
            AtlasPanel::place(world, &self.scale.atlas(0xa2, world.blocks.len()))
        })
    }

    /// The policy-drift seed of the "April" measurement date: same
    /// announcement, but inter-AS tie-breaks drifted the way a month of
    /// routing change does (the paper sees the blocks-to-LAX share move
    /// from 82.4% to 87.8% between its two dates).
    pub fn april_policy_seed(&self) -> u64 {
        POLICY_SEED ^ 0x0421
    }

    /// The DITL-style load log for B-Root on the April date (LB-4-12).
    pub fn load_april<'w>(&'w self) -> QueryLog<'w> {
        QueryLog::ditl(&self.broot().world, LoadModel::default(), "LB-4-12")
    }

    /// The B-Root load log on the May date (LB-5-15): April volumes with a
    /// month of per-block drift.
    pub fn load_may<'w>(&'w self) -> QueryLog<'w> {
        self.load_april().with_date(0x0515, "LB-5-15")
    }

    /// The `.nl`-style regional load log (LN-4-12).
    pub fn load_nl<'w>(&'w self) -> QueryLog<'w> {
        QueryLog::regional(&self.broot().world, LoadModel::default(), "LN-4-12", "NL")
    }

    /// Runs (or returns the cached) Verfploeter scan for an announcement
    /// variant. `key` names the dataset (e.g. "SBV-5-15"); `ident` is the
    /// measurement-round ICMP identifier.
    pub fn vp_scan(
        &self,
        key: &str,
        scenario: &Scenario,
        hitlist: &Hitlist,
        announcement: &Announcement,
        ident: u16,
    ) -> Rc<ScanResult> {
        self.vp_scan_seeded(key, scenario, hitlist, announcement, ident, scenario.policy_seed)
    }

    /// Like [`Lab::vp_scan`] but under a drifted routing-policy seed (used
    /// for the April measurement date).
    pub fn vp_scan_seeded(
        &self,
        key: &str,
        scenario: &Scenario,
        hitlist: &Hitlist,
        announcement: &Announcement,
        ident: u16,
        policy_seed: u64,
    ) -> Rc<ScanResult> {
        if let Some(r) = self.vp_scans.borrow().get(key) {
            return Rc::clone(r);
        }
        let (table, route_obs) = scenario.routing_with_seed_traced(announcement, policy_seed);
        let config = ScanConfig {
            name: key.to_owned(),
            probe: ProbeConfig {
                rate_per_sec: 10_000.0,
                ident,
                order_seed: 0x0bde ^ ident as u64,
            },
            cutoff: SimDuration::from_mins(15),
            trace: self.obs,
            wall: self.flight_wall.clone(),
        };
        // A round is invariant in its shard count (see
        // `verfploeter::scan::run_scan_sharded`), so experiments get the
        // wall-clock win without changing any published number.
        let shards = scan_shards(hitlist.len());
        let table = Arc::new(table);
        let result = Rc::new(run_scan_sharded(
            &scenario.world,
            hitlist,
            announcement,
            &|| Box::new(StaticOracle::shared(table.clone())) as Box<dyn CatchmentOracle>,
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            0x51ed ^ ident as u64,
            shards,
        ));
        self.record_scan_obs(key, shards, &result, Some(&route_obs));
        self.vp_scans
            .borrow_mut()
            .insert(key.to_owned(), Rc::clone(&result));
        result
    }

    /// Folds one fresh scan (and optionally the BGP propagation that
    /// produced its routing table) into the current experiment's
    /// observability state. No-op with `--obs off`. Cache hits never reach
    /// this, so cached work is not double-counted.
    fn record_scan_obs(
        &self,
        key: &str,
        shards: usize,
        result: &ScanResult,
        route_obs: Option<&vp_bgp::RouteObs>,
    ) {
        if self.obs == TraceLevel::Off {
            return;
        }
        let mut state = self.obs_state.borrow_mut();
        if let Some(route) = route_obs {
            state.record_route(route);
        }
        state.record_scan(
            ScanRecord {
                name: key.to_owned(),
                shards,
                probes_sent: result.probes_sent,
                blocks_mapped: result.catchments.len() as u64,
                started_ns: result.started.as_nanos(),
                last_probe_ns: result.last_probe.as_nanos(),
                sim_end_ns: result.obs.sim_end.as_nanos(),
                shard_probes: result.obs.shard_probes.clone(),
            },
            &result.obs,
        );
    }

    /// Runs (or returns the cached) Atlas scan for an announcement variant.
    pub fn atlas_scan(
        &self,
        key: &str,
        scenario: &Scenario,
        panel: &AtlasPanel,
        announcement: &Announcement,
    ) -> Rc<AtlasResult> {
        self.atlas_scan_seeded(key, scenario, panel, announcement, scenario.policy_seed)
    }

    /// Like [`Lab::atlas_scan`] but under a drifted routing-policy seed.
    pub fn atlas_scan_seeded(
        &self,
        key: &str,
        scenario: &Scenario,
        panel: &AtlasPanel,
        announcement: &Announcement,
        policy_seed: u64,
    ) -> Rc<AtlasResult> {
        if let Some(r) = self.atlas_scans.borrow().get(key) {
            return Rc::clone(r);
        }
        let table = scenario.routing_with_seed(announcement, policy_seed);
        let result = Rc::new(vp_atlas::run_scan(
            &scenario.world,
            panel,
            announcement,
            Box::new(StaticOracle::new(table)),
            FaultConfig::default(),
            SimTime::ZERO,
            SimDuration::from_mins(8),
            key,
            0xa7 ^ key.len() as u64,
        ));
        self.atlas_scans
            .borrow_mut()
            .insert(key.to_owned(), Rc::clone(&result));
        result
    }

    /// The STV-3-23 dataset: the Tangled catchment measured every 15
    /// minutes for 24 hours (96 rounds at default scale), with churn and
    /// route flips active.
    pub fn tangled_rounds(&self) -> Rc<Vec<CatchmentMap>> {
        Rc::clone(self.tangled_rounds.get_or_init(|| {
            let scenario = self.tangled();
            let hitlist = self.tangled_hitlist();
            let table = scenario.routing();
            let model = scenario.flip_model(FLIP_SEED, &table);
            let rounds = self.scale.stability_rounds();
            let mut maps = Vec::with_capacity(rounds as usize);
            for r in 0..rounds {
                let oracle = FlippingOracle::new(
                    table.clone(),
                    scenario.world.graph.clone(),
                    model.clone(),
                    STABILITY_INTERVAL,
                );
                let (start, config, sim_seed) =
                    stability_round(r, self.obs, self.flight_wall.clone());
                let result = run_scan(
                    &scenario.world,
                    hitlist,
                    &scenario.announcement,
                    Box::new(oracle),
                    FaultConfig::default(),
                    start,
                    &config,
                    sim_seed,
                );
                self.record_scan_obs(&config.name, 1, &result, None);
                maps.push(result.catchments);
            }
            Rc::new(maps)
        }))
    }

    /// Drains the observability state accumulated since the last call and
    /// returns it as a `vp-obs-report/v1` document for `experiment`.
    /// Returns `None` with `--obs off`.
    pub fn take_obs_report(&self, experiment: &str) -> Option<serde_json::Value> {
        if self.obs == TraceLevel::Off {
            return None;
        }
        let state = std::mem::take(&mut *self.obs_state.borrow_mut());
        Some(build_report(experiment, self.obs, &state))
    }

    /// Drains the flight timelines accumulated since the last report and
    /// writes them as `<flight_dir>/<experiment>.flight.json`
    /// (`vp-obs-flight/v1`, canonical JSON). No-op unless `--flight` was
    /// given and observability is on.
    fn write_flight_doc(&self, experiment: &str) {
        let Some(dir) = &self.flight_dir else { return };
        if self.obs == TraceLevel::Off {
            return;
        }
        let (sim, wall) = {
            let mut state = self.obs_state.borrow_mut();
            (
                std::mem::take(&mut state.flight),
                std::mem::take(&mut state.wall_flight),
            )
        };
        let doc = vp_obs::FlightDoc {
            source: experiment.to_owned(),
            sim,
            wall,
        };
        write_artifact(dir, &format!("{experiment}.flight.json"), &doc.to_canonical_json());
    }

    /// Drains the observability state and writes the run report to
    /// `<out_dir>/obs/<experiment>.report.json` (plus the flight document,
    /// when `--flight` is set). Like [`Lab::write_json`], writes nothing
    /// without an output directory; no-op with `--obs off`.
    pub fn write_obs_report(&self, experiment: &str) {
        self.write_flight_doc(experiment);
        let Some(report) = self.take_obs_report(experiment) else {
            return;
        };
        let Some(dir) = &self.out_dir else { return };
        write_json_artifact(&dir.join("obs"), &format!("{experiment}.report.json"), &report);
    }

    /// Writes a JSON artifact under the output directory, if one is set.
    pub fn write_json(&self, name: &str, value: &serde_json::Value) {
        let Some(dir) = &self.out_dir else { return };
        write_json_artifact(dir, &format!("{name}.json"), value);
    }
}

/// Publishes `text` as `<dir>/<file>`, creating `dir` first. An I/O
/// failure aborts loudly rather than silently dropping an artifact.
fn write_artifact(dir: &Path, file: &str, text: &str) {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| write_atomic(&dir.join(file), text))
        .unwrap_or_else(|e| panic!("{e}"));
}

fn write_json_artifact(dir: &Path, file: &str, value: &serde_json::Value) {
    #[expect(clippy::expect_used, reason = "serde_json on owned derived data cannot fail.")]
    write_artifact(dir, file, &serde_json::to_string_pretty(value).expect("serialize"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn shard_count_is_a_function_of_the_hitlist_alone() {
        assert_eq!(scan_shards(0), 1);
        assert_eq!(scan_shards(SHARD_ROWS), 1);
        assert_eq!(scan_shards(SHARD_ROWS + 1), 2);
        assert_eq!(scan_shards(700_000), 6);
    }

    fn parse(args: &[&str]) -> Result<Lab, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        Lab::parse_args(&args)
    }

    #[test]
    fn args_parse_or_say_what_was_expected() {
        let lab = parse(&[
            "--scale", "tiny", "--out", "o", "--obs", "full", "--snapshots", "s", "--flight", "f",
        ])
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((lab.scale, lab.obs), (Scale::Tiny, TraceLevel::Full));
        assert_eq!(lab.out_dir.as_deref(), Some(Path::new("o")));
        assert_eq!(lab.snapshot_dir.as_deref(), Some(Path::new("s")));
        assert_eq!(lab.flight_dir.as_deref(), Some(Path::new("f")));
        let defaults = parse(&[]).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((defaults.scale, defaults.obs), (Scale::Default, TraceLevel::Summary));
        assert!(defaults.out_dir.is_none());

        let err = |args: &[&str]| parse(args).err().unwrap_or_else(|| panic!("{args:?} parsed"));
        for flag in ["--scale", "--out", "--obs", "--snapshots", "--flight"] {
            assert_eq!(err(&["--scale", "tiny", flag]), format!("{flag} needs a value"));
        }
        assert!(err(&["--bogus"]).starts_with("unknown argument \"--bogus\""));
        assert!(err(&["fig2_broot_maps"]).starts_with("unknown argument"));
        assert!(err(&["--scale", "huge"]).starts_with("unknown scale"));
        assert!(err(&["--obs", "loud"]).starts_with("unknown obs mode"));
    }

    /// Without `--out` nothing is written — in particular not over the
    /// committed `results/obs/` goldens — and the state is still drained.
    #[test]
    fn obs_reports_need_an_explicit_output_directory() {
        #[expect(
            clippy::disallowed_methods,
            reason = "a test's scratch directory; no result depends on where it lives"
        )]
        let dir = std::env::temp_dir().join(format!("vp-lab-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut lab = Lab::new(Scale::Tiny);
        let s = lab.broot();
        let _ = lab.vp_scan("SBV-OUT", s, lab.broot_hitlist(), &s.announcement, 1);
        lab.write_obs_report("no-out-dir");
        assert!(!Path::new("results/obs/no-out-dir.report.json").exists());
        assert!(lab.obs_state.borrow().is_empty(), "state not drained");

        lab.out_dir = Some(dir.clone());
        lab.write_obs_report("with-out-dir");
        lab.write_json("artifact", &serde_json::Value::U64(7));
        assert!(dir.join("obs/with-out-dir.report.json").is_file());
        assert_eq!(std::fs::read_to_string(dir.join("artifact.json")).ok().as_deref(), Some("7"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lab_caches_scans() {
        let lab = Lab::new(Scale::Tiny);
        let s = lab.broot();
        let hl = lab.broot_hitlist();
        let a = lab.vp_scan("SBV-X", s, hl, &s.announcement, 1);
        let b = lab.vp_scan("SBV-X", s, hl, &s.announcement, 1);
        assert!(Rc::ptr_eq(&a, &b), "scan not cached");
    }

    #[test]
    fn lab_builds_both_worlds() {
        let lab = Lab::new(Scale::Tiny);
        assert_eq!(lab.broot().announcement.sites.len(), 2);
        assert_eq!(lab.tangled().announcement.sites.len(), 9);
        assert_eq!(lab.broot_hitlist().len(), lab.broot().world.blocks.len());
    }

    #[test]
    fn april_seed_differs_and_drifts_routing_modestly() {
        let lab = Lab::new(Scale::Tiny);
        assert_ne!(lab.april_policy_seed(), POLICY_SEED);
        let s = lab.broot();
        let may = s.routing();
        let april = s.routing_with_seed(&s.announcement, lab.april_policy_seed());
        let moved = may
            .per_as
            .iter()
            .zip(&april.per_as)
            .filter(|(a, b)| {
                a.as_ref().map(|r| r.selected_site()) != b.as_ref().map(|r| r.selected_site())
            })
            .count();
        assert!(moved > 0, "no routing drift between dates");
        assert!(moved * 2 < may.per_as.len(), "drift too large: {moved}");
    }

    #[test]
    fn obs_records_fresh_scans_but_not_cache_hits() {
        let mut lab = Lab::new(Scale::Tiny);
        lab.obs = TraceLevel::Full;
        let s = lab.broot();
        let hl = lab.broot_hitlist();
        let _ = lab.vp_scan("SBV-OBS", s, hl, &s.announcement, 1);
        let _ = lab.vp_scan("SBV-OBS", s, hl, &s.announcement, 1); // cached

        let report = lab.take_obs_report("obs-test").expect("report");
        let serde_json::Value::Object(obj) = &report else {
            panic!("report not an object")
        };
        let scans = obj.get("scans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(scans.len(), 1, "cache hit was double-recorded");
        assert!(!obj.get("metrics").and_then(|v| v.as_array()).unwrap().is_empty());

        // Draining resets the state: a second take sees no scans.
        let again = lab.take_obs_report("obs-test").expect("report");
        let serde_json::Value::Object(obj) = &again else {
            panic!("report not an object")
        };
        assert!(obj.get("scans").and_then(|v| v.as_array()).unwrap().is_empty());
    }

    #[test]
    fn obs_off_records_nothing() {
        let mut lab = Lab::new(Scale::Tiny);
        lab.obs = TraceLevel::Off;
        let s = lab.broot();
        let hl = lab.broot_hitlist();
        let _ = lab.vp_scan("SBV-OBS-OFF", s, hl, &s.announcement, 1);
        assert!(lab.take_obs_report("obs-test").is_none());
    }

    #[test]
    fn tangled_rounds_build_at_tiny_scale() {
        let lab = Lab::new(Scale::Tiny);
        let rounds = lab.tangled_rounds();
        assert_eq!(rounds.len(), 12);
        assert!(rounds.iter().all(|m| !m.is_empty()));
        // Cached.
        let again = lab.tangled_rounds();
        assert!(Rc::ptr_eq(&rounds, &again));
    }
}
