//! A full Verfploeter measurement: probe → capture → forward → clean → map.
//!
//! Public by path: the benchmark harness imports `verfploeter::scan::{run_scan, …}`.
//!
//! There is one round function, parameterised by its shard count K;
//! [`run_scan`] derives K from the hitlist. Every engine is driven
//! through [`NetworkSim::run_with`]: the paced schedule is pulled one
//! probe batch at a time, every arrival resolves as its packet is
//! transmitted, and every site capture is parsed and cleaned as it is
//! handed over, so an engine's working set is one batch, its own rows'
//! schedule and the kept observations — never the round's schedule or
//! the raw reply stream.

use vp_bgp::Announcement;
use vp_hitlist::{Hitlist, HitlistRow};
use vp_net::conv;
use vp_net::{Id, SimDuration, SimTime};
use vp_sim::{CatchmentOracle, EngineObs, FaultConfig, NetworkSim, ShardExecutor, TimedProbe};
use vp_topology::Internet;

use crate::catchment::CatchmentMap;
use crate::cleaning::{Cleaner, CleaningStats};
use crate::prober::{ProbeConfig, Prober, PROBE_BATCH};
use crate::rtt::RttTable;

/// §4's late-reply cutoff: a reply counts only if it arrives within 15
/// minutes of the round's start. Every round uses it; [`Cleaner::new`]
/// takes the cutoff as a parameter so its tests can drive others.
pub(crate) const LATE_REPLY_CUTOFF: SimDuration = SimDuration::from_mins(15);

/// Hitlist rows per shard of a [`run_scan`] round: a cache-sized range
/// (eight 125k-row shards beat one engine at 1M blocks because a shard's
/// columns fit in cache).
const SHARD_ROWS: usize = 131_072;

/// Shard count of a [`run_scan`] round over `hitlist_len` blocks: a
/// function of the round alone, never of the host, so the shard layout
/// (`ScanObs::shard_probes`) reproduces on any machine. Rounds of up to
/// [`SHARD_ROWS`] blocks are one shard; 700 000 blocks are six. How many
/// run at once is `ShardExecutor::host_parallel`'s business.
fn scan_shards(hitlist_len: usize) -> usize {
    hitlist_len.div_ceil(SHARD_ROWS).max(1)
}

/// Configuration of one measurement round.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Dataset tag, e.g. "SBV-5-15".
    pub name: String,
    /// Probing parameters (rate, round identifier, order seed).
    pub probe: ProbeConfig,
    /// Whether each engine keeps its event ring ([`ScanObs::events`]).
    /// Never affects the metrics registry or any measurement output.
    pub events: bool,
    /// Optional wall-time flight channel. When a binary attaches one
    /// (library code never constructs wall clocks — DESIGN.md §8), the
    /// scan records host-time phase and shard intervals into
    /// [`ScanObs::wall_flight`]. Affects only that timeline: the
    /// measurement outputs and the registry stay byte-identical with or
    /// without it.
    pub wall: Option<vp_obs::WallChannel>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            name: "SBV".to_owned(),
            probe: ProbeConfig::default(),
            events: false,
            wall: None,
        }
    }
}

/// The outcome of one measurement round.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub catchments: CatchmentMap,
    pub cleaning: CleaningStats,
    /// Probes transmitted (one per hitlist entry).
    pub probes_sent: u64,
    /// When the round started / when the last probe left. With
    /// [`ScanObs::sim_end`] these are the round's three sim-time instants.
    pub started: SimTime,
    pub last_probe: SimTime,
    /// Round-trip time per mapped block (probe transmission to reply
    /// arrival at the capturing site). The paper's §7 notes these RTTs
    /// "can be used to suggest where new anycast sites would be helpful".
    /// Keyed in block order so downstream reports iterate deterministically;
    /// stored as a fixed-point columnar [`RttTable`] (exact — see its docs).
    pub rtts: RttTable,
    /// Simulator counters for the round.
    pub sim_stats: vp_sim::SimStats,
    /// Observability snapshot for the round (metrics + events).
    pub obs: ScanObs,
}

/// The observability snapshot of one scan: a metrics registry, an event
/// log, and the shard layout.
///
/// The **registry** holds only shard-count-invariant series — pure sums of
/// per-packet or per-index contributions — so a round produces a
/// byte-identical registry for every shard count K (asserted by the
/// K-invariance suite via
/// [`vp_obs::Registry::to_canonical_json`]). Anything that legitimately
/// depends on the shard layout (per-shard probe counts, wall timings)
/// lives *outside* the registry.
#[derive(Debug, Clone)]
pub struct ScanObs {
    /// Merged metrics: `scan.*`, `sim.*`, `clean.*`, `catchment.*`,
    /// `engine.*` series. Shard-count-invariant.
    pub registry: vp_obs::Registry,
    /// Merged event rings, kept when [`ScanConfig::events`] is set. Each
    /// engine's ring evicts on its own, so the split between `events` and
    /// `dropped` is NOT shard-count-invariant — diagnostics, not results.
    pub events: vp_obs::EventLog,
    /// Sim-time at which the last event was processed (max across shards;
    /// equals the K=1 engine's final clock, and is asserted so).
    pub sim_end: SimTime,
    /// Probes assigned per shard, in shard order (length 1 at K=1).
    /// Feeds the shard-balance section of run reports.
    pub shard_probes: Vec<u64>,
    /// Wall-time flight timeline, populated only when
    /// [`ScanConfig::wall`] carries a channel: host-time phase spans plus
    /// per-shard executor intervals (queue wait / compute / barrier
    /// wait). Explicitly **outside** the determinism contract.
    pub wall_flight: vp_obs::FlightTimeline,
}

/// RTT histogram bucket bounds in nanoseconds: 1 ms to ~25 min, growing
/// ×1.5 per bucket — wide enough for every in-cutoff reply at fine-grained
/// low-latency resolution.
pub(crate) fn rtt_bucket_bounds() -> Vec<u64> {
    vp_obs::Histogram::exponential(1_000_000, 3, 2, 36)
        .bounds()
        .to_vec()
}

/// Ring capacity for the wall-time flight recorders: one round's executor
/// spans plus up to [`MAX_PHASE_PAIRS`] interleaved walk/dispatch pairs per
/// engine ([`PhaseSpans`] coalesces beyond that, so the ring never drops).
const FLIGHT_CAPACITY: usize = 4096;

/// Closes the round: stamps the folded result's registry with its
/// headline series, derived from the folded (shard-invariant) round
/// artifacts — so registries agree byte for byte across shard counts.
fn finish_obs(result: &mut ScanResult, announcement: &Announcement) {
    let registry = &mut result.obs.registry;

    let site_name = |idx: usize| {
        announcement
            .sites
            .get(idx)
            .map_or("unknown", |s| s.name.as_str())
    };

    registry.counter_add("scan.probes_sent", &[], result.probes_sent);
    registry.counter_add("scan.blocks_mapped", &[], result.catchments.len() as u64);

    let sim_stats = &result.sim_stats;
    registry.counter_add("sim.injected", &[], sim_stats.injected);
    registry.counter_add("sim.replies", &[], sim_stats.replies);
    registry.counter_add("sim.lost", &[], sim_stats.lost);
    registry.counter_add("sim.duplicates", &[], sim_stats.duplicates);
    registry.counter_add("sim.aliases", &[], sim_stats.aliases);
    registry.counter_add("sim.unsolicited", &[], sim_stats.unsolicited);
    registry.counter_add("sim.undeliverable", &[], sim_stats.undeliverable);
    registry.counter_add("sim.delivered_to_hosts", &[], sim_stats.delivered_to_hosts);
    registry.counter_add("sim.delivered_to_sites", &[], sim_stats.delivered_to_sites);
    for (idx, n) in sim_stats.per_site_captures.iter().enumerate() {
        registry.counter_add("sim.site_captures", &[("site", site_name(idx))], *n);
    }

    let cleaning = &result.cleaning;
    registry.counter_add("clean.total", &[], cleaning.total);
    registry.counter_add("clean.duplicates", &[], cleaning.duplicates);
    registry.counter_add("clean.foreign", &[], cleaning.foreign);
    registry.counter_add("clean.unprobed_source", &[], cleaning.unprobed_source);
    registry.counter_add("clean.late", &[], cleaning.late);
    registry.counter_add("clean.kept", &[], cleaning.kept);

    for (site, count) in result.catchments.site_counts() {
        registry.counter_add(
            "catchment.blocks",
            &[("site", site_name(site.index()))],
            count as u64,
        );
    }

    // One insert for the whole RTT column: `histogram_observe` allocates
    // its `MetricKey` on every call, which at ~one reply per probe was the
    // single largest allocator source in the scan (the §17 witness counts
    // it). Building the histogram locally and inserting once produces the
    // identical registry state — including its absence when no reply
    // carried an RTT.
    if !result.rtts.is_empty() {
        let mut hist = vp_obs::Histogram::new(rtt_bucket_bounds());
        for rtt in result.rtts.values() {
            hist.observe(rtt.as_nanos());
        }
        registry.insert_histogram("scan.rtt_ns", &[], hist);
    }
}

impl ScanResult {
    /// Folds in the next shard's share of the round (a share is the result
    /// over one engine's hitlist range, before [`finish_obs`]). Shares
    /// cover disjoint ranges, so the unions are disjoint and the sums
    /// exact; only the per-engine vectors depend on the fold running in
    /// shard order.
    fn absorb(&mut self, next: ScanResult) {
        self.catchments.merge(&next.catchments);
        self.rtts.merge(&next.rtts);
        self.cleaning.merge(&next.cleaning);
        self.sim_stats.merge(&next.sim_stats);
        self.probes_sent += next.probes_sent;
        // The union of the shard arrivals is the K=1 engine's, so the max
        // final clock is the K=1 engine's final clock; likewise the max
        // last send is the round's last.
        self.obs.sim_end = self.obs.sim_end.max(next.obs.sim_end);
        self.last_probe = self.last_probe.max(next.last_probe);
        self.obs.shard_probes.extend(next.obs.shard_probes);
        self.obs.registry.merge(&next.obs.registry);
        self.obs.events.merge(&next.obs.events);
        self.obs.wall_flight.merge(&next.obs.wall_flight);
    }
}

/// Folds the refills and dispatch stretches of one engine run — which
/// interleave, one refill per [`PROBE_BATCH`] — into the wall flight
/// channel as disjoint, non-nesting intervals, so the per-name sums still
/// tile the round (DESIGN.md §9). Up to [`MAX_PHASE_PAIRS`] refills are
/// recorded exactly: the refill as the walk interval, the stretch up to
/// the next refill as the dispatch interval. Longer runs coalesce `group`
/// consecutive refills into one pair laid out back to back over the
/// group's own wall interval — summed walk time first, the rest dispatch —
/// so the ring never overflows and the sums stay exact.
struct PhaseSpans<'a> {
    rec: &'a vp_obs::FlightRecorder,
    shard: Option<u32>,
    group: u64,
    /// Refills folded into the open pair, their summed duration, and the
    /// wall time the pair (and its latest refill) began.
    refills: u64,
    walk_ns: u64,
    pair_start: u64,
    refill_start: u64,
}

/// Walk/dispatch pairs one engine may record: half the ring, less the
/// handful of whole-round spans that share it.
const MAX_PHASE_PAIRS: u64 = (FLIGHT_CAPACITY as u64 - 64) / 2;

impl<'a> PhaseSpans<'a> {
    fn new(rec: &'a vp_obs::FlightRecorder, shard: Option<u32>, probes: usize) -> Self {
        // One refill per batch, plus the empty one that finds the
        // schedule exhausted.
        let refills = (probes / PROBE_BATCH + 2) as u64;
        PhaseSpans {
            rec,
            shard,
            group: refills.div_ceil(MAX_PHASE_PAIRS),
            refills: 0,
            walk_ns: 0,
            pair_start: 0,
            refill_start: 0,
        }
    }

    fn begin_refill(&mut self) {
        let now = self.rec.now_nanos();
        if self.refills == self.group {
            self.close_pair(now);
        }
        if self.refills == 0 {
            self.pair_start = now;
        }
        self.refill_start = now;
    }

    fn end_refill(&mut self) {
        self.walk_ns += self.rec.now_nanos().saturating_sub(self.refill_start);
        self.refills += 1;
    }

    /// Closes the last pair at the end of the engine run.
    fn finish(mut self) {
        let now = self.rec.now_nanos();
        self.close_pair(now);
    }

    fn close_pair(&mut self, end: u64) {
        if self.refills == 0 {
            return;
        }
        let walk_end = self.pair_start + self.walk_ns;
        self.rec
            .record_interval("scan.schedule_walk", "probe", self.shard, self.pair_start, walk_end);
        self.rec
            .record_interval("scan.sim_dispatch", "sim", self.shard, walk_end, end);
        self.refills = 0;
        self.walk_ns = 0;
    }
}

/// The pull-style probe source [`NetworkSim::run_with`] transmits: walks
/// `schedule` one [`PROBE_BATCH`] at a time, building each batch's
/// packets **and their precomputed reply images** through the
/// allocation-amortized [`Prober::build_probes_with_replies`] (two
/// shared wire buffers, one checksum sum per message), and yields them in
/// schedule order. Only one batch of probes exists at any moment; the
/// engine pulls a stage of them (an eighth of a batch) at a time, ahead
/// of their send times. Fused: the refill that finds the schedule
/// exhausted is the last, whoever keeps polling.
struct ProbeFeed<'a, I> {
    /// `(hitlist index, send time, target)` in schedule order.
    schedule: I,
    prober: &'a Prober,
    source: vp_net::Ipv4Addr,
    /// The current batch as `(hitlist index, target)`, reversed so `pop`
    /// yields schedule order.
    probes: Vec<(u64, vp_net::Ipv4Addr)>,
    ats: Vec<SimTime>,
    packets: Vec<vp_packet::Ipv4Packet>,
    reply_images: Vec<bytes::Bytes>,
    /// A refill came back empty: the schedule is done.
    exhausted: bool,
    phases: Option<PhaseSpans<'a>>,
}

impl<I: Iterator<Item = (u64, SimTime, vp_net::Ipv4Addr)>> ProbeFeed<'_, I> {
    fn refill(&mut self) {
        if let Some(phases) = &mut self.phases {
            phases.begin_refill();
        }
        self.probes.clear();
        self.ats.clear();
        for (index, at, target) in self.schedule.by_ref().take(PROBE_BATCH) {
            self.probes.push((index, target));
            self.ats.push(at);
        }
        self.prober.build_probes_with_replies(
            &self.probes,
            self.source,
            &mut self.packets,
            &mut self.reply_images,
        );
        self.probes.reverse();
        self.ats.reverse();
        self.packets.reverse();
        self.reply_images.reverse();
        if let Some(phases) = &mut self.phases {
            phases.end_refill();
        }
    }
}

impl<I: Iterator<Item = (u64, SimTime, vp_net::Ipv4Addr)>> Iterator for ProbeFeed<'_, I> {
    type Item = TimedProbe;

    fn next(&mut self) -> Option<TimedProbe> {
        if self.packets.is_empty() {
            if self.exhausted {
                return None;
            }
            self.refill();
            self.exhausted = self.packets.is_empty();
        }
        Some(TimedProbe {
            at: self.ats.pop()?,
            packet: self.packets.pop()?,
            reply_image: self.reply_images.pop()?,
            // A hitlist built over the world lists block `i` at index `i`.
            row: conv::sat_u32(self.probes.pop()?.0),
        })
    }
}

/// What every engine of one round shares.
struct Round<'a> {
    world: &'a Internet,
    hitlist: &'a Hitlist,
    announcement: &'a Announcement,
    /// The round's one oracle, lent to every engine.
    oracle: &'a dyn CatchmentOracle,
    faults: &'a FaultConfig,
    start: SimTime,
    config: &'a ScanConfig,
    sim_seed: u64,
    prober: Prober,
}

impl Round<'_> {
    /// A wall-time flight recorder for the calling thread, if the caller
    /// attached a channel. Recorder handles are `Rc`-based and never cross
    /// a thread boundary: the orchestrator and every engine job build
    /// their own and drain it to a timeline.
    fn wall_recorder(&self) -> Option<vp_obs::FlightRecorder> {
        self.config
            .wall
            .clone()
            .map(|w| vp_obs::FlightRecorder::new(Box::new(w), FLIGHT_CAPACITY))
    }

    /// An engine for the service over the round's borrowed oracle. Every
    /// engine gets the round seed: keyed fault draws must agree across
    /// shard layouts.
    fn new_engine(&self) -> NetworkSim<'_> {
        let (announcement, oracle) = (self.announcement.clone(), Box::new(self.oracle));
        let mut sim = NetworkSim::new(self.world, self.faults.clone(), self.sim_seed, announcement, oracle, false);
        sim.attach_obs(self.config.events);
        sim
    }

    /// Runs one engine over the probes of hitlist rows `range` at their
    /// global send times (the round's schedule with every other row left
    /// out, [`Prober::schedule`]) — feeding the engine a batch at a time
    /// and cleaning every site capture as it is handed over (the reply
    /// stream is never materialized), then folds the
    /// kept observations into a catchment map and RTT table. Returns the
    /// engine's share of the round: the result over `range`, still to be
    /// folded with the other shares and closed by [`finish_obs`]. Wall
    /// intervals go to `lane`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the schedule holds exactly the rows of `range`, which sized send_time; shard-closed traffic — every kept reply answers one of this engine's probes, so its row is in `range`."
    )]
    fn run_engine(&self, lane: Option<u32>, range: std::ops::Range<usize>) -> ScanResult {
        let wall_rec = self.wall_recorder();
        let schedule = self.prober.schedule(self.hitlist.len(), range.clone(), self.start);
        let mut sim = self.new_engine();
        let probes = schedule.len();
        // Send times of this engine's own probes, in row order, recorded
        // as they are pulled: every reply arrives after its probe's send
        // time was recorded.
        let mut send_time = vec![SimTime::ZERO; range.len()];
        let mut last_probe = self.start;
        let mut feed = ProbeFeed {
            schedule: schedule.map(|(index, at)| {
                let row = HitlistRow(conv::sat_u32(index));
                send_time[row.index() - range.start] = at;
                last_probe = last_probe.max(at);
                (index, at, self.hitlist.targets()[row])
            }),
            prober: &self.prober,
            source: self.announcement.measurement_addr(),
            probes: Vec::with_capacity(PROBE_BATCH),
            ats: Vec::with_capacity(PROBE_BATCH),
            packets: Vec::with_capacity(PROBE_BATCH),
            reply_images: Vec::with_capacity(PROBE_BATCH),
            exhausted: false,
            phases: wall_rec.as_ref().map(|rec| PhaseSpans::new(rec, lane, probes)),
        };
        let ident = self.config.probe.ident;
        let mut cleaner =
            Cleaner::new(self.hitlist, range.clone(), ident, self.start, LATE_REPLY_CUTOFF);
        sim.run_with(&mut feed, &mut cleaner);
        if let Some(phases) = feed.phases.take() {
            phases.finish();
        }
        drop(feed);
        let (kept, cleaning) = cleaner.finish();

        let guard = wall_rec
            .as_ref()
            .map(|r| r.span("scan.catchment_build", "map", lane));
        let catchments = CatchmentMap::from_replies(&self.config.name, &kept, self.hitlist);
        // Probe transmission to reply arrival.
        let rtts = RttTable::from_pairs(kept.iter().map(|r| {
            let sent = send_time[r.row.index() - range.start];
            (self.hitlist.targets()[r.row].block(), r.at.since(sent))
        }));
        drop(guard);

        // Events arrive in the canonical (time, name, detail) order
        // `absorb` maintains.
        let (registry, events) = sim.take_obs().map(EngineObs::into_parts).unwrap_or_default();
        ScanResult {
            catchments,
            cleaning,
            probes_sent: probes as u64,
            started: self.start,
            last_probe,
            rtts,
            sim_stats: sim.stats(),
            obs: ScanObs {
                registry,
                events,
                sim_end: sim.now(),
                shard_probes: vec![probes as u64],
                wall_flight: wall_rec.map(|r| r.drain()).unwrap_or_default(),
            },
        }
    }
}

/// One measurement round over `shards` engines on `exec` — the paper's
/// §3.1 pipeline, and the single implementation behind every public entry
/// point: build engines → run them on the executor → fold their shares in
/// shard order → assemble the result. The result is a function of the
/// round's inputs alone, never of `shards` or `exec` (DESIGN.md §7).
///
/// The hitlist is split into contiguous, block-ordered ranges
/// ([`Hitlist::shard_bounds`]) and each engine simulates the probes of its
/// own range at their global send times, from the schedule its own job
/// builds ([`Prober::schedule`]). Only the wall lanes depend on K:
///
/// * K=1's one job is the orchestrator's own work, so it records its wall
///   intervals on the orchestrator lane, with no executor intervals.
/// * K>1's jobs record theirs on their own shard lanes, and the
///   executor's queue-wait / compute / barrier-wait marks become
///   `shard.*` intervals.
///
/// Probe *packets* are materialized only inside the owning engine, one
/// batch at a time, as its run loop pulls them.
#[expect(
    clippy::too_many_arguments,
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "shards argument goes with ROADMAP item 7(a); the executor only calls k < shards, the length of bounds; `shards > 0` is asserted above and the executor returns one share per shard."
)]
fn run_round(
    exec: &ShardExecutor,
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    oracle: &dyn CatchmentOracle,
    faults: &FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
    shards: usize,
) -> ScanResult {
    assert!(shards > 0, "cannot scan with zero shards");
    let round = Round {
        world,
        hitlist,
        announcement,
        oracle,
        faults,
        start,
        config,
        sim_seed,
        prober: Prober::new(config.probe.clone()),
    };
    // Guards close (and record) at the matching `drop`, so each phase's
    // interval spans exactly the statements between its creation and drop.
    let wall_rec = round.wall_recorder();
    let round_guard = wall_rec.as_ref().map(|r| r.span("scan.round", "round", None));

    let bounds = hitlist.shard_bounds(shards);
    // The executor returns shares in shard-id order, so the fold below
    // takes shard 0, 1, 2, … by construction.
    let (shares, shard_timings) = exec.run_sharded_timed(
        shards,
        |k| {
            let lane = (shards > 1).then(|| u32::try_from(k).unwrap_or(u32::MAX));
            round.run_engine(lane, bounds[k].clone())
        },
        config
            .wall
            .as_ref()
            .filter(|_| shards > 1)
            .map(|w| w as &(dyn vp_obs::Clock + Sync)),
    );
    if let Some(rec) = wall_rec.as_ref() {
        for t in &shard_timings {
            let sid = Some(u32::try_from(t.shard).unwrap_or(u32::MAX));
            rec.record_interval("shard.queue_wait", "exec", sid, t.queued_ns, t.started_ns);
            rec.record_interval("shard.compute", "exec", sid, t.started_ns, t.finished_ns);
            rec.record_interval("shard.barrier_wait", "exec", sid, t.finished_ns, t.merged_ns);
        }
    }

    // Fold by move into shard 0's share: K=1 merges nothing.
    let merge_guard = wall_rec.as_ref().map(|r| r.span("scan.merge", "merge", None));
    let mut shares = shares.into_iter();
    let mut total = shares.next().expect("one share per shard");
    for share in shares {
        total.absorb(share);
    }
    drop(merge_guard);
    drop(round_guard);
    if let Some(rec) = wall_rec {
        total.obs.wall_flight.merge(&rec.drain());
    }
    finish_obs(&mut total, announcement);
    total
}

/// Runs one full Verfploeter measurement at `start` over a fresh simulator.
///
/// This is the paper's §3.1 pipeline end to end: probes are emitted from
/// the measurement address in pseudorandom paced order, replies are
/// captured concurrently at all sites, forwarded (tagged with their site)
/// to the central point, cleaned per §4, and folded into a catchment map.
/// The round is cut into one shard per 131 072 hitlist rows, run on the
/// host's cores ([`ShardExecutor::host_parallel`]); a round of up to that
/// many rows is one engine, run inline on the calling thread. The result
/// is the same at every shard count (see [`run_scan_sharded_on`]).
#[expect(
    clippy::too_many_arguments,
    reason = "a round's eight inputs stay positional: this is the signature every experiment and the benchmark harness call."
)]
pub fn run_scan(
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    oracle: Box<dyn CatchmentOracle>,
    faults: FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
) -> ScanResult {
    let shards = scan_shards(hitlist.len());
    run_round(
        &ShardExecutor::host_parallel(shards),
        world,
        hitlist,
        announcement,
        &*oracle,
        &faults,
        start,
        config,
        sim_seed,
        shards,
    )
}

/// Runs one full Verfploeter measurement partitioned over `shards`
/// independent simulator engines on `exec`, producing a [`ScanResult`]
/// **bit-identical** to [`run_scan`] with the same inputs — both are the
/// same round function, which is invariant in its shard count. That
/// invariance rests on two properties of the simulator:
///
/// 1. **Order-independent fault draws.** Every stochastic outcome in
///    [`vp_sim`] is a keyed hash of the round seed and the packet's
///    identity, not a draw from a shared sequential stream — so an engine
///    simulating a subset of the traffic makes exactly the decisions the
///    one-engine round makes for that subset.
/// 2. **Shard-closed reply traffic.** A probe to hitlist index `i` can
///    only produce replies attributed to index `i` (aliases stay inside
///    the block; unsolicited traffic carries no payload and is always
///    cleaned as foreign), so every reply lands in the engine that owns
///    its index, per-shard cleaning sees the same competition between
///    replies as the one-engine pass, and the per-shard maps/counters
///    merge disjointly.
///
/// `make_oracle` is called exactly once per round; every engine borrows
/// the oracle it returns.
///
/// Threading goes through the blessed [`ShardExecutor`] (DESIGN.md §14):
/// the caller picks how many OS threads run the shard engines, from fully
/// inline ([`ShardExecutor::serial`]) through a fixed count
/// ([`ShardExecutor::new`]) to the host's available parallelism
/// ([`ShardExecutor::host_parallel`]). The executor only schedules work;
/// the fold is always in shard-id order.
///
/// # Panics
/// Panics if `shards` is zero.
#[expect(
    clippy::too_many_arguments,
    reason = "shards argument goes with ROADMAP item 7(a): a round's inputs stay positional until the shard count is derived."
)]
pub fn run_scan_sharded_on(
    exec: &ShardExecutor,
    world: &Internet,
    hitlist: &Hitlist,
    announcement: &Announcement,
    make_oracle: &(dyn Fn() -> Box<dyn CatchmentOracle> + Sync),
    faults: FaultConfig,
    start: SimTime,
    config: &ScanConfig,
    sim_seed: u64,
    shards: usize,
) -> ScanResult {
    run_round(
        exec,
        world,
        hitlist,
        announcement,
        &*make_oracle(),
        &faults,
        start,
        config,
        sim_seed,
        shards,
    )
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "atomics count oracle-factory calls and tick a test clock behind their Sync bounds"
)]
mod tests {
    use super::*;
    use vp_hitlist::HitlistConfig;
    use vp_sim::{FlippingOracle, Scenario, StaticOracle};
    use vp_topology::TopologyConfig;

    fn setup() -> (Scenario, Hitlist) {
        let s = Scenario::broot(TopologyConfig::tiny(81), 7);
        let hl = Hitlist::from_internet(
            &s.world,
            &HitlistConfig {
                wrong_addr_prob: 0.0,
                ..HitlistConfig::default()
            },
        );
        (s, hl)
    }

    /// `setup`'s world with nobody home: no block ever answers.
    fn silent_world() -> Scenario {
        let config = TopologyConfig {
            responsiveness: 0.0,
            sender_responsiveness: 0.0,
            ..TopologyConfig::tiny(81)
        };
        Scenario::broot(config, 7)
    }

    /// A fault-free round from `start` under `oracle`, at K ∈ {1, 7},
    /// inline and threaded, maps every responsive block to the site its
    /// PoP reaches in the round's epoch.
    fn assert_clean_round_follows_routes<O: CatchmentOracle + Clone + 'static>(
        s: &Scenario,
        hl: &Hitlist,
        oracle: &O,
        start: SimTime,
    ) {
        let epoch = oracle.epoch(start);
        let responsive = s.world.responsive_blocks().count();
        for shards in [1, 7] {
            for exec in [ShardExecutor::serial(), ShardExecutor::new(shards)] {
                let result = run_scan_sharded_on(
                    &exec,
                    &s.world,
                    hl,
                    &s.announcement,
                    &|| Box::new(oracle.clone()),
                    FaultConfig::none(),
                    start,
                    &ScanConfig::default(),
                    1,
                    shards,
                );
                let label = format!("K={shards} on {} worker(s), epoch {epoch}", exec.workers());
                assert_eq!(result.catchments.len(), responsive, "{label}");
                assert_eq!(result.probes_sent, hl.len() as u64, "{label}");
                assert!(result.cleaning.is_consistent(), "{label}");
                // Ground truth: every mapped block matches the routes.
                for (block, site) in result.catchments.iter() {
                    let info = s.world.block(block).unwrap();
                    assert_eq!(Some(site), oracle.site_of_pop(info.pop, epoch), "{label}: block {block}");
                }
            }
        }
    }

    /// The independent anchor for every K: a fault-free round recovers the
    /// routing table's catchment on every responsive block, whatever the
    /// shard count and wherever the engines run — and, under a flipping
    /// oracle, the catchment of the epoch the round runs in. (The K-matrix
    /// alone only shows the round function agrees with itself.)
    #[test]
    fn clean_channel_maps_every_responsive_block_correctly() {
        let (s, hl) = setup();
        let table = s.routing();
        assert_clean_round_follows_routes(&s, &hl, &StaticOracle::new(table.clone()), SimTime::ZERO);

        // Every PoP of an AS with a choice of sites redraws it each
        // interval; the round starts a minute into the third.
        let interval = SimDuration::from_mins(15);
        let mut model = vp_bgp::FlipModel::stable(5);
        for (asn, route) in table.per_as.iter().enumerate() {
            if route.as_ref().is_some_and(|r| r.candidate_sites().len() > 1) {
                model = model.with_prone_as(vp_net::Asn(conv::sat_u32(asn as u64)), 1.0);
            }
        }
        let flipping = FlippingOracle::new(table, s.world.graph.clone(), model, interval);
        let start = SimTime::ZERO + interval + interval + SimDuration::from_mins(1);
        let epoch = flipping.epoch(start);
        let moved = (s.world.responsive_blocks())
            .filter(|b| flipping.site_of_pop(b.pop, epoch) != flipping.site_of_pop(b.pop, 0))
            .count();
        assert!(moved > 0, "no responsive block changes site by epoch {epoch}");
        assert_clean_round_follows_routes(&s, &hl, &flipping, start);
    }

    /// A hitlist that is not the world's block table — every third entry,
    /// reloaded from its JSON — has indices that are wrong rows for all
    /// but its first entry. The engine checks each before use, so the
    /// round still maps every listed responsive block, and to its
    /// routing-table site, at every K.
    #[test]
    fn subset_hitlist_with_misaligned_rows_maps_correctly() {
        let (s, hl) = setup();
        let third: Vec<_> = hl.entries().step_by(3).collect();
        let subset = serde_json::to_string(&third).expect("entries serialize");
        let subset = Hitlist::from_json(&subset).expect("entries parse back");
        assert_eq!(subset.len(), hl.len().div_ceil(3));
        let misaligned = (subset.entries().enumerate())
            .filter(|(i, e)| s.world.block_id(e.block) != Some(conv::sat_u32(*i)))
            .count();
        assert_eq!(misaligned, subset.len() - 1);
        let responsive = |e: &vp_hitlist::HitlistEntry| s.world.block(e.block).unwrap().responsive;
        let responsive = subset.entries().filter(responsive).count();

        let table = s.routing();
        for shards in [1, 7] {
            let result = run_scan_sharded_on(
                &ShardExecutor::serial(),
                &s.world,
                &subset,
                &s.announcement,
                &|| Box::new(StaticOracle::new(table.clone())),
                FaultConfig::none(),
                SimTime::ZERO,
                &ScanConfig::default(),
                1,
                shards,
            );
            assert_eq!(result.probes_sent, subset.len() as u64, "K={shards}");
            assert_eq!(result.catchments.len(), responsive, "K={shards}");
            assert_eq!(result.sim_stats.undeliverable, 0, "K={shards}");
            for (block, site) in result.catchments.iter() {
                assert!(
                    subset.entries().any(|e| e.block == block),
                    "K={shards}: block {block}"
                );
                let info = s.world.block(block).unwrap();
                assert_eq!(Some(site), table.site_of_pop(info.pop), "K={shards}: block {block}");
            }
        }
    }

    /// The degenerate rounds of the hostile-input matrix: total loss, a
    /// world where nothing answers, and a one-block hitlist (so K = 7
    /// leaves six engines empty). At every K, inline and threaded: no
    /// panic, a map of exactly the expected size, consistent cleaning
    /// counters, no more blocks mapped than probed, and K=1's registry byte for byte.
    #[test]
    fn degenerate_rounds_scan_cleanly_at_every_shard_count() {
        let (s, hl) = setup();
        let silent = silent_world();
        assert_eq!(silent.world.responsive_blocks().count(), 0);
        let silent_hl = Hitlist::from_internet(&silent.world, &HitlistConfig::default());
        let answering = hl
            .entries()
            .find(|e| s.world.block(e.block).is_some_and(|b| b.responsive))
            .expect("the tiny world has a responsive block");
        let one_block = serde_json::to_string(&[answering]).expect("entry serializes");
        let one_block = Hitlist::from_json(&one_block).expect("entry parses back");
        let total_loss = FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        };
        for (case, scenario, hitlist, faults, mapped) in [
            ("loss = 1.0", &s, &hl, total_loss, 0),
            ("no responsive block", &silent, &silent_hl, FaultConfig::default(), 0),
            ("one-block hitlist", &s, &one_block, FaultConfig::none(), 1),
        ] {
            let table = scenario.routing();
            let mut serial_registry = None;
            for shards in [1, 7] {
                for exec in [ShardExecutor::serial(), ShardExecutor::new(shards)] {
                    let result = run_scan_sharded_on(
                        &exec,
                        &scenario.world,
                        hitlist,
                        &scenario.announcement,
                        &|| Box::new(StaticOracle::new(table.clone())),
                        faults.clone(),
                        SimTime::ZERO,
                        &ScanConfig::default(),
                        1,
                        shards,
                    );
                    let label = format!("{case}: K={shards} on {} worker(s)", exec.workers());
                    assert_eq!(result.catchments.len(), mapped, "{label}");
                    assert_eq!(result.rtts.len(), mapped, "{label}");
                    assert_eq!(result.probes_sent, hitlist.len() as u64, "{label}");
                    assert!(result.cleaning.is_consistent(), "{label}");
                    assert!(result.catchments.len() <= hitlist.len(), "{label}");
                    let registry = result.obs.registry.to_canonical_json();
                    let serial = serial_registry.get_or_insert_with(|| registry.clone());
                    assert_eq!(&registry, serial, "{label}: registry differs from K=1");
                }
            }
        }
    }

    /// An announcement with no sites has nowhere to send from: at every
    /// K, inline and threaded, each probe is undeliverable (or lost), and
    /// the round is an empty map with consistent cleaning counters.
    #[test]
    fn a_siteless_announcement_scans_to_an_empty_map() {
        let s = Scenario {
            world: Internet::generate(TopologyConfig::tiny(5)),
            announcement: Announcement::from_placements(&[], 0),
            policy_seed: 7,
        };
        let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
        let table = s.routing();
        for faults in [FaultConfig::none(), FaultConfig::default()] {
            for shards in [1, 2] {
                for exec in [ShardExecutor::serial(), ShardExecutor::new(shards)] {
                    let result = run_scan_sharded_on(
                        &exec,
                        &s.world,
                        &hl,
                        &s.announcement,
                        &|| Box::new(StaticOracle::new(table.clone())),
                        faults.clone(),
                        SimTime::ZERO,
                        &ScanConfig::default(),
                        1,
                        shards,
                    );
                    let label = format!("K={shards} on {} worker(s), loss {}", exec.workers(), faults.loss);
                    let stats = &result.sim_stats;
                    assert_eq!(result.probes_sent, hl.len() as u64, "{label}");
                    assert_eq!(stats.undeliverable + stats.lost, stats.injected + stats.unsolicited, "{label}");
                    assert_eq!(stats.delivered_to_hosts + stats.delivered_to_sites, 0, "{label}");
                    assert!(result.catchments.is_empty() && result.rtts.is_empty(), "{label}");
                    assert!(result.cleaning.is_consistent() && result.cleaning.total == 0, "{label}");
                }
            }
        }
    }

    /// A round nobody answers still counts every arrival as an engine
    /// event and ends at the last of them, past the last transmission.
    #[test]
    fn an_all_silent_round_ends_at_its_last_arrival() {
        let silent = silent_world();
        let exact = HitlistConfig {
            wrong_addr_prob: 0.0,
            ..HitlistConfig::default()
        };
        let lossy = FaultConfig {
            loss: 0.2,
            ..FaultConfig::none()
        };
        for (config, faults) in [(exact, FaultConfig::none()), (HitlistConfig::default(), lossy)] {
            let hl = Hitlist::from_internet(&silent.world, &config);
            let result = run_scan(
                &silent.world,
                &hl,
                &silent.announcement,
                Box::new(StaticOracle::new(silent.routing())),
                faults.clone(),
                SimTime::ZERO,
                &ScanConfig::default(),
                3,
            );
            let (probes, stats) = (result.probes_sent, &result.sim_stats);
            assert_eq!(probes, hl.len() as u64);
            assert_eq!(stats.delivered_to_hosts, probes - stats.lost - stats.undeliverable);
            let events = result.obs.registry.counter_value("engine.events", &[]);
            assert_eq!(events, stats.delivered_to_hosts);
            if faults.loss == 0.0 {
                assert_eq!(events, probes, "every probe arrives: {stats:?}");
                // The last-sent probe arrives after it was sent, whoever
                // arrives last.
                assert!(result.obs.sim_end > result.last_probe);
            } else {
                assert!(stats.lost > 0 && stats.undeliverable > 0, "{stats:?}");
            }
            assert!(result.obs.sim_end > result.started);
            assert!(result.catchments.is_empty() && stats.replies == 0);
        }
    }

    #[test]
    fn shard_count_is_a_function_of_the_hitlist_alone() {
        assert_eq!(scan_shards(0), 1);
        assert_eq!(scan_shards(SHARD_ROWS), 1);
        assert_eq!(scan_shards(SHARD_ROWS + 1), 2);
        assert_eq!(scan_shards(700_000), 6);
        assert_eq!(scan_shards(1_000_000), 8);
    }

    /// One oracle per round: the factory runs once however many engines
    /// borrow what it returns.
    #[test]
    fn oracle_factory_is_called_once_per_round() {
        let (s, hl) = setup();
        let table = std::sync::Arc::new(s.routing());
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let result = run_scan_sharded_on(
            &ShardExecutor::new(8),
            &s.world,
            &hl,
            &s.announcement,
            &|| {
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Box::new(StaticOracle::shared(table.clone()))
            },
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
            8,
        );
        assert_eq!(result.obs.shard_probes.len(), 8);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn response_rate_tracks_world_responsiveness() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
        );
        let rate = result.catchments.len() as f64 / hl.len() as f64;
        let world_rate = s.world.responsive_blocks().count() as f64 / s.world.blocks.len() as f64;
        assert!((rate - world_rate).abs() < 1e-9);
    }

    #[test]
    fn faults_are_cleaned_out() {
        let (s, hl) = setup();
        let faults = FaultConfig {
            duplicate_prob: 0.3,
            max_duplicates: 10,
            alias_prob: 0.2,
            late_prob: 0.05,
            late_delay: SimDuration::from_mins(20),
            unsolicited_prob: 0.05,
            ..FaultConfig::none()
        };
        let table = s.routing();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            faults,
            SimTime::ZERO,
            &ScanConfig::default(),
            2,
        );
        let st = result.cleaning;
        assert!(st.is_consistent());
        assert!(st.duplicates > 0, "no duplicates seen: {st:?}");
        assert!(st.unprobed_source > 0, "no aliased replies seen: {st:?}");
        assert!(st.late > 0, "no late replies seen: {st:?}");
        // Despite the noise, all surviving mappings are correct.
        for (block, site) in result.catchments.iter() {
            let info = s.world.block(block).unwrap();
            assert_eq!(Some(site), table.site_of_pop(info.pop));
        }
    }

    #[test]
    fn wrong_hitlist_targets_reduce_coverage() {
        let (s, _) = setup();
        let hl_bad = Hitlist::from_internet(
            &s.world,
            &HitlistConfig {
                wrong_addr_prob: 0.5,
                seed: 3,
            },
        );
        let result = run_scan(
            &s.world,
            &hl_bad,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig::default(),
            1,
        );
        let responsive = s.world.responsive_blocks().count();
        assert!(
            result.catchments.len() < responsive * 3 / 4,
            "wrong targets should cut coverage: {} vs {responsive}",
            result.catchments.len()
        );
    }

    #[test]
    fn distinct_round_idents_separate_datasets() {
        let (s, hl) = setup();
        // Round 2's cleaning must reject replies carrying round 1's ident;
        // here we just check the config plumbs through.
        let cfg = ScanConfig {
            probe: ProbeConfig {
                ident: 42,
                ..ProbeConfig::default()
            },
            ..ScanConfig::default()
        };
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            SimTime::ZERO,
            &cfg,
            1,
        );
        assert!(result.cleaning.kept > 0);
        assert_eq!(result.cleaning.foreign, 0);
    }

    /// Asserts every observable field of two scan results is bit-identical.
    fn assert_results_identical(a: &ScanResult, b: &ScanResult) {
        assert_eq!(a.cleaning, b.cleaning, "cleaning stats differ");
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.started, b.started);
        assert_eq!(a.last_probe, b.last_probe);
        assert_eq!(a.catchments.len(), b.catchments.len(), "map sizes differ");
        for (block, site) in a.catchments.iter() {
            assert_eq!(b.catchments.site_of(block), Some(site), "block {block}");
        }
        assert_eq!(a.rtts.len(), b.rtts.len(), "rtt map sizes differ");
        for (block, rtt) in a.rtts.iter() {
            assert_eq!(b.rtts.get(block), Some(rtt), "rtt of {block}");
        }
        assert_eq!(a.sim_stats, b.sim_stats, "sim stats differ");
        // The observability layer must not break under sharding either:
        // metrics registries are byte-identical (event logs are not
        // compared — each engine's ring evicts on its own).
        assert_eq!(
            a.obs.registry.to_canonical_json(),
            b.obs.registry.to_canonical_json(),
            "obs registries differ"
        );
        assert_eq!(a.obs.sim_end, b.obs.sim_end, "sim end times differ");
    }

    /// The fast K-invariance gate: on the tiny topology, the round at
    /// every shard count must reproduce the K=1 round (`run_scan`)
    /// bit-for-bit under heavy faults.
    #[test]
    fn sharded_scan_is_bit_identical_to_serial() {
        let (s, hl) = setup();
        let faults = FaultConfig::default();
        let serial = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            faults.clone(),
            SimTime::ZERO,
            &ScanConfig::default(),
            77,
        );
        for shards in [1, 2, 7, 16] {
            let sharded = run_scan_sharded_on(
                &ShardExecutor::host_parallel(shards),
                &s.world,
                &hl,
                &s.announcement,
                &|| Box::new(StaticOracle::new(s.routing())),
                faults.clone(),
                SimTime::ZERO,
                &ScanConfig::default(),
                77,
                shards,
            );
            assert_results_identical(&serial, &sharded);
            // Shard bookkeeping: every probe is owned by exactly one shard.
            assert_eq!(sharded.obs.shard_probes.len(), shards);
            assert_eq!(
                sharded.obs.shard_probes.iter().sum::<u64>(),
                sharded.probes_sent
            );
        }
        assert_eq!(serial.obs.shard_probes, vec![serial.probes_sent]);
    }

    /// Every engine's event ring survives the fold: the ring's one event
    /// is `engine.undeliverable`, counted where `sim_stats.undeliverable`
    /// is, so every undeliverable packet is either a held event or an
    /// eviction, at every shard count. The default hitlist's wrong
    /// targets are the undeliverable probes.
    #[test]
    fn every_engines_events_survive_the_fold() {
        let (s, _) = setup();
        let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
        let config = ScanConfig {
            events: true,
            ..ScanConfig::default()
        };
        for shards in [1, 2, 7] {
            let result = run_scan_sharded_on(
                &ShardExecutor::serial(),
                &s.world,
                &hl,
                &s.announcement,
                &|| Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &config,
                77,
                shards,
            );
            let undeliverable = result.sim_stats.undeliverable;
            assert!(undeliverable > 0, "K={shards}: the world must have undeliverable packets");
            let log = &result.obs.events;
            assert_eq!(log.events.len() as u64 + log.dropped, undeliverable, "K={shards}");
        }
    }

    /// The registry carries the round's headline numbers, consistent with
    /// the structured result fields.
    #[test]
    fn scan_obs_registry_reflects_result() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            5,
        );
        let reg = &result.obs.registry;
        assert_eq!(reg.counter_value("scan.probes_sent", &[]), result.probes_sent);
        assert_eq!(
            reg.counter_value("scan.blocks_mapped", &[]),
            result.catchments.len() as u64
        );
        assert_eq!(reg.counter_value("clean.kept", &[]), result.cleaning.kept);
        assert_eq!(
            reg.counter_value("sim.injected", &[]),
            result.sim_stats.injected
        );
        // Per-site capture counters sum to total site deliveries.
        let per_site: u64 = s
            .announcement
            .sites
            .iter()
            .map(|site| reg.counter_value("sim.site_captures", &[("site", site.name.as_str())]))
            .sum();
        assert_eq!(per_site, result.sim_stats.delivered_to_sites);
        // Catchment block counters match the map's site counts.
        for (site, count) in result.catchments.site_counts() {
            let name = s.announcement.sites[site.index()].name.as_str();
            assert_eq!(
                reg.counter_value("catchment.blocks", &[("site", name)]),
                count as u64
            );
        }
        // The RTT histogram saw every mapped block once.
        let hist = result.obs.registry.histogram("scan.rtt_ns", &[]);
        assert_eq!(hist.map(|h| h.count()), Some(result.rtts.len() as u64));
        // The engine ran, and the round ended in sim-time.
        assert!(reg.counter_value("engine.events", &[]) > 0);
        assert!(result.obs.sim_end.as_nanos() > 0);
    }

    /// `events: true` records bounded events without changing any
    /// measurement output or the metrics registry.
    #[test]
    fn full_trace_level_does_not_change_results() {
        let (s, hl) = setup();
        let run = |events| {
            run_scan(
                &s.world,
                &hl,
                &s.announcement,
                Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig {
                    events,
                    ..ScanConfig::default()
                },
                13,
            )
        };
        let summary = run(false);
        let full = run(true);
        assert_results_identical(&summary, &full);
        assert!(summary.obs.events.is_empty());
    }

    /// A round's sim-time phases are its three instants, in order: it
    /// starts, its last probe leaves, and its last arrival lands. With no
    /// wall channel attached, the wall timeline stays empty.
    #[test]
    fn a_round_reports_its_three_instants_in_order() {
        let (s, hl) = setup();
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            5,
        );
        let instants = (result.started, result.last_probe, result.obs.sim_end);
        assert!(instants.0 < instants.1 && instants.1 < instants.2, "{instants:?}");
        assert!(result.obs.wall_flight.is_empty(), "no wall channel attached");
    }

    /// Strictly increasing ticks: every clock read is one "nanosecond".
    struct TickClock(std::sync::atomic::AtomicU64);

    impl vp_obs::Clock for TickClock {
        fn now_nanos(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    /// A run with more refills than the ring has room for coalesces them
    /// into at most `MAX_PHASE_PAIRS` back-to-back walk/dispatch pairs:
    /// nothing is dropped, the intervals stay disjoint, and the per-name
    /// sums are what the individual refills and stretches added up to.
    #[test]
    fn phase_spans_coalesce_long_runs_without_losing_time() {
        let rec = vp_obs::FlightRecorder::new(Box::new(TickClock(0.into())), FLIGHT_CAPACITY);
        let refills = 3 * MAX_PHASE_PAIRS + 17;
        let mut phases = PhaseSpans::new(&rec, None, conv::sat_usize(refills) * PROBE_BATCH);
        assert_eq!(phases.group, 4);
        let t0 = rec.now_nanos();
        for _ in 0..refills {
            phases.begin_refill(); // tick
            phases.end_refill(); // tick: every refill lasts one tick...
            rec.now_nanos(); // ...and every dispatch stretch two.
        }
        phases.finish();
        let t1 = rec.now_nanos();

        let flight = rec.drain();
        assert_eq!(flight.dropped, 0);
        let pairs = refills.div_ceil(4);
        assert_eq!(flight.spans.len() as u64, 2 * pairs);
        assert!(pairs <= MAX_PHASE_PAIRS);
        for w in flight.spans.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns, "{:?} overlaps {:?}", w[0], w[1]);
        }
        let sum = |name: &str| -> u64 {
            flight
                .spans
                .iter()
                .filter(|sp| sp.name == name)
                .map(vp_obs::FlightSpan::duration_ns)
                .sum()
        };
        assert_eq!(sum("scan.schedule_walk"), refills);
        assert_eq!(sum("scan.sim_dispatch"), 2 * refills);
        assert!(flight.spans[0].start_ns > t0 && flight.spans.last().unwrap().end_ns < t1);
    }

    #[test]
    fn scan_is_deterministic() {
        let (s, hl) = setup();
        let run = || {
            run_scan(
                &s.world,
                &hl,
                &s.announcement,
                Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig::default(),
                9,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.cleaning, b.cleaning);
        assert_eq!(a.catchments.len(), b.catchments.len());
        for (block, site) in a.catchments.iter() {
            assert_eq!(b.catchments.site_of(block), Some(site));
        }
    }

    #[test]
    fn each_shard_schedule_is_the_serial_schedule_filtered_to_its_rows() {
        // Each shard's schedule is its own rows in order, row r at
        // start + ⌈invert(r)·10⁹/rate⌉ ns — the whole hitlist's schedule
        // with every other row left out — and the shards' send times
        // together are exactly those of walk positions 0..n, at every rate
        // of `schedule_is_paced_at_rate`.
        let start = SimTime::ZERO + SimDuration::from_secs(900);
        let order_seed = ProbeConfig::default().order_seed;
        for rate in [10_000u32, 1_000, 6_000, 7_777, 3] {
            let prober = Prober::new(ProbeConfig {
                rate_per_sec: std::num::NonZeroU32::new(rate).unwrap(),
                ..ProbeConfig::default()
            });
            let paced = |p: u64| start + SimDuration((p * 1_000_000_000).div_ceil(u64::from(rate)));
            for n in [0usize, 1, (1 << 16) + 1, 120_000] {
                let perm = vp_net::FeistelPermutation::new(n as u64, order_seed);
                let walk: Vec<SimTime> = (0..n as u64).map(paced).collect();
                for shards in [1, 2, 7] {
                    let mut sends = Vec::with_capacity(n);
                    for rows in vp_hitlist::shard_bounds_of(n, shards) {
                        let shard: Vec<(u64, SimTime)> = prober.schedule(n, rows.clone(), start).collect();
                        let want = rows.clone().map(|r| (r as u64, paced(perm.invert(r as u64))));
                        assert!(
                            shard.iter().copied().eq(want),
                            "n = {n}, {shards} shards, rows {rows:?}, {rate}/s"
                        );
                        sends.extend(shard.iter().map(|&(_, at)| at));
                    }
                    sends.sort();
                    assert_eq!(sends, walk, "n = {n}, {shards} shards, {rate}/s");
                }
            }
        }
    }
}
