//! The discrete-event engine: packet delivery, host behaviours, captures.

use std::collections::VecDeque;

use rand::SeedableRng;
use rand_pcg::Pcg64;
use vp_bgp::{Announcement, SiteId};
use vp_net::conv;
use vp_net::{mix, unit, Block24, Ipv4Addr, SimTime};
use vp_packet::{DnsMessage, IcmpMessage, Ipv4Packet, Protocol, UdpDatagram};
use vp_topology::blocks::BlockInfo;
use vp_topology::{Internet, PopId};

use crate::faults::FaultConfig;
use crate::latency::LatencyModel;
use crate::oracle::CatchmentOracle;

/// Handle of a registered anycast service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHandle(pub usize);

// Domain-separation tags for keyed stochastic draws. Every fault decision
// hashes (round seed ^ tag, event key) so outcomes are pure functions of
// packet identity — independent of the order events are processed in, and
// therefore identical whether one engine or K sharded engines run the scan.
const TAG_LOSS: u64 = 0x1055_0001;
const TAG_UNSOLICITED: u64 = 0xbac0_0002;
const TAG_UNSOLICITED_PICK: u64 = 0xbac0_0003;
const TAG_JITTER: u64 = 0x1177_0004;
const TAG_ALIAS: u64 = 0xa11a_0005;
const TAG_ALIAS_OCTET: u64 = 0xa11a_0006;
const TAG_LATE: u64 = 0x1a7e_0007;
const TAG_DUPLICATE: u64 = 0xd0b1_0008;
const TAG_DUPLICATE_COUNT: u64 = 0xd0b1_0009;

/// The seed for one shard's auxiliary RNG stream, derived from the round
/// seed so every shard gets a distinct, reproducible stream. Keyed fault
/// draws do NOT use this (they use the round seed directly, which is what
/// makes sharded runs bit-identical to serial ones); the derived seed only
/// decorrelates whatever auxiliary entropy an engine instance consumes.
pub fn derive_shard_seed(round_seed: u64, shard_index: u64) -> u64 {
    mix(round_seed ^ 0x51a4_d5ee_d000_0000, shard_index)
}

/// A packet captured by a site's collector, tagged with site and time —
/// exactly what the paper's per-site capture systems (custom capture,
/// LANDER, tcpdump; §3.1) forward to the central analysis.
#[derive(Debug, Clone)]
pub struct SiteCapture {
    pub site: SiteId,
    pub at: SimTime,
    /// The transmission's identity hash: `(at, key)` is the capture's
    /// place in arrival order.
    pub key: u64,
    pub packet: Ipv4Packet,
}

/// A packet delivered to an ordinary host (e.g. an Atlas VP receiving its
/// DNS answer) that the engine did not auto-consume.
#[derive(Debug, Clone)]
pub struct HostDelivery {
    pub at: SimTime,
    /// As [`SiteCapture::key`].
    pub key: u64,
    pub packet: Ipv4Packet,
}

/// One entry of the time-sorted probe source [`NetworkSim::run_with`]
/// transmits: when to send what, plus the probe's precomputed echo-reply
/// wire image (built batched by the prober alongside the probe itself).
/// If the probe reaches a responsive host, the responder — which runs as
/// the probe is transmitted, so the image is consumed there and never
/// stored — answers with `reply_image` instead of serializing a fresh
/// reply. The image is asserted (in debug
/// builds) byte-identical to the parse → reply → emit chain it replaces,
/// so routing, fault draws and captures cannot tell the difference; the
/// only observable change is zero per-reply allocations (the witness
/// test's contract).
///
/// `row` is where the source expects the destination's block in
/// [`Internet::blocks`] — the probe's hitlist index, which for a hitlist
/// built over the world *is* that row. It is a hint: the engine reads
/// that row of the world for a whole stage of probes at once (the
/// gather of [`NetworkSim::run_with`]) and takes what it read only if the
/// row holds the destination's block. A wrong one costs the block search
/// it would have saved and changes nothing else.
#[derive(Debug, Clone)]
pub struct TimedProbe {
    pub at: SimTime,
    pub packet: Ipv4Packet,
    pub reply_image: bytes::Bytes,
    pub row: u32,
}

/// Receives every packet a site collector captures, tagged with site and
/// arrival time — the paper's "forwards traffic after tagging it with its
/// site" (§3.1) as a call instead of a log. Each capture is handed over
/// exactly once, in transmission order; `(at, key)` is its place in
/// arrival order. [`NetworkSim::run`] sinks into the engine's own
/// [`SiteCapture`] log; a scan passes its central analysis directly to
/// [`NetworkSim::run_with`] and keeps no per-reply packet at all.
pub trait CaptureSink {
    fn capture(&mut self, service: ServiceHandle, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet);
}

/// The engine's capture log, one vector per registered service: the sink
/// behind [`NetworkSim::run`], which sorts it into arrival order.
#[derive(Default)]
struct CaptureLog(Vec<Vec<SiteCapture>>);

impl CaptureSink for CaptureLog {
    #[expect(
        clippy::indexing_slicing,
        reason = "one log per service is pushed at registration, where handles are minted."
    )]
    fn capture(&mut self, service: ServiceHandle, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet) {
        // Only `run` callers (Atlas, tests) log packets; a scan sinks
        // captures into its cleaner instead.
        self.0[service.0].push(SiteCapture {
            site,
            at,
            key,
            packet: packet.clone(),
        });
    }
}

/// Counters over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected by applications.
    pub injected: u64,
    /// Packets that reached an ordinary host.
    pub delivered_to_hosts: u64,
    /// Packets that reached an anycast site collector.
    pub delivered_to_sites: u64,
    /// Transmissions dropped by the loss fault.
    pub lost: u64,
    /// Echo replies generated by hosts (excluding duplicates).
    pub replies: u64,
    /// Extra duplicate replies generated.
    pub duplicates: u64,
    /// Replies sourced from an alias address.
    pub aliases: u64,
    /// Unsolicited packets injected toward services.
    pub unsolicited: u64,
    /// Packets with no deliverable destination.
    pub undeliverable: u64,
    /// Captures per anycast site, indexed by `SiteId` — the per-site
    /// telemetry the paper's capture systems report (§3.1). Shorter than
    /// the site count when high-numbered sites captured nothing.
    pub per_site_captures: Vec<u64>,
}

impl SimStats {
    /// Field-wise accumulation; used to merge per-shard runs. Addition of
    /// counters is associative and commutative, so the merge order of
    /// disjoint shard results cannot change the total.
    pub fn merge(&mut self, other: &SimStats) {
        self.injected += other.injected;
        self.delivered_to_hosts += other.delivered_to_hosts;
        self.delivered_to_sites += other.delivered_to_sites;
        self.lost += other.lost;
        self.replies += other.replies;
        self.duplicates += other.duplicates;
        self.aliases += other.aliases;
        self.unsolicited += other.unsolicited;
        self.undeliverable += other.undeliverable;
        // Element-wise sum with zero-padding: the empty vector is the
        // identity, and padding keeps the fold associative when shards saw
        // different site-index ranges.
        if self.per_site_captures.len() < other.per_site_captures.len() {
            self.per_site_captures
                .resize(other.per_site_captures.len(), 0);
        }
        for (mine, theirs) in self
            .per_site_captures
            .iter_mut()
            .zip(&other.per_site_captures)
        {
            *mine += theirs;
        }
    }
}

/// Per-engine observability state: a metrics registry and a trace the
/// engine writes at the sim-time instants it already holds — there is no
/// clock here. Attached on demand with [`NetworkSim::attach_obs`];
/// everything recorded derives from simulated time and event content, so
/// an attached engine stays exactly as deterministic as a bare one.
pub struct EngineObs {
    pub registry: vp_obs::Registry,
    level: vp_obs::TraceLevel,
    /// The `engine.run` aggregate (one interval per run that had
    /// arrivals) and the count of events the ring evicted.
    trace: vp_obs::TraceSummary,
    /// The `Full`-level event ring, oldest first.
    ring: VecDeque<vp_obs::Event>,
}

impl EngineObs {
    /// Ring-buffer capacity for `Full`-level event traces, per engine.
    pub const EVENT_CAPACITY: usize = 256;

    pub fn new(level: vp_obs::TraceLevel) -> EngineObs {
        EngineObs {
            registry: vp_obs::Registry::new(),
            level,
            trace: vp_obs::TraceSummary::default(),
            ring: VecDeque::new(),
        }
    }

    /// Records an event stamped `at` (`Full` only; `detail` is not built
    /// otherwise). Once the ring is full the oldest event is evicted and
    /// counted.
    fn event(&mut self, at: SimTime, name: &'static str, detail: impl FnOnce() -> String) {
        if self.level != vp_obs::TraceLevel::Full {
            return;
        }
        if self.ring.len() == Self::EVENT_CAPACITY {
            self.ring.pop_front();
            self.trace.dropped_events += 1;
        }
        self.ring.push_back(vp_obs::Event {
            at_nanos: at.as_nanos(),
            name: name.to_owned(),
            detail: detail(),
        });
    }

    /// The registry and the trace summary: span aggregates plus the held
    /// events in canonical (time, name, detail) order.
    pub fn into_parts(self) -> (vp_obs::Registry, vp_obs::TraceSummary) {
        let mut trace = self.trace;
        trace.events = self.ring.into();
        trace.events.sort();
        (self.registry, trace)
    }
}

struct Service<'w> {
    announcement: Announcement,
    /// Owned, or borrowed from the caller for the engine's lifetime.
    oracle: Box<dyn CatchmentOracle + 'w>,
    /// Whether site hosts answer DNS (hostname.bind) and pings.
    serve_dns: bool,
    /// `hostname.bind` answer per site, precomputed at registration so the
    /// per-reply DNS path never formats a hostname (the allocation witness
    /// counts it).
    hostnames: Vec<String>,
    /// The route column: the oracle's answer per PoP (indexed by
    /// [`PopId`]) for `route_epoch`, `None` until the PoP's first packet
    /// asks. Two bytes a PoP.
    routes: Vec<Option<Option<SiteId>>>,
    /// The epoch `routes` answers for: that of the first packet injected
    /// from or to the service. A transmission of any other epoch (a late
    /// reply crossing a flip interval) asks the oracle directly.
    route_epoch: Option<u32>,
}

impl Service<'_> {
    /// The site traffic from `pop` reaches at `at` — the oracle's answer,
    /// asked at most once per PoP for the column's epoch (DESIGN.md §7).
    fn site_of_pop(&mut self, pop: PopId, at: SimTime) -> Option<SiteId> {
        let epoch = self.oracle.epoch(at);
        if self.route_epoch != Some(epoch) {
            return self.oracle.site_of_pop(pop, epoch);
        }
        let slot = self.routes.get_mut(pop.index())?;
        *slot.get_or_insert_with(|| self.oracle.site_of_pop(pop, epoch))
    }
}

/// What the engine reads of a block — its [`BlockInfo`] row and its row
/// of the position column — copied out by value, so a packet's path
/// through `transmit` touches the world once, where its addresses are
/// resolved, and never again.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    block: Block24,
    pop: PopId,
    rep_octet: u8,
    responsive: bool,
    /// The block's location, or its PoP's where it has none.
    lat: f64,
    lon: f64,
}

impl Row {
    /// [`BlockInfo::representative`].
    fn representative(&self) -> Ipv4Addr {
        self.block.addr(self.rep_octet)
    }
}

/// Where an address lives in the simulated world: inside a registered
/// service's anycast prefix, or inside a populated block, with its
/// [`Row`]. Resolution is a pure function of the address over a fixed
/// world and service table, so the engine resolves each address once —
/// where the packet enters — and every packet it generates in response
/// inherits its ends: a reply's sender is the end that received the
/// request, its destination the end that sent it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Resolved {
    Service(usize),
    Block(Row),
}

enum Target {
    Site { service: usize, site: SiteId },
    Host(Row),
}

/// One probe of a stage ([`NetworkSim::run_with`]): pulled from the source,
/// its ends resolved and its payloads hashed, waiting for its send time.
struct Staged {
    probe: TimedProbe,
    from: Option<Resolved>,
    to: Option<Resolved>,
    /// [`payload_fnv`] of the request and of the reply image.
    fnv: u64,
    reply_fnv: u64,
}

/// How many probes [`NetworkSim::run_with`] pulls from its source at a
/// time. The gather wants enough independent rows in one loop for their
/// cache misses to overlap; past a few dozen there is nothing left to
/// overlap (64 and 512 measure within noise of it), and the source runs this far
/// ahead of transmission.
const STAGE: usize = 128;

/// An Echo Request on its way to a host that never answers, set aside
/// instead of flown: what [`NetworkSim::flight`] needs to compute its
/// arrival, should the run's end turn out to depend on it.
struct Parked {
    at: SimTime,
    ek: u64,
    from: (f64, f64),
    to: (f64, f64),
}

/// The arrivals of one run, each noted as `transmit` resolves it: how
/// many, and their earliest and latest instants. [`NetworkSim::run_with`]
/// reports the count as `engine.events` and ends [`NetworkSim::now`] and
/// its `engine.run` span on the latest.
#[derive(Default)]
struct Arrivals {
    count: u64,
    span: Option<(SimTime, SimTime)>,
}

impl Arrivals {
    fn note(&mut self, at: SimTime) {
        self.count += 1;
        self.cover(at);
    }

    /// Widens the span to an arrival already counted.
    fn cover(&mut self, at: SimTime) {
        let (first, last) = self.span.unwrap_or((at, at));
        self.span = Some((first.min(at), last.max(at)));
    }
}

/// The discrete-event network simulator.
///
/// Applications inject packets with [`NetworkSim::send_at`] and close the
/// run with [`run`]; results are read from [`captures`],
/// [`host_deliveries`] and [`stats`]. A paced scan instead hands its
/// time-sorted probe schedule and a [`CaptureSink`] to [`run_with`]. There
/// is no event queue: every arrival is resolved as its packet is
/// transmitted (DESIGN.md §7).
///
/// [`run`]: NetworkSim::run
/// [`run_with`]: NetworkSim::run_with
/// [`captures`]: NetworkSim::captures
/// [`host_deliveries`]: NetworkSim::host_deliveries
/// [`stats`]: NetworkSim::stats
pub struct NetworkSim<'w> {
    world: &'w Internet,
    services: Vec<Service<'w>>,
    faults: FaultConfig,
    latency: LatencyModel,
    /// `latency.max_delay()`, computed once.
    max_delay: vp_net::SimDuration,
    rng: Pcg64,
    seed: u64,
    /// Arrivals since the last run ended, eager `send_at`s included.
    arrivals: Arrivals,
    /// Counted arrivals at silent hosts whose instants the span may still
    /// need (see `transmit`), oldest first, and the most ever held.
    parked: VecDeque<Parked>,
    parked_high_water: usize,
    /// Site arrivals not yet handed to a sink: those of one injected
    /// probe under [`NetworkSim::run_with`], of every eager `send_at`
    /// otherwise.
    pending: Vec<(ServiceHandle, SiteCapture)>,
    now: SimTime,
    captures: CaptureLog,
    host_deliveries: Vec<HostDelivery>,
    stats: SimStats,
    obs: Option<EngineObs>,
}

impl<'w> NetworkSim<'w> {
    /// Creates a simulator over a generated world.
    ///
    /// # Panics
    /// Panics if `faults` fails validation.
    pub fn new(world: &'w Internet, faults: FaultConfig, seed: u64) -> Self {
        Self::new_shard(world, faults, seed, 0)
    }

    /// Creates the engine for one shard of a partitioned scan.
    ///
    /// The round `seed` drives every keyed fault draw (shared by all
    /// shards so their union reproduces the serial run exactly); the
    /// shard index only selects this engine's auxiliary RNG stream via
    /// [`derive_shard_seed`], so no two engines share generator state.
    ///
    /// # Panics
    /// Panics if `faults` fails validation.
    #[expect(clippy::expect_used, reason = "documented `# Panics` contract of this constructor.")]
    pub fn new_shard(
        world: &'w Internet,
        faults: FaultConfig,
        seed: u64,
        shard_index: u64,
    ) -> Self {
        faults.validate().expect("invalid fault config");
        let latency = LatencyModel::default();
        // The most captures one probe can cause: its reply with every
        // duplicate copy, and one backscatter packet.
        let pending = Vec::with_capacity(conv::index(faults.max_duplicates) + 2);
        NetworkSim {
            world,
            services: Vec::with_capacity(1),
            faults,
            max_delay: latency.max_delay(),
            latency,
            rng: Pcg64::seed_from_u64(derive_shard_seed(seed, shard_index) ^ 0x51e7_0a11),
            seed,
            arrivals: Arrivals::default(),
            parked: VecDeque::new(),
            parked_high_water: 0,
            pending,
            now: SimTime::ZERO,
            captures: CaptureLog::default(),
            host_deliveries: Vec::new(),
            stats: SimStats::default(),
            obs: None,
        }
    }

    /// Attaches an observability sidecar: a metrics registry plus a trace
    /// summary recording at `level`. Call before [`NetworkSim::run`];
    /// collect with [`NetworkSim::take_obs`] afterwards.
    pub fn attach_obs(&mut self, level: vp_obs::TraceLevel) {
        self.obs = Some(EngineObs::new(level));
    }

    /// Detaches and returns the observability sidecar, if one is attached.
    pub fn take_obs(&mut self) -> Option<EngineObs> {
        self.obs.take()
    }

    /// This engine's auxiliary RNG stream. Fault decisions never touch it
    /// (they are keyed on packet identity); it exists so each engine has
    /// private, reproducible entropy, and so tests can observe that
    /// distinct shards draw from distinct streams.
    pub fn aux_rng(&mut self) -> &mut Pcg64 {
        &mut self.rng
    }

    /// Registers an anycast service; its collectors start capturing
    /// immediately. `serve_dns` makes the site hosts answer `hostname.bind`
    /// CHAOS queries and pings addressed to the service prefix.
    pub fn register_service(
        &mut self,
        announcement: Announcement,
        oracle: Box<dyn CatchmentOracle + 'w>,
        serve_dns: bool,
    ) -> ServiceHandle {
        let handle = ServiceHandle(self.services.len());
        // Precompute every site's hostname.bind answer here so the
        // per-reply DNS path in `arrive_at_site` never formats one.
        let hostnames = announcement
            .sites
            .iter()
            .map(|s| Self::site_hostname(handle, &s.name))
            .collect();
        self.services.push(Service {
            announcement,
            oracle,
            serve_dns,
            hostnames,
            routes: vec![None; self.world.graph.pops.len()],
            route_epoch: None,
        });
        self.captures.0.push(Vec::new());
        handle
    }

    /// The hostname a site's DNS server reports in `hostname.bind` replies.
    pub fn site_hostname(service: ServiceHandle, site_name: &str) -> String {
        format!("{}.svc{}.example", site_name.to_ascii_lowercase(), service.0)
    }

    /// Current simulated time: the latest arrival of the last run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Injects a packet at simulated time `at`.
    ///
    /// The packet is routed by destination: into a service prefix (anycast,
    /// resolved through the sender's catchment), to a populated block's
    /// representative host, or dropped as undeliverable.
    pub fn send_at(&mut self, at: SimTime, packet: Ipv4Packet) {
        let (from, to) = (self.resolve(packet.src, None), self.resolve(packet.dst, None));
        let fnv = payload_fnv(&packet.payload);
        self.inject(at, packet, from, to, fnv, None);
    }

    /// The one place packets enter the engine, a staged probe and an eager
    /// `send_at` alike. `from` and `to` are the packet's resolved ends —
    /// every packet the engine generates in response inherits its ends
    /// from the packet it answers — `fnv` its [`payload_fnv`],
    /// `reply` its echo reply image with that image's.
    fn inject(
        &mut self,
        at: SimTime,
        packet: Ipv4Packet,
        from: Option<Resolved>,
        to: Option<Resolved>,
        fnv: u64,
        reply: Option<(bytes::Bytes, u64)>,
    ) {
        self.stats.injected += 1;
        for end in [from, to] {
            let Some(Resolved::Service(service)) = end else {
                continue;
            };
            if let Some(s) = self.services.get_mut(service) {
                // A service's first traffic sets its route column's epoch.
                s.route_epoch.get_or_insert_with(|| s.oracle.epoch(at));
            }
        }
        self.transmit(at, packet, from, to, true, 0, fnv, reply);
    }

    /// What the engine reads of block `id`: one row of the block table,
    /// one of the position column.
    fn row(&self, id: u32) -> Option<Row> {
        let info = self.world.blocks.get(conv::index(id))?;
        let (lat, lon) = self.world.geodb.coords_of_row(conv::index(id)).unwrap_or_default();
        Some(Row {
            block: info.block,
            pop: info.pop,
            rep_octet: info.rep_octet,
            responsive: info.responsive,
            lat,
            lon,
        })
    }

    /// Where `addr` lives. `hinted` — the row a [`TimedProbe::row`] hint
    /// named — is taken only if it holds `addr`'s block; the table is
    /// strictly ascending, so that row is the one the search would find
    /// and the hint cannot change the answer.
    fn resolve(&self, addr: Ipv4Addr, hinted: Option<Row>) -> Option<Resolved> {
        let serves = |s: &Service| s.announcement.prefix.contains(addr);
        if let Some(service) = self.services.iter().position(serves) {
            return Some(Resolved::Service(service));
        }
        let block = addr.block();
        let searched = || self.row(self.world.block_id(block)?);
        hinted.filter(|row| row.block == block).or_else(searched).map(Resolved::Block)
    }

    /// Pulls up to [`STAGE`] probes from `source` into the (empty) `stage`
    /// and prepares them, a pass at a time: **gather** — the world rows
    /// their hints name, read back to back in a loop with nothing else in
    /// it, so the cache misses of a large world overlap instead of each
    /// waiting at the head of its own probe's path; **resolve** — both
    /// ends, each hint checked against the block it names; **hash** — the
    /// request's and the reply image's [`payload_fnv`], four chains
    /// abreast. All of it is a pure function of the probe and the
    /// immutable world; nothing here has an effect dispatch could see.
    /// Returns whether `source` may have more: `false` once it has
    /// returned `None`, after which it must not be polled again.
    fn fill_stage(&self, source: &mut impl Iterator<Item = TimedProbe>, stage: &mut Vec<Staged>) -> bool {
        debug_assert!(stage.is_empty());
        let mut more = true;
        while more && stage.len() < STAGE {
            match source.next() {
                Some(probe) => stage.push(Staged {
                    probe,
                    from: None,
                    to: None,
                    fnv: 0,
                    reply_fnv: 0,
                }),
                None => more = false,
            }
        }
        let mut hinted = [None; STAGE];
        for (row, staged) in hinted.iter_mut().zip(stage.iter()) {
            *row = self.row(staged.probe.row);
        }
        for (staged, hinted) in stage.iter_mut().zip(&hinted) {
            staged.from = self.resolve(staged.probe.packet.src, None);
            staged.to = self.resolve(staged.probe.packet.dst, *hinted);
        }
        let mut fours = stage.chunks_exact_mut(4);
        for four in &mut fours {
            let [a, b, c, d] = four else { continue };
            [a.fnv, b.fnv, c.fnv, d.fnv] =
                payload_fnv4([&*a, &*b, &*c, &*d].map(|s| &s.probe.packet.payload[..]));
            [a.reply_fnv, b.reply_fnv, c.reply_fnv, d.reply_fnv] =
                payload_fnv4([&*a, &*b, &*c, &*d].map(|s| &s.probe.reply_image[..]));
        }
        for staged in fours.into_remainder() {
            staged.fnv = payload_fnv(&staged.probe.packet.payload);
            staged.reply_fnv = payload_fnv(&staged.probe.reply_image);
        }
        more
    }

    /// `from` and `to` are the resolved ends of `packet.src` and
    /// `packet.dst`, `fnv` is `packet.payload`'s [`payload_fnv`]. `copy`
    /// distinguishes otherwise-identical transmissions (duplicate fault
    /// copies of one reply) so each gets independent keyed draws.
    ///
    /// A transmission that survives loss and routing arrives here, for the
    /// instant its flight ends (DESIGN.md §7): whatever handles an arrival
    /// reads only the immutable world, the fault config and keyed hashes
    /// of `(packet, arrival time)`, and writes only sums and outputs whose
    /// place in arrival order is `(arrival time, key)`, so when it runs is
    /// unobservable. A site arrival is counted, answered if the site
    /// serves, and held for the sink; an ICMP Echo Request bound for a
    /// host is answered by its responder; anything else that reaches a
    /// host is handed to the application.
    ///
    /// If the host is one that never answers (its row is statically
    /// unresponsive), all its arrival can do is be the first or the last
    /// of the run. It is counted here; its instant is computed only if it
    /// could be the first — no arrival at or before `at + base`, the
    /// soonest any delay allows, has been noted yet — and otherwise the
    /// transmission is parked for the end of the run to decide.
    #[expect(
        clippy::too_many_arguments,
        reason = "the staged probe leg hands over its resolved endpoints, hash and reply image so none is recomputed"
    )]
    fn transmit(
        &mut self,
        at: SimTime,
        packet: Ipv4Packet,
        from: Option<Resolved>,
        to: Option<Resolved>,
        may_spawn_unsolicited: bool,
        copy: u32,
        fnv: u64,
        reply: Option<(bytes::Bytes, u64)>,
    ) {
        debug_assert_eq!(
            (from, to),
            (self.resolve(packet.src, None), self.resolve(packet.dst, None)),
            "carried endpoints diverge from the packet's addresses"
        );
        // Identity of this transmission: packet content + send time + copy.
        // All stochastic outcomes below hash this, never a shared stream.
        let pk = packet_key(&packet, fnv);
        let ek = mix(pk, at.as_nanos() ^ ((copy as u64) << 48));
        if self.faults.loss > 0.0 && unit(mix(self.seed ^ TAG_LOSS, ek)) < self.faults.loss {
            self.stats.lost += 1;
            return;
        }
        // Unsolicited backscatter: a random block spontaneously answers the
        // measurement address when a probe goes out.
        if may_spawn_unsolicited
            && self.faults.unsolicited_prob > 0.0
            && matches!(from, Some(Resolved::Service(_)))
            && unit(mix(self.seed ^ TAG_UNSOLICITED, ek)) < self.faults.unsolicited_prob
        {
            self.spawn_unsolicited(at, packet.src, from, ek);
        }

        let placed = self.route(&packet, from, to, at).and_then(|target| {
            let to_loc = match target {
                Target::Site { service, site } => self.site_location(service, site)?,
                Target::Host(row) => (row.lat, row.lon),
            };
            Some((target, self.location(from)?, to_loc))
        });
        let Some((target, from_loc, to_loc)) = placed else {
            self.stats.undeliverable += 1;
            if let Some(obs) = &mut self.obs {
                obs.event(at, "engine.undeliverable", || format!("dst {}", packet.dst));
            }
            return;
        };
        match target {
            Target::Site { service, site } => {
                let arrives = self.flight(at, ek, from_loc, to_loc);
                self.arrive_at_site(service, site, arrives, ek, packet, from);
            }
            Target::Host(row)
                if packet.protocol == Protocol::Icmp && IcmpMessage::is_echo_request(&packet.payload) =>
            {
                if row.responsive {
                    let arrives = self.flight(at, ek, from_loc, to_loc);
                    // Identity of this reception: the probe's content plus
                    // its (deterministic) arrival time keys every fault
                    // decision.
                    self.answer_echo(row, arrives, mix(pk, arrives.as_nanos()), &packet, from, reply);
                    return;
                }
                self.stats.delivered_to_hosts += 1;
                self.arrivals.count += 1;
                let soonest = at + self.latency.base;
                if self.arrivals.span.is_some_and(|(first, _)| first <= soonest) {
                    self.park(Parked { at, ek, from: from_loc, to: to_loc });
                } else {
                    self.arrivals.cover(self.flight(at, ek, from_loc, to_loc));
                }
            }
            Target::Host(_) => {
                // The application hand-off: the engine consumes none of
                // it (Atlas VPs read their DNS answers here).
                let arrives = self.flight(at, ek, from_loc, to_loc);
                self.arrivals.note(arrives);
                self.stats.delivered_to_hosts += 1;
                self.host_deliveries.push(HostDelivery { at: arrives, key: ek, packet });
            }
        }
    }

    /// When the transmission `ek`, sent at `at`, arrives: the delay between
    /// the two locations under the transmission's own jitter draw.
    fn flight(&self, at: SimTime, ek: u64, from: (f64, f64), to: (f64, f64)) -> SimTime {
        at + self.latency.delay(from, to, mix(self.seed ^ TAG_JITTER, ek))
    }

    /// Sets a counted arrival aside. Every delay lies in `[base,
    /// max_delay]`, so an entry sent more than `max_delay − base` before
    /// `parked` arrives no later than `parked` does: it cannot be the
    /// run's last arrival and is dropped. (The newest entry always stays,
    /// or is dropped for a later one in turn.) Under a time-sorted source
    /// the deque therefore holds one such window of the schedule.
    fn park(&mut self, parked: Parked) {
        let soonest = parked.at + self.latency.base;
        while self.parked.front().is_some_and(|oldest| oldest.at + self.max_delay < soonest) {
            self.parked.pop_front();
        }
        self.parked.push_back(parked);
        self.parked_high_water = self.parked_high_water.max(self.parked.len());
    }

    fn route(
        &mut self,
        packet: &Ipv4Packet,
        from: Option<Resolved>,
        to: Option<Resolved>,
        at: SimTime,
    ) -> Option<Target> {
        match to? {
            Resolved::Service(service) => {
                // Anycast-bound: the *sender's* catchment decides the site.
                let Some(Resolved::Block(sender)) = from else {
                    return None;
                };
                let site = self.services.get_mut(service)?.site_of_pop(sender.pop, at)?;
                Some(Target::Site { service, site })
            }
            // Only a block's representative address is a live host.
            Resolved::Block(row) => (packet.dst == row.representative()).then_some(Target::Host(row)),
        }
    }

    fn site_location(&self, service: usize, site: SiteId) -> Option<(f64, f64)> {
        let s = self.services.get(service)?.announcement.sites.get(site.index())?;
        let pop = self.world.graph.pops.get(s.pop.index())?;
        Some((pop.lat, pop.lon))
    }

    /// Where traffic from `end` leaves. Measurement traffic originates
    /// "from the anycast system"; physically we charge it to the first
    /// site's PoP, so a service with no sites sends nothing anywhere.
    fn location(&self, end: Option<Resolved>) -> Option<(f64, f64)> {
        match end {
            Some(Resolved::Service(service)) => self.site_location(service, SiteId(0)),
            Some(Resolved::Block(row)) => Some((row.lat, row.lon)),
            None => Some((0.0, 0.0)),
        }
    }

    /// Whether a block is up at `at`, combining static responsiveness and
    /// per-round churn.
    pub fn block_up(&self, info: &BlockInfo, at: SimTime) -> bool {
        self.up(info.responsive, info.block, at)
    }

    fn up(&self, responsive: bool, block: Block24, at: SimTime) -> bool {
        if !responsive {
            return false;
        }
        if self.faults.churn_down_prob <= 0.0 {
            return true;
        }
        let epoch = at.as_nanos() / self.faults.churn_round.as_nanos();
        let h = mix(self.seed ^ 0xc4u64, (block.0 as u64) << 24 | epoch);
        unit(h) >= self.faults.churn_down_prob
    }

    fn spawn_unsolicited(
        &mut self,
        at: SimTime,
        toward: Ipv4Addr,
        to: Option<Resolved>,
        trigger_key: u64,
    ) {
        // Everything about the backscatter packet derives from the probe
        // that triggered it, so the spawn is placement-independent.
        let h = mix(self.seed ^ TAG_UNSOLICITED_PICK, trigger_key);
        // A world without blocks has nobody to backscatter.
        let Some(pick) = h.checked_rem(self.world.blocks.len() as u64) else {
            return;
        };
        let Some(row) = self.row(conv::sat_u32(pick)) else {
            return;
        };
        let icmp = IcmpMessage::EchoReply {
            ident: conv::sat_u16(mix(h, 1) & 0xffff),
            seq: conv::sat_u16(mix(h, 2) & 0xffff),
            payload: bytes::Bytes::new(),
        };
        let pkt = Ipv4Packet::new(row.representative(), toward, Protocol::Icmp, icmp.emit());
        self.stats.unsolicited += 1;
        let fnv = payload_fnv(&pkt.payload);
        self.transmit(at, pkt, Some(Resolved::Block(row)), to, false, 0, fnv, None);
    }

    /// Closes a run of eager [`NetworkSim::send_at`]s:
    /// [`NetworkSim::run_with`] with no probes and the engine's own log as
    /// the sink, after which [`NetworkSim::captures`] and
    /// [`NetworkSim::host_deliveries`] are sorted into arrival order,
    /// `(at, key)`.
    pub fn run(&mut self) {
        let mut log = std::mem::take(&mut self.captures);
        self.run_with(std::iter::empty(), &mut log);
        for captures in &mut log.0 {
            captures.sort_unstable_by_key(|c| (c.at, c.key));
        }
        self.captures = log;
        self.host_deliveries.sort_unstable_by_key(|d| (d.at, d.key));
    }

    /// Transmits `probes` — a source sorted by send time — and closes the
    /// run. Every arrival resolves as its packet is transmitted (see
    /// `transmit`), so each probe is done with, replies and captures
    /// included, once it is injected: its site captures, and before the
    /// first probe those of any eager `send_at`, go to `sink` right after.
    ///
    /// The source is consumed a **stage** at a time: up to `STAGE` (128)
    /// probes are pulled and prepared together (`fill_stage`: world rows
    /// gathered, ends resolved, payloads hashed — all pure), then injected
    /// one by one in source order, each with every effect it has in the
    /// order it would have had alone. So the source may be pulled up to a
    /// stage ahead of transmission, and is never polled again once it has
    /// returned `None`. (Sorted input only bounds the parked arrivals.)
    ///
    /// The run reports its arrivals, answered or not, as `engine.events`
    /// and ends its clock and `engine.run` span at the last of them, so a
    /// run ends at its last arrival even when that is a probe nobody
    /// answered.
    pub fn run_with<P, C>(&mut self, probes: P, sink: &mut C)
    where
        P: IntoIterator<Item = TimedProbe>,
        C: CaptureSink,
    {
        self.drain_pending(sink);
        let mut source = probes.into_iter();
        let mut stage = Vec::with_capacity(STAGE);
        let mut more = true;
        while more {
            more = self.fill_stage(&mut source, &mut stage);
            for Staged { probe, from, to, fnv, reply_fnv } in stage.drain(..) {
                let reply = Some((probe.reply_image, reply_fnv));
                self.inject(probe.at, probe.packet, from, to, fnv, reply);
                self.drain_pending(sink);
            }
        }
        // Whatever is still parked could be the last arrival: fly it.
        while let Some(Parked { at, ek, from, to }) = self.parked.pop_front() {
            self.arrivals.cover(self.flight(at, ek, from, to));
        }
        let Arrivals { count, span } = std::mem::take(&mut self.arrivals);
        if let Some((_, last)) = span {
            self.now = last;
        }
        if let Some(obs) = &mut self.obs {
            // Arrivals are conserved across sharding (each belongs to
            // exactly one shard), so summed shard registries match the
            // serial engine's.
            obs.registry.counter_add("engine.events", &[], count);
            if let Some((first, last)) = span.filter(|_| obs.level != vp_obs::TraceLevel::Off) {
                // The whole-run phase span, in sim-time: first event to last.
                obs.trace
                    .record_span("engine.run", first.as_nanos(), last.as_nanos());
            }
        }
    }

    /// Hands every pending capture to `sink`.
    fn drain_pending<C: CaptureSink>(&mut self, sink: &mut C) {
        for (service, c) in self.pending.drain(..) {
            sink.capture(service, c.site, c.at, c.key, &c.packet);
        }
    }

    /// `packet` reaches `site` of `service` at `at`: counted, answered on
    /// the spot if the site serves (its answers leave at `at`, back to
    /// `from`, the sender's end), and held for the sink.
    fn arrive_at_site(
        &mut self,
        service: usize,
        site: SiteId,
        at: SimTime,
        key: u64,
        packet: Ipv4Packet,
        from: Option<Resolved>,
    ) {
        self.arrivals.note(at);
        self.stats.delivered_to_sites += 1;
        let per_site = &mut self.stats.per_site_captures;
        if per_site.len() <= site.index() {
            per_site.resize(site.index() + 1, 0);
        }
        if let Some(captures) = per_site.get_mut(site.index()) {
            *captures += 1;
        }
        if self.services.get(service).is_some_and(|s| s.serve_dns) {
            self.serve(service, site, at, &packet, from);
        }
        let capture = SiteCapture { site, at, key, packet };
        self.pending.push((ServiceHandle(service), capture));
    }

    /// Site host behaviour: answers pings and `hostname.bind` queries
    /// reaching `site` of `service` at `at`, back to `to`, the sender's end.
    fn serve(&mut self, service: usize, site: SiteId, at: SimTime, packet: &Ipv4Packet, to: Option<Resolved>) {
        let payload = match packet.protocol {
            Protocol::Icmp => {
                let Some(reply) = IcmpMessage::parse(&packet.payload).ok().and_then(|msg| msg.reply()) else {
                    return;
                };
                reply.emit()
            }
            Protocol::Udp => {
                let Ok(udp) = UdpDatagram::parse(&packet.payload, packet.src, packet.dst) else {
                    return;
                };
                if udp.dst_port != 53 {
                    return;
                }
                let Ok(query) = DnsMessage::parse(&udp.payload) else {
                    return;
                };
                let Some(name) = self.services.get(service).and_then(|s| s.hostnames.get(site.index())) else {
                    return;
                };
                let response = DnsMessage::hostname_bind_response(&query, name);
                UdpDatagram::new(udp.dst_port, udp.src_port, response.emit()).emit(packet.dst, packet.src)
            }
            Protocol::Other(_) => return,
        };
        let out = Ipv4Packet::new(packet.dst, packet.src, packet.protocol, payload);
        let fnv = payload_fnv(&out.payload);
        self.transmit(at, out, Some(Resolved::Service(service)), to, false, 0, fnv, None);
    }

    /// Echo responder behaviour of `host`'s host for `request` — an Echo
    /// Request, whose sender's end is `to` — arriving at `at`, called by
    /// `transmit` as the request is sent. `hk` is the reception's identity
    /// hash; `reply`, if the request came with one, is the reply's payload
    /// and that payload's [`payload_fnv`].
    fn answer_echo(
        &mut self,
        host: Row,
        at: SimTime,
        hk: u64,
        request: &Ipv4Packet,
        to: Option<Resolved>,
        reply: Option<(bytes::Bytes, u64)>,
    ) {
        // The arrival itself: it happens whether or not anyone answers.
        self.stats.delivered_to_hosts += 1;
        self.arrivals.note(at);
        if !self.up(host.responsive, host.block, at) {
            return;
        }
        // Answer with the probe's precomputed reply image when it carries
        // one — a refcounted view, no per-reply parse, serialization or
        // allocation. The image is pinned byte-identical to the emit
        // chain it replaces, here and in the packet-layer equivalence
        // tests.
        let emitted = || {
            let reply = IcmpMessage::parse(&request.payload).ok()?.reply()?.emit();
            let fnv = payload_fnv(&reply);
            Some((reply, fnv))
        };
        let Some((payload, fnv)) = reply.or_else(emitted) else {
            return;
        };
        debug_assert_eq!(
            Some(&payload),
            emitted().map(|(reply, _)| reply).as_ref(),
            "precomputed reply image diverges from the responder's emit"
        );
        let rep = host.representative();

        // Alias fault: reply from a different address in the block.
        let src = if self.faults.alias_prob > 0.0
            && unit(mix(self.seed ^ TAG_ALIAS, hk)) < self.faults.alias_prob
        {
            self.stats.aliases += 1;
            let mut octet = 1 + conv::sat_u8(mix(self.seed ^ TAG_ALIAS_OCTET, hk) % 254);
            if host.block.addr(octet) == rep {
                octet = octet.wrapping_add(1).max(1);
            }
            host.block.addr(octet)
        } else {
            rep
        };

        // Late fault.
        let mut when = at;
        if self.faults.late_prob > 0.0
            && unit(mix(self.seed ^ TAG_LATE, hk)) < self.faults.late_prob
        {
            when += self.faults.late_delay;
        }

        // Duplicate fault: heavy-tailed extra copies.
        let extra = if self.faults.duplicate_prob > 0.0
            && unit(mix(self.seed ^ TAG_DUPLICATE, hk)) < self.faults.duplicate_prob
        {
            let u = unit(mix(self.seed ^ TAG_DUPLICATE_COUNT, hk)).max(1e-6);
            conv::sat_f64_to_u32(u.powf(-0.7)).clamp(1, self.faults.max_duplicates)
        } else {
            0
        };
        self.stats.duplicates += extra as u64;

        self.stats.replies += 1;
        let out = Ipv4Packet {
            src,
            dst: request.src,
            protocol: Protocol::Icmp,
            ttl: 64,
            ident: 0,
            payload,
        };
        // Aliased or not, the reply leaves this block for the end the
        // request came from.
        let from = Some(Resolved::Block(host));
        for copy in 0..extra {
            self.transmit(when, out.clone(), from, to, false, copy, fnv, None);
        }
        self.transmit(when, out, from, to, false, extra, fnv, None);
    }

    /// Packets captured at the sites of a service by [`NetworkSim::run`],
    /// in arrival order.
    #[expect(
        clippy::indexing_slicing,
        reason = "ServiceHandles are minted by register_service, which pushes the matching log."
    )]
    pub fn captures(&self, handle: ServiceHandle) -> &[SiteCapture] {
        // ServiceHandles are minted by register_service, which pushes the
        // matching log.
        &self.captures.0[handle.0]
    }

    /// Packets delivered to ordinary hosts that the engine didn't consume:
    /// in arrival order after [`NetworkSim::run`], in transmission order
    /// after [`NetworkSim::run_with`].
    pub fn host_deliveries(&self) -> &[HostDelivery] {
        &self.host_deliveries
    }

    /// Takes (drains) the host deliveries.
    pub fn take_host_deliveries(&mut self) -> Vec<HostDelivery> {
        std::mem::take(&mut self.host_deliveries)
    }

    /// Run counters.
    pub fn stats(&self) -> SimStats {
        self.stats.clone()
    }

    /// The world this simulator runs over.
    pub fn world(&self) -> &'w Internet {
        self.world
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over a packet's payload: the content half of [`packet_key`],
/// and a chain of one multiply per byte that nothing can shorten.
fn payload_fnv(payload: &[u8]) -> u64 {
    payload.iter().fold(FNV_OFFSET, |h, &byte| fnv_step(h, byte))
}

/// Four [`payload_fnv`]s side by side: the chains are independent, so four
/// finish in little more than the time of one. Lengths may differ — the
/// lanes run in step over the shortest and finish on their own.
fn payload_fnv4(payloads: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = payloads;
    let mut h = [FNV_OFFSET; 4];
    let mut common = 0;
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        h = [fnv_step(h[0], a), fnv_step(h[1], b), fnv_step(h[2], c), fnv_step(h[3], d)];
        common += 1;
    }
    for (h, payload) in h.iter_mut().zip(payloads) {
        *h = payload.iter().skip(common).fold(*h, |h, &byte| fnv_step(h, byte));
    }
    h
}

/// Stable identity hash of a packet's full content (addresses, protocol,
/// header fields, payload bytes): `fnv`, the payload's [`payload_fnv`] —
/// passed in because a staged probe's was computed four at a time —
/// finished with the header. Fault and jitter draws key on this — mixed
/// with the round seed, send time and a copy index — so that every
/// stochastic outcome is a pure function of *what* is transmitted, never
/// of how many draws some shared generator has already served. This is
/// the property that makes a K-way sharded scan bit-identical to the
/// serial one (see DESIGN.md, "Parallel scan & determinism").
fn packet_key(packet: &Ipv4Packet, fnv: u64) -> u64 {
    debug_assert_eq!(fnv, payload_fnv(&packet.payload), "a staged payload hash diverges from the scalar one");
    let mut h = fnv;
    h ^= (packet.src.0 as u64) << 32 | packet.dst.0 as u64;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (packet.protocol.number() as u64) << 24
        | (packet.ttl as u64) << 16
        | packet.ident as u64;
    mix(0x9ac4_e700_0000_0000, h)
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::disallowed_types,
    reason = "test fixtures cast small counts into packet fields, and an atomic counts oracle calls behind its Sync bound"
)]
mod tests {
    use super::*;
    use crate::oracle::StaticOracle;
    use bytes::Bytes;
    use vp_bgp::BgpSim;
    use vp_net::SimDuration;
    use vp_topology::{broot_specs, pick_host_ases, Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(99))
    }

    fn service(world: &Internet) -> (Announcement, StaticOracle) {
        let ann = Announcement::from_placements(&pick_host_ases(world, &broot_specs()), 0);
        let table = BgpSim::new(&world.graph, 1).route(&ann);
        (ann, StaticOracle::new(table))
    }

    fn probe(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq: u16) -> Ipv4Packet {
        let icmp = IcmpMessage::echo_request(ident, seq, Bytes::from_static(b"vp"));
        Ipv4Packet::new(src, dst, Protocol::Icmp, icmp.emit())
    }

    #[test]
    fn probe_reply_arrives_at_senders_catchment_site() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let table = oracle.table().clone();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 1);
        let svc = sim.register_service(ann, Box::new(oracle), false);

        // Probe every responsive block once.
        let mut expected = Vec::new();
        for (i, b) in w.responsive_blocks().enumerate() {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 7, i as u16));
            expected.push((b.representative(), table.site_of_pop(b.pop).unwrap()));
        }
        sim.run();

        let caps = sim.captures(svc);
        assert_eq!(caps.len(), expected.len(), "one reply per responsive block");
        for cap in caps {
            let (_, want_site) = expected
                .iter()
                .find(|(addr, _)| *addr == cap.packet.src)
                .expect("reply from a probed address");
            assert_eq!(cap.site, *want_site, "reply captured at wrong site");
            let msg = IcmpMessage::parse(&cap.packet.payload).unwrap();
            assert_eq!(msg.ident(), Some(7));
        }
    }

    #[test]
    fn unresponsive_blocks_stay_silent() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 1);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        for b in w.blocks.iter().filter(|b| !b.responsive).take(50) {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        assert!(sim.captures(svc).is_empty());
        assert_eq!(sim.stats().replies, 0);
    }

    #[test]
    fn dns_hostname_bind_names_the_receiving_site() {
        let w = world();
        let (ann, oracle) = service(&w);
        let table = oracle.table().clone();
        let anycast = ann.measurement_addr();
        let sites = ann.sites.clone();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 2);
        let svc = sim.register_service(ann, Box::new(oracle), true);

        let vp = w.responsive_blocks().next().unwrap();
        let expected_site = table.site_of_pop(vp.pop).unwrap();
        let query = DnsMessage::hostname_bind_query(0xabcd, false);
        let udp = UdpDatagram::new(40000, 53, query.emit());
        let pkt = Ipv4Packet::new(
            vp.representative(),
            anycast,
            Protocol::Udp,
            udp.emit(vp.representative(), anycast),
        );
        sim.send_at(SimTime::ZERO, pkt);
        sim.run();

        // The query was captured at the VP's catchment site...
        assert_eq!(sim.captures(svc).len(), 1);
        assert_eq!(sim.captures(svc)[0].site, expected_site);
        // ...and the VP received an answer naming that site.
        let deliveries = sim.host_deliveries();
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        let udp = UdpDatagram::parse(&d.packet.payload, d.packet.src, d.packet.dst).unwrap();
        let resp = DnsMessage::parse(&udp.payload).unwrap();
        assert_eq!(resp.id, 0xabcd);
        let name = resp.first_txt().unwrap();
        let site_name = &sites[expected_site.index()].name;
        assert_eq!(
            name,
            NetworkSim::site_hostname(ServiceHandle(0), site_name)
        );
    }

    #[test]
    fn site_answers_pings_to_the_service_address() {
        let w = world();
        let (ann, oracle) = service(&w);
        let anycast = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 3);
        let _svc = sim.register_service(ann, Box::new(oracle), true);
        let vp = w.responsive_blocks().next().unwrap();
        sim.send_at(SimTime::ZERO, probe(vp.representative(), anycast, 5, 6));
        sim.run();
        // The VP's echo reply comes back as a host delivery? No: the VP's
        // *request* is answered by the site; the reply to the VP is ICMP,
        // and the VP host consumes echo REPLIES by logging them.
        let d = sim.host_deliveries();
        assert_eq!(d.len(), 1);
        let msg = IcmpMessage::parse(&d[0].packet.payload).unwrap();
        assert_eq!(msg.ident(), Some(5));
        assert!(matches!(msg, IcmpMessage::EchoReply { .. }));
    }

    #[test]
    fn loss_drops_packets() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            loss: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 4);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        for b in w.responsive_blocks().take(20) {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        assert_eq!(sim.stats().lost, 20);
        assert!(sim.captures(svc).is_empty());
    }

    #[test]
    fn duplicates_and_aliases_are_injected() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            duplicate_prob: 1.0,
            max_duplicates: 5,
            alias_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 5);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let targets: Vec<_> = w.responsive_blocks().take(10).collect();
        for b in &targets {
            sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        }
        sim.run();
        let caps = sim.captures(svc);
        assert!(caps.len() > targets.len(), "no duplicates captured");
        assert_eq!(sim.stats().aliases, 10);
        // All replies come from alias addresses, none from representatives.
        for cap in caps {
            let block = cap.packet.src.block();
            let info = w.block(block).unwrap();
            assert_ne!(cap.packet.src, info.representative());
        }
    }

    #[test]
    fn late_replies_are_delayed() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            late_prob: 1.0,
            late_delay: SimDuration::from_mins(20),
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 6);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let b = w.responsive_blocks().next().unwrap();
        sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        sim.run();
        let caps = sim.captures(svc);
        assert_eq!(caps.len(), 1);
        assert!(caps[0].at >= SimTime::ZERO + SimDuration::from_mins(20));
    }

    /// Counts `site_of_pop` calls on the oracle it wraps.
    struct Counting<O>(O, std::sync::atomic::AtomicUsize);

    impl<O: CatchmentOracle> CatchmentOracle for Counting<O> {
        fn epoch(&self, at: SimTime) -> u32 {
            self.0.epoch(at)
        }

        fn site_of_pop(&self, pop: PopId, epoch: u32) -> Option<SiteId> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.site_of_pop(pop, epoch)
        }
    }

    const INTERVAL: SimDuration = SimDuration::from_mins(15);

    /// An oracle under which every PoP of every multi-candidate AS redraws
    /// its site each interval.
    fn restless_oracle(w: &Internet) -> (Announcement, crate::FlippingOracle) {
        let (ann, oracle) = service(w);
        let table = oracle.table().clone();
        let mut model = vp_bgp::FlipModel::stable(21);
        for (asn, route) in table.per_as.iter().enumerate() {
            if route.as_ref().is_some_and(|r| r.candidate_sites().len() > 1) {
                model = model.with_prone_as(vp_net::Asn(asn as u32), 1.0);
            }
        }
        (ann, crate::FlippingOracle::new(table, w.graph.clone(), model, INTERVAL))
    }

    /// The route column answers for one epoch, but a reply is routed at
    /// the epoch it is *sent* in: with every reply (or every other one)
    /// held back for longer than a flip interval, each capture lands at
    /// `site_of_pop(pop, epoch(reply send time))` — which for many
    /// differs from the answer of the probes' epoch, the column's.
    #[test]
    fn late_replies_are_routed_at_the_epoch_they_are_sent_in() {
        let w = world();
        let (ann, oracle) = restless_oracle(&w);
        let meas = ann.measurement_addr();
        // Probes leave ten seconds before round 1 ends; replies take well
        // under a second each way, so an on-time reply is sent in round 1
        // and a late one — 20 minutes on — in round 3, far from any edge.
        let start = SimTime::ZERO + SimDuration::from_secs(2 * 15 * 60 - 10);
        let probes: Vec<TimedProbe> = (w.blocks.iter().enumerate())
            .filter(|(_, b)| b.responsive)
            .map(|(row, b)| {
                let at = start + SimDuration::from_millis(row as u64);
                let mut p = timed_probe(at, probe(meas, b.representative(), 1, row as u16));
                p.row = row as u32;
                p
            })
            .collect();
        for late_prob in [1.0, 0.5] {
            let faults = FaultConfig {
                late_prob,
                late_delay: SimDuration::from_mins(20),
                ..FaultConfig::none()
            };
            let mut sim = NetworkSim::new(&w, faults, 6);
            sim.register_service(ann.clone(), Box::new(&oracle), false);
            let mut seen = Recorder::default();
            sim.run_with(probes.iter().cloned(), &mut seen);
            assert_eq!(seen.0.len(), probes.len());

            let (mut late, mut moved) = (0, 0);
            for (site, at, src) in seen.0 {
                let pop = w.block(src.block()).unwrap().pop;
                let epoch = oracle.epoch(at);
                assert!(epoch == 1 || epoch == 3, "capture at {at} in round {epoch}");
                assert_eq!(Some(site), oracle.site_of_pop(pop, epoch), "{src} at {at}");
                late += usize::from(epoch == 3);
                moved += usize::from(Some(site) != oracle.site_of_pop(pop, 1));
            }
            assert!(moved > 0, "no late reply tells round 3 from round 1");
            if late_prob == 1.0 {
                assert_eq!(late, probes.len());
            } else {
                assert!(0 < late && late < probes.len(), "{late} late of {}", probes.len());
            }
        }
    }

    /// One oracle call per PoP per epoch: a round that stays inside one
    /// epoch asks the oracle once for each PoP its replies come from —
    /// far fewer times than it routes replies.
    #[test]
    fn the_oracle_is_asked_once_per_pop_not_once_per_reply() {
        let w = world();
        let pops = w.graph.pops.len();
        assert!(w.blocks.len() >= 10 * pops, "{} blocks on {pops} PoPs", w.blocks.len());
        let (ann, oracle) = restless_oracle(&w);
        let meas = ann.measurement_addr();
        let oracle = Counting(oracle, Default::default());
        // Duplicates route more replies, not more PoPs.
        let faults = FaultConfig {
            duplicate_prob: 0.5,
            max_duplicates: 3,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 8);
        let svc = sim.register_service(ann, Box::new(&oracle), false);
        for (i, b) in w.blocks.iter().enumerate() {
            let at = SimTime::ZERO + INTERVAL + SimDuration::from_millis(i as u64);
            sim.send_at(at, probe(meas, b.representative(), 2, i as u16));
        }
        sim.run();
        let answered = sim.stats().replies;
        let routed = sim.captures(svc).len() as u64;
        assert!(routed > answered && answered == w.responsive_blocks().count() as u64);
        let calls = oracle.1.load(std::sync::atomic::Ordering::Relaxed) as u64;
        let epochs_touched = 1;
        assert!(calls <= pops as u64 * epochs_touched, "{calls} calls for {pops} PoPs");
        assert!(0 < calls && calls < answered, "{calls} calls for {answered} answered probes");
    }

    #[test]
    fn churn_takes_some_blocks_down_per_round() {
        let w = world();
        let (ann, oracle) = service(&w);
        let faults = FaultConfig {
            churn_down_prob: 0.5,
            churn_round: SimDuration::from_mins(15),
            ..FaultConfig::none()
        };
        let sim_owner;
        {
            let mut sim = NetworkSim::new(&w, faults, 7);
            sim.register_service(ann, Box::new(oracle), false);
            sim_owner = sim;
        }
        let sim = sim_owner;
        let t0 = SimTime::ZERO;
        let t1 = SimTime::ZERO + SimDuration::from_mins(15);
        let blocks: Vec<_> = w.responsive_blocks().collect();
        let up0 = blocks.iter().filter(|b| sim.block_up(b, t0)).count();
        let changed = blocks
            .iter()
            .filter(|b| sim.block_up(b, t0) != sim.block_up(b, t1))
            .count();
        assert!(up0 > 0 && up0 < blocks.len(), "churn has no effect");
        assert!(changed > 0, "no churn transitions between rounds");
    }

    #[test]
    fn undeliverable_packets_are_counted() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 8);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let unpopulated = Ipv4Addr::new(250, 250, 250, 250);
        let host = w.responsive_blocks().next().unwrap();
        let not_the_host = host.block.addr(host.rep_octet.wrapping_add(1).max(1));
        for (src, dst) in [
            // Destination outside any populated block or service.
            (Ipv4Addr::new(1, 2, 3, 4), unpopulated),
            // Anycast-bound, but the sender has no block to take a
            // catchment from.
            (unpopulated, meas),
            // A populated block's non-representative address.
            (meas, not_the_host),
        ] {
            sim.send_at(SimTime::ZERO, probe(src, dst, 1, 1));
        }
        sim.run();
        assert_eq!(sim.stats().undeliverable, 3);
        assert!(sim.captures(svc).is_empty() && sim.host_deliveries().is_empty());
    }

    /// ROADMAP 4(c), degenerate world: backscatter picks a block by
    /// remainder, and a zero-block world has none to pick.
    #[test]
    fn unsolicited_spawn_is_skipped_in_a_world_without_blocks() {
        let w = Internet::generate(TopologyConfig {
            max_blocks: 0,
            ..TopologyConfig::tiny(99)
        });
        assert!(w.blocks.is_empty());
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            unsolicited_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 12);
        sim.register_service(ann, Box::new(oracle), false);
        sim.send_at(SimTime::ZERO, probe(meas, Ipv4Addr::new(1, 2, 3, 4), 1, 0));
        sim.run();
        assert_eq!(sim.stats().unsolicited, 0);
        assert_eq!(sim.stats().undeliverable, 1);
    }

    #[test]
    fn unsolicited_replies_reach_the_collector() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            unsolicited_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 9);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        // Probe an unresponsive block: the only capture can be unsolicited.
        let b = w.blocks.iter().find(|b| !b.responsive).unwrap();
        sim.send_at(SimTime::ZERO, probe(meas, b.representative(), 1, 0));
        sim.run();
        assert_eq!(sim.stats().unsolicited, 1);
        // The unsolicited source is random; it may or may not route (its
        // block always exists), so at most one capture, usually one.
        assert!(sim.captures(svc).len() <= 1);
    }

    /// Records sink calls in the order they are made.
    #[derive(Default)]
    struct Recorder(Vec<(SiteId, SimTime, Ipv4Addr)>, Vec<u64>);

    impl CaptureSink for Recorder {
        fn capture(&mut self, _: ServiceHandle, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet) {
            self.0.push((site, at, packet.src));
            self.1.push(key);
        }
    }

    fn timed_probe(at: SimTime, packet: Ipv4Packet) -> TimedProbe {
        let request = IcmpMessage::parse(&packet.payload).unwrap();
        let reply_image = request.reply().unwrap().emit();
        TimedProbe {
            at,
            packet,
            reply_image,
            row: u32::MAX,
        }
    }

    /// Each capture reaches the sink once, in transmission order — an
    /// eager `send_at`'s before the first probe's — and `(at, key)` puts
    /// them in arrival order.
    #[test]
    fn captures_reach_the_sink_in_transmission_order() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 11);
        sim.register_service(ann, Box::new(oracle), false);
        let mut hosts = w.responsive_blocks();
        let (vp, early, late) = (
            hosts.next().unwrap().representative(),
            hosts.next().unwrap().representative(),
            hosts.next().unwrap().representative(),
        );

        // Sent before the run: a ping from a VP at t = 10 s, captured at
        // 10 s plus one propagation delay.
        let ten_s = SimTime::ZERO + SimDuration::from_secs(10);
        sim.send_at(ten_s, probe(vp, meas, 9, 9));
        let probes = vec![
            timed_probe(SimTime::ZERO, probe(meas, early, 1, 0)),
            timed_probe(ten_s + SimDuration::from_secs(10), probe(meas, late, 1, 1)),
        ];
        let mut seen = Recorder::default();
        sim.run_with(probes, &mut seen);

        let sources: Vec<Ipv4Addr> = seen.0.iter().map(|c| c.2).collect();
        assert_eq!(sources, [vp, early, late], "not in transmission order: {:?}", seen.0);
        let mut arrivals: Vec<_> = seen.0.iter().zip(&seen.1).map(|(&(_, at, src), &key)| (at, key, src)).collect();
        arrivals.sort();
        let [(first, _, a), (second, _, b), (third, _, c)] = arrivals[..] else {
            panic!("three captures expected: {:?}", seen.0);
        };
        assert_eq!([a, b, c], [early, vp, late]);
        assert!(first < ten_s && second >= ten_s && third > second);
        assert_eq!(sim.stats().injected, 3);
        assert_eq!(sim.now(), third, "the last capture is the last event");
        // The log is `run`'s sink; `run_with` sinks elsewhere.
        assert!(sim.captures(ServiceHandle(0)).is_empty() && sim.pending.is_empty());
    }

    /// When `packet`, sent at `at` from the service, reaches `block`'s
    /// host: `transmit`'s own identity hash, jitter draw and delay, from
    /// the public [`LatencyModel`].
    fn arrival_at_host(sim: &NetworkSim, at: SimTime, packet: &Ipv4Packet, block: u32) -> SimTime {
        let ek = mix(packet_key(packet, payload_fnv(&packet.payload)), at.as_nanos());
        let from = sim.location(Some(Resolved::Service(0))).unwrap();
        let to = sim.location(sim.row(block).map(Resolved::Block)).unwrap();
        at + LatencyModel::default().delay(from, to, mix(sim.seed ^ TAG_JITTER, ek))
    }

    /// Whether the loss fault eats `packet` sent at `at`: `transmit`'s draw.
    fn lost(sim: &NetworkSim, at: SimTime, packet: &Ipv4Packet) -> bool {
        let ek = mix(packet_key(packet, payload_fnv(&packet.payload)), at.as_nanos());
        sim.faults.loss > 0.0 && unit(mix(sim.seed ^ TAG_LOSS, ek)) < sim.faults.loss
    }

    /// An Echo Request's arrival is an event of the run although nothing
    /// observes it: it counts toward `engine.events`, and `now()` and the
    /// `engine.run` span reach it. Here the last thing to happen is the
    /// arrival of a probe at a host that does not answer.
    #[test]
    fn a_run_ends_at_its_last_arrival_answered_or_not() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 13);
        sim.attach_obs(vp_obs::TraceLevel::Summary);
        sim.register_service(ann, Box::new(oracle), false);
        let row_of = |responsive| w.blocks.iter().position(|b| b.responsive == responsive).unwrap();
        let (answering, silent) = (row_of(true), row_of(false));
        let sent_last = SimTime::ZERO + SimDuration::from_secs(10);
        let first = probe(meas, w.blocks[answering].representative(), 1, 0);
        let last = probe(meas, w.blocks[silent].representative(), 1, 1);
        let first_arrives = arrival_at_host(&sim, SimTime::ZERO, &first, answering as u32);
        let last_arrives = arrival_at_host(&sim, sent_last, &last, silent as u32);

        let mut seen = Recorder::default();
        sim.run_with(
            vec![timed_probe(SimTime::ZERO, first), timed_probe(sent_last, last)],
            &mut seen,
        );
        let [(_, captured, _)] = seen.0[..] else {
            panic!("one reply expected: {:?}", seen.0);
        };
        assert!(first_arrives < captured && captured < sent_last && sent_last < last_arrives);
        assert_eq!(sim.now(), last_arrives, "the run ends at the unanswered probe's arrival");
        assert_eq!(sim.stats().delivered_to_hosts, 2);
        let obs = sim.take_obs().unwrap();
        // Two arrivals at hosts and one capture.
        assert_eq!(obs.registry.counter_value("engine.events", &[]), 3);
        let run = obs.into_parts().1.spans["engine.run"];
        assert_eq!((run.count, run.total_nanos), (1, last_arrives.since(first_arrives).as_nanos()));
    }

    /// One engine's run over `probes` — `(row, probe)`, every probe to its
    /// row's host — against arrival instants recomputed outside the
    /// engine: each probe the loss fault spares arrives at its host at the
    /// instant `arrival_at_host` derives, answered or not, and everything
    /// else that arrives is a capture, whose instant the sink records. The
    /// run ends at the last of those, spans the first to the last, and
    /// counts them all.
    fn assert_run_covers_its_arrivals(w: &Internet, faults: &FaultConfig, seed: u64, probes: &[(u32, TimedProbe)]) {
        let (ann, oracle) = service(w);
        let mut sim = NetworkSim::new(w, faults.clone(), seed);
        sim.attach_obs(vp_obs::TraceLevel::Summary);
        sim.register_service(ann, Box::new(oracle), false);
        let mut arrivals: Vec<SimTime> = (probes.iter())
            .filter(|(_, p)| !lost(&sim, p.at, &p.packet))
            .map(|(row, p)| arrival_at_host(&sim, p.at, &p.packet, *row))
            .collect();
        let at_hosts = arrivals.len() as u64;

        let mut seen = Recorder::default();
        sim.run_with(probes.iter().map(|(_, p)| p.clone()), &mut seen);
        arrivals.extend(seen.0.iter().map(|(_, at, _)| *at));
        assert_eq!(sim.stats().delivered_to_hosts, at_hosts);
        assert!(sim.parked.is_empty(), "{} arrivals left parked", sim.parked.len());
        let (registry, trace) = sim.take_obs().unwrap().into_parts();
        assert_eq!(registry.counter_value("engine.events", &[]), arrivals.len() as u64);
        let (Some(first), Some(last)) = (arrivals.iter().min(), arrivals.iter().max()) else {
            assert!(trace.spans.is_empty(), "nothing arrived, yet {:?}", trace.spans);
            return;
        };
        assert_eq!(sim.now(), *last, "the run ends at its last arrival");
        let run = trace.spans["engine.run"];
        assert_eq!((run.count, run.total_nanos), (1, last.since(*first).as_nanos()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// An arrival at a silent host is counted when its probe is sent
        /// and its instant computed late or never — and the run's end,
        /// its span and its event count cannot tell: whichever hosts are
        /// silent (all of them; the first to be probed; the last; all but
        /// one in the middle; a random half), with and without faults, on
        /// one engine and split over seven.
        #[test]
        fn a_run_ends_at_its_last_arrival_whoever_is_silent(
            seed in proptest::prelude::any::<u64>(),
            (shape, n) in (0usize..5, 1usize..400),
            pacing_us in 20u64..2_000,
            coins in proptest::collection::vec(proptest::prelude::any::<bool>(), 400..401),
            default_faults in proptest::prelude::any::<bool>(),
        ) {
            let w = world();
            let meas = service(&w).0.measurement_addr();
            let rows = |responsive| {
                let rows = (0u32..).zip(&w.blocks).filter(move |(_, b)| b.responsive == responsive);
                rows.map(|(row, _)| row).cycle()
            };
            let (mut answering, mut silent) = (rows(true), rows(false));
            let answers = |i: usize| match shape {
                0 => false,
                1 => i >= n / 2,
                2 => i < n / 2,
                3 => i == n / 2,
                _ => coins[i],
            };
            let probes: Vec<(u32, TimedProbe)> = (0..n)
                .map(|i| {
                    let row = if answers(i) { answering.next() } else { silent.next() }.unwrap();
                    let at = SimTime::ZERO + SimDuration::from_micros(i as u64 * pacing_us);
                    let host = w.blocks[row as usize].representative();
                    let mut probe = timed_probe(at, probe(meas, host, 1, i as u16));
                    probe.row = row;
                    (row, probe)
                })
                .collect();
            let faults = if default_faults { FaultConfig::default() } else { FaultConfig::none() };
            assert_run_covers_its_arrivals(&w, &faults, seed, &probes);
            for shard in 0..7 {
                let share: Vec<_> = probes.iter().skip(shard).step_by(7).cloned().collect();
                assert_run_covers_its_arrivals(&w, &faults, seed, &share);
            }
        }
    }

    /// The parked deque holds one `max_delay − base` window of a paced
    /// schedule, whatever the schedule's length: at 10 000 probes a second
    /// that is fewer than `rate × max_delay` entries.
    #[test]
    fn parked_arrivals_stay_within_one_delay_window() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 17);
        sim.register_service(ann, Box::new(oracle), false);
        let silent: Vec<(u32, Ipv4Addr)> = (0u32..)
            .zip(&w.blocks)
            .filter(|(_, b)| !b.responsive)
            .map(|(row, b)| (row, b.representative()))
            .collect();
        let (probes, rate) = (100_000u64, 10_000u64);
        let source = (0..probes).zip(silent.iter().cycle()).map(|(i, &(row, host))| {
            let at = SimTime::ZERO + SimDuration::from_micros(i * 1_000_000 / rate);
            let mut probe = timed_probe(at, probe(meas, host, 1, i as u16));
            probe.row = row;
            probe
        });
        sim.run_with(source, &mut Recorder::default());
        assert_eq!(sim.stats().delivered_to_hosts, probes);
        let window = rate * sim.max_delay.as_nanos() / 1_000_000_000;
        let high_water = sim.parked_high_water as u64;
        assert!(window / 2 < high_water && high_water < window, "{high_water} parked, window {window}");
        assert!(sim.now() > SimTime::ZERO + SimDuration::from_secs(probes / rate - 1));
    }

    /// A source is pulled a stage ahead of dispatch and never again once it
    /// has returned `None`, whichever side of a stage boundary it ends on.
    #[test]
    fn a_source_is_not_polled_past_its_end() {
        /// Panics on the poll after the one that returned `None`.
        struct Once<I>(Option<I>);

        impl<I: Iterator> Iterator for Once<I> {
            type Item = I::Item;

            fn next(&mut self) -> Option<I::Item> {
                let next = self.0.as_mut().expect("polled after returning None").next();
                if next.is_none() {
                    self.0 = None;
                }
                next
            }
        }

        let w = world();
        for probes in [0, 1, STAGE - 1, STAGE, STAGE + 1, 3 * STAGE + 7] {
            let (ann, oracle) = service(&w);
            let meas = ann.measurement_addr();
            let mut sim = NetworkSim::new(&w, FaultConfig::none(), 18);
            sim.register_service(ann, Box::new(oracle), false);
            let source = (0..probes).zip(w.blocks.iter().cycle()).map(|(i, b)| {
                let at = SimTime::ZERO + SimDuration::from_micros(i as u64 * 100);
                timed_probe(at, probe(meas, b.representative(), 1, i as u16))
            });
            sim.run_with(Once(Some(source)), &mut Recorder::default());
            assert_eq!(sim.stats().injected, probes as u64);
        }
    }

    /// The four-way hash is four scalar hashes: random payloads, lengths
    /// equal and not, empty included.
    #[test]
    fn payload_fnv4_equals_four_scalar_hashes() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = mix(state, 0x4fa9);
            state
        };
        for round in 0..200 {
            let payloads: Vec<Vec<u8>> = (0..4)
                .map(|_| {
                    let len = if round % 2 == 0 { 20 } else { next() % 40 };
                    (0..len).map(|_| next() as u8).collect()
                })
                .collect();
            let lanes = [&payloads[0][..], &payloads[1][..], &payloads[2][..], &payloads[3][..]];
            assert_eq!(payload_fnv4(lanes), lanes.map(payload_fnv), "{payloads:?}");
        }
        assert_eq!(payload_fnv(&[]), FNV_OFFSET);
    }

    /// The `Full`-level event of an undeliverable packet carries that
    /// packet's own transmission instant — here a probe sent between two
    /// answered ones, while `now()` still reads the previous run's end —
    /// and the ring holds `EVENT_CAPACITY` of them.
    #[test]
    fn an_undeliverable_event_is_stamped_with_its_transmission_instant() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 15);
        sim.attach_obs(vp_obs::TraceLevel::Full);
        sim.register_service(ann, Box::new(oracle), false);
        let mut hosts = w.responsive_blocks();
        let (a, b) = (hosts.next().unwrap(), hosts.next().unwrap());
        let not_a_host = a.block.addr(a.rep_octet.wrapping_add(1).max(1));
        let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);

        let mut seen = Recorder::default();
        sim.run_with(
            vec![
                timed_probe(secs(0), probe(meas, a.representative(), 1, 0)),
                timed_probe(secs(5), probe(meas, not_a_host, 1, 1)),
                timed_probe(secs(10), probe(meas, b.representative(), 1, 2)),
            ],
            &mut seen,
        );
        // One reply arrived before the stray probe left and one after.
        let [(_, before, _), (_, after, _)] = seen.0[..] else {
            panic!("two replies expected: {:?}", seen.0);
        };
        assert!(before < secs(5) && secs(10) < after);
        let ring = &sim.obs.as_ref().unwrap().ring;
        assert_eq!(ring.len(), 1, "one event expected: {ring:?}");
        let event = &ring[0];
        assert_eq!(event.at_nanos, secs(5).as_nanos());
        assert_eq!(event.name, "engine.undeliverable");
        assert_eq!(event.detail, format!("dst {not_a_host}"));

        for i in 0..EngineObs::EVENT_CAPACITY as u64 + 2 {
            sim.send_at(secs(20 + i), probe(meas, not_a_host, 2, 0));
        }
        let (_, trace) = sim.take_obs().unwrap().into_parts();
        assert_eq!(trace.events.len(), EngineObs::EVENT_CAPACITY);
        assert_eq!(trace.dropped_events, 3);
        assert_eq!(trace.events[0].at_nanos, secs(22).as_nanos());
    }

    /// What the trace level gates: `Off` keeps the registry and nothing
    /// else, `Summary` adds `engine.run`, only `Full` keeps events — and an
    /// engine that dispatched nothing reports no `engine.run` at any level.
    #[test]
    fn trace_levels_gate_spans_and_events() {
        let w = world();
        let host = w.responsive_blocks().next().unwrap();
        let not_the_host = host.block.addr(host.rep_octet.wrapping_add(1).max(1));
        for level in [vp_obs::TraceLevel::Off, vp_obs::TraceLevel::Summary, vp_obs::TraceLevel::Full] {
            let (ann, oracle) = service(&w);
            let meas = ann.measurement_addr();
            let mut sim = NetworkSim::new(&w, FaultConfig::none(), 16);
            sim.attach_obs(level);
            sim.register_service(ann, Box::new(oracle), false);
            sim.send_at(SimTime::ZERO, probe(meas, not_the_host, 1, 0));
            sim.run();
            let idle = sim.obs.as_ref().unwrap();
            assert!(idle.trace.spans.is_empty(), "{level:?}: nothing arrived, yet {:?}", idle.trace.spans);
            assert_eq!(idle.ring.len(), usize::from(level == vp_obs::TraceLevel::Full));

            sim.send_at(SimTime::ZERO, probe(meas, host.representative(), 1, 1));
            sim.run();
            let (registry, trace) = sim.take_obs().unwrap().into_parts();
            assert_eq!(registry.counter_value("engine.events", &[]), 2, "{level:?}");
            let runs = trace.spans.get("engine.run").map_or(0, |agg| agg.count);
            assert_eq!(runs, u64::from(level != vp_obs::TraceLevel::Off), "{level:?}");
        }
    }

    /// Eager injection resolves its arrivals too: `send_at` answers before
    /// `run` is even called, and the run still accounts for them.
    #[test]
    fn eager_arrivals_are_events_of_the_next_run() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&w, FaultConfig::none(), 14);
        sim.attach_obs(vp_obs::TraceLevel::Summary);
        sim.register_service(ann, Box::new(oracle), false);
        let silent: Vec<_> = w.blocks.iter().filter(|b| !b.responsive).take(30).collect();
        for (i, b) in silent.iter().enumerate() {
            sim.send_at(SimTime(i as u64 * 1000), probe(meas, b.representative(), 1, i as u16));
        }
        sim.run();
        assert_eq!(sim.stats().delivered_to_hosts, 30);
        assert!(sim.now() > SimTime(29_000));
        let events = |sim: &NetworkSim| {
            let obs = sim.obs.as_ref().unwrap();
            obs.registry.counter_value("engine.events", &[])
        };
        assert_eq!(events(&sim), 30);

        // A ping between two hosts: the request is answered as it is
        // sent, and the Echo Reply reaches the pinger's application. A
        // second run counts only its own events.
        let mut hosts = w.responsive_blocks();
        let (a, b) = (hosts.next().unwrap(), hosts.next().unwrap());
        let sent = sim.now() + SimDuration::from_secs(1);
        sim.send_at(sent, probe(a.representative(), b.representative(), 4, 2));
        sim.run();
        assert_eq!(events(&sim), 30 + 2);
        let [HostDelivery { at, packet, .. }] = sim.host_deliveries() else {
            panic!("one delivery expected: {:?}", sim.host_deliveries());
        };
        assert_eq!((packet.src, packet.dst), (b.representative(), a.representative()));
        let reply = IcmpMessage::parse(&packet.payload).unwrap();
        assert!(matches!(reply, IcmpMessage::EchoReply { ident: 4, seq: 2, .. }));
        assert_eq!(sim.now(), *at);
        assert!(*at > sent);
    }

    /// The responder runs when the request is *sent* but answers for the
    /// instant it *arrives*: requests sent just before a churn round ends
    /// arrive in the next one, and exactly the blocks up in that next
    /// round reply.
    #[test]
    fn a_host_answers_for_the_instant_the_request_arrives() {
        let w = world();
        let (ann, oracle) = service(&w);
        let meas = ann.measurement_addr();
        let faults = FaultConfig {
            churn_down_prob: 0.5,
            churn_round: INTERVAL,
            ..FaultConfig::none()
        };
        let mut sim = NetworkSim::new(&w, faults, 7);
        let svc = sim.register_service(ann, Box::new(oracle), false);
        let boundary = SimTime::ZERO + INTERVAL;
        // Every delay is at least the latency model's 2 ms floor.
        let sent = SimTime(boundary.0 - 1_000_000);
        for (i, b) in w.responsive_blocks().enumerate() {
            sim.send_at(sent, probe(meas, b.representative(), 1, i as u16));
        }
        sim.run();
        let mut answered: Vec<Ipv4Addr> = sim.captures(svc).iter().map(|c| c.packet.src).collect();
        answered.sort();
        let up_at = |at| {
            let mut up: Vec<Ipv4Addr> = (w.responsive_blocks().filter(|b| sim.block_up(b, at)))
                .map(|b| b.representative())
                .collect();
            up.sort();
            up
        };
        assert_ne!(up_at(sent), up_at(boundary), "churn tells the two rounds apart");
        assert_eq!(answered, up_at(boundary));
    }

    #[test]
    fn runs_are_deterministic() {
        let w = world();
        let run = || {
            let (ann, oracle) = service(&w);
            let meas = ann.measurement_addr();
            let mut sim = NetworkSim::new(&w, FaultConfig::default(), 10);
            let svc = sim.register_service(ann, Box::new(oracle), false);
            for (i, b) in w.responsive_blocks().enumerate() {
                sim.send_at(
                    SimTime(i as u64 * 1000),
                    probe(meas, b.representative(), 3, i as u16),
                );
            }
            sim.run();
            let caps: Vec<(u8, u64, u32)> = sim
                .captures(svc)
                .iter()
                .map(|c| (c.site.0, c.at.0, c.packet.src.0))
                .collect();
            (caps, sim.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
