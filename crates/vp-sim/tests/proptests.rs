//! Property-based tests of the discrete-event engine, and its
//! differential tests against the reference simulator in `reference/`.

use std::collections::BTreeSet;

use bytes::Bytes;
use proptest::prelude::*;
use vp_bgp::{FlipModel, SiteId};
use vp_net::{Asn, FeistelPermutation, Ipv4Addr, ProbeOrder, SimDuration, SimTime};
use vp_packet::{DnsMessage, IcmpMessage, Ipv4Packet, Protocol, UdpDatagram};
use vp_sim::{
    CaptureSink, CatchmentOracle, EngineObs, FaultConfig, FlippingOracle, LatencyModel, NetworkSim, Scenario, SimStats,
    StaticOracle, TimedProbe,
};
use vp_topology::TopologyConfig;

mod reference;

use reference::Reference;

fn scenario(seed: u64) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: 80,
            num_tier1: 4,
            max_blocks: 1000,
            max_prefixes_per_as: 20,
            max_blocks_per_prefix: 16,
            ..TopologyConfig::default()
        },
        7,
    )
}

fn probe(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq: u16) -> Ipv4Packet {
    Ipv4Packet::new(
        src,
        dst,
        Protocol::Icmp,
        IcmpMessage::echo_request(ident, seq, Bytes::new()).emit(),
    )
}

/// Records every sink call: site captures, then host hand-offs.
#[derive(Default)]
struct Recorder(Vec<(SimTime, u64, SiteId, Ipv4Packet)>, Vec<(SimTime, u64, Ipv4Packet)>);

impl CaptureSink for Recorder {
    fn capture(&mut self, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet) {
        self.0.push((at, key, site, packet.clone()));
    }

    fn deliver(&mut self, at: SimTime, key: u64, packet: &Ipv4Packet) {
        self.1.push((at, key, packet.clone()));
    }
}

/// `packet` sent at `at` with the row hint `row`: an Echo Request carries
/// its reply image, anything else none.
fn timed(at: SimTime, packet: Ipv4Packet, row: u32) -> TimedProbe {
    let reply = IcmpMessage::parse(&packet.payload).ok().and_then(|m| m.reply());
    let reply_image = reply.map_or_else(Bytes::new, |r| r.emit());
    TimedProbe { at, packet, reply_image, row }
}

/// Runs `probes` on `sim`: what it handed over.
fn run(sim: &mut NetworkSim, probes: impl IntoIterator<Item = TimedProbe>) -> Recorder {
    let mut seen = Recorder::default();
    sim.run_with(probes, &mut seen);
    seen
}

/// The engine pulls its source this many probes at a time
/// (`vp_sim::engine`'s private `STAGE`).
const STAGE: usize = 128;

/// The flip interval of [`restless`].
const INTERVAL: SimDuration = SimDuration::from_mins(15);

/// A flipping oracle over `s`'s routing under which every PoP of every
/// AS with more than one candidate site redraws its site each interval.
fn restless(s: &Scenario) -> FlippingOracle {
    let table = s.routing();
    let mut model = FlipModel::stable(21);
    for (asn, route) in table.per_as.iter().enumerate() {
        if route.as_ref().is_some_and(|r| r.candidate_sites().len() > 1) {
            model = model.with_prone_as(Asn(asn as u32), 1.0);
        }
    }
    FlippingOracle::new(table, s.world.graph.clone(), model, INTERVAL)
}

/// A mix in which every fault fires often.
fn hostile() -> FaultConfig {
    FaultConfig {
        loss: 0.05,
        duplicate_prob: 0.3,
        max_duplicates: 50,
        alias_prob: 0.2,
        late_prob: 0.1,
        late_delay: SimDuration::from_mins(20),
        unsolicited_prob: 0.05,
        churn_down_prob: 0.1,
        churn_round: SimDuration::from_mins(15),
    }
}

/// `count` probes from the measurement address from `start` on,
/// time-sorted by `gaps` (cycled): to block representatives, except where
/// `stray` (below 6 of 12) addresses one into the service prefix itself
/// or to an address of the block that is not its host — both
/// undeliverable. Row hints are right, off by one either way, or nowhere
/// in the table.
fn probes_from_gaps(s: &Scenario, start: SimTime, count: usize, gaps: &[(u8, u64, u64, u8, u8)]) -> Vec<TimedProbe> {
    let meas = s.announcement.measurement_addr();
    let mut at = start;
    (gaps.iter().cycle())
        .zip(s.world.blocks.iter().enumerate().cycle())
        .take(count)
        .enumerate()
        .map(|(i, (&(kind, short_us, long_us, hint, stray), (row, b)))| {
            at += SimDuration::from_micros([0, short_us, long_us][kind as usize]);
            let dst = match stray {
                0..=2 => Ipv4Addr(meas.0 ^ 1),
                3..=5 => b.block.addr(b.rep_octet.wrapping_add(1).max(1)),
                _ => b.representative(),
            };
            let row = row as u32;
            let row = [row, row.wrapping_sub(1), row + 1, u32::MAX][hint as usize];
            timed(at, probe(meas, dst, 5, i as u16), row)
        })
        .collect()
}

/// Traffic of ordinary hosts, every path a run has besides probing:
/// pings and `hostname.bind` queries to the service (captured, and
/// answered if the site serves, the answer handed to the sender); pings
/// between hosts, up or not (answered by the responder, the reply handed
/// to the pinger); and an ICMP error no responder consumes (handed to the
/// application).
fn background(s: &Scenario) -> Vec<TimedProbe> {
    let meas = s.announcement.measurement_addr();
    let mut traffic = Vec::new();
    for (i, b) in s.world.responsive_blocks().take(20).enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(i as u64 * 7);
        let vp = b.representative();
        traffic.push(timed(at, probe(vp, meas, 77, i as u16), u32::MAX));
        let query = DnsMessage::hostname_bind_query(i as u16, false).emit();
        let udp = UdpDatagram::new(40_000 + i as u16, 53, query).emit(vp, meas);
        traffic.push(timed(at, Ipv4Packet::new(vp, meas, Protocol::Udp, udp), u32::MAX));
    }
    let hosts: Vec<_> = s.world.blocks.iter().take(80).collect();
    for (i, pair) in hosts.chunks_exact(2).enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(i as u64 * 11);
        let (a, b) = (pair[0].representative(), pair[1].representative());
        traffic.push(timed(at, probe(a, b, 78, i as u16), u32::MAX));
        let unreachable = IcmpMessage::DestUnreachable {
            code: 1,
            original: Bytes::from_static(b"original datagram"),
        };
        traffic.push(timed(at, Ipv4Packet::new(b, a, Protocol::Icmp, unreachable.emit()), u32::MAX));
    }
    traffic
}

/// Site captures and host hand-offs, sorted as a multiset.
fn sorted(mut seen: Recorder) -> Recorder {
    seen.0.sort_by_cached_key(|(at, key, site, p)| (*at, *key, site.0, p.emit()));
    seen.1.sort_by_cached_key(|(at, key, p)| (*at, *key, p.emit()));
    seen
}

/// Runs `source` on the reference simulator, and on fresh engines with a
/// `Full` sidecar both as given and shuffled (a Feistel permutation keyed
/// by `seed`), and asserts that each engine run agrees with the reference
/// on every observable: the multisets of captures and hand-offs, the
/// counters, the final clock (the last arrival, silent hosts included),
/// `engine.events`, and the event log — the greatest `EVENT_CAPACITY`
/// undeliverable events, the rest counted as dropped. Returns the
/// reference's view.
fn assert_engine_equals_reference(
    s: &Scenario,
    oracle: &dyn CatchmentOracle,
    faults: &FaultConfig,
    seed: u64,
    serve_dns: bool,
    source: &[TimedProbe],
) -> reference::Seen {
    let want = Reference::new(s, oracle, faults.clone(), seed, serve_dns)
        .run(source.iter().map(|p| (p.at, p.packet.clone())));
    let c = &want.counters;
    let stats = SimStats {
        injected: c.injected,
        delivered_to_hosts: c.delivered_to_hosts,
        delivered_to_sites: c.delivered_to_sites,
        lost: c.lost,
        replies: c.replies,
        duplicates: c.duplicates,
        aliases: c.aliases,
        unsolicited: c.unsolicited,
        undeliverable: c.undeliverable,
        per_site_captures: c.per_site_captures.clone(),
    };
    let mut undeliverable: Vec<_> =
        (want.undeliverable.iter()).map(|(at, dst)| (*at, format!("engine.undeliverable dst {dst}"))).collect();
    undeliverable.sort();
    let kept = undeliverable.split_off(undeliverable.len().saturating_sub(EngineObs::EVENT_CAPACITY));

    let shuffle = FeistelPermutation::new(source.len() as u64, seed);
    let shuffled: Vec<TimedProbe> = (0..source.len() as u64).map(|i| source[shuffle.permute(i) as usize].clone()).collect();
    for source in [source, &shuffled] {
        let ann = s.announcement.clone();
        let mut sim = NetworkSim::new(&s.world, faults.clone(), seed, ann, Box::new(oracle), serve_dns);
        sim.attach_obs(true);
        let Recorder(captures, handoffs) = sorted(run(&mut sim, source.iter().cloned()));
        let (registry, log) = sim.take_obs().expect("attached above").into_parts();
        prop_assert_eq!(&captures, &want.captures);
        prop_assert_eq!(&handoffs, &want.handoffs);
        prop_assert_eq!(sim.stats(), stats.clone());
        prop_assert_eq!(sim.now(), want.arrivals.last().copied().unwrap_or(SimTime::ZERO));
        prop_assert_eq!(registry.counter_value("engine.events", &[]), want.arrivals.len() as u64);
        let ring: Vec<(u64, String)> = log.events.iter().map(|e| (e.at_nanos, format!("{} {}", e.name, e.detail))).collect();
        prop_assert_eq!(&ring, &kept);
        prop_assert_eq!(log.dropped, undeliverable.len() as u64);
    }
    want
}

/// A random fault mix. `max_duplicates` is at least one, as
/// `FaultConfig::validate` demands once duplicates may be drawn.
fn any_faults() -> impl Strategy<Value = FaultConfig> {
    (
        (0.0f64..0.3, 0.0f64..0.5, 1u32..8, 0.0f64..0.3),
        (0.0f64..0.2, any::<bool>(), 0.0f64..0.2, 0.0f64..0.2),
    )
        .prop_map(
            |((loss, duplicate_prob, max_duplicates, alias_prob), (late_prob, long_late, unsolicited_prob, churn_down_prob))| {
                FaultConfig {
                    loss,
                    duplicate_prob,
                    max_duplicates,
                    alias_prob,
                    late_prob,
                    late_delay: if long_late { SimDuration::from_mins(20) } else { SimDuration::from_secs(3) },
                    unsolicited_prob,
                    churn_down_prob,
                    ..FaultConfig::default()
                }
            },
        )
}

/// Gaps for [`probes_from_gaps`]. Per probe: stay on the previous send
/// time, step a pacing-sized gap, or pause for longer than a round trip;
/// a hint; a stray.
fn any_gaps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64, u64, u8, u8)>> {
    prop::collection::vec(((0u8..3, 1u64..2_000, 100_000u64..400_000), (0u8..4, 0u8..12)), len).prop_map(|gaps| {
        (gaps.into_iter())
            .map(|((kind, short, long), (hint, stray))| (kind, short, long, hint, stray))
            .collect()
    })
}

/// Runs `source` on the engine and on the reference under every fault
/// mix — none, the defaults, a hostile one and `random` — each under a
/// static oracle and under a flipping one, and asserts they agree. Then
/// checks that the source exercises what it claims: on a clean channel
/// every probe to a responsive host is answered and its reply captured,
/// and, `with_background`, every host path of the background traffic is
/// taken. Returns the reference's view of the clean, static run.
fn assert_source_equals_reference(
    s: &Scenario,
    sim_seed: u64,
    serve_dns: bool,
    random: &FaultConfig,
    with_background: bool,
    source: &[TimedProbe],
) -> reference::Seen {
    let (fixed, flipping) = (StaticOracle::new(s.routing()), restless(s));
    let oracles: [&dyn CatchmentOracle; 2] = [&fixed, &flipping];
    for faults in [FaultConfig::default(), hostile(), random.clone()] {
        for oracle in oracles {
            assert_engine_equals_reference(s, oracle, &faults, sim_seed, serve_dns, source);
        }
    }
    assert_engine_equals_reference(s, &flipping, &FaultConfig::none(), sim_seed, serve_dns, source);
    let seen = assert_engine_equals_reference(s, &fixed, &FaultConfig::none(), sim_seed, serve_dns, source);

    fn icmp(p: &Ipv4Packet) -> Option<IcmpMessage> {
        IcmpMessage::parse(&p.payload).ok()
    }
    let meas = s.announcement.measurement_addr();
    let up: BTreeSet<Ipv4Addr> = s.world.responsive_blocks().map(|b| b.representative()).collect();
    let answerable = source.iter().filter(|p| p.packet.src == meas && up.contains(&p.packet.dst)).count();
    let answered = (seen.captures.iter())
        .filter(|(.., p)| matches!(icmp(p), Some(IcmpMessage::EchoReply { ident: 5, .. })))
        .count();
    prop_assert_eq!(answered, answerable);
    if with_background {
        let delivered = |wanted: fn(&Ipv4Packet) -> bool| seen.handoffs.iter().filter(|(_, _, p)| wanted(p)).count();
        prop_assert!(delivered(|p| matches!(icmp(p), Some(IcmpMessage::DestUnreachable { .. }))) > 0);
        prop_assert!(delivered(|p| matches!(icmp(p), Some(IcmpMessage::EchoReply { ident: 78, .. }))) > 0);
        // The site answers pings and `hostname.bind` if it serves.
        let pinged = delivered(|p| matches!(icmp(p), Some(IcmpMessage::EchoReply { ident: 77, .. })));
        prop_assert_eq!(pinged > 0, serve_dns);
        prop_assert_eq!(delivered(|p| p.protocol == Protocol::Udp) > 0, serve_dns);
    }
    seen
}

/// `count` probes from `start` on, time-sorted by `gaps`, merged with the
/// host background traffic if `with_background`.
fn probe_source(s: &Scenario, start: SimTime, count: usize, gaps: &[(u8, u64, u64, u8, u8)], with_background: bool) -> Vec<TimedProbe> {
    let mut source = probes_from_gaps(s, start, count, gaps);
    if with_background {
        source.extend(background(s));
        source.sort_by_key(|p| p.at);
    }
    source
}

/// Just before the first flip of [`restless`], so that probes, and not
/// only late replies, cross a flip interval.
fn start(near_flip: bool) -> SimTime {
    SimTime(if near_flip { INTERVAL.as_nanos() - 50_000_000 } else { 0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A source that `run_with` pulls lazily, a stage at a time,
    /// dispatches the event sequence of eager injection: that of the
    /// reference simulator in `reference/`, which pushes every probe into
    /// an event heap before it steps, routes with no route column and
    /// shares only the public draws with the engine. Over random worlds,
    /// source lengths and sources, time-sorted and shuffled: bursts of probes sharing
    /// one send time and gaps longer than a round trip; row hints right,
    /// off by one either way or absent (the reference takes none, so the
    /// equality also shows a hint is verified, never trusted); strays
    /// into the service prefix and to addresses that are nobody's host;
    /// with or without host background traffic and a serving site; every
    /// fault mix, under a static oracle and under a flipping one whose
    /// late replies (and, from a start just before the first flip,
    /// probes) cross a flip interval.
    #[test]
    fn lazy_source_dispatches_the_eager_event_sequence(
        world_seed in 0u64..3000,
        sim_seed in any::<u64>(),
        count in 1usize..200,
        (with_background, serve_dns, near_flip) in (any::<bool>(), any::<bool>(), any::<bool>()),
        random in any_faults(),
        gaps in any_gaps(1..50),
    ) {
        let s = scenario(world_seed);
        let source = probe_source(&s, start(near_flip), count, &gaps, with_background);
        assert_source_equals_reference(&s, sim_seed, serve_dns, &random, with_background, &source);
    }

    /// Staging commutes: the engine prepares its source a stage at a time
    /// and still dispatches what the reference simulator does — driven at
    /// the stage's edges (an empty source, one probe, one short of a
    /// stage, exactly one, one over, three and a bit), with every hint
    /// kind, host background traffic, and three probes in four sent into
    /// the service prefix or to addresses that are nobody's host, so
    /// `engine.undeliverable` events interleave with answered probes and
    /// outnumber the ring.
    #[test]
    fn staging_commutes_at_stage_boundaries(
        world_seed in 0u64..3000,
        sim_seed in any::<u64>(),
        (serve_dns, near_flip) in (any::<bool>(), any::<bool>()),
        random in any_faults(),
        gaps in any_gaps(20..50),
    ) {
        let s = scenario(world_seed);
        let gaps: Vec<_> = (gaps.iter().enumerate())
            .map(|(j, &(kind, short, long, hint, stray))| {
                (kind, short, long, hint, if j % 4 == 3 { 6 + stray % 6 } else { stray % 6 })
            })
            .collect();
        for count in [0, 1, STAGE - 1, STAGE, STAGE + 1, 3 * STAGE + 7] {
            let source = probe_source(&s, start(near_flip), count, &gaps, true);
            let seen = assert_source_equals_reference(&s, sim_seed, serve_dns, &random, true, &source);
            prop_assert_eq!(seen.counters.injected as usize, source.len());
            if count > 2 * STAGE {
                // Enough strays to overflow the ring, so it must keep the
                // greatest whatever order the source comes in.
                prop_assert!(seen.undeliverable.len() > EngineObs::EVENT_CAPACITY, "{:?}", seen.counters);
            }
        }
    }

    /// Every delay lies in `[base, max_delay()]` — antipodes, poles and
    /// the haversine's NaN corner (coordinates no sphere has, whose `a`
    /// term leaves `[0, 1]`) included. The engine drops parked arrivals
    /// on the strength of this bound.
    #[test]
    fn no_delay_exceeds_max_delay(
        (lat1, lon1, lat2, lon2) in (-1000.0f64..1000.0, -1000.0f64..1000.0, -1000.0f64..1000.0, -1000.0f64..1000.0),
        on_sphere in any::<bool>(),
        antipodal in any::<bool>(),
        key in any::<u64>(),
    ) {
        let m = LatencyModel::default();
        let clamp = |lat: f64, lon: f64| if on_sphere { (lat % 90.0, lon % 180.0) } else { (lat, lon) };
        let from = clamp(lat1, lon1);
        let to = if antipodal { (-from.0, from.1 + 180.0) } else { clamp(lat2, lon2) };
        let d = m.delay(from, to, key);
        prop_assert!(m.base <= d && d <= m.max_delay(), "{:?} -> {:?}: {} > {}", from, to, d, m.max_delay());
        // And it is no loose bound: the far side of the world comes
        // within a jitter's width of it.
        let far = m.delay((0.0, 0.0), (0.0, 180.0), key);
        prop_assert!(far.as_nanos() as f64 > 0.79 * m.max_delay().as_nanos() as f64);
    }

    /// Conservation: every injected probe is lost, undeliverable, or
    /// delivered — and capture counts never exceed generated replies plus
    /// unsolicited traffic.
    #[test]
    fn packet_conservation(world_seed in 0u64..3000, sim_seed in any::<u64>(), loss in 0.0f64..0.5) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let faults = FaultConfig { loss, unsolicited_prob: 0.01, ..FaultConfig::default() };
        let mut sim = NetworkSim::new(&s.world, faults, sim_seed, ann, Box::new(StaticOracle::new(s.routing())), false);
        let n = s.world.blocks.len().min(300);
        let probes = s.world.blocks.iter().take(n).enumerate();
        let probes = probes.map(|(i, b)| timed(SimTime(i as u64 * 1_000_000), probe(meas, b.representative(), 1, i as u16), u32::MAX));
        let captured = run(&mut sim, probes).0.len() as u64;
        let st = sim.stats();
        prop_assert_eq!(st.injected, n as u64);
        // Every transmission (probes + replies + dups + unsolicited) ends
        // in exactly one of: lost, host delivery, site delivery, undeliverable.
        let transmissions = st.injected + st.replies + st.duplicates + st.unsolicited;
        prop_assert_eq!(
            transmissions,
            st.lost + st.delivered_to_hosts + st.delivered_to_sites + st.undeliverable,
            "conservation violated: {:?}", st
        );
        prop_assert!(captured <= st.delivered_to_sites);
    }

    /// Replies never outnumber delivered probes (modulo duplicates), and
    /// with faults off the reply count equals up-block deliveries.
    #[test]
    fn clean_channel_reply_accounting(world_seed in 0u64..3000) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 1, ann, Box::new(StaticOracle::new(s.routing())), false);
        let expected = s.world.responsive_blocks().count() as u64;
        let probes = s.world.blocks.iter().enumerate();
        let probes = probes.map(|(i, b)| timed(SimTime(i as u64 * 100_000), probe(meas, b.representative(), 2, i as u16), u32::MAX));
        let captured = run(&mut sim, probes).0.len() as u64;
        prop_assert_eq!(sim.stats().replies, expected);
        prop_assert_eq!(captured, expected);
        prop_assert_eq!(sim.stats().duplicates, 0);
        prop_assert_eq!(sim.stats().lost, 0);
    }

    /// Arrival times never precede transmission times.
    #[test]
    fn causality(world_seed in 0u64..3000, offset_ms in 0u64..100_000) {
        let s = scenario(world_seed);
        let ann = s.announcement.clone();
        let meas = ann.measurement_addr();
        let start = SimTime::ZERO + vp_net::SimDuration::from_millis(offset_ms);
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 3, ann, Box::new(StaticOracle::new(s.routing())), false);
        let probes = s.world.responsive_blocks().take(100).enumerate();
        let probes = probes.map(|(i, b)| timed(start, probe(meas, b.representative(), 3, i as u16), u32::MAX));
        for (at, ..) in run(&mut sim, probes).0 {
            prop_assert!(at >= start, "capture at {} before send at {}", at, start);
        }
    }
}

// Merge algebra for the per-shard statistics counters.
// merge-tested(SimStats::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SimStats::merge` is field-wise addition — including the variable-
    /// length `per_site_captures` vector, which sums element-wise with
    /// zero-padding — so folding any permutation of shard stats must give
    /// the same totals, and grouping must not matter:
    /// (a + b) + c == a + (b + c).
    #[test]
    fn sim_stats_merge_is_associative_and_commutative(
        counts in prop::collection::vec(
            (
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                // Per-site capture vectors of *different* lengths, so the
                // zero-padding path is exercised in every merge order.
                prop::collection::vec(0u64..1_000_000, 0..5),
            ),
            1..6,
        ),
    ) {
        let stats: Vec<vp_sim::SimStats> = counts
            .iter()
            .map(|&((i, dh, ds), (l, r, d), (a, u, n), ref sites)| vp_sim::SimStats {
                injected: i,
                delivered_to_hosts: dh,
                delivered_to_sites: ds,
                lost: l,
                replies: r,
                duplicates: d,
                aliases: a,
                unsolicited: u,
                undeliverable: n,
                per_site_captures: sites.clone(),
            })
            .collect();

        // Forward and reverse folds agree.
        let mut forward = vp_sim::SimStats::default();
        for s in &stats {
            forward.merge(s);
        }
        let mut reverse = vp_sim::SimStats::default();
        for s in stats.iter().rev() {
            reverse.merge(s);
        }
        prop_assert_eq!(&forward, &reverse);

        // Each per-site slot is the sum over inputs long enough to have it.
        let want_len = stats.iter().map(|s| s.per_site_captures.len()).max().unwrap_or(0);
        prop_assert_eq!(forward.per_site_captures.len(), want_len);
        for slot in 0..want_len {
            let want: u64 = stats
                .iter()
                .filter_map(|s| s.per_site_captures.get(slot))
                .sum();
            prop_assert_eq!(forward.per_site_captures[slot], want);
        }

        // Associativity on the first three (padded with defaults).
        let a = stats.first().cloned().unwrap_or_default();
        let b = stats.get(1).cloned().unwrap_or_default();
        let c = stats.get(2).cloned().unwrap_or_default();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);

        // The empty stats value is a two-sided identity.
        let mut id = vp_sim::SimStats::default();
        id.merge(&a);
        prop_assert_eq!(&id, &a);
        let mut right = a.clone();
        right.merge(&vp_sim::SimStats::default());
        prop_assert_eq!(&right, &a);
    }
}
