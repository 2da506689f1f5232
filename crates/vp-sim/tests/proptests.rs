//! Property-based tests of the discrete-event engine.

use bytes::Bytes;
use proptest::prelude::*;
use vp_bgp::Announcement;
use vp_bgp::SiteId;
use vp_net::{Ipv4Addr, SimDuration, SimTime};
use vp_packet::{IcmpMessage, Ipv4Packet, Protocol};
use vp_sim::{
    CaptureSink, FaultConfig, LatencyModel, NetworkSim, Scenario, ServiceHandle, SimStats,
    StaticOracle, TimedProbe,
};
use vp_topology::TopologyConfig;

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

/// A site capture as the sink receives it.
type Captured = (SimTime, u64, usize, SiteId, Ipv4Packet);

/// Records every sink call: site captures, then host hand-offs.
#[derive(Default)]
struct Recorder(Vec<Captured>, Vec<(SimTime, u64, Ipv4Packet)>);

impl CaptureSink for Recorder {
    fn capture(&mut self, service: ServiceHandle, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet) {
        self.0.push((at, key, service.0, site, packet.clone()));
    }

    fn deliver(&mut self, at: SimTime, key: u64, packet: &Ipv4Packet) {
        self.1.push((at, key, packet.clone()));
    }
}

impl Recorder {
    /// Closes a run of eager `send_at`s on `sim`: what it handed over.
    fn run(sim: &mut NetworkSim) -> Recorder {
        let mut seen = Recorder::default();
        sim.run_with(std::iter::empty(), &mut seen);
        seen
    }
}

/// Everything one engine run can show an observer: site captures in
/// arrival order (`(at, key)` — the sink contract promises each capture
/// once, in transmission order), host hand-offs in the order the sink got
/// them, counters, the final clock, and the `Full`-level sidecar —
/// `engine.events`, the `engine.run` span, and the `engine.undeliverable`
/// events the ring kept (the last 256 in emission order, so their order
/// shows in which survive) with the count it evicted.
type Observed = (
    Vec<Captured>,
    Vec<(SimTime, u64, Ipv4Packet)>,
    SimStats,
    SimTime,
    (u64, Option<vp_obs::SpanAgg>, Vec<vp_obs::Event>, u64),
);

/// The engine pulls its source this many probes at a time
/// (`vp_sim::engine`'s private `STAGE`).
const STAGE: usize = 128;

/// Runs `probes` (sorted by send time) over a fresh engine, either all
/// injected up front (`send_at` × N — so responders serialize their own
/// replies — then the loop with an empty source) or pulled by the loop
/// itself. Both runs also carry the same pre-injected background traffic,
/// so `send_at` arrivals interleave with the source's — at a serving site
/// that answers, and on all three host paths: Echo Requests answered,
/// their Echo Replies handed to a host, and a non-echo message handed to
/// a host.
fn observe(s: &Scenario, faults: &FaultConfig, sim_seed: u64, probes: &[TimedProbe], lazy: bool) -> Observed {
    let ann = s.announcement.clone();
    let meas = ann.measurement_addr();
    let mut sim = NetworkSim::new(&s.world, faults.clone(), sim_seed);
    sim.attach_obs(vp_obs::TraceLevel::Full);
    sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), true);
    // Background: pings from ordinary hosts to the service (captured, then
    // answered by the site, the answer handed to the pinger).
    for (i, b) in s.world.responsive_blocks().take(20).enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(i as u64 * 7);
        sim.send_at(at, probe(b.representative(), meas, 77, i as u16));
    }
    // Pings between ordinary hosts, up or not (the request is answered as
    // it is sent; the reply is handed to the pinger), and an ICMP error
    // no responder consumes (handed to the application).
    let hosts: Vec<_> = s.world.blocks.iter().take(80).collect();
    for (i, pair) in hosts.chunks_exact(2).enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(i as u64 * 11);
        let (a, b) = (pair[0].representative(), pair[1].representative());
        sim.send_at(at, probe(a, b, 78, i as u16));
        let unreachable = IcmpMessage::DestUnreachable {
            code: 1,
            original: Bytes::from_static(b"original datagram"),
        };
        sim.send_at(at, Ipv4Packet::new(b, a, Protocol::Icmp, unreachable.emit()));
    }
    let mut seen = Recorder::default();
    if lazy {
        sim.run_with(probes.iter().cloned(), &mut seen);
    } else {
        for p in probes {
            sim.send_at(p.at, p.packet.clone());
        }
        sim.run_with(std::iter::empty(), &mut seen);
    }
    let Recorder(mut captures, deliveries) = seen;
    captures.sort_by_key(|&(at, key, ..)| (at, key));
    let (registry, trace) = sim.take_obs().expect("attached above").into_parts();
    let obs = (
        registry.counter_value("engine.events", &[]),
        trace.spans.get("engine.run").copied(),
        trace.events,
        trace.dropped_events,
    );
    (captures, deliveries, sim.stats(), sim.now(), obs)
}

/// `count` probes from the measurement address, time-sorted by `gaps`
/// (cycled): to block representatives, except where `stray` (below 6)
/// addresses one into the service prefix itself or to an address of the
/// block that is not its host — both undeliverable. Row hints are right,
/// off by one either way, or nowhere in the table.
fn probes_from_gaps(s: &Scenario, count: usize, gaps: &[(u8, u64, u64, u8, u8)]) -> Vec<TimedProbe> {
    let meas = s.announcement.measurement_addr();
    let mut at = SimTime::ZERO;
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
            let packet = probe(meas, dst, 5, i as u16);
            let reply_image = IcmpMessage::parse(&packet.payload)
                .unwrap()
                .reply()
                .unwrap()
                .emit();
            let row = row as u32;
            let row = [row, row.wrapping_sub(1), row + 1, u32::MAX][hint as usize];
            TimedProbe { at, packet, reply_image, row }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A source pulled by the run loop is transmitted exactly as eager
    /// injection transmits it: same captures, same host deliveries, same
    /// counters, same final clock — for random worlds,
    /// fault mixes and time-sorted probe sets, including bursts of probes
    /// sharing one send time and gaps longer than a round trip. The lazy
    /// run's probes carry a row hint that is right, off by one either way,
    /// or nowhere in the table; the eager run (`send_at`) has none, so the
    /// equality also shows a hint is verified, never trusted.
    #[test]
    fn lazy_source_dispatches_the_eager_event_sequence(
        world_seed in 0u64..3000,
        sim_seed in any::<u64>(),
        (loss, duplicate_prob, alias_prob) in (0.0f64..0.3, 0.0f64..0.5, 0.0f64..0.3),
        (late_prob, unsolicited_prob) in (0.0f64..0.2, 0.0f64..0.2),
        // Per probe: stay on the previous send time, step a pacing-sized
        // gap, or pause for longer than a round trip.
        gaps in prop::collection::vec((0u8..3, 1u64..2_000, 100_000u64..400_000, 0u8..4), 1..200),
    ) {
        let s = scenario(world_seed);
        let faults = FaultConfig {
            loss,
            duplicate_prob,
            max_duplicates: 6,
            alias_prob,
            late_prob,
            late_delay: SimDuration::from_secs(3),
            unsolicited_prob,
            ..FaultConfig::default()
        };
        let gaps: Vec<_> = gaps.iter().map(|&(kind, short, long, hint)| (kind, short, long, hint, u8::MAX)).collect();
        let probes = probes_from_gaps(&s, gaps.len(), &gaps);

        let eager = observe(&s, &faults, sim_seed, &probes, false);
        let lazy = observe(&s, &faults, sim_seed, &probes, true);
        prop_assert!(!eager.0.is_empty(), "nothing was captured");
        // Every unreachable message that survived loss, and the Echo
        // Reply of at least one host-to-host ping, reached an application.
        let delivered = |wanted: fn(&IcmpMessage) -> bool| {
            let parsed = eager.1.iter().filter_map(|(_, _, p)| IcmpMessage::parse(&p.payload).ok());
            parsed.filter(wanted).count()
        };
        prop_assert!(delivered(|m| matches!(m, IcmpMessage::DestUnreachable { .. })) > 0);
        prop_assert!(delivered(|m| matches!(m, IcmpMessage::EchoReply { ident: 78, .. })) > 0);
        prop_assert_eq!(eager, lazy);
    }

    /// Staging commutes: the engine prepares its source a stage at a time
    /// and still transmits what eager injection transmits — driven at
    /// the stage's edges (an empty source, one probe, one short of a
    /// stage, exactly one, one over, three and a bit), with every hint
    /// kind, and with probes into the service prefix and to addresses
    /// that are nobody's host mixed in, so `engine.undeliverable` events
    /// interleave with answered probes and outnumber the ring.
    #[test]
    fn staging_commutes_at_stage_boundaries(
        world_seed in 0u64..3000,
        sim_seed in any::<u64>(),
        count in 0usize..6,
        default_faults in any::<bool>(),
        gaps in prop::collection::vec(((0u8..3, 1u64..2_000, 100_000u64..400_000), (0u8..4, 0u8..8)), 20..50),
    ) {
        let gaps: Vec<_> = gaps.iter().map(|&((kind, short, long), (hint, stray))| (kind, short, long, hint, stray)).collect();
        let s = scenario(world_seed);
        let faults = if default_faults { FaultConfig::default() } else { FaultConfig::none() };
        let count = [0, 1, STAGE - 1, STAGE, STAGE + 1, 3 * STAGE + 7][count];
        let probes = probes_from_gaps(&s, count, &gaps);
        let eager = observe(&s, &faults, sim_seed, &probes, false);
        let lazy = observe(&s, &faults, sim_seed, &probes, true);
        prop_assert_eq!(eager.2.injected as usize, count + 20 + 2 * 40);
        if count > 2 * STAGE {
            // Three probes in four are strays: enough to overflow the ring,
            // so the order they were emitted in decides which it kept.
            prop_assert!(eager.2.undeliverable > 200, "{:?}", eager.2);
            prop_assert_eq!(eager.4.3, eager.2.undeliverable.saturating_sub(256));
        }
        prop_assert_eq!(eager, lazy);
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
        let mut sim = NetworkSim::new(&s.world, faults, sim_seed);
        sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        let n = s.world.blocks.len().min(300);
        for (i, b) in s.world.blocks.iter().take(n).enumerate() {
            sim.send_at(SimTime(i as u64 * 1_000_000), probe(meas, b.representative(), 1, i as u16));
        }
        let captured = Recorder::run(&mut sim).0.len() as u64;
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
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 1);
        sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        let mut expected = 0u64;
        for (i, b) in s.world.blocks.iter().enumerate() {
            sim.send_at(SimTime(i as u64 * 100_000), probe(meas, b.representative(), 2, i as u16));
            if b.responsive {
                expected += 1;
            }
        }
        let captured = Recorder::run(&mut sim).0.len() as u64;
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
        let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 3);
        sim.register_service(ann, Box::new(StaticOracle::new(s.routing())), false);
        for (i, b) in s.world.responsive_blocks().take(100).enumerate() {
            sim.send_at(start, probe(meas, b.representative(), 3, i as u16));
        }
        for (at, ..) in Recorder::run(&mut sim).0 {
            prop_assert!(at >= start, "capture at {} before send at {}", at, start);
        }
    }
}

#[test]
fn service_registration_order_is_stable() {
    let s = scenario(1);
    let ann_a = s.announcement.clone();
    let ann_b = {
        let placements = vp_topology::pick_host_ases(&s.world, &[("X", "DE"), ("Y", "JP")]);
        Announcement::from_placements(&placements, 3)
    };
    let mut sim = NetworkSim::new(&s.world, FaultConfig::none(), 4);
    let a = sim.register_service(ann_a, Box::new(StaticOracle::new(s.routing())), false);
    let table_b = s.routing_for(&ann_b);
    let b = sim.register_service(ann_b, Box::new(StaticOracle::new(table_b)), true);
    assert_ne!(a.0, b.0);
    let seen = Recorder::run(&mut sim);
    assert!(seen.0.is_empty() && seen.1.is_empty());
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
