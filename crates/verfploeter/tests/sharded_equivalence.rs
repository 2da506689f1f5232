//! The determinism-proving harness for the scan round: K-invariance.
//!
//! `run_scan` (K=1 inline up to 131 072 rows) and `run_scan_sharded_on`
//! are the same round function at any K. The contract under test: the round
//! at shard count K returns a `ScanResult` **bit-identical** to the K=1
//! round — same catchment map, same cleaning counters, same per-block
//! RTTs, same simulator stats — for every K and every fault
//! configuration, whether the shard engines run inline or on real OS
//! threads (`ShardExecutor::new(K)` forces one thread per shard, so the
//! matrix exercises genuine preemption and the shard-id-ordered merge
//! barrier of DESIGN.md §14). A scan result that depends on how the work
//! was partitioned or scheduled would make parallel rounds incomparable
//! to the one-engine datasets, so any divergence here is a release
//! blocker. (That the round is *right*, not merely self-consistent, is
//! anchored separately: `clean_channel_maps_every_responsive_block_correctly`
//! checks it against the routing table at K∈{1,7}.)
//!
//! Alongside the end-to-end invariance matrix, property tests check the
//! algebra the fold relies on: disjoint-map merging and counter merging
//! are associative and order-insensitive.

#![expect(
    clippy::disallowed_types,
    reason = "test clocks tick atomically behind the Sync bound of a wall channel"
)]

use proptest::prelude::*;
use verfploeter::scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanResult};
use verfploeter::CatchmentMap;
use verfploeter::CleaningStats;
use vp_bgp::SiteId;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::{Block24, SimDuration, SimTime};
use vp_sim::ShardExecutor;
use vp_sim::{FaultConfig, Scenario, StaticOracle};
use vp_topology::TopologyConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// The fault grid the equivalence matrix sweeps: a clean channel, the
/// defaults, and a deliberately hostile mix where every artifact class
/// fires often enough to exercise every keyed draw in the engine.
fn fault_grid() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("default", FaultConfig::default()),
        (
            "hostile",
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
            },
        ),
    ]
}

/// Field-by-field bit-equality between two scan results.
fn assert_identical(serial: &ScanResult, sharded: &ScanResult, label: &str) {
    assert_eq!(serial.cleaning, sharded.cleaning, "{label}: cleaning stats");
    assert!(sharded.cleaning.is_consistent(), "{label}: inconsistent stats");
    assert_eq!(serial.probes_sent, sharded.probes_sent, "{label}: probes");
    assert_eq!(serial.started, sharded.started, "{label}: start");
    assert_eq!(serial.last_probe, sharded.last_probe, "{label}: last probe");
    assert_eq!(serial.sim_stats, sharded.sim_stats, "{label}: sim stats");
    assert_eq!(
        serial.catchments.len(),
        sharded.catchments.len(),
        "{label}: map size"
    );
    for (block, site) in serial.catchments.iter() {
        assert_eq!(
            sharded.catchments.site_of(block),
            Some(site),
            "{label}: catchment of {block}"
        );
    }
    assert_eq!(serial.rtts.len(), sharded.rtts.len(), "{label}: rtt count");
    for (block, rtt) in serial.rtts.iter() {
        assert_eq!(
            sharded.rtts.get(block),
            Some(rtt),
            "{label}: rtt of {block}"
        );
    }
    // The merged per-shard metrics registries must fold to the exact bytes
    // of the serial registry (event logs are exempt: each engine's ring
    // evicts on its own).
    assert_eq!(
        serial.obs.registry.to_canonical_json(),
        sharded.obs.registry.to_canonical_json(),
        "{label}: obs registries"
    );
    assert_eq!(
        serial.obs.sim_end, sharded.obs.sim_end,
        "{label}: final sim clock"
    );
}

/// Runs the full K-invariance matrix over one scenario, against the K=1
/// round as `run_scan` runs it.
fn equivalence_matrix(scenario: &Scenario, hitlist: &Hitlist, seed: u64) {
    for (fault_name, faults) in fault_grid() {
        let serial = run_scan(
            &scenario.world,
            hitlist,
            &scenario.announcement,
            Box::new(StaticOracle::new(scenario.routing())),
            faults.clone(),
            SimTime::ZERO,
            &ScanConfig::default(),
            seed,
        );
        // Sanity: the hostile config must actually produce dirty data,
        // otherwise the matrix is vacuous.
        if fault_name == "hostile" {
            assert!(serial.cleaning.duplicates > 0, "hostile grid too tame");
            assert!(serial.cleaning.unprobed_source > 0, "no aliases injected");
        }
        for shards in SHARD_COUNTS {
            // Inline executor isolates the sharding algebra; the forced
            // K-thread executor adds real OS-thread scheduling on top.
            // Both must reproduce the K=1 bytes.
            for (mode, exec) in [
                ("inline", ShardExecutor::serial()),
                ("threads", ShardExecutor::new(shards)),
            ] {
                let sharded = run_scan_sharded_on(
                    &exec,
                    &scenario.world,
                    hitlist,
                    &scenario.announcement,
                    &|| Box::new(StaticOracle::new(scenario.routing())),
                    faults.clone(),
                    SimTime::ZERO,
                    &ScanConfig::default(),
                    seed,
                    shards,
                );
                assert_identical(
                    &serial,
                    &sharded,
                    &format!("{fault_name}/K={shards}/{mode}"),
                );
            }
        }
    }
}

/// round(K) == round(1) for K ∈ {1,2,7,16} on the two-site B-Root world,
/// across the whole fault grid.
#[test]
fn broot_sharded_equals_serial_across_faults() {
    let s = Scenario::broot(TopologyConfig::tiny(81), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    equivalence_matrix(&s, &hl, 0xe901);
}

/// The same matrix on the nine-site Tangled world — more sites means the
/// per-site capture split and central merge are exercised harder.
#[test]
fn tangled_sharded_equals_serial_across_faults() {
    let s = Scenario::tangled(TopologyConfig::tiny(82), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    equivalence_matrix(&s, &hl, 0xe902);
}

/// A shard count larger than the hitlist degenerates to empty shards and
/// must still reproduce the K=1 result — down to a hitlist of no entries
/// at all, which scans cleanly to an empty map with a zero response rate.
#[test]
fn more_shards_than_targets_still_identical() {
    let s = Scenario::broot(TopologyConfig::tiny(83), 7);
    let full = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let truncated = |n: usize| {
        let json = serde_json::to_string(&full.entries().take(n).collect::<Vec<_>>()).expect("entries serialize");
        Hitlist::from_json(&json).expect("entries parse back")
    };
    for (hl, shard_counts) in [
        (truncated(0), vec![1, 2, 8]),
        (truncated(1), vec![2, 8]),
        (truncated(3), vec![2, 8]),
        (full.clone(), vec![full.len() + 13]),
    ] {
        let one = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            3,
        );
        assert_eq!(one.probes_sent, hl.len() as u64);
        if hl.is_empty() {
            assert!(one.catchments.is_empty());
            assert_eq!(one.last_probe, one.started);
        }
        for shards in shard_counts {
            // Eight OS threads over mostly-empty shards: the barrier must
            // still drain every shard channel in id order and land on the
            // K=1 bytes.
            let sharded = run_scan_sharded_on(
                &ShardExecutor::new(8),
                &s.world,
                &hl,
                &s.announcement,
                &|| Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig::default(),
                3,
                shards,
            );
            assert_identical(&one, &sharded, &format!("N={}/K={shards}", hl.len()));
        }
    }
}

/// Deterministic stand-in for a wall clock: strictly increasing ticks
/// from a shared atomic, safe to read from every shard thread.
struct CountingClock(std::sync::atomic::AtomicU64);

impl vp_obs::Clock for CountingClock {
    fn now_nanos(&self) -> u64 {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// Attaching a wall-time flight channel is observation, not
/// perturbation: every §7-governed artifact — registry bytes, catchments,
/// the round's sim-time instants — must stay bit-identical to the plain
/// K=1 round, while the wall timeline itself is explicitly outside the
/// contract (and is the one artifact whose shape depends on K: a K=1
/// round runs on the orchestrator lane and has no executor intervals).
#[test]
fn wall_channel_is_outside_the_contract() {
    let s = Scenario::broot(TopologyConfig::tiny(84), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let plain = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(s.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        0xe903,
    );
    assert!(
        plain.obs.wall_flight.is_empty(),
        "no wall channel attached, so no wall timeline"
    );

    let wall_config = ScanConfig {
        wall: Some(vp_obs::WallChannel::new(std::sync::Arc::new(
            CountingClock(std::sync::atomic::AtomicU64::new(0)),
        ))),
        ..ScanConfig::default()
    };
    let serial_wall = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(s.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &wall_config,
        0xe903,
    );
    assert_identical(&plain, &serial_wall, "serial+wall");
    assert!(
        !serial_wall.obs.wall_flight.is_empty(),
        "attached channel must record the K=1 phase intervals"
    );

    for shards in SHARD_COUNTS {
        let sharded = run_scan_sharded_on(
            &ShardExecutor::new(shards),
            &s.world,
            &hl,
            &s.announcement,
            &|| Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &wall_config,
            0xe903,
            shards,
        );
        assert_identical(&plain, &sharded, &format!("wall/K={shards}"));
        let compute_shards: std::collections::BTreeSet<u32> = sharded
            .obs
            .wall_flight
            .spans
            .iter()
            .filter(|sp| sp.name == "shard.compute")
            .filter_map(|sp| sp.shard)
            .collect();
        assert_eq!(
            compute_shards.len(),
            if shards == 1 { 0 } else { shards },
            "K={shards}: every shard lane must report a compute interval"
        );
    }
}

/// Within one engine run the schedule refills and the dispatch
/// stretches interleave, one refill per probe batch. The wall channel
/// records them as disjoint, non-nesting intervals under the phase names,
/// so per-name sums still tile `scan.round`: on a 10^5-block round — K=1
/// and K=8 on OS threads — nothing is dropped from the ring, no two phase
/// spans of one lane overlap, and all of them sit inside the round.
#[test]
fn wall_phase_spans_are_disjoint_on_a_large_round() {
    const TARGETS: usize = 100_000;
    let s = Scenario::broot(
        TopologyConfig {
            seed: 33,
            num_ases: TARGETS / 25,
            max_blocks: TARGETS,
            ..TopologyConfig::default()
        },
        7,
    );
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    assert_eq!(hl.len(), TARGETS);
    let table = std::sync::Arc::new(s.routing());
    let wall_config = ScanConfig {
        wall: Some(vp_obs::WallChannel::new(std::sync::Arc::new(
            CountingClock(std::sync::atomic::AtomicU64::new(0)),
        ))),
        ..ScanConfig::default()
    };
    let serial = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::shared(table.clone())),
        FaultConfig::default(),
        SimTime::ZERO,
        &wall_config,
        0xbe9c,
    );
    let sharded = run_scan_sharded_on(
        &ShardExecutor::new(8),
        &s.world,
        &hl,
        &s.announcement,
        &|| Box::new(StaticOracle::shared(table.clone())),
        FaultConfig::default(),
        SimTime::ZERO,
        &wall_config,
        0xbe9c,
        8,
    );

    const PHASES: [&str; 3] = ["scan.schedule_walk", "scan.sim_dispatch", "scan.catchment_build"];
    for (label, result, lanes) in [("K=1", &serial, 1), ("K=8", &sharded, 8)] {
        let flight = &result.obs.wall_flight;
        assert_eq!(flight.dropped, 0, "{label}: the wall ring overflowed");
        let round = flight
            .spans
            .iter()
            .find(|sp| sp.name == "scan.round")
            .unwrap_or_else(|| panic!("{label}: no scan.round span"));
        // Canonical order is (shard, start, wider first): within a lane,
        // disjoint spans appear in time order.
        let mut lanes_seen = std::collections::BTreeSet::new();
        let mut last: Option<&vp_obs::FlightSpan> = None;
        let mut covered = 0u64;
        for sp in flight.spans.iter().filter(|sp| PHASES.contains(&&*sp.name)) {
            assert!(
                round.start_ns <= sp.start_ns && sp.end_ns <= round.end_ns,
                "{label}: {sp:?} leaves the round {round:?}"
            );
            if let Some(prev) = last.filter(|prev| prev.shard == sp.shard) {
                assert!(prev.end_ns <= sp.start_ns, "{label}: {prev:?} overlaps {sp:?}");
            }
            lanes_seen.insert(sp.shard);
            if sp.shard.is_none() {
                covered += sp.duration_ns();
            }
            last = Some(sp);
        }
        assert_eq!(lanes_seen.len(), lanes, "{label}: lanes with phase spans");
        assert!(covered <= round.duration_ns(), "{label}: orchestrator phases exceed the round");
    }

    // One walk interval per refill, exactly: a batch per 1024 probes plus
    // the refill that finds the schedule exhausted.
    let refills = TARGETS.div_ceil(verfploeter::PROBE_BATCH) + 1;
    let count = |name: &str| serial.obs.wall_flight.spans.iter().filter(|sp| sp.name == name).count();
    assert_eq!(count("scan.schedule_walk"), refills);
    assert_eq!(count("scan.sim_dispatch"), refills);
    assert_eq!(count("shard.compute"), 0, "a K=1 round has no executor lanes");
    assert_identical(&serial, &sharded, "wall/10^5/K=8");
}

// ---------------------------------------------------------------------
// Merge algebra: the properties the shard merge relies on.
// ---------------------------------------------------------------------

/// Builds `parts` disjoint catchment maps out of one generated entry set.
fn disjoint_maps(entries: &[(u32, u8)], parts: usize) -> Vec<CatchmentMap> {
    // Dedup blocks so the disjointness precondition holds.
    let mut uniq: std::collections::BTreeMap<u32, u8> = std::collections::BTreeMap::new();
    for &(b, s) in entries {
        uniq.insert(b, s);
    }
    let uniq: Vec<(u32, u8)> = uniq.into_iter().collect();
    let chunk = uniq.len().div_ceil(parts).max(1);
    (0..parts)
        .map(|k| {
            let slice = uniq.iter().skip(k * chunk).take(chunk);
            CatchmentMap::from_pairs(
                "m",
                slice.map(|&(b, s)| (Block24(b), SiteId(s))),
            )
        })
        .collect()
}

fn maps_equal(a: &CatchmentMap, b: &CatchmentMap) -> bool {
    a.len() == b.len() && a.iter().all(|(blk, site)| b.site_of(blk) == Some(site))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging disjoint catchment maps is associative:
    /// (a ∪ b) ∪ c == a ∪ (b ∪ c).
    // merge-tested(CatchmentMap::merge)
    #[test]
    fn catchment_merge_is_associative(
        entries in prop::collection::vec((any::<u32>(), 0u8..9), 0..64),
    ) {
        let parts = disjoint_maps(&entries, 3);
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);

        let mut left = a.clone();
        left.merge(b);
        left.merge(c);

        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert!(maps_equal(&left, &right));
    }

    /// Merging disjoint catchment maps is order-insensitive: any
    /// permutation of the shard order yields the same map.
    #[test]
    fn catchment_merge_is_order_insensitive(
        entries in prop::collection::vec((any::<u32>(), 0u8..9), 0..64),
        rot in 0usize..4,
    ) {
        let parts = disjoint_maps(&entries, 4);

        let mut forward = CatchmentMap::from_pairs("m", std::iter::empty());
        for p in &parts {
            forward.merge(p);
        }

        let mut rotated = CatchmentMap::from_pairs("m", std::iter::empty());
        for i in 0..parts.len() {
            rotated.merge(&parts[(i + rot) % parts.len()]);
        }

        let mut reversed = CatchmentMap::from_pairs("m", std::iter::empty());
        for p in parts.iter().rev() {
            reversed.merge(p);
        }

        prop_assert!(maps_equal(&forward, &rotated));
        prop_assert!(maps_equal(&forward, &reversed));
    }

    /// Cleaning-counter merging is associative and commutative, and
    /// preserves the per-pass consistency invariant.
    // merge-tested(CleaningStats::merge)
    #[test]
    fn cleaning_merge_is_associative_and_commutative(
        counts in prop::collection::vec(((0u64..500, 0u64..500), (0u64..500, 0u64..500), 0u64..500), 1..6),
    ) {
        let stats: Vec<CleaningStats> = counts
            .iter()
            .map(|&((d, f), (u, l), k)| CleaningStats {
                total: d + f + u + l + k,
                duplicates: d,
                foreign: f,
                unprobed_source: u,
                late: l,
                kept: k,
            })
            .collect();

        // Forward fold.
        let mut forward = CleaningStats::default();
        for s in &stats {
            forward.merge(s);
        }
        // Reverse fold.
        let mut reverse = CleaningStats::default();
        for s in stats.iter().rev() {
            reverse.merge(s);
        }
        prop_assert_eq!(forward, reverse);
        prop_assert!(forward.is_consistent());

        // Associativity on the first three (pad with defaults).
        let a = *stats.first().unwrap_or(&CleaningStats::default());
        let b = *stats.get(1).unwrap_or(&CleaningStats::default());
        let c = *stats.get(2).unwrap_or(&CleaningStats::default());
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }
}
