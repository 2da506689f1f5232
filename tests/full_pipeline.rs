//! End-to-end integration: the full Verfploeter pipeline against a world,
//! checked against routing ground truth the pipeline never sees.

use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{SimDuration, SimTime};
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::ProbeConfig;

fn scenario() -> Scenario {
    Scenario::broot(TopologyConfig::tiny(7001), 7)
}

#[test]
fn catchments_equal_ground_truth_under_faults() {
    let s = scenario();
    let hitlist = Hitlist::from_internet(
        &s.world,
        &HitlistConfig {
            wrong_addr_prob: 0.0,
            ..HitlistConfig::default()
        },
    );
    let table = s.routing();
    let result = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig {
            // Duplicates and unsolicited traffic are noise the cleaning
            // removes without losing blocks; aliased/late replies WOULD
            // cost coverage (they are dropped per §4), so they stay off
            // for this exact-coverage check.
            duplicate_prob: 0.1,
            max_duplicates: 50,
            unsolicited_prob: 0.02,
            ..FaultConfig::none()
        },
        SimTime::ZERO,
        &ScanConfig::default(),
        11,
    );
    // Every responsive block mapped, every mapping correct, despite the
    // duplicate/unsolicited noise.
    let responsive = s.world.responsive_blocks().count();
    assert_eq!(result.catchments.len(), responsive);
    for (block, site) in result.catchments.iter() {
        let info = s.world.block(block).unwrap();
        assert_eq!(table.site_of_pop(info.pop), Some(site));
    }
    assert!(result.cleaning.is_consistent());
}

#[test]
fn per_site_block_counts_match_world_side_truth() {
    let s = scenario();
    let hitlist = Hitlist::from_internet(
        &s.world,
        &HitlistConfig {
            wrong_addr_prob: 0.0,
            ..HitlistConfig::default()
        },
    );
    let table = s.routing();
    let result = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::none(),
        SimTime::ZERO,
        &ScanConfig::default(),
        12,
    );
    // Independent world-side truth: count responsive blocks per site.
    let mut truth = std::collections::BTreeMap::new();
    for b in s.world.responsive_blocks() {
        let site = table.site_of_pop(b.pop).unwrap();
        *truth.entry(site).or_insert(0usize) += 1;
    }
    assert_eq!(result.catchments.site_counts(), truth);
}

#[test]
fn measurement_rounds_are_separated_by_ident() {
    // Two overlapping measurement rounds with different ICMP identifiers:
    // each round's cleaning must keep only its own replies.
    let s = scenario();
    let hitlist = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let table = s.routing();
    let cfg_a = ScanConfig {
        name: "round-A".into(),
        probe: ProbeConfig {
            ident: 10,
            ..ProbeConfig::default()
        },
        ..ScanConfig::default()
    };
    let cfg_b = ScanConfig {
        name: "round-B".into(),
        probe: ProbeConfig {
            ident: 11,
            ..ProbeConfig::default()
        },
        ..ScanConfig::default()
    };
    let a = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::none(),
        SimTime::ZERO,
        &cfg_a,
        13,
    );
    let b = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(table)),
        FaultConfig::none(),
        SimTime::ZERO + SimDuration::from_mins(15),
        &cfg_b,
        14,
    );
    assert_eq!(a.cleaning.foreign, 0);
    assert_eq!(b.cleaning.foreign, 0);
    assert_eq!(a.catchments.len(), b.catchments.len());
}

#[test]
fn churn_makes_rounds_differ_in_coverage_not_correctness() {
    let s = scenario();
    let hitlist = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let table = s.routing();
    let faults = FaultConfig {
        churn_down_prob: 0.2,
        ..FaultConfig::none()
    };
    let run_at = |mins: u64, ident: u16, seed: u64| {
        run_scan(
            &s.world,
            &hitlist,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            faults.clone(),
            SimTime::ZERO + SimDuration::from_mins(mins),
            &ScanConfig {
                name: format!("churn-{ident}"),
                probe: ProbeConfig {
                    ident,
                    ..ProbeConfig::default()
                },
                ..ScanConfig::default()
            },
            seed,
        )
    };
    let r0 = run_at(0, 20, 15);
    let r1 = run_at(15, 21, 16);
    // Coverage differs between rounds (some blocks down per round)...
    let (_, appeared, disappeared) = r0.catchments.diff(&r1.catchments);
    assert!(appeared > 0, "no from-NR churn");
    assert!(disappeared > 0, "no to-NR churn");
    // ...but every observation in both rounds is still correct.
    for result in [&r0, &r1] {
        for (block, site) in result.catchments.iter() {
            let info = s.world.block(block).unwrap();
            assert_eq!(table.site_of_pop(info.pop), Some(site));
        }
    }
}
