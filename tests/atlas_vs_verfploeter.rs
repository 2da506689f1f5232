//! Integration: the two measurement systems against the same deployment.
//!
//! The paper's comparison rests on both methods observing the same
//! underlying catchments — Atlas sparsely from physical VPs, Verfploeter
//! densely from passive VPs. Where both observe a block, they must agree.

use std::collections::BTreeSet;

use verfploeter_suite::atlas::{run_scan as atlas_scan, AtlasConfig, AtlasPanel};
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::{coverage, AtlasCoverage};

fn setup() -> (Scenario, Hitlist, AtlasPanel) {
    let s = Scenario::broot(TopologyConfig::tiny(7002), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let panel = AtlasPanel::place(&s.world, &AtlasConfig::tiny(2));
    (s, hl, panel)
}

#[test]
fn methods_agree_where_both_observe() {
    let (s, hl, panel) = setup();
    let table = s.routing();
    let vp = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::none(),
        SimTime::ZERO,
        &ScanConfig::default(),
        31,
    );
    let atlas = atlas_scan(
        &s.world,
        &panel,
        &s.announcement,
        Box::new(StaticOracle::new(table)),
        FaultConfig::none(),
        "STA-T",
        32,
    );
    let mut compared = 0;
    for (block, atlas_site) in atlas.block_catchments() {
        if let Some(vp_site) = vp.catchments.site_of(block) {
            assert_eq!(vp_site, atlas_site, "methods disagree on {block}");
            compared += 1;
        }
    }
    assert!(compared > 10, "too few shared blocks to compare: {compared}");
}

#[test]
fn verfploeter_coverage_dominates() {
    let (s, hl, panel) = setup();
    let table = s.routing();
    let vp = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        33,
    );
    let atlas = atlas_scan(
        &s.world,
        &panel,
        &s.announcement,
        Box::new(StaticOracle::new(table)),
        FaultConfig::default(),
        "STA-T",
        34,
    );
    let responding_blocks: BTreeSet<_> = atlas
        .outcomes
        .iter()
        .filter(|o| o.site.is_some())
        .map(|o| o.block)
        .collect();
    let report = coverage(
        &vp.catchments,
        &hl,
        &s.world.geodb,
        &AtlasCoverage {
            vps_considered: atlas.vps_considered() as u64,
            vps_responding: atlas.vps_responding() as u64,
            blocks_considered: atlas.blocks_considered() as u64,
            responding_blocks,
        },
    );
    assert!(
        report.coverage_ratio() > 2.0,
        "coverage ratio only {:.1}",
        report.coverage_ratio()
    );
    assert!(report.vp_blocks_responding > report.atlas_blocks_responding);
    // Accounting identities.
    assert_eq!(
        report.shared_blocks + report.atlas_unique_blocks,
        report.atlas_blocks_responding
    );
    assert_eq!(
        report.shared_blocks + report.vp_unique_blocks,
        report.vp_blocks_responding
    );
}

#[test]
fn atlas_sees_fewer_sites_than_verfploeter_on_many_site_deployments() {
    // On the nine-site testbed a sparse panel often misses small sites
    // entirely — the §5.2 argument for dense coverage. At minimum it must
    // never see MORE sites than Verfploeter.
    let s = Scenario::tangled(TopologyConfig::tiny(7003), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let panel = AtlasPanel::place(&s.world, &AtlasConfig::tiny(3));
    let table = s.routing();
    let vp = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::none(),
        SimTime::ZERO,
        &ScanConfig::default(),
        35,
    );
    let atlas = atlas_scan(
        &s.world,
        &panel,
        &s.announcement,
        Box::new(StaticOracle::new(table)),
        FaultConfig::none(),
        "STA-T9",
        36,
    );
    let vp_sites = vp.catchments.site_counts().len();
    let atlas_sites = atlas.site_counts().len();
    assert!(
        atlas_sites <= vp_sites,
        "Atlas sees {atlas_sites} sites, Verfploeter {vp_sites}"
    );
    assert!(vp_sites >= 5, "Verfploeter sees only {vp_sites} of 9 sites");
}
