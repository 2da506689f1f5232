//! Integration: the open-data path. The paper releases all its datasets;
//! this repository's equivalents (catchment maps, hitlists) must survive a
//! round trip through their JSON release format and still drive the
//! analyses.

use verfploeter_suite::dns::{LoadModel, QueryLog};
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::catchment::CatchmentMap;
use verfploeter_suite::vp::load::load_fraction_to;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};

#[test]
fn released_dataset_reproduces_the_analysis() {
    let s = Scenario::broot(TopologyConfig::tiny(8001), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let scan = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(s.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig {
            name: "SBV-RELEASE".into(),
            ..ScanConfig::default()
        },
        1,
    );

    // "Release" the dataset to disk and reload it.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-data-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let catchment_path = dir.join("SBV-RELEASE.json");
    let hitlist_path = dir.join("hitlist.json");
    std::fs::write(&catchment_path, scan.catchments.to_json()).unwrap();
    std::fs::write(&hitlist_path, hl.to_json()).unwrap();

    let reloaded =
        CatchmentMap::from_json(&std::fs::read_to_string(&catchment_path).unwrap()).unwrap();
    let reloaded_hl =
        Hitlist::from_json(&std::fs::read_to_string(&hitlist_path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The reloaded dataset is identical in content...
    assert_eq!(reloaded.name, "SBV-RELEASE");
    assert_eq!(reloaded.len(), scan.catchments.len());
    assert_eq!(reloaded_hl, hl);
    for (block, site) in scan.catchments.iter() {
        assert_eq!(reloaded.site_of(block), Some(site));
    }

    // ...and drives the load analysis to the same numbers.
    let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
    for site in &s.announcement.sites {
        let orig = load_fraction_to(&scan.catchments, &log, site.id);
        let redo = load_fraction_to(&reloaded, &log, site.id);
        assert!((orig - redo).abs() < 1e-12, "site {}: {orig} vs {redo}", site.name);
    }
}

#[test]
fn dataset_diff_detects_cross_release_changes() {
    // Two scans of different announcement variants, released and reloaded,
    // then compared — the workflow behind the paper's April-vs-May rows.
    let s = Scenario::broot(TopologyConfig::tiny(8002), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let scan = |ann: &verfploeter_suite::bgp::Announcement, ident: u16| {
        run_scan(
            &s.world,
            &hl,
            ann,
            Box::new(StaticOracle::new(s.routing_for(ann))),
            FaultConfig::none(),
            SimTime::ZERO,
            &ScanConfig {
                name: format!("v{ident}"),
                probe: verfploeter_suite::vp::ProbeConfig {
                    ident,
                    ..Default::default()
                },
                ..ScanConfig::default()
            },
            ident as u64,
        )
    };
    let a = scan(&s.announcement, 1);
    let mut variant = s.announcement.clone();
    variant.set_prepend("LAX", 2);
    let b = scan(&variant, 2);

    let a2 = CatchmentMap::from_json(&a.catchments.to_json()).unwrap();
    let b2 = CatchmentMap::from_json(&b.catchments.to_json()).unwrap();
    let (flipped, _, _) = a2.diff(&b2);
    let (orig_flipped, _, _) = a.catchments.diff(&b.catchments);
    assert_eq!(flipped, orig_flipped);
    assert!(flipped > 0, "prepending should move some blocks");
}
