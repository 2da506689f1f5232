//! Integration: load-aware prediction (§3.2, §5.4, §5.5) end to end —
//! measured catchments, weighted by query logs, validated against a
//! ground-truth replay.

use verfploeter_suite::dns::{LoadModel, QueryLog};
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig, ScanResult};
use verfploeter_suite::vp::{actual_load_fraction, hourly_prediction};
use verfploeter_suite::vp::{load_fraction_to, load_split, mappability};

fn setup() -> (Scenario, ScanResult) {
    let s = Scenario::broot(
        TopologyConfig {
            seed: 7004,
            num_ases: 400,
            max_blocks: 10_000,
            ..TopologyConfig::default()
        },
        7,
    );
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let table = s.routing();
    let scan = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(table)),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        41,
    );
    (s, scan)
}

#[test]
fn same_day_prediction_is_close_to_replay() {
    let (s, scan) = setup();
    let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
    let table = s.routing();
    for site in &s.announcement.sites {
        let predicted = load_fraction_to(&scan.catchments, &log, site.id);
        let actual = actual_load_fraction(&table, &log, site.id);
        let err = (predicted - actual).abs() * 100.0;
        assert!(
            err < 8.0,
            "site {}: predicted {predicted:.3} vs actual {actual:.3} ({err:.1} pp)",
            site.name
        );
    }
}

#[test]
fn mappability_and_split_are_consistent() {
    let (s, scan) = setup();
    let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
    let m = mappability(&scan.catchments, &log);
    assert!(m.blocks_mapped <= m.blocks_seen);
    assert!(m.queries_mapped <= m.queries_seen);
    // ~response-rate share of traffic blocks should be mapped.
    assert!(m.blocks_mapped_frac() > 0.3 && m.blocks_mapped_frac() < 0.9);
    let split = load_split(&scan.catchments, &log);
    let total: f64 = split.values().sum();
    assert!((total - m.queries_seen).abs() / m.queries_seen < 1e-9);
    let unknown = split.get(&None).copied().unwrap_or(0.0);
    assert!((unknown - (m.queries_seen - m.queries_mapped)).abs() < 1e-6);
}

#[test]
fn hourly_series_is_diurnal_and_consistent() {
    let (s, scan) = setup();
    let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
    let hours = hourly_prediction(&scan.catchments, &log);
    assert_eq!(hours.len(), 24);
    let totals: Vec<f64> = hours.iter().map(|h| h.values().sum::<f64>()).collect();
    let max = totals.iter().cloned().fold(f64::MIN, f64::max);
    let min = totals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min > 1.1, "no diurnal swing: {min:.0}..{max:.0} q/s");
    // Integrated hourly rates ≈ daily totals.
    let daily_from_hours: f64 = totals.iter().map(|t| t * 3600.0).sum();
    let rel = (daily_from_hours - log.total_daily()).abs() / log.total_daily();
    assert!(rel < 0.05, "hourly integral off by {rel:.3}");
}

#[test]
fn regional_service_is_load_sensitive() {
    // For a .nl-style service the block-weighted and load-weighted splits
    // must differ much more than for the global service (§5.4's point that
    // calibration is critical for regional services).
    let (s, scan) = setup();
    let global = QueryLog::ditl(&s.world, LoadModel::default(), "G");
    let regional = QueryLog::regional(&s.world, LoadModel::default(), "R", "NL");
    let site = s.announcement.sites[0].id;
    let by_blocks = scan.catchments.fraction_to(site);
    let global_gap = (load_fraction_to(&scan.catchments, &global, site) - by_blocks).abs();
    let regional_gap = (load_fraction_to(&scan.catchments, &regional, site) - by_blocks).abs();
    assert!(
        regional_gap > global_gap,
        "regional gap {regional_gap:.3} should exceed global gap {global_gap:.3}"
    );
}
