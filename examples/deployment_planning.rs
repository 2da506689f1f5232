//! Pre-deployment planning with load-weighted catchments — the B-Root
//! story (§5.5 of the paper).
//!
//! An operator about to turn on a second anycast site wants to know how
//! much traffic each site will absorb *before* going live. The paper's
//! recipe: announce a test prefix in the planned configuration, map its
//! catchments with Verfploeter, and weight every mapped /24 by its query
//! volume from recent (unicast-era) logs. This example runs that recipe
//! and then "deploys", comparing the prediction against the load actually
//! measured at the sites.
//!
//! Run with: `cargo run --release --example deployment_planning`

use verfploeter_suite::dns::{LoadModel, QueryLog};
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::load::{load_fraction_to, mappability};
use verfploeter_suite::vp::predict::actual_load_fraction;
use verfploeter_suite::vp::report::pct;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};

fn main() {
    let config = TopologyConfig {
        seed: 1337,
        num_ases: 1000,
        max_blocks: 30_000,
        ..TopologyConfig::default()
    };
    let scenario = Scenario::broot(config, 7);
    let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
    let lax = scenario.announcement.site_by_name("LAX").unwrap().id;
    let mia = scenario.announcement.site_by_name("MIA").unwrap().id;

    // Historical load from the unicast era (the DITL day).
    let history = QueryLog::ditl(&scenario.world, LoadModel::default(), "history");
    println!(
        "historical logs: {:.1}M queries/day from {} blocks",
        history.total_daily() / 1e6,
        history.per_block().filter(|&(_, q)| q > 0.0).count(),
    );

    // Step 1: measure the planned deployment on a test prefix.
    let routing = scenario.routing();
    let scan = run_scan(
        &scenario.world,
        &hitlist,
        &scenario.announcement,
        Box::new(StaticOracle::new(routing.clone())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        3,
    );
    println!(
        "\ntest-prefix scan: {} blocks mapped",
        scan.catchments.len()
    );

    // Step 2: how much of the service's traffic does the map cover?
    let m = mappability(&scan.catchments, &history);
    println!(
        "traffic coverage: {} of traffic-sending blocks mapped, {} of queries",
        pct(m.blocks_mapped_frac()),
        pct(m.queries_mapped_frac()),
    );

    // Step 3: block-weighted vs load-weighted prediction.
    let by_blocks = scan.catchments.fraction_to(lax);
    let by_load = load_fraction_to(&scan.catchments, &history, lax);
    println!("\nprediction for LAX:");
    println!("  by block count (uncalibrated): {}", pct(by_blocks));
    println!("  by load weighting (calibrated): {}", pct(by_load));

    // Step 4: deploy and compare against what the sites actually measure.
    let actual = actual_load_fraction(&routing, &history, lax);
    println!("  actually measured after deploy: {}", pct(actual));
    println!(
        "\nprediction error: load-weighted {:.1} pp vs block-weighted {:.1} pp",
        (by_load - actual).abs() * 100.0,
        (by_blocks - actual).abs() * 100.0,
    );
    println!(
        "MIA absorbs the remainder: predicted {}, measured {}",
        pct(load_fraction_to(&scan.catchments, &history, mia)),
        pct(actual_load_fraction(&routing, &history, mia)),
    );
}
