//! Where should the next anycast site go? (§7's future-work suggestion.)
//!
//! Runs a Verfploeter measurement, extracts per-block RTTs from the same
//! replies that map the catchments, ranks countries by badly served query
//! volume, then verifies the suggestion by *deploying* a trial site in the
//! winning country and re-measuring.
//!
//! Run with: `cargo run --release --example site_placement`

use verfploeter_suite::bgp::Announcement;
use verfploeter_suite::dns::{LoadModel, QueryLog};
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{SimDuration, SimTime};
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::{pick_host_ases, TopologyConfig};
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::ProbeConfig;
use verfploeter_suite::vp::{rtt_percentiles, suggest_sites};

fn main() {
    let config = TopologyConfig {
        seed: 4242,
        num_ases: 1000,
        max_blocks: 30_000,
        ..TopologyConfig::default()
    };
    let scenario = Scenario::broot(config, 7);
    let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
    let load = QueryLog::ditl(&scenario.world, LoadModel::default(), "history");

    // Measure the current two-site deployment.
    let scan = run_scan(
        &scenario.world,
        &hitlist,
        &scenario.announcement,
        Box::new(StaticOracle::new(scenario.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        1,
    );
    let (p50, p90, max) = rtt_percentiles(&scan.rtts).expect("non-empty scan");
    println!(
        "current deployment (LAX+MIA): RTT p50 {p50}, p90 {p90}, max {max} over {} blocks",
        scan.rtts.len()
    );

    // Rank candidate countries by badly served traffic.
    let threshold = SimDuration::from_millis(120);
    let suggestions = suggest_sites(&scan.rtts, &scenario.world.geodb, Some(&load), threshold, 5);
    println!("\ncandidate locations for a third site (RTT > {threshold}):");
    for s in &suggestions {
        println!(
            "  {:<14} {:>7} slow blocks, median RTT {}, {:.1}M affected queries/day",
            s.country.get().name,
            s.high_rtt_blocks,
            s.median_rtt,
            s.affected_queries / 1e6,
        );
    }
    let Some(winner) = suggestions.first() else {
        println!("\nno badly served region found — two sites suffice");
        return;
    };

    // Deploy a trial site in the winning country and re-measure.
    let code = winner.country.get().code;
    println!("\ndeploying a trial site in {} and re-measuring...", winner.country.get().name);
    let mut specs = vec![("LAX", "US"), ("MIA", "US")];
    specs.push(("NEW", code));
    let placements = pick_host_ases(&scenario.world, &specs);
    let trial = Announcement::from_placements(&placements, 2);
    let rescan = run_scan(
        &scenario.world,
        &hitlist,
        &trial,
        Box::new(StaticOracle::new(scenario.routing_for(&trial))),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig {
            name: "trial".into(),
            probe: ProbeConfig {
                ident: 2,
                ..ProbeConfig::default()
            },
            ..ScanConfig::default()
        },
        2,
    );
    let (q50, q90, qmax) = rtt_percentiles(&rescan.rtts).expect("non-empty rescan");
    println!(
        "with the new site: RTT p50 {q50}, p90 {q90}, max {qmax}"
    );
    let new_site = trial.site_by_name("NEW").unwrap().id;
    println!(
        "the new site captures {:.1}% of mapped blocks",
        rescan.catchments.fraction_to(new_site) * 100.0
    );
    let before = scan
        .rtts
        .values()
        .filter(|r| *r >= threshold)
        .count();
    let after = rescan
        .rtts
        .values()
        .filter(|r| *r >= threshold)
        .count();
    println!(
        "badly served blocks: {before} -> {after} ({})",
        if after < before { "improved" } else { "no improvement" }
    );
}
