//! Quickstart: map the catchments of a two-site anycast service.
//!
//! Builds a small synthetic Internet, deploys a B-Root-like two-site
//! anycast service on it, runs one full Verfploeter measurement (probe →
//! per-site capture → central forwarding → cleaning → catchment map), and
//! prints what the operator learns.
//!
//! Run with: `cargo run --release --example quickstart`

use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::{count, pct};

fn main() {
    // 1. A world to measure: ~1000 ASes, tens of thousands of /24 blocks,
    //    and a two-site anycast deployment (LAX + MIA).
    let config = TopologyConfig {
        seed: 42,
        num_ases: 1000,
        max_blocks: 30_000,
        ..TopologyConfig::default()
    };
    let scenario = Scenario::broot(config, /* policy seed */ 7);
    println!(
        "world: {} ASes, {} announced prefixes, {} populated /24 blocks",
        scenario.world.graph.ases.len(),
        scenario.world.prefixes.len(),
        scenario.world.blocks.len(),
    );
    for site in &scenario.announcement.sites {
        println!("site {}: hosted by {}", site.name, site.host_asn);
    }

    // 2. The hitlist: one representative target per populated /24.
    let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
    println!("hitlist: {} targets", count(hitlist.len() as u64));

    // 3. One Verfploeter measurement round. The oracle is the converged
    //    BGP routing of the deployment — the mechanism the prober measures
    //    but never reads directly.
    let routing = scenario.routing();
    let result = run_scan(
        &scenario.world,
        &hitlist,
        &scenario.announcement,
        Box::new(StaticOracle::new(routing)),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        1,
    );

    // 4. What the operator learns.
    println!(
        "\nscan complete: {} probes sent, {} blocks mapped ({} response rate)",
        count(result.probes_sent),
        count(result.catchments.len() as u64),
        pct(result.catchments.len() as f64 / hitlist.len() as f64),
    );
    println!(
        "cleaning: {} raw replies -> kept {} (dups {}, aliased {}, late {}, foreign {})",
        count(result.cleaning.total),
        count(result.cleaning.kept),
        count(result.cleaning.duplicates),
        count(result.cleaning.unprobed_source),
        count(result.cleaning.late),
        count(result.cleaning.foreign),
    );
    println!("\ncatchment split:");
    for site in &scenario.announcement.sites {
        println!(
            "  {}: {} of mapped blocks",
            site.name,
            pct(result.catchments.fraction_to(site.id)),
        );
    }
}
