//! Continuous catchment monitoring: finding unstable networks (§6.3).
//!
//! The paper closes §6.3 noting that "an additional application of
//! Verfploeter may be identification and resolution of such instability".
//! This example is that application: it measures a nine-site testbed's
//! catchment every 15 minutes, classifies every round (stable / flipped /
//! to-NR / from-NR), and reports the ASes responsible for the flips so an
//! operator knows where to point the ticket.
//!
//! Run with: `cargo run --release --example stability_monitoring`

use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{SimDuration, SimTime};
use verfploeter_suite::sim::{FaultConfig, FlippingOracle, Scenario};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::ProbeConfig;
use verfploeter_suite::vp::{count, pct};
use verfploeter_suite::vp::{flips_by_as, unstable_blocks};
use vp_monitor::diff::{diff_series, RoundDiff};

fn main() {
    let config = TopologyConfig {
        seed: 2023,
        num_ases: 800,
        max_blocks: 20_000,
        ..TopologyConfig::default()
    };
    let scenario = Scenario::tangled(config, 7);
    let hitlist = Hitlist::from_internet(&scenario.world, &HitlistConfig::default());
    let table = scenario.routing();
    let flip_model = scenario.flip_model(0xF00D, &table);
    let interval = SimDuration::from_mins(15);
    let rounds = 24; // six hours of monitoring

    println!(
        "monitoring a {}-site deployment across {} blocks, {} rounds at 15-minute intervals",
        scenario.announcement.sites.len(),
        count(hitlist.len() as u64),
        rounds,
    );

    let mut maps = Vec::with_capacity(rounds);
    for r in 0..rounds as u32 {
        let oracle = FlippingOracle::new(
            table.clone(),
            scenario.world.graph.clone(),
            flip_model.clone(),
            interval,
        );
        let start = SimTime::ZERO + SimDuration(interval.0 * r as u64);
        let result = run_scan(
            &scenario.world,
            &hitlist,
            &scenario.announcement,
            Box::new(oracle),
            FaultConfig::default(),
            start,
            &ScanConfig {
                name: format!("monitor/r{r}"),
                probe: ProbeConfig {
                    ident: 500 + r as u16,
                    ..ProbeConfig::default()
                },
                ..ScanConfig::default()
            },
            900 + r as u64,
        );
        maps.push(result.catchments);
    }

    // Round-over-round classification (the Fig. 9 series).
    let deltas = diff_series(&maps);
    let avg = |f: &dyn Fn(&RoundDiff) -> u64| {
        deltas.iter().map(f).sum::<u64>() / deltas.len() as u64
    };
    println!(
        "\nper-round averages: stable {} | flipped {} | to-NR {} | from-NR {}",
        count(avg(&|d| d.stable)),
        count(avg(&|d| d.flipped)),
        count(avg(&|d| d.to_nr)),
        count(avg(&|d| d.from_nr)),
    );
    let responders = avg(&|d| d.stable) + avg(&|d| d.flipped);
    println!(
        "flip rate: {} of continuing responders per round",
        pct(avg(&|d| d.flipped) as f64 / responders.max(1) as f64),
    );

    // Who to call: the flip-heavy ASes.
    let flips = flips_by_as(&maps, &scenario.world);
    let (top, other) = flips.top_with_other(3);
    println!("\nflip-heavy ASes (the operator's escalation list):");
    for row in &top {
        println!(
            "  {}: {} flips across {} blocks ({} of all flips)",
            row.asn,
            count(row.flips),
            count(row.blocks),
            pct(row.frac),
        );
    }
    println!(
        "  (other: {} flips across {} ASes)",
        count(other.flips),
        flips.flipping_ases().saturating_sub(top.len()),
    );
    println!(
        "\nblocks to exclude from single-shot analyses as unstable: {}",
        count(unstable_blocks(&maps).len() as u64),
    );
}
