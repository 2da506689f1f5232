//! Ablation harness for the design choices called out in DESIGN.md §6.
//!
//! Unlike the Criterion benches (which measure time), these ablations
//! measure *quality*: what each design choice buys in measurement terms.
//!
//! Run with: `cargo run --release -p vp-bench --bin ablations`

use vp_bench::{bench_hitlist, bench_scenario};
use vp_dns::{LoadModel, QueryLog};
use vp_net::{FeistelPermutation, LcgPermutation, ProbeOrder, SimDuration, SimTime};
use vp_sim::{FaultConfig, StaticOracle};
use verfploeter::load::load_fraction_to;
use verfploeter::predict::actual_load_fraction;
use verfploeter::scan::{run_scan, ScanConfig};
use verfploeter::ProbeConfig;

fn main() {
    probe_order_burstiness();
    hot_potato_splits();
    load_weighting_value();
    retry_coverage();
}

/// Ablation 1 — probe ordering (§3.1's abuse-avoidance): how many probes
/// land in the same /16 within any window of 256 consecutive probes?
/// (/16 rather than the paper's whole-Internet /8 granularity, because the
/// generated world spans a compact slice of address space.)
/// Feistel scattering should keep bursts near uniform; the LCG's stride
/// structure concentrates them.
fn probe_order_burstiness() {
    println!("== ablation: probe ordering (burst of probes into one /16 per 256-probe window) ==");
    let s = bench_scenario(21);
    let hl = bench_hitlist(&s);
    let n = hl.len() as u64;
    let window = 256usize;
    let slash16 = |i: usize| hl.entries()[i].target.0 >> 16;
    let burst = |order: &dyn ProbeOrder| -> usize {
        let seq: Vec<u32> = (0..n)
            .map(|i| slash16(order.permute(i) as usize))
            .collect();
        let mut worst = 0usize;
        for w in seq.chunks(window) {
            let mut counts = std::collections::BTreeMap::new();
            for &p in w {
                *counts.entry(p).or_insert(0usize) += 1;
            }
            worst = worst.max(*counts.values().max().unwrap());
        }
        worst
    };
    let feistel = FeistelPermutation::new(n, 9);
    let lcg = LcgPermutation::new(n, 9);
    let sequential_worst = {
        // No permutation at all: hitlist is in block order, so a window is
        // almost always a single /16.
        let mut worst = 0;
        for w in (0..n as usize).collect::<Vec<_>>().chunks(window) {
            let mut counts = std::collections::BTreeMap::new();
            for &i in w {
                *counts.entry(slash16(i)).or_insert(0usize) += 1;
            }
            worst = worst.max(*counts.values().max().unwrap());
        }
        worst
    };
    println!("  sequential (no permutation): worst burst {sequential_worst}/{window}");
    println!("  feistel:                     worst burst {}/{window}", burst(&feistel));
    println!("  lcg:                         worst burst {}/{window}", burst(&lcg));
    println!();
}

/// Ablation 2 — hot-potato per-PoP egress: how many ASes split across
/// sites with it, versus forcing every PoP onto the AS-level selection.
fn hot_potato_splits() {
    println!("== ablation: hot-potato per-PoP egress (AS catchment splits) ==");
    let s = vp_sim::Scenario::tangled(
        vp_topology::TopologyConfig {
            seed: 22,
            num_ases: 1000,
            max_blocks: 20_000,
            ..vp_topology::TopologyConfig::default()
        },
        7,
    );
    let table = s.routing();
    let with_hot_potato = s
        .world
        .graph
        .ases
        .iter()
        .filter(|n| table.sites_seen_by_as(&s.world.graph, n.asn).len() > 1)
        .count();
    // Without hot-potato every PoP would use the AS-level selected route,
    // so no AS can split, by construction.
    println!("  with hot-potato:    {with_hot_potato} of {} ASes split", s.world.graph.len());
    println!("  without hot-potato: 0 ASes split (all PoPs forced to the AS-level route)");
    println!();
}

/// Ablation 3 — load weighting (§5.4/§5.5): prediction error with and
/// without calibrating block counts by query volume.
fn load_weighting_value() {
    println!("== ablation: load weighting (prediction error at the first site) ==");
    let s = bench_scenario(23);
    let hl = bench_hitlist(&s);
    let table = s.routing();
    let scan = run_scan(
        &s.world,
        &hl,
        &s.announcement,
        Box::new(StaticOracle::new(table.clone())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        23,
    );
    let log = QueryLog::ditl(&s.world, LoadModel::default(), "L");
    let site = s.announcement.sites[0].id;
    let actual = actual_load_fraction(&table, &log, site);
    let with_load = load_fraction_to(&scan.catchments, &log, site);
    let without = scan.catchments.fraction_to(site);
    println!("  measured load split:      {:.1}%", actual * 100.0);
    println!(
        "  load-weighted prediction: {:.1}%  (error {:.1} pp)",
        with_load * 100.0,
        (with_load - actual).abs() * 100.0
    );
    println!(
        "  block-count prediction:   {:.1}%  (error {:.1} pp)",
        without * 100.0,
        (without - actual).abs() * 100.0
    );
    println!();
}

/// Ablation 4 — single probe vs retry (§3.1 future work): how much
/// coverage a second probing round recovers when blocks churn.
fn retry_coverage() {
    println!("== ablation: single probe vs one retry round (coverage under churn) ==");
    let s = bench_scenario(24);
    let hl = bench_hitlist(&s);
    let table = s.routing();
    let faults = FaultConfig {
        churn_down_prob: 0.10,
        ..FaultConfig::default()
    };
    let round = |start_min: u64, ident: u16, seed: u64| {
        run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            faults.clone(),
            SimTime::ZERO + SimDuration::from_mins(start_min),
            &ScanConfig {
                name: format!("retry-{ident}"),
                probe: ProbeConfig {
                    ident,
                    ..ProbeConfig::default()
                },
                cutoff: SimDuration::from_mins(15),
                ..ScanConfig::default()
            },
            seed,
        )
    };
    let first = round(0, 1, 31);
    let second = round(15, 2, 32);
    let mut merged: std::collections::BTreeSet<_> =
        first.catchments.iter().map(|(b, _)| b).collect();
    let single = merged.len();
    for (b, _) in second.catchments.iter() {
        merged.insert(b);
    }
    println!("  single round:  {single} blocks mapped");
    println!(
        "  with retry:    {} blocks mapped (+{:.1}%)",
        merged.len(),
        100.0 * (merged.len() - single) as f64 / single as f64
    );
    println!(
        "  (the paper sends a single probe per target and leaves retries as future work)"
    );
}
