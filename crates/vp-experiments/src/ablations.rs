//! Quality ablations of the design choices DESIGN.md §6 calls out: what
//! each choice buys in measurement terms, not in time. Each function
//! returns the [`Verdict`] on its claim, its numbers in `measured`; the
//! `ablations` binary prints them and `tests/ablations.rs` asserts them.

use std::collections::{BTreeMap, BTreeSet};

use verfploeter::actual_load_fraction;
use verfploeter::load_fraction_to;
use verfploeter::scan::{run_scan, ScanConfig};
use verfploeter::ProbeConfig;
use vp_dns::{LoadModel, QueryLog};
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::{FeistelPermutation, LcgPermutation, ProbeOrder, SimDuration, SimTime};
use vp_sim::{FaultConfig, Scenario, StaticOracle};
use vp_topology::TopologyConfig;

use crate::context::bench_scenario_scaled;
use crate::experiments::Verdict;

/// Consecutive probes a burst is counted over.
const BURST_WINDOW: usize = 256;

/// Ablation 1 — probe ordering (§3.1's abuse-avoidance): the worst number
/// of probes into one /16 within any `BURST_WINDOW` consecutive probes,
/// per order. /16 rather than the paper's whole-Internet /8 granularity,
/// because the generated world spans a compact slice of address space.
pub fn probe_order_burstiness() -> Verdict {
    let s = bench_scenario_scaled(21, 15_000);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let slash16: Vec<u32> = hl.targets().iter().map(|t| t.0 >> 16).collect();
    let n = slash16.len() as u64;
    let worst = |order: &mut dyn Iterator<Item = u64>| -> usize {
        let seq: Vec<u32> = order
            .filter_map(|i| slash16.get(i as usize).copied())
            .collect();
        seq.chunks(BURST_WINDOW)
            .map(|w| {
                let mut counts = BTreeMap::new();
                for p in w {
                    *counts.entry(p).or_insert(0usize) += 1;
                }
                counts.into_values().max().unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    };
    // No permutation is the hitlist's block order.
    let sequential = worst(&mut (0..n));
    let feistel = worst(&mut FeistelPermutation::new(n, 9).order());
    let lcg = worst(&mut LcgPermutation::new(n, 9).order());
    Verdict {
        claim: "Both permutations' worst burst is at most 1/10 of sequential order's",
        paper: "a pseudorandom order spreads probes across networks (§3.1)",
        measured: format!(
            "worst /16 burst per {BURST_WINDOW} probes: sequential {sequential}, \
             Feistel {feistel}, LCG {lcg}"
        ),
        holds: 10 * feistel.max(lcg) <= sequential,
    }
}

/// Ablation 2 — hot-potato per-PoP egress: ASes whose PoPs reach more
/// than one site. Without it every PoP would use the AS-level selected
/// route, so no AS could split: that side is true by construction and is
/// not computed.
pub fn hot_potato_splits() -> Verdict {
    let s = Scenario::tangled(
        TopologyConfig {
            seed: 22,
            num_ases: 1000,
            max_blocks: 20_000,
            ..TopologyConfig::default()
        },
        7,
    );
    let table = s.routing();
    let graph = &s.world.graph;
    let split = graph
        .ases
        .iter()
        .filter(|n| table.sites_seen_by_as(graph, n.asn).len() > 1)
        .count();
    Verdict {
        claim: "Hot-potato egress splits some AS across sites",
        paper: "12.7% of ASes see more than one site (§6.2)",
        measured: format!(
            "{split} of {} ASes split; none can without it",
            graph.ases.len()
        ),
        holds: split > 0,
    }
}

/// Ablation 3 — load weighting (§5.4/§5.5): the first site's share of the
/// query load, as replayed and as predicted from a scan with and without
/// load weighting.
pub fn load_weighting() -> Verdict {
    let s = bench_scenario_scaled(23, 15_000);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
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
    let error = |p: f64| (p - actual).abs() * 100.0;
    let weighted = error(load_fraction_to(&scan.catchments, &log, site));
    let blocks = error(scan.catchments.fraction_to(site));
    Verdict {
        claim: "Load weighting predicts a site's load share better than block counts",
        paper: "0.2 pp vs 6.4 pp off (Table 6)",
        measured: format!(
            "{weighted:.1} pp vs {blocks:.1} pp off a measured {:.1}%",
            actual * 100.0
        ),
        holds: weighted < blocks,
    }
}

/// Ablation 4 — single probe vs retry (§3.1 future work): how much
/// coverage a second probing round recovers when blocks churn, as blocks
/// mapped by one round and by the union of it and a retry round.
pub fn retry_coverage() -> Verdict {
    let s = bench_scenario_scaled(24, 15_000);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
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
                ..ScanConfig::default()
            },
            seed,
        )
    };
    let first = round(0, 1, 31);
    let mut merged: BTreeSet<_> = first.catchments.iter().map(|(b, _)| b).collect();
    let single = merged.len();
    merged.extend(round(15, 2, 32).catchments.iter().map(|(b, _)| b));
    let with_retry = merged.len();
    Verdict {
        claim: "A retry round maps more blocks than one round under churn",
        paper: "one probe per target; retries are future work (§3.1)",
        measured: format!(
            "{single} → {with_retry} blocks (+{:.1}%)",
            100.0 * (with_retry - single) as f64 / single.max(1) as f64
        ),
        holds: with_retry > single,
    }
}
