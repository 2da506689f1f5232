//! Quality ablations of the design choices DESIGN.md §6 calls out: what
//! each choice buys in measurement terms, not in time. Each function
//! returns its numbers and `holds` says whether the documented claim does;
//! the `ablations` binary prints them and `tests/ablations.rs` asserts the
//! claims.

use std::collections::{BTreeMap, BTreeSet};

use vp_dns::{LoadModel, QueryLog};
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::{FeistelPermutation, LcgPermutation, ProbeOrder, SimDuration, SimTime};
use vp_sim::{FaultConfig, Scenario, StaticOracle};
use vp_topology::TopologyConfig;
use verfploeter::load::load_fraction_to;
use verfploeter::predict::actual_load_fraction;
use verfploeter::scan::{run_scan, ScanConfig};
use verfploeter::ProbeConfig;

use crate::context::bench_scenario_scaled;

/// Consecutive probes a burst is counted over.
pub const BURST_WINDOW: usize = 256;

/// Worst number of probes into one /16 within any [`BURST_WINDOW`]
/// consecutive probes, per probe order.
#[derive(Debug, Clone, Copy)]
pub struct Burstiness {
    /// No permutation: the hitlist's block order.
    pub sequential: usize,
    pub feistel: usize,
    pub lcg: usize,
}

impl Burstiness {
    /// Both permutations keep the worst burst at most a tenth of the
    /// sequential order's.
    pub fn holds(&self) -> bool {
        10 * self.feistel.max(self.lcg) <= self.sequential
    }
}

/// Ablation 1 — probe ordering (§3.1's abuse-avoidance). /16 rather than
/// the paper's whole-Internet /8 granularity, because the generated world
/// spans a compact slice of address space.
pub fn probe_order_burstiness() -> Burstiness {
    let s = bench_scenario_scaled(21, 15_000);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let slash16: Vec<u32> = hl.entries().iter().map(|e| e.target.0 >> 16).collect();
    let n = slash16.len() as u64;
    let worst = |order: &mut dyn Iterator<Item = u64>| -> usize {
        let seq: Vec<u32> = order.filter_map(|i| slash16.get(i as usize).copied()).collect();
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
    Burstiness {
        sequential: worst(&mut (0..n)),
        feistel: worst(&mut FeistelPermutation::new(n, 9).order()),
        lcg: worst(&mut LcgPermutation::new(n, 9).order()),
    }
}

/// ASes whose PoPs reach more than one site.
#[derive(Debug, Clone, Copy)]
pub struct HotPotato {
    pub split: usize,
    pub ases: usize,
}

impl HotPotato {
    /// Per-PoP egress splits some AS across sites.
    pub fn holds(&self) -> bool {
        self.split > 0
    }
}

/// Ablation 2 — hot-potato per-PoP egress. Without it every PoP would use
/// the AS-level selected route, so no AS could split: that side is true
/// by construction and is not computed.
pub fn hot_potato_splits() -> HotPotato {
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
    HotPotato {
        split: graph
            .ases
            .iter()
            .filter(|n| table.sites_seen_by_as(graph, n.asn).len() > 1)
            .count(),
        ases: graph.len(),
    }
}

/// The first site's share of the query load: as replayed, and as
/// predicted from a scan with and without load weighting.
#[derive(Debug, Clone, Copy)]
pub struct LoadWeighting {
    pub actual: f64,
    pub load_weighted: f64,
    pub block_count: f64,
}

impl LoadWeighting {
    /// Weighting blocks by query volume predicts the split better than
    /// counting blocks.
    pub fn holds(&self) -> bool {
        (self.load_weighted - self.actual).abs() < (self.block_count - self.actual).abs()
    }
}

/// Ablation 3 — load weighting (§5.4/§5.5).
pub fn load_weighting() -> LoadWeighting {
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
    LoadWeighting {
        actual: actual_load_fraction(&table, &log, site),
        load_weighted: load_fraction_to(&scan.catchments, &log, site),
        block_count: scan.catchments.fraction_to(site),
    }
}

/// Blocks mapped by one round, and by the union of it and a retry round.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    pub single: usize,
    pub with_retry: usize,
}

impl Retry {
    /// A retry round maps blocks the first round missed.
    pub fn holds(&self) -> bool {
        self.with_retry > self.single
    }
}

/// Ablation 4 — single probe vs retry (§3.1 future work): how much
/// coverage a second probing round recovers when blocks churn.
pub fn retry_coverage() -> Retry {
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
    Retry {
        single,
        with_retry: merged.len(),
    }
}
