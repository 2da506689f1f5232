//! Shared fixtures for the criterion benches, the ablation harness, the
//! `bench_scan` matrix and the allocation witness. None of them gates
//! speed: the repo benchmark (`benchmark/`) is the one perf ledger.

#![forbid(unsafe_code)]
// Library code never unwraps (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use verfploeter::CatchmentMap;
use vp_bgp::SiteId;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_net::Block24;
use vp_sim::Scenario;
use vp_topology::TopologyConfig;

/// A small benchmark world (fast to build, big enough to be meaningful).
pub fn bench_scenario(seed: u64) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: 600,
            max_blocks: 15_000,
            ..TopologyConfig::default()
        },
        7,
    )
}

/// A benchmark world scaled to `targets` populated /24 blocks.
///
/// `max_blocks` caps generation at exactly `targets`; `num_ases` grows
/// with the cap so generation actually saturates it (the 600-AS default
/// fills 15k blocks, i.e. ≥25 blocks per AS — the same ratio holds at
/// larger scales because per-AS prefix budgets don't shrink). The 15k
/// scale is byte-identical to [`bench_scenario`].
pub fn bench_scenario_scaled(seed: u64, targets: usize) -> Scenario {
    Scenario::broot(
        TopologyConfig {
            seed,
            num_ases: (targets / 25).max(600),
            max_blocks: targets,
            ..TopologyConfig::default()
        },
        7,
    )
}

/// A hitlist over the benchmark world.
pub fn bench_hitlist(s: &Scenario) -> Hitlist {
    Hitlist::from_internet(&s.world, &HitlistConfig::default())
}

/// A synthetic catchment round of `entries` blocks over nine sites, for the
/// read-side benches and witnesses. The blocks straddle the 7-/8-digit
/// boundary, so the document [`CatchmentMap::to_json`] writes — keys in
/// string order — is not in block order, as real rounds are not. Against
/// round 0, round `r > 0` flips about 1 % of the blocks, drops about 1 %
/// and adds a few new ones.
pub fn synthetic_round(entries: usize, round: u32) -> CatchmentMap {
    const STRIDE: u32 = 29;
    let entries = entries as u32;
    let first = 10_000_000 - STRIDE * (entries / 4);
    let rows = (0..entries).filter_map(|i| {
        let block = first + STRIDE * i;
        let draw = match round {
            0 => 99,
            _ => vp_net::mix(round.into(), block.into()) % 100,
        };
        let site = match draw {
            0 => return None,
            1 => block + 1,
            _ => block,
        } % 9;
        Some((Block24(block), SiteId(site as u8)))
    });
    let appeared =
        (0..round.min(1) * entries / 500).map(|i| (Block24(first + STRIDE * i + 1), SiteId(0)));
    CatchmentMap::from_pairs(&format!("synthetic/r{round}"), rows.chain(appeared))
}
