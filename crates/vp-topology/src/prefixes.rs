//! Announced-prefix allocation.
//!
//! Every AS originates at least one prefix; large ASes originate up to
//! ~10^3 (the x-axis range of the paper's Fig. 7). Prefix lengths follow a
//! mix shaped like the announced-prefix histogram of Fig. 8: /19–/23 most
//! common, progressively fewer toward /8. Address space is carved
//! sequentially from 1.0.0.0 upward, naturally aligned; everything at or
//! above [`ANYCAST_REGION`] is reserved for anycast service prefixes so the
//! two can never collide.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use serde::Serialize;
use vp_net::{Asn, Block24, Ipv4Addr, Prefix};

use crate::config::TopologyConfig;
use crate::graph::{AsGraph, AsTier};

/// Start of the region reserved for anycast service prefixes (240.0.0.0).
pub const ANYCAST_REGION: Ipv4Addr = Ipv4Addr::new(240, 0, 0, 0);

/// An announced prefix and its origin AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PrefixInfo {
    pub prefix: Prefix,
    pub origin: Asn,
}

/// Prefix lengths and their relative announcement frequency, shaped after
/// the counts reported in the paper's Fig. 8 (8×/8 … 49.4k×/22, 40.3k×/23)
/// plus a /24 share.
const LENGTH_WEIGHTS: &[(u8, f64)] = &[
    (8, 8.0),
    (9, 10.0),
    (10, 17.0),
    (11, 61.0),
    (12, 181.0),
    (13, 362.0),
    (14, 653.0),
    (15, 1_100.0),
    (16, 8_300.0),
    (17, 5_000.0),
    (18, 8_500.0),
    (19, 18_500.0),
    (20, 28_100.0),
    (21, 30_300.0),
    (22, 49_400.0),
    (23, 40_300.0),
    (24, 55_000.0),
];

/// Allocates announced prefixes for every AS.
///
/// Returns the prefix table in allocation order. The *number of populated
/// blocks* is bounded elsewhere; this function bounds the total address
/// space to stay below [`ANYCAST_REGION`].
#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "LENGTH_WEIGHTS is a static table of positive weights and every length drawn from the static tables is <= 24; i enumerates `desired`, one slot per AS, and each table draw is below its table's length"
)]
pub fn allocate_prefixes<R: Rng>(
    graph: &AsGraph,
    cfg: &TopologyConfig,
    rng: &mut R,
) -> Vec<PrefixInfo> {
    let lens: Vec<u8> = LENGTH_WEIGHTS.iter().map(|(l, _)| *l).collect();
    let len_dist = WeightedIndex::new(LENGTH_WEIGHTS.iter().map(|(_, w)| *w))
        .expect("static weights are valid");

    // Desired prefix counts per AS: Pareto-tailed, scaled by tier.
    let desired: Vec<usize> = graph
        .ases
        .iter()
        .map(|a| {
            let tier_scale = match a.tier {
                AsTier::Tier1 => 40.0,
                AsTier::Transit => 8.0,
                AsTier::Stub => 1.0,
            };
            let u: f64 = rng.gen_range(1e-4..1.0f64);
            let pareto = u.powf(-1.0 / cfg.prefix_count_shape);
            ((pareto * tier_scale) as usize)
                .clamp(1, cfg.max_prefixes_per_as)
        })
        .collect();

    // Interleave allocation round-robin so the address-space budget is
    // spread fairly: round r gives one prefix to every AS wanting > r.
    let mut out = Vec::new();
    let mut cursor: u64 = (Ipv4Addr::new(1, 0, 0, 0).0 >> 8) as u64; // block units
    let limit: u64 = (ANYCAST_REGION.0 >> 8) as u64;
    let max_round = desired.iter().copied().max().unwrap_or(0);
    'alloc: for round in 0..max_round {
        for (i, want) in desired.iter().enumerate() {
            if round >= *want {
                continue;
            }
            // Stubs' first prefix skews small; otherwise sample the mix.
            let len = if round == 0 && graph.ases[i].tier == AsTier::Stub && rng.gen_bool(0.7) {
                const SMALL: [u8; 6] = [21, 22, 22, 23, 23, 24];
                SMALL[rng.gen_range(0..SMALL.len())]
            } else {
                lens[len_dist.sample(rng)]
            };
            let size: u64 = 1 << (24 - len.min(24)) as u64;
            // Align the cursor to the prefix size.
            let aligned = cursor.div_ceil(size) * size;
            if aligned + size > limit {
                break 'alloc; // address space exhausted
            }
            cursor = aligned + size;
            let prefix = Prefix::new(Ipv4Addr((aligned as u32) << 8), len)
                .expect("generated length is valid");
            out.push(PrefixInfo {
                prefix,
                origin: graph.ases[i].asn,
            });
        }
    }
    out
}

/// Picks the populated `/24` blocks inside one announced prefix.
///
/// Large prefixes are only sparsely populated (as in the real Internet);
/// density is sampled per prefix and capped by the config.
pub fn populate_blocks<R: Rng>(
    info: &PrefixInfo,
    cfg: &TopologyConfig,
    rng: &mut R,
) -> Vec<Block24> {
    let total = info.prefix.block_count() as usize;
    let density = rng.gen_range(0.25f64..0.95);
    let want = ((total as f64 * density).ceil() as usize)
        .clamp(1, cfg.max_blocks_per_prefix.min(total));
    if want == total {
        return info.prefix.blocks().collect();
    }
    let picks = rand::seq::index::sample(rng, total, want);
    let first = info.prefix.addr().0 >> 8;
    let mut blocks: Vec<Block24> = picks.into_iter().map(|o| Block24(first + o as u32)).collect();
    blocks.sort();
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    fn setup(seed: u64) -> (AsGraph, TopologyConfig, Pcg64) {
        let cfg = TopologyConfig::tiny(seed);
        let mut rng = Pcg64::seed_from_u64(seed);
        let graph = AsGraph::generate(&cfg, &mut rng);
        (graph, cfg, rng)
    }

    #[test]
    fn every_as_gets_at_least_one_prefix() {
        let (graph, cfg, mut rng) = setup(1);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        let mut counts = vec![0usize; graph.len()];
        for p in &prefixes {
            counts[p.origin.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 1), "orphaned AS");
    }

    #[test]
    fn prefixes_do_not_overlap() {
        let (graph, cfg, mut rng) = setup(2);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        let mut ranges: Vec<(u32, u32)> = prefixes
            .iter()
            .map(|p| {
                let start = p.prefix.addr().0 >> 8;
                (start, start + p.prefix.block_count())
            })
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn prefixes_stay_below_anycast_region() {
        let (graph, cfg, mut rng) = setup(3);
        for p in allocate_prefixes(&graph, &cfg, &mut rng) {
            let end = (p.prefix.addr().0 >> 8) + p.prefix.block_count();
            assert!(end <= ANYCAST_REGION.0 >> 8);
        }
    }

    #[test]
    fn prefix_count_distribution_is_heavy_tailed() {
        let (graph, cfg, mut rng) = setup(4);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        let mut counts = vec![0usize; graph.len()];
        for p in &prefixes {
            counts[p.origin.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let ones = counts.iter().filter(|&&c| c <= 2).count();
        assert!(max >= 10, "no large announcers (max {max})");
        assert!(
            ones * 2 > graph.len(),
            "most ASes should announce few prefixes"
        );
    }

    #[test]
    fn populated_blocks_are_inside_prefix_and_capped() {
        let (graph, cfg, mut rng) = setup(5);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        for info in prefixes.iter().take(200) {
            let blocks = populate_blocks(info, &cfg, &mut rng);
            assert!(!blocks.is_empty());
            assert!(blocks.len() <= cfg.max_blocks_per_prefix);
            let mut prev: Option<Block24> = None;
            for b in &blocks {
                assert!(info.prefix.covers(b.prefix()), "{b} not in {}", info.prefix);
                if let Some(p) = prev {
                    assert!(p < *b, "blocks not sorted/unique");
                }
                prev = Some(*b);
            }
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let (graph, cfg, _) = setup(6);
        let mut r1 = Pcg64::seed_from_u64(99);
        let mut r2 = Pcg64::seed_from_u64(99);
        let a = allocate_prefixes(&graph, &cfg, &mut r1);
        let b = allocate_prefixes(&graph, &cfg, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn length_mix_covers_short_and_long() {
        let (graph, cfg, mut rng) = setup(7);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        let lens: std::collections::BTreeSet<u8> =
            prefixes.iter().map(|p| p.prefix.prefix_len()).collect();
        assert!(lens.iter().any(|&l| l <= 16), "no short prefixes: {lens:?}");
        assert!(lens.contains(&22) || lens.contains(&23) || lens.contains(&24));
    }
}
