//! Generator configuration.

/// Parameters of the synthetic Internet.
///
/// The defaults generate a medium world that runs every experiment in
/// seconds; [`TopologyConfig::tiny`] is for unit tests and
/// [`TopologyConfig::paper_scale`] pushes block counts toward the paper's
/// scale (minutes of runtime, used by the headline experiment runs).
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Master seed; every derived structure is deterministic in it.
    pub seed: u64,
    /// Total number of ASes.
    pub num_ases: usize,
    /// Number of tier-1 (fully meshed, provider-free) ASes.
    pub num_tier1: usize,
    /// Fraction of non-tier-1 ASes that are transit (have customers).
    pub transit_fraction: f64,
    /// Mean provider count for multihomed ASes (at least 1 each).
    pub mean_providers: f64,
    /// Probability that a pair of transit ASes on the same continent peers.
    pub peer_prob_same_continent: f64,
    /// Probability that a pair of transit ASes on different continents peers.
    pub peer_prob_cross_continent: f64,
    /// Pareto shape for per-AS announced-prefix counts (smaller = heavier
    /// tail). The paper's Fig. 7 x-axis spans 1..10^3 prefixes.
    pub prefix_count_shape: f64,
    /// Cap on announced prefixes for a single AS.
    pub max_prefixes_per_as: usize,
    /// Cap on populated /24 blocks in the whole world.
    pub max_blocks: usize,
    /// Cap on populated blocks within one announced prefix (large prefixes
    /// are sparsely populated, as in the real Internet).
    pub max_blocks_per_prefix: usize,
    /// Overall probability that a block's representative address answers
    /// pings. The paper sees ~55% (Table 4), consistent with prior hitlist
    /// studies.
    pub responsiveness: f64,
    /// Fraction of blocks that send DNS queries to a root-like service at
    /// all (most hosts sit behind a recursive resolver in another block).
    pub participation: f64,
    /// Ping responsiveness of traffic-sending blocks. Resolver
    /// infrastructure answers pings far more often than the average block:
    /// the paper maps 87.1% of the blocks B-Root sees traffic from
    /// (Table 5) despite a 55% overall hitlist response rate.
    pub sender_responsiveness: f64,
    /// Fraction of blocks missing from the geolocation database.
    pub unlocatable_fraction: f64,
    /// Log-normal sigma of per-block daily query load.
    pub load_sigma: f64,
    /// Mean daily queries per block before concentration effects.
    pub load_mean_per_block: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 0x5eed,
            num_ases: 3000,
            num_tier1: 12,
            transit_fraction: 0.15,
            mean_providers: 2.2,
            peer_prob_same_continent: 0.08,
            peer_prob_cross_continent: 0.01,
            prefix_count_shape: 1.1,
            max_prefixes_per_as: 1200,
            max_blocks: 120_000,
            max_blocks_per_prefix: 256,
            responsiveness: 0.55,
            participation: 0.25,
            sender_responsiveness: 0.87,
            unlocatable_fraction: 2e-4,
            load_sigma: 1.3,
            load_mean_per_block: 1500.0,
        }
    }
}

impl TopologyConfig {
    /// A very small world for unit tests (runs in milliseconds).
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            seed,
            num_ases: 120,
            num_tier1: 5,
            max_blocks: 3_000,
            max_prefixes_per_as: 60,
            max_blocks_per_prefix: 32,
            ..TopologyConfig::default()
        }
    }

    /// A larger world approaching the paper's block counts.
    pub fn paper_scale(seed: u64) -> Self {
        TopologyConfig {
            seed,
            num_ases: 12_000,
            num_tier1: 16,
            max_blocks: 700_000,
            ..TopologyConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let tiny = TopologyConfig::tiny(1);
        let def = TopologyConfig::default();
        let paper = TopologyConfig::paper_scale(1);
        assert!(tiny.num_ases < def.num_ases && def.num_ases < paper.num_ases);
        assert!(tiny.max_blocks < def.max_blocks && def.max_blocks < paper.max_blocks);
    }

    #[test]
    fn defaults_are_sane() {
        let c = TopologyConfig::default();
        assert!(c.num_tier1 < c.num_ases);
        assert!((0.0..=1.0).contains(&c.responsiveness));
        assert!((0.0..=1.0).contains(&c.transit_fraction));
        assert!(c.unlocatable_fraction < 0.01);
    }
}
