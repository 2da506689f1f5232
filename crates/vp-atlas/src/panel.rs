//! Vantage-point placement.

use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;
use serde::Serialize;
use vp_geo::CountryId;
use vp_net::{Block24, Ipv4Addr};
use vp_topology::Internet;

/// Panel construction parameters.
#[derive(Debug, Clone, Serialize)]
pub struct AtlasConfig {
    /// Total VPs to place (the paper considers 9807).
    pub num_vps: usize,
    /// Probability a VP is temporarily down during a scan (455/9807 ≈ 4.6%).
    pub unavailable_prob: f64,
    pub seed: u64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            num_vps: 9807,
            unavailable_prob: 455.0 / 9807.0,
            seed: 0xa71a5,
        }
    }
}

impl AtlasConfig {
    /// A small panel for unit tests.
    pub fn tiny(seed: u64) -> Self {
        AtlasConfig {
            num_vps: 300,
            unavailable_prob: 0.05,
            seed,
        }
    }
}

/// One vantage point: a physical probe in some block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AtlasVp {
    pub id: u32,
    pub block: Block24,
    /// The VP's source address (the block's live host).
    pub addr: Ipv4Addr,
    pub country: CountryId,
    /// Whether the VP responds during scans (down VPs are "considered" but
    /// "non-responding" in Table 4's accounting).
    pub available: bool,
}

/// A placed panel of vantage points.
#[derive(Debug, Clone, Serialize)]
pub struct AtlasPanel {
    vps: Vec<AtlasVp>,
}

impl AtlasPanel {
    /// Places VPs over a world: blocks are sampled with probability
    /// proportional to their country's `atlas_weight` (normalized by the
    /// country's block count), so the panel is Europe-heavy and nearly
    /// absent from China regardless of where the blocks are. Several VPs
    /// may share a block, as on the real platform.
    ///
    /// # Panics
    /// Panics if the world has no locatable blocks or `num_vps` is 0 or
    /// above `u16::MAX` (scan query IDs are 16-bit).
    pub fn place(world: &Internet, cfg: &AtlasConfig) -> AtlasPanel {
        assert!(cfg.num_vps > 0, "empty panel");
        assert!(
            cfg.num_vps <= u16::MAX as usize,
            "panel too large for 16-bit query ids"
        );
        let mut rng = Pcg64::seed_from_u64(cfg.seed);

        // Per-block weight: country atlas weight spread over the country's
        // blocks.
        let mut country_block_count = vec![0u32; vp_geo::countries().len()];
        let located: Vec<(usize, CountryId)> = world
            .blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| world.geodb.locate(b.block).map(|loc| (i, loc.country)))
            .collect();
        assert!(!located.is_empty(), "no locatable blocks");
        for (_, c) in &located {
            country_block_count[c.index()] += 1;
        }
        let weights: Vec<f64> = located
            .iter()
            .map(|(i, c)| {
                let w = c.get().atlas_weight / country_block_count[c.index()].max(1) as f64;
                // Atlas probes sit in well-connected networks, which are
                // mostly ping-responsive — this drives the paper's ~77%
                // overlap between Atlas blocks and Verfploeter blocks.
                if world.blocks[*i].responsive {
                    w
                } else {
                    w * 0.2
                }
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "weights derive from the static country table and are positive."
        )]
        let dist = WeightedIndex::new(&weights).expect("positive weights");

        let vps = (0..cfg.num_vps)
            .map(|id| {
                let (block_idx, country) = located[dist.sample(&mut rng)];
                let info = &world.blocks[block_idx];
                AtlasVp {
                    id: id as u32,
                    block: info.block,
                    addr: info.representative(),
                    country,
                    available: !rng.gen_bool(cfg.unavailable_prob),
                }
            })
            .collect();
        AtlasPanel { vps }
    }

    pub fn len(&self) -> usize {
        self.vps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vps.is_empty()
    }

    pub fn vps(&self) -> &[AtlasVp] {
        &self.vps
    }

    /// Number of distinct blocks hosting at least one VP.
    pub fn distinct_blocks(&self) -> usize {
        let mut blocks: Vec<Block24> = self.vps.iter().map(|v| v.block).collect();
        blocks.sort();
        blocks.dedup();
        blocks.len()
    }

    /// Number of available VPs.
    pub fn available(&self) -> usize {
        self.vps.iter().filter(|v| v.available).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_geo::Continent;
    use vp_topology::TopologyConfig;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(41))
    }

    #[test]
    fn panel_size_and_availability() {
        let w = world();
        let cfg = AtlasConfig::tiny(1);
        let p = AtlasPanel::place(&w, &cfg);
        assert_eq!(p.len(), 300);
        let avail = p.available();
        assert!(avail > 250 && avail < 300, "availability {avail}");
        assert!(p.distinct_blocks() <= p.len());
    }

    #[test]
    fn placement_is_europe_heavy() {
        let w = world();
        let p = AtlasPanel::place(&w, &AtlasConfig::tiny(2));
        let eu = p
            .vps()
            .iter()
            .filter(|v| v.country.get().continent == Continent::Europe)
            .count();
        // Europe holds ~60% of atlas weight but far less of the block
        // population; the panel must skew European.
        assert!(
            eu as f64 / p.len() as f64 > 0.4,
            "only {eu}/{} VPs in Europe",
            p.len()
        );
    }

    #[test]
    fn vps_sit_in_populated_blocks_at_live_addresses() {
        let w = world();
        let p = AtlasPanel::place(&w, &AtlasConfig::tiny(3));
        for vp in p.vps() {
            let info = w.block(vp.block).expect("VP in populated block");
            assert_eq!(vp.addr, info.representative());
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let w = world();
        let a = AtlasPanel::place(&w, &AtlasConfig::tiny(4));
        let b = AtlasPanel::place(&w, &AtlasConfig::tiny(4));
        assert_eq!(a.vps(), b.vps());
        let c = AtlasPanel::place(&w, &AtlasConfig::tiny(5));
        assert_ne!(a.vps(), c.vps());
    }

    #[test]
    #[should_panic(expected = "empty panel")]
    fn zero_vps_panics() {
        let w = world();
        AtlasPanel::place(
            &w,
            &AtlasConfig {
                num_vps: 0,
                ..AtlasConfig::default()
            },
        );
    }
}
