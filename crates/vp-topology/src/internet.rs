//! The assembled synthetic Internet.

use rand::SeedableRng;
use rand_pcg::Pcg64;
use vp_geo::GeoDb;
use vp_net::{Asn, Block24};

use crate::blocks::{generate_blocks, BlockInfo};
use crate::config::TopologyConfig;
use crate::graph::AsGraph;
use crate::prefixes::{allocate_prefixes, PrefixInfo};

/// A complete generated world: AS graph, announced prefixes, populated
/// blocks (each carrying its Route Views-style origin AS) and
/// geolocation database.
///
/// There is one block table and one id space: `blocks` is strictly
/// ascending by `/24` (address space is carved upward and blocks are
/// sorted within a prefix, asserted once in [`Internet::generate`]), so a
/// block's id *is* its row in `blocks` — the order of the hitlist and of
/// every per-block column built over a world. `geodb` is one of those
/// columns (also asserted): row `i` of it positions `blocks[i]`, whether
/// or not the database can locate the block.
#[derive(Debug, Clone)]
pub struct Internet {
    pub config: TopologyConfig,
    pub graph: AsGraph,
    pub prefixes: Vec<PrefixInfo>,
    pub blocks: Vec<BlockInfo>,
    pub geodb: GeoDb,
    prefixes_per_as: Vec<u32>,
}

impl Internet {
    /// Generates a world from the configuration (deterministic in the seed).
    pub fn generate(config: TopologyConfig) -> Internet {
        let mut rng = Pcg64::seed_from_u64(config.seed);
        let graph = AsGraph::generate(&config, &mut rng);
        let prefixes = allocate_prefixes(&graph, &config, &mut rng);
        let (blocks, geodb) = generate_blocks(&graph, &prefixes, &config, &mut rng);

        let mut prefixes_per_as = vec![0u32; graph.len()];
        for info in &prefixes {
            if let Some(n) = prefixes_per_as.get_mut(info.origin.index()) {
                *n += 1;
            }
        }
        let one_row_per_block =
            "the geolocation database must hold one row per block: a block's position is its row";
        assert_eq!(geodb.keys().len(), blocks.len(), "{one_row_per_block}");
        let mut previous = None;
        for (info, &key) in blocks.iter().zip(geodb.keys()) {
            assert!(info.block == key, "{one_row_per_block}");
            assert!(
                previous < Some(key),
                "generated blocks must be strictly ascending: a block's id is its row"
            );
            previous = Some(key);
        }

        Internet {
            config,
            graph,
            prefixes,
            blocks,
            geodb,
            prefixes_per_as,
        }
    }

    /// Id of a populated block: its row in [`Internet::blocks`], found by
    /// one binary search over the geolocation database's key column (4
    /// bytes per step instead of a whole attribute row).
    pub fn block_id(&self, block: Block24) -> Option<u32> {
        self.geodb
            .keys()
            .binary_search(&block)
            .ok()
            .map(vp_net::conv::sat_u32)
    }

    /// Attribute record for a block, if populated.
    pub fn block(&self, block: Block24) -> Option<&BlockInfo> {
        self.blocks.get(vp_net::conv::index(self.block_id(block)?))
    }

    /// Number of prefixes announced by `asn`.
    #[expect(
        clippy::indexing_slicing,
        reason = "prefixes_per_as is sized to the AS count of the world that minted asn."
    )]
    pub fn announced_prefixes(&self, asn: Asn) -> u32 {
        self.prefixes_per_as[asn.index()]
    }

    /// Iterator over blocks whose representative address answers pings.
    pub fn responsive_blocks(&self) -> impl Iterator<Item = &BlockInfo> {
        self.blocks.iter().filter(|b| b.responsive)
    }

    /// Total daily queries across all blocks (the DITL-day volume).
    pub fn total_daily_queries(&self) -> f64 {
        self.blocks.iter().map(|b| b.daily_queries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(11))
    }

    #[test]
    fn block_lookup_roundtrip() {
        let w = world();
        for b in w.blocks.iter().take(100) {
            let got = w.block(b.block).unwrap();
            assert_eq!(got.block, b.block);
        }
        assert!(w.block(Block24(0)).is_none()); // below 1.0.0.0
    }

    #[test]
    fn block_origins_agree_with_their_longest_covering_prefix() {
        let w = world();
        for b in w.blocks.iter().take(200) {
            let covering = w
                .prefixes
                .iter()
                .filter(|p| p.prefix.contains(b.block.addr(1)))
                .max_by_key(|p| p.prefix.prefix_len())
                .unwrap();
            assert_eq!(covering.origin, b.origin);
        }
    }

    #[test]
    fn announced_prefix_counts_sum() {
        let w = world();
        let total: u32 = (0..w.graph.len() as u32)
            .map(|i| w.announced_prefixes(Asn(i)))
            .sum();
        assert_eq!(total as usize, w.prefixes.len());
    }

    #[test]
    fn responsive_iterator_filters() {
        let w = world();
        assert!(w.responsive_blocks().all(|b| b.responsive));
        let n = w.responsive_blocks().count();
        assert!(n > 0 && n < w.blocks.len());
    }

    /// The invariant the single id space stands on: every generated
    /// world's block table is strictly ascending, `block_id` is the row
    /// and the geolocation database is a column of it — tiny, default and
    /// a 100k-block world (the bench recipe).
    #[test]
    fn block_ids_are_rows_of_a_sorted_table() {
        let large = |seed| TopologyConfig {
            seed,
            num_ases: 100_000 / 25,
            max_blocks: 100_000,
            ..TopologyConfig::default()
        };
        let default = |seed| TopologyConfig {
            seed,
            ..TopologyConfig::default()
        };
        let configs = (1..=4)
            .map(TopologyConfig::tiny)
            .chain((1..=2).map(default))
            .chain((1..=2).map(large));
        for config in configs {
            let w = Internet::generate(config);
            assert!(w.blocks.windows(2).all(|p| p[0].block < p[1].block));
            assert_eq!(w.geodb.keys().len(), w.blocks.len());
            for (row, b) in w.blocks.iter().enumerate() {
                assert_eq!(w.block_id(b.block), Some(row as u32), "block {}", b.block);
                // The row's position is the keyed rule: the block's
                // location, else its PoP's coordinates.
                let pop = &w.graph.pops[b.pop.index()];
                let keyed = w.geodb.locate(b.block).map_or((pop.lat, pop.lon), |l| (l.lat, l.lon));
                assert_eq!(w.geodb.coords_of_row(row), Some(keyed), "block {}", b.block);
            }
            let unlocated = w.blocks.iter().filter(|b| w.geodb.locate(b.block).is_none());
            assert_eq!(w.geodb.len() + unlocated.count(), w.blocks.len());
        }
    }

    #[test]
    fn total_daily_queries_positive() {
        let w = world();
        assert!(w.total_daily_queries() > 0.0);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = Internet::generate(TopologyConfig::tiny(5));
        let b = Internet::generate(TopologyConfig::tiny(5));
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.prefixes.len(), b.prefixes.len());
    }
}
