//! Per-/24 block attributes: homing, responsiveness, load and geolocation.

use rand::Rng;
use rand_pcg::Pcg64;
use serde::Serialize;
use vp_geo::{GeoDb, GeoLoc};
use vp_net::{Asn, Block24};

use crate::config::TopologyConfig;
use crate::graph::{AsGraph, PopId};
use crate::prefixes::PrefixInfo;

/// Attributes of one populated `/24` block.
#[derive(Debug, Clone, Serialize)]
pub struct BlockInfo {
    pub block: Block24,
    pub origin: Asn,
    /// Index of the announced prefix this block belongs to.
    pub prefix_idx: u32,
    /// The PoP of the origin AS that homes this block — determines which
    /// egress the block's traffic uses under hot-potato routing.
    pub pop: PopId,
    /// Whether the block's representative address answers pings.
    pub responsive: bool,
    /// Whether this block sends DNS queries to the service at all.
    pub sends_queries: bool,
    /// Final octet of the representative address (the hitlist target).
    pub rep_octet: u8,
    /// Expected daily DNS queries from this block toward a root-like
    /// service (the load weight of §3.2).
    pub daily_queries: f64,
}

impl BlockInfo {
    /// The representative address — the one the hitlist probes.
    pub fn representative(&self) -> vp_net::Ipv4Addr {
        self.block.addr(self.rep_octet)
    }
}

/// Generates the block attribute table and the geolocation database,
/// row for row: `geodb.keys()[i] == blocks[i].block`.
///
/// Blocks are homed on a PoP of their origin AS (uniformly), geolocated
/// near that PoP, marked responsive with the configured probability, and
/// given a heavy-tailed load weight with country-level resolver
/// concentration: a small share of blocks in concentration-heavy countries
/// carries most of that country's queries (§5.4: "load seems to concentrate
/// traffic in fewer hotspots").
#[expect(
    clippy::indexing_slicing,
    reason = "every prefix origin is an AS of `graph`, and the PoP draw is below its node's PoP count"
)]
pub fn generate_blocks(
    graph: &AsGraph,
    prefixes: &[PrefixInfo],
    cfg: &TopologyConfig,
    rng: &mut Pcg64,
) -> (Vec<BlockInfo>, GeoDb) {
    // Room for every block the prefixes can hold, so neither table grows:
    // columns that double in step leave their freed halves resident in
    // the heap (tens of MB at a million blocks).
    let room = |p: &PrefixInfo| (p.prefix.block_count() as usize).min(cfg.max_blocks_per_prefix);
    let room = prefixes.iter().map(room).sum::<usize>().min(cfg.max_blocks);
    let mut blocks = Vec::with_capacity(room);
    let mut geodb = GeoDb::with_capacity(room);
    'outer: for (idx, info) in prefixes.iter().enumerate() {
        for block in crate::prefixes::populate_blocks(info, cfg, rng) {
            if blocks.len() >= cfg.max_blocks {
                break 'outer;
            }
            let node = graph.node(info.origin);
            let pop = node.pops[rng.gen_range(0..node.pops.len())];
            let pop_info = &graph.pops[pop.index()];
            let country = pop_info.country.get();

            // Load: log-normal body with resolver concentration.
            let conc = country.resolver_concentration;
            let normal: f64 = sample_standard_normal(rng);
            let mu = cfg.load_mean_per_block.ln() - cfg.load_sigma * cfg.load_sigma / 2.0;
            let mut daily = (mu + cfg.load_sigma * normal).exp();
            let hotspot = rng.gen_bool(0.03);
            if hotspot {
                // Resolver hotspot: carries the concentrated share.
                daily *= 1.0 + conc * 10.0;
            } else {
                daily *= 1.0 - conc * 0.8;
            }

            // Responsiveness structure:
            // * regional — some countries filter ICMP heavily (the paper's
            //   unmappable load concentrates "in Korea, with some in Japan
            //   and central and southeast Asia", §5.4);
            // * participation-correlated — resolver infrastructure answers
            //   pings far more often than the average block (Table 5 maps
            //   87% of traffic-sending blocks at a 55% overall rate). The
            //   non-sender rate is solved so the mixture matches the
            //   configured overall responsiveness. Crucially the rate does
            //   NOT depend on query *volume*, which would bias the
            //   load-weighted catchment estimator.
            let regional = match country.code {
                "KR" => 0.35,
                "JP" => 0.75,
                "PK" | "BD" => 0.8,
                _ => 1.0,
            };
            let sends_queries = rng.gen_bool(cfg.participation);
            let base = if sends_queries {
                cfg.sender_responsiveness
            } else {
                ((cfg.responsiveness - cfg.participation * cfg.sender_responsiveness)
                    / (1.0 - cfg.participation))
                    .clamp(0.0, 1.0)
            };
            let responsive = rng.gen_bool((base * regional).min(1.0));
            // One position row per block, in block order, so the database
            // stays row-aligned with `blocks`; a block it cannot place
            // stands at its PoP.
            if rng.gen_bool(cfg.unlocatable_fraction) {
                geodb.insert_unlocated(block, pop_info.lat, pop_info.lon);
            } else {
                let (lat, lon) = pop_info.country.get().sample_location(rng);
                geodb.insert(
                    block,
                    GeoLoc {
                        country: pop_info.country,
                        lat,
                        lon,
                    },
                );
            }
            blocks.push(BlockInfo {
                block,
                origin: info.origin,
                prefix_idx: idx as u32,
                pop,
                responsive,
                sends_queries,
                rep_octet: rng.gen_range(1..=254),
                daily_queries: daily,
            });
        }
    }
    (blocks, geodb)
}

/// Standard normal via Box–Muller (avoids a distribution-crate dependency).
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefixes::allocate_prefixes;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (AsGraph, Vec<PrefixInfo>, Vec<BlockInfo>, GeoDb, TopologyConfig) {
        let cfg = TopologyConfig::tiny(seed);
        let mut rng = Pcg64::seed_from_u64(seed);
        let graph = AsGraph::generate(&cfg, &mut rng);
        let prefixes = allocate_prefixes(&graph, &cfg, &mut rng);
        let (blocks, geodb) = generate_blocks(&graph, &prefixes, &cfg, &mut rng);
        (graph, prefixes, blocks, geodb, cfg)
    }

    #[test]
    fn blocks_respect_cap_and_prefix_membership() {
        let (_, prefixes, blocks, _, cfg) = setup(1);
        assert!(!blocks.is_empty());
        assert!(blocks.len() <= cfg.max_blocks);
        for b in &blocks {
            let info = &prefixes[b.prefix_idx as usize];
            assert!(info.prefix.covers(b.block.prefix()));
            assert_eq!(info.origin, b.origin);
        }
    }

    #[test]
    fn pops_belong_to_origin_as() {
        let (graph, _, blocks, _, _) = setup(2);
        for b in &blocks {
            assert_eq!(graph.pops[b.pop.index()].asn, b.origin);
        }
    }

    #[test]
    fn responsiveness_near_configured_rate() {
        let (_, _, blocks, _, cfg) = setup(3);
        let responsive = blocks.iter().filter(|b| b.responsive).count() as f64;
        let rate = responsive / blocks.len() as f64;
        assert!(
            (rate - cfg.responsiveness).abs() < 0.05,
            "responsiveness {rate:.3} vs configured {}",
            cfg.responsiveness
        );
    }

    #[test]
    fn geodb_covers_almost_all_blocks() {
        let (_, _, blocks, geodb, _) = setup(4);
        let located = blocks
            .iter()
            .filter(|b| geodb.locate(b.block).is_some())
            .count();
        assert!(located as f64 / blocks.len() as f64 > 0.99);
    }

    #[test]
    fn load_is_heavy_tailed() {
        let (_, _, blocks, _, _) = setup(5);
        let mut loads: Vec<f64> = blocks.iter().map(|b| b.daily_queries).collect();
        loads.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = loads.iter().sum();
        let top1pct: f64 = loads[..loads.len() / 100].iter().sum();
        assert!(
            top1pct / total > 0.2,
            "top 1% of blocks carries only {:.1}% of load",
            100.0 * top1pct / total
        );
        assert!(loads.iter().all(|&l| l >= 0.0 && l.is_finite()));
    }

    #[test]
    fn deterministic_generation() {
        let (_, _, a, _, _) = setup(42);
        let (_, _, b, _, _) = setup(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.responsive, y.responsive);
            assert!((x.daily_queries - y.daily_queries).abs() < 1e-9);
        }
    }

    #[test]
    fn blocks_are_unique() {
        let (_, _, blocks, _, _) = setup(6);
        let set: std::collections::BTreeSet<Block24> = blocks.iter().map(|b| b.block).collect();
        assert_eq!(set.len(), blocks.len());
    }
}
