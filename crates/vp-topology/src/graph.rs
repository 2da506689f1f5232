//! The AS-level graph: tiers, Gao–Rexford relationships and PoPs.

use std::collections::BTreeMap;

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use serde::Serialize;
use vp_geo::{countries, distance_km, Continent, CountryId};
use vp_net::Asn;

use crate::config::TopologyConfig;

/// Position of an AS in the routing hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AsTier {
    /// Fully meshed, provider-free backbone.
    Tier1,
    /// Has both providers and customers.
    Transit,
    /// Only providers; originates prefixes, transits nothing.
    Stub,
}

/// Index of a point of presence in [`AsGraph::pops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct PopId(pub u32);

impl PopId {
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A point of presence: where an AS physically is.
#[derive(Debug, Clone, Serialize)]
pub struct Pop {
    pub id: PopId,
    pub asn: Asn,
    pub country: CountryId,
    pub lat: f64,
    pub lon: f64,
}

/// One autonomous system.
#[derive(Debug, Clone, Serialize)]
pub struct AsNode {
    pub asn: Asn,
    pub tier: AsTier,
    /// Home country (where the AS is headquartered; PoPs may be elsewhere).
    pub country: CountryId,
    pub providers: Vec<Asn>,
    pub customers: Vec<Asn>,
    pub peers: Vec<Asn>,
    pub pops: Vec<PopId>,
}

/// The generated AS graph with PoP-anchored adjacencies.
#[derive(Debug, Clone)]
pub struct AsGraph {
    pub ases: Vec<AsNode>,
    pub pops: Vec<Pop>,
    /// For each directed adjacency `(a, b)`: the PoP of `a` where the
    /// session to `b` lands. Both directions are always present.
    pub adjacency_pop: BTreeMap<(Asn, Asn), PopId>,
}

impl AsGraph {
    /// The node for `asn`. Panics on out-of-range ASN (ASNs are dense).
    // vp-lint: allow(g1): documented contract — ASNs are dense indices minted with the graph; out-of-range must fail loudly.
    pub fn node(&self, asn: Asn) -> &AsNode {
        &self.ases[asn.index()]
    }

    /// The PoP anchoring the session from `a` toward `b`, if adjacent.
    pub fn session_pop(&self, a: Asn, b: Asn) -> Option<PopId> {
        self.adjacency_pop.get(&(a, b)).copied()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// All neighbor ASNs of `asn` (providers, customers, peers).
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        let n = self.node(asn);
        n.providers
            .iter()
            .chain(n.customers.iter())
            .chain(n.peers.iter())
            .copied()
    }

    /// Generates the graph. Deterministic in `rng`.
    pub fn generate<R: Rng>(cfg: &TopologyConfig, rng: &mut R) -> AsGraph {
        assert!(cfg.num_tier1 >= 2, "need at least two tier-1 ASes");
        assert!(
            cfg.num_ases > cfg.num_tier1,
            "need more ASes than tier-1s"
        );
        let world = countries();
        let user_weights: Vec<f64> = world.iter().map(|c| c.user_weight).collect();
        // vp-lint: allow(h2): the country table is a static constant with positive weights.
        let country_dist = WeightedIndex::new(&user_weights).expect("non-empty country table");

        // Tier-1s live where the big backbones are.
        let tier1_homes: Vec<CountryId> = {
            let backbone = ["US", "US", "US", "DE", "FR", "GB", "NL", "JP", "SE", "IT"];
            (0..cfg.num_tier1)
                .map(|i| {
                    let code = backbone[i % backbone.len()];
                    // vp-lint: allow(h2): every code above exists in the static country table.
                    vp_geo::world::country_by_code(code).expect("backbone country").0
                })
                .collect()
        };

        let num_transit = ((cfg.num_ases - cfg.num_tier1) as f64 * cfg.transit_fraction) as usize;
        let mut ases: Vec<AsNode> = Vec::with_capacity(cfg.num_ases);
        for i in 0..cfg.num_ases {
            let (tier, country) = if i < cfg.num_tier1 {
                (AsTier::Tier1, tier1_homes[i])
            } else if i < cfg.num_tier1 + num_transit {
                (AsTier::Transit, CountryId(country_dist.sample(rng) as u16))
            } else {
                (AsTier::Stub, CountryId(country_dist.sample(rng) as u16))
            };
            ases.push(AsNode {
                asn: Asn(i as u32),
                tier,
                country,
                providers: Vec::new(),
                customers: Vec::new(),
                peers: Vec::new(),
                pops: Vec::new(),
            });
        }

        // PoPs.
        let mut pops: Vec<Pop> = Vec::new();
        for node in ases.iter_mut() {
            let pop_countries: Vec<CountryId> = match node.tier {
                AsTier::Tier1 => {
                    // Global footprint: home plus a spread over continents.
                    let mut cs = vec![node.country];
                    let mut seen: Vec<Continent> = vec![node.country.get().continent];
                    for _ in 0..40 {
                        if cs.len() >= 10 {
                            break;
                        }
                        let cid = CountryId(country_dist.sample(rng) as u16);
                        let cont = cid.get().continent;
                        if !seen.contains(&cont) || rng.gen_bool(0.25) {
                            seen.push(cont);
                            cs.push(cid);
                        }
                    }
                    cs
                }
                AsTier::Transit => {
                    // Continental footprint: 3–6 PoPs near home.
                    let cont = node.country.get().continent;
                    let mut cs = vec![node.country];
                    let same: Vec<usize> = world
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.continent == cont)
                        .map(|(i, _)| i)
                        .collect();
                    let extra = rng.gen_range(2..=5);
                    for _ in 0..extra {
                        cs.push(CountryId(same[rng.gen_range(0..same.len())] as u16));
                    }
                    cs
                }
                AsTier::Stub => {
                    let mut cs = vec![node.country];
                    if rng.gen_bool(0.15) {
                        cs.push(node.country); // second PoP, same country
                    }
                    cs
                }
            };
            for cid in pop_countries {
                let (lat, lon) = cid.get().sample_location(rng);
                let id = PopId(pops.len() as u32);
                pops.push(Pop {
                    id,
                    asn: node.asn,
                    country: cid,
                    lat,
                    lon,
                });
                node.pops.push(id);
            }
        }

        // Edges. Providers must be "above" in the hierarchy: tier-1, or a
        // transit AS with a smaller index — this keeps customer→provider
        // relations acyclic, which Gao–Rexford stability relies on.
        let t1_range = 0..cfg.num_tier1;
        let transit_range = cfg.num_tier1..cfg.num_tier1 + num_transit;
        let mut edges: Vec<(usize, usize, EdgeKind)> = Vec::new();

        // Tier-1 clique (peering).
        for i in t1_range.clone() {
            for j in i + 1..cfg.num_tier1 {
                edges.push((i, j, EdgeKind::Peer));
            }
        }

        // Transit ASes buy from tier-1s and earlier transit ASes.
        for i in transit_range.clone() {
            let n_prov = sample_provider_count(cfg.mean_providers, rng);
            for _ in 0..n_prov {
                let upstream = if i == cfg.num_tier1 || rng.gen_bool(0.3) {
                    rng.gen_range(t1_range.clone())
                } else {
                    rng.gen_range(cfg.num_tier1..i)
                };
                edges.push((upstream, i, EdgeKind::ProviderCustomer));
            }
        }

        // Stubs buy from transit ASes (preferring their own continent) and
        // occasionally directly from tier-1s.
        let transit_by_continent: BTreeMap<Continent, Vec<usize>> = {
            let mut m: BTreeMap<Continent, Vec<usize>> = BTreeMap::new();
            for i in transit_range.clone() {
                m.entry(ases[i].country.get().continent).or_default().push(i);
            }
            m
        };
        for i in cfg.num_tier1 + num_transit..cfg.num_ases {
            let n_prov = sample_provider_count(cfg.mean_providers, rng);
            let cont = ases[i].country.get().continent;
            for _ in 0..n_prov {
                let upstream = if rng.gen_bool(0.08) || num_transit == 0 {
                    rng.gen_range(t1_range.clone())
                } else if let Some(local) = transit_by_continent.get(&cont) {
                    if rng.gen_bool(0.8) {
                        local[rng.gen_range(0..local.len())]
                    } else {
                        rng.gen_range(transit_range.clone())
                    }
                } else {
                    rng.gen_range(transit_range.clone())
                };
                edges.push((upstream, i, EdgeKind::ProviderCustomer));
            }
        }

        // Transit-transit peering.
        let transit_list: Vec<usize> = transit_range.clone().collect();
        for (ai, &i) in transit_list.iter().enumerate() {
            for &j in &transit_list[ai + 1..] {
                let same = ases[i].country.get().continent == ases[j].country.get().continent;
                let p = if same {
                    cfg.peer_prob_same_continent
                } else {
                    cfg.peer_prob_cross_continent
                };
                if rng.gen_bool(p) {
                    edges.push((i, j, EdgeKind::Peer));
                }
            }
        }

        // Materialize edges (dedup parallel edges; provider wins over peer).
        // A BTreeMap keyed on the normalized pair gives the sorted edge
        // order directly — no post-hoc sort needed.
        let mut seen: BTreeMap<(usize, usize), EdgeKind> = BTreeMap::new();
        for (a, b, kind) in edges {
            let key = (a.min(b), a.max(b));
            let entry = seen.entry(key).or_insert(kind);
            if kind == EdgeKind::ProviderCustomer {
                *entry = kind;
            }
        }
        let mut adjacency_pop: BTreeMap<(Asn, Asn), PopId> = BTreeMap::new();
        for ((lo, hi), kind) in seen {
            // The original orientation for provider edges was (provider=a,
            // customer=b) with a < b by construction above, because
            // providers always have smaller index.
            let (a, b) = (lo, hi);
            match kind {
                EdgeKind::ProviderCustomer => {
                    let (pa, pb) = (Asn(a as u32), Asn(b as u32));
                    if !ases[a].customers.contains(&pb) {
                        ases[a].customers.push(pb);
                        ases[b].providers.push(pa);
                    }
                }
                EdgeKind::Peer => {
                    let (pa, pb) = (Asn(a as u32), Asn(b as u32));
                    if !ases[a].peers.contains(&pb) {
                        ases[a].peers.push(pb);
                        ases[b].peers.push(pa);
                    }
                }
            }
            // Anchor the session at the geographically closest PoP pair.
            let (pop_a, pop_b) = closest_pop_pair(&ases[a], &ases[b], &pops);
            adjacency_pop.insert((Asn(a as u32), Asn(b as u32)), pop_a);
            adjacency_pop.insert((Asn(b as u32), Asn(a as u32)), pop_b);
        }

        AsGraph {
            ases,
            pops,
            adjacency_pop,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    ProviderCustomer,
    Peer,
}

fn sample_provider_count<R: Rng>(mean: f64, rng: &mut R) -> usize {
    // 1 + geometric-ish: keeps a minimum of one provider.
    let extra_p = 1.0 - 1.0 / mean.max(1.0);
    let mut n = 1;
    while n < 5 && rng.gen_bool(extra_p) {
        n += 1;
    }
    n
}

/// The closest pair of PoPs between two ASes (brute force; PoP counts are
/// tiny).
fn closest_pop_pair(a: &AsNode, b: &AsNode, pops: &[Pop]) -> (PopId, PopId) {
    let mut best = (a.pops[0], b.pops[0]);
    let mut best_d = f64::INFINITY;
    for &pa in &a.pops {
        for &pb in &b.pops {
            let (x, y) = (&pops[pa.index()], &pops[pb.index()]);
            let d = distance_km(x.lat, x.lon, y.lat, y.lon);
            if d < best_d {
                best_d = d;
                best = (pa, pb);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    fn gen(seed: u64) -> AsGraph {
        let cfg = TopologyConfig::tiny(seed);
        let mut rng = Pcg64::seed_from_u64(seed);
        AsGraph::generate(&cfg, &mut rng)
    }

    #[test]
    fn sizes_match_config() {
        let g = gen(1);
        assert_eq!(g.len(), 120);
        assert!(!g.is_empty());
        assert!(g.pops.len() >= g.len()); // every AS has >= 1 PoP
    }

    #[test]
    fn tier1_clique_is_fully_meshed_and_provider_free() {
        let g = gen(2);
        let t1: Vec<&AsNode> = g.ases.iter().filter(|a| a.tier == AsTier::Tier1).collect();
        assert_eq!(t1.len(), 5);
        for a in &t1 {
            assert!(a.providers.is_empty(), "{} has providers", a.asn);
            for b in &t1 {
                if a.asn != b.asn {
                    assert!(a.peers.contains(&b.asn), "{} !~ {}", a.asn, b.asn);
                }
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let g = gen(3);
        for a in &g.ases {
            if a.tier != AsTier::Tier1 {
                assert!(!a.providers.is_empty(), "{} is orphaned", a.asn);
            }
        }
    }

    #[test]
    fn relationships_are_symmetric() {
        let g = gen(4);
        for a in &g.ases {
            for p in &a.providers {
                assert!(g.node(*p).customers.contains(&a.asn));
            }
            for c in &a.customers {
                assert!(g.node(*c).providers.contains(&a.asn));
            }
            for q in &a.peers {
                assert!(g.node(*q).peers.contains(&a.asn));
            }
        }
    }

    #[test]
    fn provider_customer_is_acyclic() {
        // Providers always have a smaller ASN index by construction; check.
        let g = gen(5);
        for a in &g.ases {
            for p in &a.providers {
                assert!(p.index() < a.asn.index(), "{} -> provider {}", a.asn, p);
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = gen(6);
        for a in &g.ases {
            if a.tier == AsTier::Stub {
                assert!(a.customers.is_empty(), "{} is a stub with customers", a.asn);
            }
        }
    }

    #[test]
    fn adjacency_pops_belong_to_their_as() {
        let g = gen(7);
        for ((a, _b), pop) in &g.adjacency_pop {
            assert_eq!(g.pops[pop.index()].asn, *a);
            assert!(g.node(*a).pops.contains(pop));
        }
        // Both directions exist.
        for (a, b) in g.adjacency_pop.keys() {
            assert!(g.adjacency_pop.contains_key(&(*b, *a)));
        }
    }

    #[test]
    fn all_ases_reach_tier1_via_providers() {
        let g = gen(8);
        for a in &g.ases {
            let mut cur = a;
            let mut hops = 0;
            while cur.tier != AsTier::Tier1 {
                cur = g.node(cur.providers[0]);
                hops += 1;
                assert!(hops < 100, "provider chain too long for {}", a.asn);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(42);
        let b = gen(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.ases.iter().zip(&b.ases) {
            assert_eq!(x.providers, y.providers);
            assert_eq!(x.peers, y.peers);
            assert_eq!(x.country, y.country);
        }
        let c = gen(43);
        // Different seed should differ somewhere.
        let same = a
            .ases
            .iter()
            .zip(&c.ases)
            .all(|(x, y)| x.providers == y.providers && x.country == y.country);
        assert!(!same);
    }

    #[test]
    fn tier1_pops_span_continents() {
        let g = gen(9);
        for a in g.ases.iter().filter(|a| a.tier == AsTier::Tier1) {
            let continents: std::collections::HashSet<_> = a
                .pops
                .iter()
                .map(|p| g.pops[p.index()].country.get().continent)
                .collect();
            assert!(
                continents.len() >= 3,
                "tier-1 {} spans only {:?}",
                a.asn,
                continents
            );
        }
    }

    #[test]
    fn neighbors_iterates_all_relations() {
        let g = gen(10);
        let a = &g.ases[g.len() - 1]; // a stub
        let count = g.neighbors(a.asn).count();
        assert_eq!(count, a.providers.len() + a.customers.len() + a.peers.len());
    }
}
