//! The AS-level graph: tiers, Gao–Rexford relationships and PoPs.

use std::collections::BTreeMap;

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use vp_geo::{countries, distance_km, Continent, CountryId};
use vp_net::{Asn, Id, IdVec};

use crate::config::TopologyConfig;

/// Position of an AS in the routing hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsTier {
    /// Fully meshed, provider-free backbone.
    Tier1,
    /// Has both providers and customers.
    Transit,
    /// Only providers; originates prefixes, transits nothing.
    Stub,
}

/// Index of a point of presence in [`AsGraph::pops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PopId(pub u32);

impl Id for PopId {
    fn from_index(index: usize) -> Self {
        PopId(vp_net::conv::sat_u32(index))
    }

    fn index(self) -> usize {
        vp_net::conv::index(self.0)
    }
}

/// A point of presence: where an AS physically is.
#[derive(Debug, Clone)]
pub struct Pop {
    pub id: PopId,
    pub asn: Asn,
    pub country: CountryId,
    pub lat: f64,
    pub lon: f64,
}

/// One autonomous system.
#[derive(Debug, Clone)]
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
///
/// Its tables are keyed by their own ids, `ases[asn]` and `pops[pop]`;
/// a PoP cannot index a per-AS table:
///
/// ```compile_fail,E0277
/// # use vp_topology::{Internet, PopId, TopologyConfig};
/// let world = Internet::generate(TopologyConfig::tiny(1));
/// let _ = &world.graph.ases[PopId(0)];
/// ```
#[derive(Debug, Clone)]
pub struct AsGraph {
    pub ases: IdVec<Asn, AsNode>,
    pub pops: IdVec<PopId, Pop>,
    /// The directed sessions, one compressed row per AS: `a`'s row is
    /// `sessions[session_start[a]..session_start[a + 1]]`, each entry a
    /// neighbour `b` (ascending) and the PoP of `a` where the session to
    /// `b` lands. Both directions are always present.
    session_start: Vec<u32>,
    sessions: Vec<(Asn, PopId)>,
}

impl AsGraph {
    /// The node for `asn`. Panics on an ASN of another graph.
    pub fn node(&self, asn: Asn) -> &AsNode {
        &self.ases[asn]
    }

    /// `a`'s row of sessions: `(b, pop)`, ascending by `b`.
    fn sessions_of(&self, a: Asn) -> &[(Asn, PopId)] {
        let start = |i: usize| self.session_start.get(i).map(|&s| vp_net::conv::index(s));
        let (Some(first), Some(end)) = (start(a.index()), start(a.index() + 1)) else {
            return &[];
        };
        self.sessions.get(first..end).unwrap_or_default()
    }

    /// The PoP anchoring the session from `a` toward `b`, if adjacent.
    pub fn session_pop(&self, a: Asn, b: Asn) -> Option<PopId> {
        let row = self.sessions_of(a);
        let i = row.binary_search_by_key(&b, |&(n, _)| n).ok()?;
        row.get(i).map(|&(_, pop)| pop)
    }

    /// Every directed session `((a, b), pop)`, ascending by `(a, b)`:
    /// `pop` is the PoP of `a` where its session to `b` lands.
    pub fn sessions(&self) -> impl Iterator<Item = ((Asn, Asn), PopId)> + '_ {
        let row = move |a| {
            self.sessions_of(a)
                .iter()
                .map(move |&(b, pop)| ((a, b), pop))
        };
        self.ases.ids().flat_map(row)
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
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the country table is a static constant with positive weights that holds every backbone code; each draw is below the length of the list it indexes"
    )]
    pub fn generate<R: Rng>(cfg: &TopologyConfig, rng: &mut R) -> AsGraph {
        assert!(cfg.num_tier1 >= 2, "need at least two tier-1 ASes");
        assert!(cfg.num_ases > cfg.num_tier1, "need more ASes than tier-1s");
        let world = countries();
        let user_weights: Vec<f64> = world.iter().map(|c| c.user_weight).collect();
        let country_dist = WeightedIndex::new(&user_weights).expect("non-empty country table");

        // Tier-1s live where the big backbones are.
        let tier1_homes: Vec<CountryId> = {
            let backbone = ["US", "US", "US", "DE", "FR", "GB", "NL", "JP", "SE", "IT"];
            (0..cfg.num_tier1)
                .map(|i| {
                    let code = backbone[i % backbone.len()];
                    vp_geo::country_by_code(code).expect("backbone country").0
                })
                .collect()
        };

        let num_transit = ((cfg.num_ases - cfg.num_tier1) as f64 * cfg.transit_fraction) as usize;
        let mut ases: Vec<AsNode> = Vec::with_capacity(cfg.num_ases);
        for i in 0..cfg.num_ases {
            let (tier, country) = if let Some(&home) = tier1_homes.get(i) {
                (AsTier::Tier1, home)
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
            node.pops.reserve_exact(pop_countries.len());
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
            for (i, node) in ases
                .iter()
                .enumerate()
                .take(transit_range.end)
                .skip(transit_range.start)
            {
                m.entry(node.country.get().continent).or_default().push(i);
            }
            m
        };
        for (i, node) in ases.iter().enumerate().skip(transit_range.end) {
            let n_prov = sample_provider_count(cfg.mean_providers, rng);
            let cont = node.country.get().continent;
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

        // Transit-transit peering: one draw per transit pair, in pair order.
        let transit_continents: Vec<Continent> = ases
            .iter()
            .skip(transit_range.start)
            .take(num_transit)
            .map(|node| node.country.get().continent)
            .collect();
        for (ai, &ca) in transit_continents.iter().enumerate() {
            for (bi, &cb) in transit_continents.iter().enumerate().skip(ai + 1) {
                let p = if ca == cb {
                    cfg.peer_prob_same_continent
                } else {
                    cfg.peer_prob_cross_continent
                };
                if rng.gen_bool(p) {
                    edges.push((
                        transit_range.start + ai,
                        transit_range.start + bi,
                        EdgeKind::Peer,
                    ));
                }
            }
        }

        // Materialize edges: one per AS pair, in ascending pair order, and
        // provider–customer wins over peer (`EdgeKind` sorts it first, so
        // it heads its pair's run). Providers always have the smaller
        // index, so `(lo, hi)` is `(provider, customer)`.
        for edge in &mut edges {
            *edge = (edge.0.min(edge.1), edge.0.max(edge.1), edge.2);
        }
        edges.sort_unstable();
        edges.dedup_by_key(|&mut (lo, hi, _)| (lo, hi));
        let anchors: Vec<Anchor> = pops.iter().map(Anchor::new).collect();
        // An AS's PoPs are minted together, so its anchors are one run.
        let anchors_of = |node: &AsNode| {
            let first = node.pops.first().map_or(0, |p| p.index());
            anchors
                .get(first..first + node.pops.len())
                .unwrap_or_default()
        };
        // Every list is allocated once at its exact length: count each
        // AS's relations of each kind and its sessions, then fill.
        let mut degree = vec![[0; 3]; ases.len()];
        let mut session_start = vec![0u32; ases.len() + 1];
        for &(a, b, kind) in edges.iter().filter(|&&(a, b, _)| a != b) {
            let (side_a, side_b) = match kind {
                EdgeKind::ProviderCustomer => (CUSTOMERS, PROVIDERS),
                EdgeKind::Peer => (PEERS, PEERS),
            };
            degree[a][side_a] += 1;
            degree[b][side_b] += 1;
            // `closest_pop_pair` anchors a session iff both ends have a PoP.
            if !ases[a].pops.is_empty() && !ases[b].pops.is_empty() {
                session_start[a + 1] += 1;
                session_start[b + 1] += 1;
            }
        }
        for (node, lists) in ases.iter_mut().zip(&degree) {
            node.providers.reserve_exact(lists[PROVIDERS]);
            node.customers.reserve_exact(lists[CUSTOMERS]);
            node.peers.reserve_exact(lists[PEERS]);
        }
        let mut total = 0;
        for start in &mut session_start {
            total += *start;
            *start = total;
        }
        // Edges ascend by `(lo, hi)`, so each AS's row fills in ascending
        // neighbour order: first the edges it is `hi` of, then `lo` of.
        let mut next = session_start.clone();
        let mut sessions = vec![(Asn(0), PopId(0)); vp_net::conv::index(total)];
        let mut put = |a: usize, entry| {
            sessions[vp_net::conv::index(next[a])] = entry;
            next[a] += 1;
        };
        for (a, b, kind) in edges {
            let Ok([node_a, node_b]) = ases.get_disjoint_mut([a, b]) else {
                continue;
            };
            let (asn_a, asn_b) = (node_a.asn, node_b.asn);
            match kind {
                EdgeKind::ProviderCustomer => {
                    node_a.customers.push(asn_b);
                    node_b.providers.push(asn_a);
                }
                EdgeKind::Peer => {
                    node_a.peers.push(asn_b);
                    node_b.peers.push(asn_a);
                }
            }
            // Anchor the session at the geographically closest PoP pair.
            if let Some((pop_a, pop_b)) = closest_pop_pair(anchors_of(node_a), anchors_of(node_b)) {
                put(a, (asn_b, pop_a));
                put(b, (asn_a, pop_b));
            }
        }

        AsGraph {
            ases: ases.into(),
            pops: pops.into(),
            session_start,
            sessions,
        }
    }
}

/// Columns of the per-AS relation counts `generate` sizes lists from.
const PROVIDERS: usize = 0;
const CUSTOMERS: usize = 1;
const PEERS: usize = 2;

/// Declaration order is the dedup rank: a provider–customer edge wins
/// over a peering between the same two ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// A PoP as [`closest_pop_pair`] reads it: its coordinates and its unit
/// vector on the sphere.
struct Anchor {
    id: PopId,
    lat: f64,
    lon: f64,
    unit: [f64; 3],
}

impl Anchor {
    fn new(pop: &Pop) -> Anchor {
        let (lat, lon) = (pop.lat.to_radians(), pop.lon.to_radians());
        Anchor {
            id: pop.id,
            lat: pop.lat,
            lon: pop.lon,
            unit: [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()],
        }
    }

    /// Cosine of the great-circle angle to `other`.
    fn dot(&self, other: &Anchor) -> f64 {
        let ([x, y, z], [u, v, w]) = (self.unit, other.unit);
        x * u + y * v + z * w
    }
}

/// How far below the best dot product a PoP pair may fall and still have
/// its haversine distance evaluated by [`closest_pop_pair`].
const DOT_SLACK: f64 = 1e-9;

/// The closest pair of PoPs between two ASes: of all pairs in `a`-major
/// order, the first whose [`distance_km`] is strictly smaller than every
/// earlier one's. `None` only if an AS has no PoP.
///
/// The haversine runs only on pairs whose dot product is within
/// [`DOT_SLACK`] of the best — usually one pair instead of all of them —
/// and the result is exactly the brute-force one. The haversine term is
/// `h = (1 − cos θ) / 2`, so distance order is dot-product order up to
/// rounding: `h` and the dot product are each off their true values by a
/// few ulps (~1e-15), and the last-ulp steps of `sqrt`/`asin` cannot
/// reorder two distances whose `h` differ by more. So the pair the exact
/// rule picks has a dot product within ~1e-14 of the best, far inside the
/// slack; every pair left out is strictly farther than the minimum and
/// cannot be the first to reach it; the survivors are compared by the
/// exact rule in the same order. A NaN distance (an antipodal pair whose
/// rounded `h` exceeds 1) is never picked by either rule, and the best
/// dot product belongs to such a pair only when every pair is antipodal
/// to within rounding — then every pair survives.
fn closest_pop_pair(a: &[Anchor], b: &[Anchor]) -> Option<(PopId, PopId)> {
    let ([first_a, ..], [first_b, ..]) = (a, b) else {
        return None;
    };
    let best_dot = a
        .iter()
        .flat_map(|x| b.iter().map(move |y| x.dot(y)))
        .fold(f64::NEG_INFINITY, f64::max);
    let floor = best_dot - DOT_SLACK;
    let mut best = (first_a.id, first_b.id);
    let mut best_d = f64::INFINITY;
    for x in a {
        for y in b.iter().filter(|y| x.dot(y) >= floor) {
            let d = distance_km(x.lat, x.lon, y.lat, y.lon);
            if d < best_d {
                best_d = d;
                best = (x.id, y.id);
            }
        }
    }
    Some(best)
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
        assert_eq!(g.ases.len(), 120);
        assert!(g.pops.len() >= g.ases.len()); // every AS has >= 1 PoP
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
        for a in g.ases.iter() {
            if a.tier != AsTier::Tier1 {
                assert!(!a.providers.is_empty(), "{} is orphaned", a.asn);
            }
        }
    }

    #[test]
    fn relationships_are_symmetric() {
        let g = gen(4);
        for a in g.ases.iter() {
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
        for a in g.ases.iter() {
            for p in &a.providers {
                assert!(p.index() < a.asn.index(), "{} -> provider {}", a.asn, p);
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = gen(6);
        for a in g.ases.iter() {
            if a.tier == AsTier::Stub {
                assert!(a.customers.is_empty(), "{} is a stub with customers", a.asn);
            }
        }
    }

    #[test]
    fn adjacency_pops_belong_to_their_as() {
        let g = gen(7);
        for ((a, b), pop) in g.sessions() {
            assert_eq!(g.pops[pop].asn, a);
            assert!(g.node(a).pops.contains(&pop));
            assert_eq!(g.session_pop(a, b), Some(pop));
            // Both directions exist.
            assert!(g.session_pop(b, a).is_some());
        }
        // One session each way per relation, and no other.
        let sessions: Vec<_> = g.sessions().map(|(key, _)| key).collect();
        assert!(sessions.windows(2).all(|w| w[0] < w[1]));
        let relations: usize = g.ases.iter().map(|a| g.neighbors(a.asn).count()).sum();
        assert_eq!(sessions.len(), relations);
    }

    /// The brute-force rule `closest_pop_pair` must reproduce exactly: a
    /// haversine for every pair, the first strictly smaller one kept.
    fn brute_force_pop_pair(a: &[Anchor], b: &[Anchor]) -> (PopId, PopId) {
        let mut best = (a[0].id, b[0].id);
        let mut best_d = f64::INFINITY;
        for x in a {
            for y in b {
                let d = distance_km(x.lat, x.lon, y.lat, y.lon);
                if d < best_d {
                    best_d = d;
                    best = (x.id, y.id);
                }
            }
        }
        best
    }

    /// Turns a drawn `(kind, lat, lon)` into a PoP coordinate, some kinds
    /// derived from the points already placed: poles, both sides of the
    /// antimeridian, exact duplicates and exact antipodes of any earlier
    /// point, and mirror images across the first point (pairs at the same
    /// true distance whose dot products and haversines round apart).
    fn place(kind: u8, lat: f64, lon: f64, placed: &[(f64, f64)]) -> (f64, f64) {
        let wrap = |lon: f64| match lon {
            l if l > 180.0 => l - 360.0,
            l if l < -180.0 => l + 360.0,
            l => l,
        };
        let pick = placed
            .get(lon.abs() as usize % placed.len().max(1))
            .copied();
        match (kind, pick, placed.first().copied()) {
            (1, ..) => (89.9_f64.copysign(lat), lon),
            (2, ..) => (lat, 180.0_f64.copysign(lon)),
            (3, ..) => (lat, 179.9999_f64.copysign(lon)),
            (4, Some(p), _) => p,
            (5, Some((la, lo)), _) => (-la, wrap(lo + 180.0)),
            (6, _, Some((la, lo))) => (la, wrap(lo + 0.5)),
            (7, _, Some((la, lo))) => (la, wrap(lo - 0.5)),
            (8, _, Some((la, lo))) => ((la + 0.25).min(89.9), lo),
            (9, _, Some((la, lo))) => ((la - 0.25).max(-89.9), lo),
            _ => (lat, lon),
        }
    }

    fn anchors(coords: &[(f64, f64)], first_id: u32) -> Vec<Anchor> {
        let pop = |(i, &(lat, lon)): (usize, &(f64, f64))| Pop {
            id: PopId(first_id + i as u32),
            asn: Asn(0),
            country: CountryId(0),
            lat,
            lon,
        };
        coords
            .iter()
            .enumerate()
            .map(pop)
            .map(|p| Anchor::new(&p))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        #[test]
        fn closest_pop_pair_equals_the_brute_force_haversine(
            drawn_a in proptest::collection::vec((0u8..10, -89.9f64..89.9, -180.0f64..180.0), 1..11),
            drawn_b in proptest::collection::vec((0u8..10, -89.9f64..89.9, -180.0f64..180.0), 1..7),
        ) {
            let mut placed: Vec<(f64, f64)> = Vec::new();
            for &(kind, lat, lon) in drawn_a.iter().chain(&drawn_b) {
                let point = place(kind, lat, lon, &placed);
                placed.push(point);
            }
            let (a, b) = placed.split_at(drawn_a.len());
            let (a, b) = (anchors(a, 0), anchors(b, 100));
            proptest::prop_assert_eq!(closest_pop_pair(&a, &b), Some(brute_force_pop_pair(&a, &b)));
            proptest::prop_assert_eq!(closest_pop_pair(&b, &a), Some(brute_force_pop_pair(&b, &a)));
        }
    }

    #[test]
    fn closest_pop_pair_needs_a_pop_on_each_side() {
        let one = anchors(&[(52.0, 5.0)], 0);
        assert_eq!(closest_pop_pair(&one, &[]), None);
        assert_eq!(closest_pop_pair(&[], &one), None);
    }

    #[test]
    fn all_ases_reach_tier1_via_providers() {
        let g = gen(8);
        for a in g.ases.iter() {
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
        assert_eq!(a.ases.len(), b.ases.len());
        for (x, y) in a.ases.iter().zip(b.ases.iter()) {
            assert_eq!(x.providers, y.providers);
            assert_eq!(x.peers, y.peers);
            assert_eq!(x.country, y.country);
        }
        let c = gen(43);
        // Different seed should differ somewhere.
        let same = a
            .ases
            .iter()
            .zip(c.ases.iter())
            .all(|(x, y)| x.providers == y.providers && x.country == y.country);
        assert!(!same);
    }

    #[test]
    fn tier1_pops_span_continents() {
        let g = gen(9);
        for a in g.ases.iter().filter(|a| a.tier == AsTier::Tier1) {
            let continents: std::collections::BTreeSet<_> = a
                .pops
                .iter()
                .map(|p| g.pops[*p].country.get().continent)
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
        let a = g.ases.iter().last().unwrap(); // a stub
        let count = g.neighbors(a.asn).count();
        assert_eq!(count, a.providers.len() + a.customers.len() + a.peers.len());
    }
}
