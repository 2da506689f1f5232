//! Anycast site placement: choosing host ASes for a service's sites.
//!
//! Mirrors Table 3 of the paper: each anycast site is hosted inside some
//! AS ("Host"/"Upstream") at a concrete location. [`pick_host_ases`] picks
//! deterministic, distinct transit ASes in the requested countries, so the
//! B-Root world (LAX + MIA) and the nine-site Tangled world can be laid
//! out on any generated topology.

use serde::Serialize;
use vp_geo::world::country_by_code;
use vp_net::Asn;

use crate::graph::{AsTier, PopId};
use crate::internet::Internet;

/// A placed anycast site: a name (paper-style IATA tag), the hosting AS and
/// the concrete PoP where the service announces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SitePlacement {
    pub name: String,
    pub host_asn: Asn,
    pub pop: PopId,
}

/// Picks one hosting AS per `(site name, country code)` spec.
///
/// Selection is deterministic: the lowest-numbered transit AS with a PoP in
/// the requested country that is not already used; falls back to stub ASes,
/// then to any AS in the country, then to any unused transit AS at all.
///
/// # Panics
/// Panics if the world has fewer distinct candidate ASes than sites, or an
/// unknown country code is given.
#[expect(
    clippy::panic,
    clippy::indexing_slicing,
    reason = "documented `# Panics` contract; every index is a dense ASN or PoP id of this world, and d is sized to its AS count"
)]
pub fn pick_host_ases(world: &Internet, specs: &[(&str, &str)]) -> Vec<SitePlacement> {
    let mut used: Vec<Asn> = Vec::new();
    let mut out = Vec::new();
    for (name, code) in specs {
        let (country, _) = country_by_code(code)
            .unwrap_or_else(|| panic!("unknown country code {code:?}"));
        // Target connectivity: the median transit degree, so all sites of a
        // deployment end up on comparably connected hosts — wildly uneven
        // hosts would let one site's customer cone swallow the catchment.
        let median_degree = {
            let mut degrees: Vec<usize> = world
                .graph
                .ases
                .iter()
                .filter(|n| n.tier == AsTier::Transit)
                .map(|n| n.customers.len() + n.peers.len())
                .collect();
            degrees.sort_unstable();
            degrees.get(degrees.len() / 2).copied().unwrap_or(0)
        };
        // Depth below the tier-1 core, per AS. Hosts must sit at equal,
        // shallow depth: a host three provider-hops deeper than its sibling
        // starts every BGP path-length comparison three hops behind, which
        // no realistic prepending could compensate (and B-Root's real
        // upstreams were both well-connected).
        let depth = {
            let n = world.graph.len();
            let mut d = vec![usize::MAX; n];
            // Providers always have smaller dense ASNs, so one forward pass
            // suffices.
            for i in 0..n {
                let node = &world.graph.ases[i];
                d[i] = if node.tier == AsTier::Tier1 {
                    0
                } else {
                    node.providers
                        .iter()
                        .map(|p| d[p.index()].saturating_add(1))
                        .min()
                        .unwrap_or(usize::MAX)
                };
            }
            d
        };
        let mut pick = None;
        // Pass 1: transit AS with a PoP in the country (degree-balanced).
        // Pass 2: any AS with a PoP in the country.
        // Pass 3: any unused transit or tier-1 AS.
        for pass in 0..3 {
            if pick.is_some() {
                break;
            }
            let mut best: Option<(usize, &crate::graph::AsNode, PopId)> = None;
            for node in &world.graph.ases {
                if used.contains(&node.asn) {
                    continue;
                }
                let tier_ok = match pass {
                    0 => node.tier == AsTier::Transit,
                    1 => true,
                    _ => node.tier == AsTier::Transit || node.tier == AsTier::Tier1,
                };
                if !tier_ok {
                    continue;
                }
                let pop_here = node
                    .pops
                    .iter()
                    .find(|p| pass >= 2 || world.graph.pops[p.index()].country == country);
                if let Some(&pop) = pop_here {
                    let degree = node.customers.len() + node.peers.len();
                    // Rank by (closeness to the core, then degree balance):
                    // depth dominates so every site host is a direct (or
                    // near-direct) tier-1 customer.
                    let dist = depth[node.asn.index()].min(9) * 1_000_000
                        + degree.abs_diff(median_degree);
                    if best.as_ref().is_none_or(|(d, b, _)| {
                        dist < *d || (dist == *d && node.asn < b.asn)
                    }) {
                        best = Some((dist, node, pop));
                    }
                }
            }
            if let Some((_, node, pop)) = best {
                pick = Some(SitePlacement {
                    name: (*name).to_owned(),
                    host_asn: node.asn,
                    pop,
                });
            }
        }
        let placement = pick.unwrap_or_else(|| panic!("no candidate AS for site {name} ({code})"));
        used.push(placement.host_asn);
        out.push(placement);
    }
    out
}

/// The B-Root deployment of Table 3: Los Angeles + Miami.
pub fn broot_specs() -> Vec<(&'static str, &'static str)> {
    vec![("LAX", "US"), ("MIA", "US")]
}

/// The nine-site Tangled testbed of Table 3.
///
/// Site tags follow the paper's figures: CDG (Paris), CPH (Copenhagen),
/// ENS (Enschede), HND (Tokyo), IAD (Washington), LHR (London), MIA
/// (Miami), SYD (Sydney), GRU (São Paulo).
pub fn tangled_specs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("SYD", "AU"),
        ("CDG", "FR"),
        ("HND", "JP"),
        ("ENS", "NL"),
        ("LHR", "GB"),
        ("MIA", "US"),
        ("IAD", "US"),
        ("GRU", "BR"),
        ("CPH", "DK"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyConfig;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(21))
    }

    #[test]
    fn broot_sites_are_distinct() {
        let w = world();
        let sites = pick_host_ases(&w, &broot_specs());
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0].host_asn, sites[1].host_asn);
        assert_eq!(sites[0].name, "LAX");
        assert_eq!(sites[1].name, "MIA");
    }

    #[test]
    fn tangled_sites_are_distinct_and_complete() {
        let w = world();
        let sites = pick_host_ases(&w, &tangled_specs());
        assert_eq!(sites.len(), 9);
        let asns: std::collections::BTreeSet<Asn> = sites.iter().map(|s| s.host_asn).collect();
        assert_eq!(asns.len(), 9, "host ASes must be distinct");
    }

    #[test]
    fn placement_is_deterministic() {
        let w = world();
        let a = pick_host_ases(&w, &tangled_specs());
        let b = pick_host_ases(&w, &tangled_specs());
        assert_eq!(a, b);
    }

    #[test]
    fn site_pops_belong_to_host() {
        let w = world();
        for s in pick_host_ases(&w, &tangled_specs()) {
            assert_eq!(w.graph.pops[s.pop.index()].asn, s.host_asn);
        }
    }

    #[test]
    #[should_panic(expected = "unknown country code")]
    fn unknown_country_panics() {
        let w = world();
        pick_host_ases(&w, &[("XXX", "ZZ")]);
    }
}
