//! Route propagation and the per-AS / per-PoP decision process.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vp_geo::distance_km;
use vp_net::{mix, unit, Asn, IdVec};
use vp_topology::AsGraph;
use vp_topology::PopId;

use crate::announce::{Announcement, SiteId};
use crate::policy;

/// Where the selected route was learned (the local-pref ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteLevel {
    /// This AS hosts a site itself.
    Origin,
    Customer,
    Peer,
    Provider,
}

/// One equally-preferred (or near-equal) route available at an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The neighbor offering the route (self for origins).
    pub neighbor: Asn,
    /// The anycast site this route leads to.
    pub site: SiteId,
    /// Our PoP where the session to `neighbor` lands (None for origins).
    pub session_pop: Option<PopId>,
}

/// The route state of one AS for the anycast prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRoute {
    pub level: RouteLevel,
    /// Effective AS-path length (prepending included).
    pub path_len: u32,
    /// The deterministically tie-broken best route. For prepend-ignoring
    /// ASes it may be a slack route; such routes are used locally but
    /// never re-advertised.
    pub selected: Candidate,
    /// The strictly best routes: shortest-path ties (≥ 1).
    pub strict: Vec<Candidate>,
    /// Routes within the hot-potato slack (one hop longer), which large
    /// multi-PoP ASes may still use at some PoPs.
    pub slack: Vec<Candidate>,
}

impl AsRoute {
    /// The tie-broken site this AS as a whole routes to.
    pub fn selected_site(&self) -> SiteId {
        self.selected.site
    }

    /// Every available route: the strict ones, then the slack ones.
    pub fn candidates(&self) -> impl Iterator<Item = &Candidate> + '_ {
        self.strict.iter().chain(&self.slack)
    }

    /// Distinct sites reachable over equally-preferred routes.
    pub fn candidate_sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.candidates().map(|c| c.site).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// The converged routing outcome for one announcement configuration.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Per-AS route state. `None` = unreachable.
    pub per_as: IdVec<Asn, Option<AsRoute>>,
    /// Hot-potato site choice per PoP.
    pub per_pop_site: IdVec<PopId, Option<SiteId>>,
}

impl RoutingTable {
    /// The site traffic from this PoP reaches (the catchment of every block
    /// homed on the PoP).
    pub fn site_of_pop(&self, pop: PopId) -> Option<SiteId> {
        self.per_pop_site.lookup(pop).copied().flatten()
    }

    /// Distinct sites seen from any PoP of this AS — the quantity behind
    /// the AS-division analysis (Figs. 7, 8).
    pub fn sites_seen_by_as(&self, graph: &AsGraph, asn: Asn) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = graph
            .node(asn)
            .pops
            .iter()
            .filter_map(|&p| self.site_of_pop(p))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Work counters for one [`BgpSim::route`] propagation — the phase
/// profiler's view of route convergence cost. Purely derived from the
/// graph and announcement, so identical across reruns; recorded into a
/// `vp_obs::Registry` with [`RouteObs::record`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteObs {
    /// ASes that converged on a route.
    pub ases_routed: u64,
    /// ASes left with no route to the prefix.
    pub unreachable: u64,
    /// Heap pops in the customer-route Dijkstra (stage 1), stale included.
    pub heap_pops_customer: u64,
    /// Heap pops in the provider-route descent (stage 3), stale included.
    pub heap_pops_provider: u64,
    /// Candidate routes retained across all ASes (strict + slack).
    pub candidates: u64,
    /// Slack candidates among those (hot-potato-only, never re-exported).
    pub slack_candidates: u64,
    /// PoPs given a hot-potato site assignment.
    pub pops_assigned: u64,
    /// Selected-route counts by [`RouteLevel`]: origin/customer/peer/provider.
    pub selected_by_level: [u64; 4],
}

impl RouteObs {
    /// Folds these counters into a registry as `bgp.*` series.
    pub fn record(&self, registry: &mut vp_obs::Registry) {
        registry.counter_add("bgp.ases_routed", &[], self.ases_routed);
        registry.counter_add("bgp.unreachable", &[], self.unreachable);
        registry.counter_add(
            "bgp.heap_pops",
            &[("stage", "customer")],
            self.heap_pops_customer,
        );
        registry.counter_add(
            "bgp.heap_pops",
            &[("stage", "provider")],
            self.heap_pops_provider,
        );
        registry.counter_add("bgp.candidates", &[], self.candidates);
        registry.counter_add("bgp.slack_candidates", &[], self.slack_candidates);
        registry.counter_add("bgp.pops_assigned", &[], self.pops_assigned);
        for (level, n) in ["origin", "customer", "peer", "provider"]
            .iter()
            .zip(self.selected_by_level)
        {
            registry.counter_add("bgp.selected", &[("level", level)], n);
        }
    }
}

/// The simulator: owns decision-policy knobs, borrows the graph.
#[derive(Debug, Clone)]
pub struct BgpSim<'a> {
    graph: &'a AsGraph,
    policy_seed: u64,
    /// Fraction of ASes that ignore prepending ([`policy::ignores_prepending`]).
    ignore_prepend_fraction: f64,
}

impl<'a> BgpSim<'a> {
    pub fn new(graph: &'a AsGraph, policy_seed: u64) -> Self {
        BgpSim {
            graph,
            policy_seed,
            ignore_prepend_fraction: 0.02,
        }
    }

    /// Overrides the fraction of prepend-ignoring ASes (0 disables).
    pub fn with_ignore_prepend_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.ignore_prepend_fraction = f;
        self
    }

    /// Computes the converged routing table for `ann`.
    ///
    /// Runs the standard three-stage valley-free propagation: customer
    /// routes climb provider links (Dijkstra, since prepended origins start
    /// at different costs), peer routes take one lateral hop, provider
    /// routes descend customer links using each AS's pref-selected export.
    pub fn route(&self, ann: &Announcement) -> RoutingTable {
        self.route_traced(ann).0
    }

    /// Like [`BgpSim::route`], additionally returning the propagation work
    /// counters (same table, bit for bit — the counters are observers).
    pub fn route_traced(&self, ann: &Announcement) -> (RoutingTable, RouteObs) {
        let mut obs = RouteObs::default();
        let ases = &self.graph.ases;
        const INF: u32 = u32::MAX;

        let mut origin_site: IdVec<Asn, Option<(SiteId, u32)>> = ases.map(|_| None);
        for site in ann.active_sites() {
            origin_site[site.host_asn] = Some((site.id, site.prepend as u32));
        }

        // Stage 1: customer routes (and origin injections) climb upward.
        let mut dist_cust = ases.map(|_| INF);
        let mut heap: BinaryHeap<Reverse<(u32, Asn)>> = BinaryHeap::new();
        for (a, o) in origin_site.iter_enumerated() {
            if let Some((_, prepend)) = *o {
                dist_cust[a] = prepend;
                heap.push(Reverse((prepend, a)));
            }
        }
        while let Some(Reverse((d, a))) = heap.pop() {
            obs.heap_pops_customer += 1;
            if d > dist_cust[a] {
                continue;
            }
            for &p in &ases[a].providers {
                // Origins keep their own route; they never adopt customer
                // routes for the anycast prefix.
                if origin_site[p].is_some() {
                    continue;
                }
                if d + 1 < dist_cust[p] {
                    dist_cust[p] = d + 1;
                    heap.push(Reverse((d + 1, p)));
                }
            }
        }

        // Stage 2: peer routes — one lateral hop from ASes whose best route
        // is customer-learned (or originated).
        let mut dist_peer = ases.map(|_| INF);
        for (a, node) in ases.iter_enumerated() {
            if origin_site[a].is_some() {
                continue;
            }
            for &q in &node.peers {
                let qd = dist_cust[q];
                if qd != INF && qd + 1 < dist_peer[a] {
                    dist_peer[a] = qd + 1;
                }
            }
        }

        // Stage 3: provider routes descend customer links. Every AS exports
        // its pref-selected best (customer beats peer beats provider), so
        // ASes with customer/peer routes are fixed-cost sources, and every
        // AS with only a provider route is pushed, so each routed AS's
        // export_len is set when it pops.
        let mut dist_prov = ases.map(|_| INF);
        let mut export_len = ases.map(|_| INF);
        let mut heap: BinaryHeap<Reverse<(u32, Asn)>> = BinaryHeap::new();
        let mut popped = ases.map(|_| false);
        for a in ases.ids() {
            let fixed = if dist_cust[a] != INF {
                dist_cust[a]
            } else if dist_peer[a] != INF {
                dist_peer[a]
            } else {
                continue;
            };
            export_len[a] = fixed;
            heap.push(Reverse((fixed, a)));
        }
        while let Some(Reverse((d, a))) = heap.pop() {
            obs.heap_pops_provider += 1;
            if popped[a] {
                continue;
            }
            popped[a] = true;
            export_len[a] = d;
            for &c in &ases[a].customers {
                if origin_site[c].is_some() {
                    continue;
                }
                if d + 1 < dist_prov[c] {
                    dist_prov[c] = d + 1;
                    // Only provider-route-dependent ASes re-export at this
                    // cost; others were already seeded with their fixed one.
                    if dist_cust[c] == INF && dist_peer[c] == INF {
                        heap.push(Reverse((d + 1, c)));
                    }
                }
            }
        }

        // Stage 4: selection with site identity, in increasing export_len
        // order so every neighbor's routes are final before use. Per-PoP
        // (hot-potato) assignment happens inline, because the site a
        // neighbor hands us depends on *which of its PoPs* our session
        // lands on — large ASes export different sites at different
        // interconnection points, which is how catchment splits propagate.
        let mut order: Vec<Asn> = ases.ids().filter(|&a| export_len[a] != INF).collect();
        order.sort_by_key(|&a| export_len[a]);
        let mut per_as: IdVec<Asn, Option<AsRoute>> = ases.map(|_| None);
        let mut per_pop_site: IdVec<PopId, Option<SiteId>> = self.graph.pops.map(|_| None);
        // What each PoP *advertises* over its sessions: hot-potato over the
        // strictly-best routes only. Slack routes never propagate — their
        // longer AS path would otherwise be laundered into the strict
        // length at every multi-PoP AS, neutering prepending downstream.
        let mut per_pop_export: IdVec<PopId, Option<SiteId>> = self.graph.pops.map(|_| None);
        for &asn in &order {
            let node = &ases[asn];
            let ignores =
                policy::ignores_prepending(self.policy_seed, self.ignore_prepend_fraction, asn);
            let route = if let Some((site, prepend)) = origin_site[asn] {
                let origin = Candidate {
                    neighbor: asn,
                    site,
                    session_pop: None,
                };
                AsRoute {
                    level: RouteLevel::Origin,
                    path_len: prepend,
                    selected: origin,
                    strict: vec![origin],
                    slack: Vec::new(),
                }
            } else {
                // The level's neighbors, and the length each offers: its
                // export_len, so a neighbor offering more than `len` is
                // not routed yet and is never heard.
                let (level, neighbors, offers) = if dist_cust[asn] != INF {
                    (RouteLevel::Customer, &node.customers, &dist_cust)
                } else if dist_peer[asn] != INF {
                    (RouteLevel::Peer, &node.peers, &dist_cust)
                } else {
                    (RouteLevel::Provider, &node.providers, &export_len)
                };
                let len = export_len[asn];
                // Strict candidates tie on shortest path and propagate.
                // Slack candidates are one hop longer (equal offers): they
                // serve local traffic only and are never re-advertised, so
                // no AS launders a prepended path into a short one for its
                // whole customer cone.
                let (mut strict, mut slack) = (Vec::new(), Vec::new());
                for &neighbor in neighbors {
                    let bucket = match offers[neighbor] {
                        INF => continue,
                        offer if offer + 1 == len => &mut strict,
                        offer if offer == len => &mut slack,
                        _ => continue,
                    };
                    // The route the neighbor hands us at this session is
                    // the one its PoP there advertises; a neighbor not yet
                    // routed advertises nothing.
                    let their_pop = self.graph.session_pop(neighbor, asn);
                    let Some(site) = their_pop.and_then(|sp| per_pop_export[sp]) else {
                        continue;
                    };
                    bucket.push(Candidate {
                        neighbor,
                        site,
                        session_pop: self.graph.session_pop(asn, neighbor),
                    });
                }
                // Prepend-ignoring ASes pick among everything they hear;
                // everyone else tie-breaks among the strictly best. Strict
                // is never empty (the neighbor offering `len - 1` has the
                // shorter export_len, so it was routed first), but a
                // selection that breaks the local-pref ladder must leave
                // the AS routeless, not divide by zero.
                let pick_span = strict.len() + if ignores { slack.len() } else { 0 };
                let pick = mix(self.policy_seed, u64::from(asn.0)).checked_rem(pick_span as u64);
                let Some(&selected) =
                    pick.and_then(|p| strict.iter().chain(&slack).nth(p as usize))
                else {
                    continue;
                };
                AsRoute {
                    level,
                    path_len: len,
                    selected,
                    strict,
                    slack,
                }
            };
            // Hot-potato per-PoP egress for this AS, over the strict routes
            // and the `slack` given. Every cost is finite, so the first
            // cheapest candidate always replaces the fold's seed.
            let hot_potato = |pop: PopId, slack: &[Candidate]| -> SiteId {
                if let ([only], []) = (route.strict.as_slice(), slack) {
                    return only.site;
                }
                let here = &self.graph.pops[pop];
                let mut best = (f64::INFINITY, route.selected.site);
                for cand in route.strict.iter().chain(slack) {
                    let d = match cand.session_pop {
                        Some(sp) => {
                            let p = &self.graph.pops[sp];
                            // IGP costs are not great-circle distances; a
                            // deterministic +-25% jitter keyed by (pop,
                            // neighbor) models the difference and breaks
                            // co-located session ties.
                            let key = (pop.0 as u64) << 32 | cand.neighbor.0 as u64;
                            let igp_noise = 0.75 + 0.5 * unit(mix(self.policy_seed ^ 0x16b, key));
                            (distance_km(here.lat, here.lon, p.lat, p.lon) + 50.0) * igp_noise
                        }
                        None => 0.0,
                    };
                    if d < best.0 {
                        best = (d, cand.site);
                    }
                }
                best.1
            };
            // Distant PoPs of a large AS exit via their nearest session even
            // when its path is one hop longer; exports advertise only the
            // strictly best routes.
            let uses_slack = policy::uses_slack_locally(node.pops.len(), ignores);
            let local_slack: &[Candidate] = if uses_slack { &route.slack } else { &[] };
            for &pop in &node.pops {
                per_pop_site[pop] = Some(hot_potato(pop, local_slack));
                per_pop_export[pop] = Some(hot_potato(pop, &[]));
            }
            obs.pops_assigned += node.pops.len() as u64;
            obs.candidates += (route.strict.len() + route.slack.len()) as u64;
            obs.slack_candidates += route.slack.len() as u64;
            let [origin, customer, peer, provider] = &mut obs.selected_by_level;
            *match route.level {
                RouteLevel::Origin => origin,
                RouteLevel::Customer => customer,
                RouteLevel::Peer => peer,
                RouteLevel::Provider => provider,
            } += 1;
            per_as[asn] = Some(route);
        }

        obs.ases_routed = per_as.iter().filter(|r| r.is_some()).count() as u64;
        obs.unreachable = ases.len() as u64 - obs.ases_routed;
        (
            RoutingTable {
                per_as,
                per_pop_site,
            },
            obs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::announce::Announcement;
    use vp_topology::{broot_specs, pick_host_ases, tangled_specs, Internet, TopologyConfig};

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(77))
    }

    fn broot(world: &Internet) -> Announcement {
        Announcement::from_placements(&pick_host_ases(world, &broot_specs()), 0)
    }

    #[test]
    fn every_as_gets_a_route() {
        let w = world();
        let sim = BgpSim::new(&w.graph, 7);
        let table = sim.route(&broot(&w));
        for (i, r) in table.per_as.iter().enumerate() {
            assert!(r.is_some(), "AS{i} has no route");
        }
        for (i, s) in table.per_pop_site.iter().enumerate() {
            assert!(s.is_some(), "pop {i} has no site");
        }
    }

    #[test]
    fn origins_route_to_themselves() {
        let w = world();
        let ann = broot(&w);
        let sim = BgpSim::new(&w.graph, 7);
        let table = sim.route(&ann);
        for site in ann.active_sites() {
            let r = table.per_as[site.host_asn].as_ref().unwrap();
            assert_eq!(r.level, RouteLevel::Origin);
            assert_eq!(r.selected_site(), site.id);
            // All PoPs of the host AS stay home.
            for &pop in &w.graph.node(site.host_asn).pops {
                assert_eq!(table.site_of_pop(pop), Some(site.id));
            }
        }
    }

    #[test]
    fn both_sites_attract_some_catchment() {
        let w = world();
        let sim = BgpSim::new(&w.graph, 7);
        let table = sim.route(&broot(&w));
        let mut counts = [0usize; 2];
        for r in table.per_as.iter().flatten() {
            counts[r.selected_site().index()] += 1;
        }
        assert!(counts[0] > 0 && counts[1] > 0, "counts {counts:?}");
    }

    #[test]
    fn disabling_a_site_sends_everything_to_the_other() {
        let w = world();
        let mut ann = broot(&w);
        ann.set_enabled("MIA", false);
        let sim = BgpSim::new(&w.graph, 7);
        let table = sim.route(&ann);
        let lax = ann.site_by_name("LAX").unwrap().id;
        for r in table.per_as.iter().flatten() {
            assert_eq!(r.selected_site(), lax);
        }
    }

    #[test]
    fn prepending_monotonically_shrinks_a_catchment() {
        let w = world();
        let sim = BgpSim::new(&w.graph, 7).with_ignore_prepend_fraction(0.0);
        let mia = 1usize; // site index of MIA in broot specs
        let mut prev = usize::MAX;
        for prepend in 0..=3u8 {
            let mut ann = broot(&w);
            ann.set_prepend("MIA", prepend);
            let table = sim.route(&ann);
            let mia_count = table
                .per_as
                .iter()
                .flatten()
                .filter(|r| r.selected_site().index() == mia)
                .count();
            assert!(
                mia_count <= prev,
                "prepend {prepend}: catchment grew {prev} -> {mia_count}"
            );
            prev = mia_count;
        }
    }

    #[test]
    fn host_customers_stick_through_prepending() {
        // The paper's §6.1 residual: direct customers of MIA's host AS keep
        // routing to MIA even at +3 prepending, because customer routes win
        // on local-pref before path length is compared.
        let w = world();
        let mut ann = broot(&w);
        ann.set_prepend("MIA", 3);
        let mia_site = ann.site_by_name("MIA").unwrap();
        let sim = BgpSim::new(&w.graph, 7).with_ignore_prepend_fraction(0.0);
        let table = sim.route(&ann);
        for c in &w.graph.node(mia_site.host_asn).customers {
            let r = table.per_as[*c].as_ref().unwrap();
            // Customer of the origin: its customer-level route to MIA is
            // one hop; LAX can only be reached via providers/peers at best,
            // or via another customer chain. If its level is Customer and
            // MIA's host is the only customer-route source, it must be MIA.
            if r.level == RouteLevel::Customer
                && r.path_len == ann.site_by_name("MIA").unwrap().prepend as u32 + 1
            {
                assert_eq!(r.selected_site(), mia_site.id);
            }
        }
    }

    #[test]
    fn tangled_all_nine_sites_reachable() {
        let w = world();
        let ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 1);
        let sim = BgpSim::new(&w.graph, 3);
        let table = sim.route(&ann);
        let mut seen = std::collections::BTreeSet::new();
        for r in table.per_as.iter().flatten() {
            seen.insert(r.selected_site());
        }
        // Every site is at least its own origin's catchment.
        assert_eq!(seen.len(), 9, "sites seen: {seen:?}");
    }

    #[test]
    fn routing_is_deterministic() {
        let w = world();
        let ann = broot(&w);
        let sim = BgpSim::new(&w.graph, 9);
        let a = sim.route(&ann);
        let b = sim.route(&ann);
        for (x, y) in a.per_as.iter().zip(b.per_as.iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.per_pop_site, b.per_pop_site);
    }

    #[test]
    fn policy_seed_changes_tie_breaks_only_modestly() {
        let w = world();
        let ann = broot(&w);
        let t1 = BgpSim::new(&w.graph, 1).route(&ann);
        let t2 = BgpSim::new(&w.graph, 2).route(&ann);
        let total = t1.per_as.len();
        let differ = t1
            .per_as
            .iter()
            .zip(t2.per_as.iter())
            .filter(|(a, b)| {
                a.as_ref().map(|r| r.selected_site()) != b.as_ref().map(|r| r.selected_site())
            })
            .count();
        // Path structure dominates; tie-breaks move only a minority.
        assert!(
            differ * 2 < total,
            "{differ}/{total} ASes moved on a seed change"
        );
    }

    #[test]
    fn candidates_are_consistent() {
        let w = world();
        let ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 1);
        let sim = BgpSim::new(&w.graph, 3);
        let table = sim.route(&ann);
        for (a, r) in table.per_as.iter_enumerated() {
            let r = r.as_ref().unwrap();
            assert!(r.candidates().any(|c| *c == r.selected));
            assert!(!r.strict.is_empty());
            for c in r.candidates() {
                if r.level != RouteLevel::Origin {
                    assert_ne!(c.neighbor, a, "self candidate on non-origin");
                    assert!(c.session_pop.is_some());
                }
            }
            let sites = r.candidate_sites();
            assert!(sites.contains(&r.selected_site()));
        }
    }

    #[test]
    fn sites_seen_by_as_matches_pop_assignments() {
        let w = world();
        let ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 1);
        let table = BgpSim::new(&w.graph, 3).route(&ann);
        for node in w.graph.ases.iter() {
            let sites = table.sites_seen_by_as(&w.graph, node.asn);
            for &pop in &node.pops {
                let s = table.site_of_pop(pop).unwrap();
                assert!(sites.contains(&s));
            }
        }
    }

    #[test]
    fn some_multi_pop_ases_split_across_sites() {
        // Hot-potato must create at least some intra-AS divisions in a
        // nine-site deployment (Figs. 7-8's subject matter).
        let w = world();
        let ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 1);
        let table = BgpSim::new(&w.graph, 3).route(&ann);
        let split = w
            .graph
            .ases
            .iter()
            .filter(|n| table.sites_seen_by_as(&w.graph, n.asn).len() > 1)
            .count();
        assert!(split > 0, "no AS is split across sites");
    }
}
