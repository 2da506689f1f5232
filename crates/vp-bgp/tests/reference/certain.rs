//! A certain-set model of catchments, after "Inferring Catchment in
//! Internet Routing": from relationships and export policy alone, the
//! sites each AS could route to under any tie-break and any IGP jitter.
//! An AS (and every PoP of it) is *certain* when that set has one site.
//!
//! It shares no code with `BgpSim::route_traced`'s staged Dijkstra runs.
//! Every AS's valley-free label — the (level, length) of its best route —
//! and the sites it may advertise are recomputed from its neighbors' round
//! by round until nothing changes. It reads the graph, the announcement
//! and the `vp_bgp::policy` spec, nothing else.

use std::collections::BTreeSet;

use vp_bgp::{policy, Announcement, RouteLevel, SiteId};
use vp_net::{Asn, IdVec};
use vp_topology::AsGraph;
use vp_topology::PopId;

/// One AS's round state: its best route's (level, length), if any, and
/// the sites its PoPs may advertise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct State {
    label: Option<(RouteLevel, u32)>,
    export: BTreeSet<SiteId>,
}

/// The neighbors an AS hears at a level: customers, peers or providers.
fn heard_from(graph: &AsGraph, asn: Asn, level: RouteLevel) -> &[Asn] {
    let node = graph.node(asn);
    match level {
        RouteLevel::Customer => &node.customers,
        RouteLevel::Peer => &node.peers,
        RouteLevel::Provider => &node.providers,
        RouteLevel::Origin => &[],
    }
}

/// The length a neighbor in state `n` offers an AS that hears it at
/// `level`. Gao–Rexford export: a provider (heard at `Provider`) exports
/// everything to its customers; a customer or a peer exports only the
/// routes it originates or learned from a customer.
fn offer(n: &State, level: RouteLevel) -> Option<u32> {
    let (learned, len) = n.label?;
    let exported = level == RouteLevel::Provider
        || matches!(learned, RouteLevel::Origin | RouteLevel::Customer);
    exported.then_some(len)
}

/// The sites each AS may advertise and use, at the fixed point.
pub(crate) struct CertainSets {
    labels: IdVec<Asn, Option<(RouteLevel, u32)>>,
    /// Per AS: the sites its PoPs may route to (empty when unrouted).
    local: IdVec<Asn, BTreeSet<SiteId>>,
}

impl CertainSets {
    pub(crate) fn compute(
        graph: &AsGraph,
        ann: &Announcement,
        policy_seed: u64,
        ignore_fraction: f64,
    ) -> CertainSets {
        let mut origin: IdVec<Asn, Option<(SiteId, u32)>> = graph.ases.map(|_| None);
        for site in ann.active_sites() {
            origin[site.host_asn] = Some((site.id, u32::from(site.prepend)));
        }
        // The local-pref ladder: the first level heard at all wins.
        let levels = [RouteLevel::Customer, RouteLevel::Peer, RouteLevel::Provider];
        let mut state: IdVec<Asn, State> = graph.ases.map(|_| State::default());
        for round in 0.. {
            assert!(
                round <= 4 * graph.ases.len(),
                "no fixed point after {round} rounds"
            );
            let next = graph.ases.map(|node| {
                if let Some((site, prepend)) = origin[node.asn] {
                    return State {
                        label: Some((RouteLevel::Origin, prepend)),
                        export: BTreeSet::from([site]),
                    };
                }
                let heard = |level| {
                    let offers = heard_from(graph, node.asn, level)
                        .iter()
                        .filter_map(|&n| offer(&state[n], level));
                    offers.min().map(|len| (level, len + 1))
                };
                let label = levels.into_iter().find_map(heard);
                let export = match label {
                    Some((level, len)) => heard_from(graph, node.asn, level)
                        .iter()
                        .filter(|&&n| offer(&state[n], level) == Some(len - 1))
                        .flat_map(|&n| state[n].export.iter().copied())
                        .collect(),
                    None => BTreeSet::new(),
                };
                State { label, export }
            });
            if next == state {
                break;
            }
            state = next;
        }
        // Slack routes (offers of the AS's own length) are used locally,
        // never advertised, so they join only the local set.
        let local = graph.ases.map(|node| {
            let own = &state[node.asn];
            let mut sites = own.export.clone();
            let ignores = policy::ignores_prepending(policy_seed, ignore_fraction, node.asn);
            let slack_label = own
                .label
                .filter(|_| policy::uses_slack_locally(node.pops.len(), ignores));
            if let Some((level, len)) = slack_label {
                for &n in heard_from(graph, node.asn, level) {
                    if offer(&state[n], level) == Some(len) {
                        sites.extend(state[n].export.iter().copied());
                    }
                }
            }
            sites
        });
        CertainSets {
            labels: state.map(|s| s.label),
            local,
        }
    }

    /// The (level, length) of `asn`'s best route, if it has one.
    pub(crate) fn label(&self, asn: Asn) -> Option<(RouteLevel, u32)> {
        self.labels[asn]
    }

    /// The sites traffic from `pop` may reach: its AS's local set.
    pub(crate) fn sites_of_pop(&self, graph: &AsGraph, pop: PopId) -> &BTreeSet<SiteId> {
        &self.local[graph.pops[pop].asn]
    }

    /// The PoPs certain to route to `site`.
    pub(crate) fn certain_pops(&self, graph: &AsGraph, site: SiteId) -> BTreeSet<PopId> {
        graph
            .pops
            .ids()
            .filter(|&p| self.sites_of_pop(graph, p).iter().eq([&site]))
            .collect()
    }
}
