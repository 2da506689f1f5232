//! Assembled measurement scenarios: the worlds of Table 3.
//!
//! A [`Scenario`] bundles a generated [`Internet`] with an anycast
//! [`Announcement`] (B-Root's two sites or Tangled's nine) and knows how to
//! compute routing tables for announcement variants — the prepending sweep
//! of Figs. 5 and 6 reuses the same world with modified announcements.

use vp_bgp::{Announcement, BgpSim, FlipModel, RoutingTable};
use vp_net::{Asn, IdVec};
use vp_topology::{broot_specs, pick_host_ases, tangled_specs, Internet, TopologyConfig};

/// A ready-to-measure deployment: world + announcement.
pub struct Scenario {
    pub world: Internet,
    pub announcement: Announcement,
    /// Seed of the deterministic routing-policy tie-breaks.
    pub policy_seed: u64,
}

impl Scenario {
    /// The two-site B-Root deployment (LAX + MIA) on a fresh world.
    pub fn broot(cfg: TopologyConfig, policy_seed: u64) -> Scenario {
        let world = Internet::generate(cfg);
        let announcement = Announcement::from_placements(&pick_host_ases(&world, &broot_specs()), 0);
        Scenario {
            world,
            announcement,
            policy_seed,
        }
    }

    /// The nine-site Tangled testbed on a fresh world.
    ///
    /// Reproduces the testbed quirk of §4.2 — the Tokyo site "does not
    /// attract much traffic since announcements from other sites are almost
    /// always preferred" — by announcing HND with permanent prepending.
    pub fn tangled(cfg: TopologyConfig, policy_seed: u64) -> Scenario {
        let world = Internet::generate(cfg);
        let mut announcement =
            Announcement::from_placements(&pick_host_ases(&world, &tangled_specs()), 1);
        announcement.set_prepend("HND", 2);
        Scenario {
            world,
            announcement,
            policy_seed,
        }
    }

    /// Routing for the scenario's current announcement.
    pub fn routing(&self) -> RoutingTable {
        self.routing_for(&self.announcement)
    }

    /// Routing for an announcement variant over the same world/policies.
    pub fn routing_for(&self, ann: &Announcement) -> RoutingTable {
        self.routing_with_seed(ann, self.policy_seed)
    }

    /// Routing for an announcement under a different policy tie-break seed
    /// — models routing drift over time (policies and link states change
    /// between measurement dates, §5.5).
    pub fn routing_with_seed(&self, ann: &Announcement, policy_seed: u64) -> RoutingTable {
        BgpSim::new(&self.world.graph, policy_seed).route(ann)
    }

    /// Like [`Scenario::routing_with_seed`], also returning the BGP
    /// propagation work counters for the observability layer.
    pub fn routing_with_seed_traced(
        &self,
        ann: &Announcement,
        policy_seed: u64,
    ) -> (RoutingTable, vp_bgp::RouteObs) {
        BgpSim::new(&self.world.graph, policy_seed).route_traced(ann)
    }

    /// A paper-shaped flip model over this scenario's routing.
    pub fn flip_model(&self, seed: u64, table: &RoutingTable) -> FlipModel {
        FlipModel::paper_default(seed, table, &self.blocks_per_as())
    }

    /// Count of populated blocks per AS (used by analyses and flip models).
    pub fn blocks_per_as(&self) -> IdVec<Asn, u32> {
        let mut counts = self.world.graph.ases.map(|_| 0);
        for b in &self.world.blocks {
            counts[b.origin] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broot_has_two_sites() {
        let s = Scenario::broot(TopologyConfig::tiny(1), 7);
        assert_eq!(s.announcement.sites.len(), 2);
        let table = s.routing();
        assert!(table.per_as.iter().all(Option::is_some));
    }

    #[test]
    fn tangled_has_nine_sites_with_weak_tokyo() {
        let s = Scenario::tangled(TopologyConfig::tiny(2), 7);
        assert_eq!(s.announcement.sites.len(), 9);
        assert_eq!(s.announcement.site_by_name("HND").unwrap().prepend, 2);
        // The prepend must not enlarge Tokyo's catchment relative to an
        // un-prepended announcement of the same deployment.
        let hnd = s.announcement.site_by_name("HND").unwrap().id;
        let count_hnd = |table: &vp_bgp::RoutingTable| {
            table
                .per_as
                .iter()
                .flatten()
                .filter(|r| r.selected_site() == hnd)
                .count()
        };
        let with_prepend = count_hnd(&s.routing());
        let mut flat = s.announcement.clone();
        flat.set_prepend("HND", 0);
        let without = count_hnd(&s.routing_for(&flat));
        assert!(
            with_prepend <= without,
            "prepending grew HND: {with_prepend} > {without}"
        );
    }

    #[test]
    fn routing_for_variant_differs_under_prepending() {
        let s = Scenario::broot(TopologyConfig::tiny(3), 7);
        let base = s.routing();
        let mut variant = s.announcement.clone();
        variant.set_prepend("LAX", 3);
        let shifted = s.routing_for(&variant);
        let moved = base
            .per_as
            .iter()
            .zip(shifted.per_as.iter())
            .filter(|(a, b)| {
                a.as_ref().map(|r| r.selected_site()) != b.as_ref().map(|r| r.selected_site())
            })
            .count();
        assert!(moved > 0, "prepending LAX moved nothing");
    }

    #[test]
    fn helpers_work() {
        let s = Scenario::broot(TopologyConfig::tiny(4), 7);
        let counts = s.blocks_per_as();
        assert_eq!(counts.iter().sum::<u32>() as usize, s.world.blocks.len());
        let lax = s.announcement.site_by_name("LAX").unwrap();
        assert_eq!(s.announcement.sites[0].host_asn, lax.host_asn);
        let table = s.routing();
        let _model = s.flip_model(1, &table);
    }
}
