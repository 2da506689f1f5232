//! Property-based tests of the routing simulator over random worlds.

#[path = "reference/certain.rs"]
mod certain;

use certain::CertainSets;
use proptest::prelude::*;
use vp_bgp::{Announcement, BgpSim, RouteLevel};
use vp_topology::{pick_host_ases, tangled_specs, Internet, TopologyConfig};

fn world(seed: u64) -> Internet {
    Internet::generate(TopologyConfig {
        seed,
        num_ases: 100,
        num_tier1: 4,
        max_blocks: 1500,
        max_prefixes_per_as: 20,
        max_blocks_per_prefix: 16,
        ..TopologyConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every AS converges to exactly one route with consistent candidates.
    #[test]
    fn convergence_and_candidate_invariants(
        world_seed in 0u64..10_000,
        policy_seed in any::<u64>(),
    ) {
        let w = world(world_seed);
        let ann = Announcement::from_placements(
            &pick_host_ases(&w, &[("A", "US"), ("B", "DE"), ("C", "CN")]),
            0,
        );
        let table = BgpSim::new(&w.graph, policy_seed).route(&ann);
        for (i, r) in table.per_as.iter_enumerated() {
            let r = r.as_ref().expect("every AS reaches the anycast prefix");
            prop_assert!(!r.strict.is_empty());
            prop_assert!(r.candidates().any(|c| *c == r.selected));
            // Origins are self-candidates; everyone else names a neighbor.
            match r.level {
                RouteLevel::Origin => {
                    prop_assert_eq!(r.candidates().count(), 1);
                    prop_assert_eq!(r.selected.neighbor, i);
                }
                _ => {
                    for c in r.candidates() {
                        prop_assert!(c.neighbor != i);
                        prop_assert!(c.session_pop.is_some());
                    }
                }
            }
        }
        // Per-PoP assignments use only sites of the owning AS's pool.
        for (p, site) in table.per_pop_site.iter_enumerated() {
            let site = site.expect("every pop assigned");
            let asn = w.graph.pops[p].asn;
            let r = table.per_as[asn].as_ref().unwrap();
            prop_assert!(
                r.candidates().any(|c| c.site == site),
                "{p:?} got a site outside its AS's candidates"
            );
        }
    }

    /// Path lengths respect the triangle structure: a non-origin AS's
    /// length is at least 1 and at most ASes-count hops.
    #[test]
    fn path_lengths_bounded(world_seed in 0u64..10_000) {
        let w = world(world_seed);
        let ann = Announcement::from_placements(
            &pick_host_ases(&w, &[("A", "US"), ("B", "JP")]),
            0,
        );
        let table = BgpSim::new(&w.graph, 1).route(&ann);
        for r in table.per_as.iter().flatten() {
            if r.level != RouteLevel::Origin {
                prop_assert!(r.path_len >= 1);
                prop_assert!((r.path_len as usize) < w.graph.ases.len());
            }
        }
    }

    /// Withdrawing all but one site funnels every AS to the survivor,
    /// regardless of the policy seed.
    #[test]
    fn single_site_captures_everything(
        world_seed in 0u64..10_000,
        policy_seed in any::<u64>(),
    ) {
        let w = world(world_seed);
        let mut ann = Announcement::from_placements(
            &pick_host_ases(&w, &[("A", "US"), ("B", "BR")]),
            0,
        );
        ann.set_enabled("B", false);
        let table = BgpSim::new(&w.graph, policy_seed).route(&ann);
        let a = ann.site_by_name("A").unwrap().id;
        for r in table.per_as.iter().flatten() {
            prop_assert_eq!(r.selected_site(), a);
        }
    }

    /// Aggregate catchment shrinks (weakly) as one site prepends more.
    #[test]
    fn prepending_weakly_monotone(world_seed in 0u64..2_000) {
        let w = world(world_seed);
        let placements = pick_host_ases(&w, &[("A", "US"), ("B", "GB")]);
        let sim = BgpSim::new(&w.graph, 7).with_ignore_prepend_fraction(0.0);
        let b_id = 1u8;
        let mut prev = usize::MAX;
        for prepend in 0..=3u8 {
            let mut ann = Announcement::from_placements(&placements, 0);
            ann.set_prepend("B", prepend);
            let table = sim.route(&ann);
            let count = table
                .per_as
                .iter()
                .flatten()
                .filter(|r| r.selected_site().0 == b_id)
                .count();
            prop_assert!(
                count <= prev,
                "prepend {prepend}: catchment grew {prev} -> {count}"
            );
            prev = count;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The routing table against the certain-set model
    /// (`reference/certain.rs`) on a tiny world with random Tangled sites
    /// enabled, prepended 0–3 times: every AS has the model's route label
    /// (so the AS the model routes has a route), and every PoP reaches a
    /// site the model allows (so, where the model is certain, that site).
    /// Then the prepending law on the model: one more prepend at an
    /// enabled site never grows the set of PoPs certain to reach it.
    #[test]
    fn the_table_agrees_with_the_certain_set_model(
        world_seed in 0u64..10_000,
        policy_seed in any::<u64>(),
        enabled in 1u16..512,
        prepends in prop::collection::vec(0u8..=3, 9..10),
        ignore in 0usize..3,
        law_pick in any::<u64>(),
    ) {
        let ignore_fraction = [0.0, 0.02, 0.5][ignore];
        let w = Internet::generate(TopologyConfig::tiny(world_seed));
        let mut ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 0);
        for ((i, site), &prepend) in ann.sites.iter_mut().enumerate().zip(&prepends) {
            site.enabled = enabled >> i & 1 == 1;
            site.prepend = prepend;
        }
        let table = BgpSim::new(&w.graph, policy_seed)
            .with_ignore_prepend_fraction(ignore_fraction)
            .route(&ann);
        let model = CertainSets::compute(&w.graph, &ann, policy_seed, ignore_fraction);
        for (asn, route) in table.per_as.iter_enumerated() {
            let label = route.as_ref().map(|r| (r.level, r.path_len));
            prop_assert_eq!(label, model.label(asn), "{:?}: table label vs the model's", asn);
        }
        for (pop, site) in table.per_pop_site.iter_enumerated() {
            let allowed = model.sites_of_pop(&w.graph, pop);
            prop_assert!(
                site.map_or(allowed.is_empty(), |s| allowed.contains(&s)),
                "{pop:?} reaches {site:?}, the model allows {allowed:?}"
            );
        }

        let enabled_ids: Vec<usize> = (0..ann.sites.len()).filter(|&i| ann.sites[i].enabled).collect();
        let law = enabled_ids[(law_pick % enabled_ids.len() as u64) as usize];
        let site = ann.sites[law].id;
        let before = model.certain_pops(&w.graph, site);
        ann.sites[law].prepend += 1;
        let after = CertainSets::compute(&w.graph, &ann, policy_seed, ignore_fraction)
            .certain_pops(&w.graph, site);
        prop_assert!(
            after.is_subset(&before),
            "one more prepend at {site:?} made {:?} certain",
            after.difference(&before).collect::<Vec<_>>()
        );
    }
}
