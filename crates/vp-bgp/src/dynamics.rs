//! Catchment dynamics: per-round site flips for flip-prone ASes.
//!
//! Fig. 9 / Table 7 of the paper find anycast catchments very stable over
//! 24 hours — a median of only ~0.1% of VPs change site between rounds —
//! but the instability is *persistent and concentrated*: 51% of all flips
//! come from a single AS (Chinanet), 63% from five ASes. The mechanism is
//! load-balancing across equal-cost routes. [`FlipModel`] reproduces this:
//! ASes with more than one equally-preferred route may, with a per-AS
//! per-round probability, momentarily serve traffic over an alternate
//! route. Flips happen at PoP granularity so different blocks of an AS
//! flip at different times, as in the real measurements.

use std::collections::BTreeMap;

use vp_net::{mix, unit, Asn, IdVec};
use vp_topology::PopId;

use crate::announce::SiteId;
use crate::routing::RoutingTable;

/// Per-round flip behaviour layered over a converged [`RoutingTable`].
#[derive(Debug, Clone)]
pub struct FlipModel {
    seed: u64,
    /// Per-AS flip probability per round; ASes not present never flip.
    flip_prob: BTreeMap<Asn, f64>,
}

impl FlipModel {
    /// A model in which nothing flips.
    pub fn stable(seed: u64) -> Self {
        FlipModel {
            seed,
            flip_prob: BTreeMap::new(),
        }
    }

    /// Declares `asn` flip-prone with the given per-round probability.
    pub fn with_prone_as(mut self, asn: Asn, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.flip_prob.insert(asn, prob);
        self
    }

    /// Builds the paper-shaped default: among ASes that actually have
    /// multiple candidate routes, the one homing the most blocks becomes
    /// the heavy flipper (the Chinanet analog), the next few are moderate,
    /// and a thin background covers the rest.
    ///
    /// `blocks_per_as[asn]` must count populated blocks per AS.
    pub fn paper_default(seed: u64, table: &RoutingTable, blocks_per_as: &IdVec<Asn, u32>) -> Self {
        let mut multi: Vec<(u32, Asn)> = table
            .per_as
            .iter_enumerated()
            .filter_map(|(a, r)| {
                let r = r.as_ref()?;
                if r.candidate_sites().len() > 1 {
                    Some((blocks_per_as[a], a))
                } else {
                    None
                }
            })
            .collect();
        multi.sort_by_key(|&(blocks, a)| (std::cmp::Reverse(blocks), a));
        let mut model = FlipModel::stable(seed);
        for (rank, &(_, a)) in multi.iter().enumerate() {
            let prob = match rank {
                0 => 0.35,     // the Chinanet analog
                1..=4 => 0.04, // the rest of Table 7's top five
                _ => 0.002,    // thin long tail
            };
            model.flip_prob.insert(a, prob);
        }
        model
    }

    /// The probability configured for `asn` (0 if absent).
    pub fn prob(&self, asn: Asn) -> f64 {
        self.flip_prob.get(&asn).copied().unwrap_or(0.0)
    }

    /// The site traffic from `pop` reaches in measurement round `round`;
    /// `pop_asns` is the AS of every PoP (`graph.pops.map(|p| p.asn)`).
    ///
    /// Round 0 always matches the converged table; later rounds may flip
    /// among the AS's equally-preferred candidates.
    pub fn site_of_pop_at_round(
        &self,
        table: &RoutingTable,
        pop_asns: &IdVec<PopId, Asn>,
        pop: PopId,
        round: u32,
    ) -> Option<SiteId> {
        let base = table.site_of_pop(pop)?;
        if round == 0 {
            return Some(base);
        }
        let asn = *pop_asns.lookup(pop)?;
        let route = table.per_as.lookup(asn)?.as_ref()?;
        let candidates = route.strict.len() + route.slack.len();
        if candidates < 2 {
            return Some(base);
        }
        let p = self.prob(asn);
        if p <= 0.0 {
            return Some(base);
        }
        let h = mix(self.seed, (pop.0 as u64) << 32 | round as u64);
        if unit(h) < p {
            // Flipped this round: pick uniformly among candidates (may pick
            // the base again — real load balancers do that too).
            let idx = (mix(self.seed ^ 0xf11b, h) % candidates as u64) as usize;
            Some(route.candidates().nth(idx)?.site)
        } else {
            Some(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::announce::Announcement;
    use crate::routing::BgpSim;
    use vp_topology::{pick_host_ases, tangled_specs, Internet, TopologyConfig};

    fn setup() -> (Internet, IdVec<PopId, Asn>, RoutingTable) {
        let w = Internet::generate(TopologyConfig::tiny(55));
        let ann = Announcement::from_placements(&pick_host_ases(&w, &tangled_specs()), 2);
        let table = BgpSim::new(&w.graph, 5).route(&ann);
        let pop_asns = w.graph.pops.map(|p| p.asn);
        (w, pop_asns, table)
    }

    #[test]
    fn stable_model_never_flips() {
        let (w, pop_asns, table) = setup();
        let model = FlipModel::stable(1);
        for pop in 0..w.graph.pops.len() as u32 {
            let base = table.site_of_pop(PopId(pop));
            for round in 0..5 {
                assert_eq!(
                    model.site_of_pop_at_round(&table, &pop_asns, PopId(pop), round),
                    base
                );
            }
        }
    }

    #[test]
    fn round_zero_matches_converged_table() {
        let (w, pop_asns, table) = setup();
        let blocks_per_as = w.graph.ases.map(|_| 10);
        let model = FlipModel::paper_default(3, &table, &blocks_per_as);
        for pop in 0..w.graph.pops.len() as u32 {
            assert_eq!(
                model.site_of_pop_at_round(&table, &pop_asns, PopId(pop), 0),
                table.site_of_pop(PopId(pop))
            );
        }
    }

    #[test]
    fn flips_stay_within_candidate_sites() {
        let (w, pop_asns, table) = setup();
        let blocks_per_as = w.graph.ases.map(|_| 10);
        let model = FlipModel::paper_default(3, &table, &blocks_per_as);
        for pop in 0..w.graph.pops.len() as u32 {
            let asn = w.graph.pops[PopId(pop)].asn;
            let sites = table.per_as[asn].as_ref().unwrap().candidate_sites();
            for round in 0..20 {
                let s = model
                    .site_of_pop_at_round(&table, &pop_asns, PopId(pop), round)
                    .unwrap();
                assert!(
                    sites.contains(&s),
                    "pop {pop} round {round}: {s:?} not in {sites:?}"
                );
            }
        }
    }

    #[test]
    fn prone_as_actually_flips() {
        let (w, pop_asns, table) = setup();
        // Find a multi-candidate AS and make it flip heavily.
        let prone = table
            .per_as
            .iter()
            .enumerate()
            .find(|(_, r)| r.as_ref().is_some_and(|r| r.candidate_sites().len() > 1))
            .map(|(a, _)| Asn(a as u32))
            .expect("tiny world should have at least one multi-candidate AS");
        let model = FlipModel::stable(9).with_prone_as(prone, 0.9);
        let pop = w.graph.node(prone).pops[0];
        let base = table.site_of_pop(pop).unwrap();
        let mut saw_flip = false;
        for round in 1..200 {
            let s = model
                .site_of_pop_at_round(&table, &pop_asns, pop, round)
                .unwrap();
            if s != base {
                saw_flip = true;
                break;
            }
        }
        assert!(saw_flip, "prone AS never flipped in 200 rounds");
    }

    #[test]
    fn model_is_deterministic_per_round() {
        let (w, pop_asns, table) = setup();
        let blocks_per_as = w.graph.ases.map(|_| 10);
        let m1 = FlipModel::paper_default(3, &table, &blocks_per_as);
        let m2 = FlipModel::paper_default(3, &table, &blocks_per_as);
        for pop in 0..w.graph.pops.len() as u32 {
            for round in 0..10 {
                assert_eq!(
                    m1.site_of_pop_at_round(&table, &pop_asns, PopId(pop), round),
                    m2.site_of_pop_at_round(&table, &pop_asns, PopId(pop), round)
                );
            }
        }
    }

    #[test]
    fn paper_default_assigns_heavy_head() {
        let (w, _, table) = setup();
        let mut blocks_per_as = w.graph.ases.map(|_| 1);
        // Make AS with most blocks identifiable.
        let heavy = (table.per_as.iter_enumerated())
            .find(|(_, r)| r.as_ref().is_some_and(|r| r.candidate_sites().len() > 1));
        if let Some((a, _)) = heavy {
            blocks_per_as[a] = 1000;
            let model = FlipModel::paper_default(3, &table, &blocks_per_as);
            assert!((model.prob(a) - 0.35).abs() < 1e-12);
        }
    }
}
