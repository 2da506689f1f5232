//! Catchment oracles: who receives a packet sent to the anycast prefix.
//!
//! The engine resolves the receiving site of anycast-bound traffic through
//! a [`CatchmentOracle`] so that measurements can run against a converged
//! routing table ([`StaticOracle`]) or one with per-round instability
//! ([`FlippingOracle`], used for the Fig. 9 / Table 7 stability study).

use std::sync::Arc;

use vp_bgp::{FlipModel, RoutingTable, SiteId};
use vp_net::{SimDuration, SimTime};
use vp_topology::graph::AsGraph;
use vp_topology::PopId;

/// Resolves which anycast site traffic reaches, as the two facts a
/// catchment is made of: routing changes only between **epochs**, and
/// within one epoch the site is a function of the sender's PoP (every
/// block homed on a PoP shares its egress). The engine keeps one column
/// of answers per service for the epoch of its traffic and asks
/// [`CatchmentOracle::site_of_pop`] at most once per PoP for it.
///
/// `Sync`, so one oracle can be lent to every shard engine of a round
/// (a reference to an oracle is itself an oracle): a round resolves all
/// its catchments through a single instance, whatever its shard count.
pub trait CatchmentOracle: Sync {
    /// The routing epoch instant `at` falls in.
    fn epoch(&self, at: SimTime) -> u32;

    /// The site traffic from `pop` reaches during `epoch`, or `None` if
    /// the PoP's AS has no route.
    fn site_of_pop(&self, pop: PopId, epoch: u32) -> Option<SiteId>;
}

impl<T: CatchmentOracle + ?Sized> CatchmentOracle for &T {
    fn epoch(&self, at: SimTime) -> u32 {
        (**self).epoch(at)
    }

    fn site_of_pop(&self, pop: PopId, epoch: u32) -> Option<SiteId> {
        (**self).site_of_pop(pop, epoch)
    }
}

/// A time-invariant oracle over a converged routing table.
///
/// The table is held behind an [`Arc`] so that repeated rounds over one
/// converged table share it: [`StaticOracle::shared`] costs a refcount
/// bump where a deep table clone costs thousands of allocations (the §17
/// allocation witness counts round setup against the scan's budget).
#[derive(Debug, Clone)]
pub struct StaticOracle {
    table: Arc<RoutingTable>,
}

impl StaticOracle {
    pub fn new(table: RoutingTable) -> Self {
        StaticOracle {
            table: Arc::new(table),
        }
    }

    /// Builds an oracle over an already-shared table without copying it.
    pub fn shared(table: Arc<RoutingTable>) -> Self {
        StaticOracle { table }
    }

    pub fn table(&self) -> &RoutingTable {
        &self.table
    }
}

impl CatchmentOracle for StaticOracle {
    fn epoch(&self, _at: SimTime) -> u32 {
        0
    }

    fn site_of_pop(&self, pop: PopId, _epoch: u32) -> Option<SiteId> {
        self.table.site_of_pop(pop)
    }
}

/// An oracle whose choice may flip between measurement rounds.
///
/// The table, graph and flip model sit behind one [`Arc`], so a clone —
/// the daemon makes one per round — is a refcount bump.
#[derive(Debug, Clone)]
pub struct FlippingOracle {
    routing: Arc<(RoutingTable, AsGraph, FlipModel)>,
    round: SimDuration,
}

impl FlippingOracle {
    /// Wraps a converged table with a flip model; `round` is the interval
    /// after which a new flip decision is drawn (15 min in the paper).
    pub fn new(
        table: RoutingTable,
        graph: AsGraph,
        model: FlipModel,
        round: SimDuration,
    ) -> Self {
        assert!(round > SimDuration::ZERO, "round must be positive");
        FlippingOracle {
            routing: Arc::new((table, graph, model)),
            round,
        }
    }

    pub fn table(&self) -> &RoutingTable {
        &self.routing.0
    }
}

impl CatchmentOracle for FlippingOracle {
    fn epoch(&self, at: SimTime) -> u32 {
        vp_net::conv::sat_u32(at.as_nanos() / self.round.as_nanos())
    }

    fn site_of_pop(&self, pop: PopId, epoch: u32) -> Option<SiteId> {
        let (table, graph, model) = &*self.routing;
        model.site_of_pop_at_round(table, graph, pop, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_bgp::{Announcement, BgpSim};
    use vp_topology::{broot_specs, pick_host_ases, Internet, TopologyConfig};

    fn setup() -> (Internet, RoutingTable) {
        let w = Internet::generate(TopologyConfig::tiny(13));
        let ann = Announcement::from_placements(&pick_host_ases(&w, &broot_specs()), 0);
        let table = BgpSim::new(&w.graph, 1).route(&ann);
        (w, table)
    }

    #[test]
    fn static_oracle_is_time_invariant() {
        let (w, table) = setup();
        let oracle = StaticOracle::new(table);
        assert_eq!(oracle.epoch(SimTime::ZERO), oracle.epoch(SimTime(1u64 << 50)));
        for b in w.blocks.iter().take(50) {
            let s0 = oracle.site_of_pop(b.pop, 0);
            assert_eq!(s0, oracle.site_of_pop(b.pop, 7));
            assert!(s0.is_some());
        }
    }

    #[test]
    fn flipping_oracle_matches_static_in_round_zero() {
        let (w, table) = setup();
        let st = StaticOracle::new(table.clone());
        let fl = FlippingOracle::new(
            table,
            w.graph.clone(),
            FlipModel::stable(1),
            SimDuration::from_mins(15),
        );
        let t = SimTime::ZERO + SimDuration::from_mins(5); // still round 0
        assert_eq!(fl.epoch(t), 0);
        for b in w.blocks.iter().take(50) {
            assert_eq!(st.site_of_pop(b.pop, st.epoch(t)), fl.site_of_pop(b.pop, fl.epoch(t)));
        }
    }

    #[test]
    fn round_boundaries_quantize_time() {
        let (w, table) = setup();
        let fl = FlippingOracle::new(
            table,
            w.graph.clone(),
            FlipModel::stable(1),
            SimDuration::from_mins(15),
        );
        assert_eq!(fl.epoch(SimTime::ZERO), 0);
        assert_eq!(fl.epoch(SimTime::ZERO + SimDuration::from_mins(14)), 0);
        assert_eq!(fl.epoch(SimTime::ZERO + SimDuration::from_mins(15)), 1);
        assert_eq!(fl.epoch(SimTime::ZERO + SimDuration::from_hours(24)), 96);
        // Keep `w` alive for clarity of the borrowed graph clone.
        drop(w);
    }
}
