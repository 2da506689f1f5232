//! Running an Atlas measurement through the simulator.

use std::collections::BTreeMap;

use serde::Serialize;
use vp_bgp::{Announcement, SiteId};
use vp_net::{Block24, SimDuration, SimTime};
use vp_packet::{DnsMessage, Ipv4Packet, Protocol, UdpDatagram};
use vp_sim::{CaptureSink, CatchmentOracle, Earliest, FaultConfig, NetworkSim, ServiceHandle, TimedProbe};
use vp_topology::Internet;

use crate::panel::AtlasPanel;

/// One VP's measurement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VpOutcome {
    pub vp: u32,
    pub block: Block24,
    /// The site the VP's query reached, `None` if no (usable) answer came
    /// back.
    pub site: Option<SiteId>,
}

/// The decoded result of one Atlas scan.
#[derive(Debug, Clone, Serialize)]
pub struct AtlasResult {
    /// Dataset tag, e.g. "SBA-5-15".
    pub name: String,
    pub outcomes: Vec<VpOutcome>,
}

impl AtlasResult {
    /// VPs considered (the whole panel).
    pub fn vps_considered(&self) -> usize {
        self.outcomes.len()
    }

    /// VPs that returned a catchment observation.
    pub fn vps_responding(&self) -> usize {
        self.outcomes.iter().filter(|o| o.site.is_some()).count()
    }

    /// Distinct blocks with at least one VP considered.
    pub fn blocks_considered(&self) -> usize {
        let mut v: Vec<Block24> = self.outcomes.iter().map(|o| o.block).collect();
        v.sort();
        v.dedup();
        v.len()
    }

    /// Distinct blocks with at least one responding VP.
    pub fn blocks_responding(&self) -> usize {
        let mut v: Vec<Block24> = self
            .outcomes
            .iter()
            .filter(|o| o.site.is_some())
            .map(|o| o.block)
            .collect();
        v.sort();
        v.dedup();
        v.len()
    }

    /// Responding VPs per site.
    pub fn site_counts(&self) -> BTreeMap<SiteId, usize> {
        let mut m = BTreeMap::new();
        for o in &self.outcomes {
            if let Some(s) = o.site {
                *m.entry(s).or_insert(0) += 1;
            }
        }
        m
    }

    /// Fraction of responding VPs mapped to `site`.
    pub fn fraction_to(&self, site: SiteId) -> f64 {
        let responding = self.vps_responding();
        if responding == 0 {
            return 0.0;
        }
        let hits = self
            .outcomes
            .iter()
            .filter(|o| o.site == Some(site))
            .count();
        hits as f64 / responding as f64
    }

    /// The per-block catchment map this scan implies: a block maps to the
    /// site its VPs saw (ties broken toward the most common observation).
    pub fn block_catchments(&self) -> BTreeMap<Block24, SiteId> {
        let mut votes: BTreeMap<Block24, BTreeMap<SiteId, usize>> = BTreeMap::new();
        for o in &self.outcomes {
            if let Some(s) = o.site {
                *votes.entry(o.block).or_default().entry(s).or_insert(0) += 1;
            }
        }
        votes
            .into_iter()
            .filter_map(|(b, v)| {
                let (site, _) = v
                    .into_iter()
                    .max_by_key(|&(s, n)| (n, std::cmp::Reverse(s)))?;
                Some((b, site))
            })
            .collect()
    }
}

/// How long one scan spreads its queries over, from time zero: the
/// paper's Atlas scans take 8–10 minutes.
pub const SCAN_DURATION: SimDuration = SimDuration::from_mins(8);

/// The VPs' side of a scan as the engine's sink: each DNS answer a VP
/// receives is decoded — the TXT hostname mapped back to its site — and
/// the first to arrive per VP is kept. Site captures are the operator's
/// view, not Atlas's.
struct Answers {
    /// `hostname.bind` answer → site.
    hostnames: BTreeMap<String, SiteId>,
    /// Per VP index (the query id): its answers' sites.
    sites: Earliest<SiteId>,
    vps: usize,
}

impl CaptureSink for Answers {
    fn capture(&mut self, _: ServiceHandle, _: SiteId, _: SimTime, _: u64, _: &Ipv4Packet) {}

    fn deliver(&mut self, at: SimTime, key: u64, packet: &Ipv4Packet) {
        if packet.protocol != Protocol::Udp {
            return;
        }
        let Ok(udp) = UdpDatagram::parse(&packet.payload, packet.src, packet.dst) else {
            return;
        };
        let Ok(msg) = DnsMessage::parse(&udp.payload) else {
            return;
        };
        let site = msg.first_txt().and_then(|txt| self.hostnames.get(txt));
        if let Some(&site) = site.filter(|_| msg.flags.response && usize::from(msg.id) < self.vps) {
            self.sites.push(u32::from(msg.id), at, key, site);
        }
    }
}

/// Runs one Atlas scan: every available VP sends a CHAOS `hostname.bind`
/// TXT query to the service address, the queries spread uniformly over
/// [`SCAN_DURATION`]; replies are decoded from the TXT payload (the site's
/// hostname), as on the real platform, and a VP's first answer is its
/// observation.
pub fn run_scan(
    world: &Internet,
    panel: &AtlasPanel,
    announcement: &Announcement,
    oracle: Box<dyn CatchmentOracle>,
    faults: FaultConfig,
    name: &str,
    sim_seed: u64,
) -> AtlasResult {
    let mut sim = NetworkSim::new(world, faults, sim_seed);
    let svc = sim.register_service(announcement.clone(), oracle, true);
    let anycast = announcement.measurement_addr();

    let available: Vec<_> = panel.vps().iter().filter(|v| v.available).collect();
    let step = if available.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration(SCAN_DURATION.0 / available.len() as u64)
    };
    // A query is no Echo Request: it carries no reply image and no row.
    let queries = available.iter().enumerate().map(|(i, vp)| {
        let query = DnsMessage::hostname_bind_query(vp.id as u16, true);
        let udp = UdpDatagram::new(33000 + (vp.id % 16384) as u16, 53, query.emit());
        TimedProbe {
            at: SimTime::ZERO + step.saturating_mul(i as u64),
            packet: Ipv4Packet::new(vp.addr, anycast, Protocol::Udp, udp.emit(vp.addr, anycast)),
            reply_image: Default::default(),
            row: u32::MAX,
        }
    });
    let mut answers = Answers {
        hostnames: (announcement.sites.iter())
            .map(|s| (NetworkSim::site_hostname(svc, &s.name), s.id))
            .collect(),
        sites: Earliest::new(panel.len()),
        vps: panel.len(),
    };
    sim.run_with(queries, &mut answers);

    // A VP's id is its index in the panel.
    let mut sites = vec![None; panel.len()];
    for answer in answers.sites.finish() {
        if let Some(site) = sites.get_mut(vp_net::conv::index(answer.slot)) {
            *site = Some(answer.value);
        }
    }
    let outcomes = (panel.vps().iter().zip(sites))
        .map(|(vp, site)| VpOutcome {
            vp: vp.id,
            block: vp.block,
            site: site.filter(|_| vp.available),
        })
        .collect();
    AtlasResult {
        name: name.to_owned(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::AtlasConfig;
    use vp_sim::{Scenario, StaticOracle};
    use vp_topology::TopologyConfig;

    fn setup() -> (Scenario, AtlasPanel) {
        let s = Scenario::broot(TopologyConfig::tiny(51), 7);
        let panel = AtlasPanel::place(&s.world, &AtlasConfig::tiny(1));
        (s, panel)
    }

    #[test]
    fn scan_maps_available_vps_to_their_catchment() {
        let (s, panel) = setup();
        let table = s.routing();
        let result = run_scan(
            &s.world,
            &panel,
            &s.announcement,
            Box::new(StaticOracle::new(table.clone())),
            FaultConfig::none(),
            "SBA-TEST",
            1,
        );
        assert_eq!(result.vps_considered(), panel.len());
        assert_eq!(result.vps_responding(), panel.available());
        // Every responding VP observed exactly its block's catchment.
        for o in result.outcomes.iter().filter(|o| o.site.is_some()) {
            let info = s.world.block(o.block).unwrap();
            assert_eq!(o.site, table.site_of_pop(info.pop));
        }
    }

    #[test]
    fn unavailable_vps_do_not_respond() {
        let (s, panel) = setup();
        let result = run_scan(
            &s.world,
            &panel,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            "x",
            1,
        );
        for (vp, o) in panel.vps().iter().zip(&result.outcomes) {
            if !vp.available {
                assert_eq!(o.site, None);
            }
        }
    }

    #[test]
    fn fractions_sum_to_one_over_sites() {
        let (s, panel) = setup();
        let result = run_scan(
            &s.world,
            &panel,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            "x",
            1,
        );
        let total: f64 = s
            .announcement
            .sites
            .iter()
            .map(|site| result.fraction_to(site.id))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        let counts = result.site_counts();
        assert_eq!(
            counts.values().sum::<usize>(),
            result.vps_responding()
        );
    }

    #[test]
    fn block_catchments_cover_responding_blocks() {
        let (s, panel) = setup();
        let result = run_scan(
            &s.world,
            &panel,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            FaultConfig::none(),
            "x",
            1,
        );
        let map = result.block_catchments();
        assert_eq!(map.len(), result.blocks_responding());
    }

    #[test]
    fn loss_reduces_responses() {
        let (s, panel) = setup();
        let faults = FaultConfig {
            loss: 0.5,
            ..FaultConfig::none()
        };
        let result = run_scan(
            &s.world,
            &panel,
            &s.announcement,
            Box::new(StaticOracle::new(s.routing())),
            faults,
            "x",
            1,
        );
        assert!(result.vps_responding() < panel.available());
        assert!(result.vps_responding() > 0);
    }

    /// Degenerate configurations answer nobody, and say so for every VP of
    /// the panel: a siteless announcement (every query undeliverable),
    /// total loss, and a panel that is down whole (no query sent at all).
    #[test]
    fn degenerate_atlas_scans_answer_nobody() {
        let (s, panel) = setup();
        let siteless = Announcement::from_placements(&[], 0);
        let all_down = AtlasPanel::place(
            &s.world,
            &AtlasConfig {
                unavailable_prob: 1.0,
                ..AtlasConfig::tiny(1)
            },
        );
        assert_eq!(all_down.available(), 0);
        let total_loss = FaultConfig {
            loss: 1.0,
            ..FaultConfig::none()
        };
        for (panel, announcement, faults) in [
            (&panel, &siteless, FaultConfig::default()),
            (&panel, &s.announcement, total_loss),
            (&all_down, &s.announcement, FaultConfig::default()),
        ] {
            let oracle = StaticOracle::new(s.routing_for(announcement));
            let result = run_scan(&s.world, panel, announcement, Box::new(oracle), faults, "x", 1);
            assert_eq!(result.outcomes.len(), panel.len());
            assert!(result.outcomes.iter().all(|o| o.site.is_none()), "{} answered", result.vps_responding());
        }
    }
}
