//! Integration: the 24-hour stability study (§6.3) end to end — repeated
//! scans with route flips and responsiveness churn, classified per round.

use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{SimDuration, SimTime};
use verfploeter_suite::sim::{FaultConfig, FlippingOracle, Scenario};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::catchment::CatchmentMap;
use verfploeter_suite::vp::scan::{run_scan, ScanConfig};
use verfploeter_suite::vp::stability::{classify_rounds, flips_by_as, unstable_blocks};
use verfploeter_suite::vp::ProbeConfig;

fn run_rounds(rounds: u32) -> (Scenario, Vec<CatchmentMap>) {
    let s = Scenario::tangled(TopologyConfig::tiny(7005), 7);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let table = s.routing();
    let model = s.flip_model(0xAB, &table);
    let interval = SimDuration::from_mins(15);
    let mut maps = Vec::new();
    for r in 0..rounds {
        let oracle = FlippingOracle::new(
            table.clone(),
            s.world.graph.clone(),
            model.clone(),
            interval,
        );
        let result = run_scan(
            &s.world,
            &hl,
            &s.announcement,
            Box::new(oracle),
            FaultConfig::default(),
            SimTime::ZERO + SimDuration(interval.0 * r as u64),
            &ScanConfig {
                name: format!("r{r}"),
                probe: ProbeConfig {
                    ident: 200 + r as u16,
                    ..ProbeConfig::default()
                },
                ..ScanConfig::default()
            },
            600 + r as u64,
        );
        maps.push(result.catchments);
    }
    (s, maps)
}

#[test]
fn classification_is_a_partition_and_mostly_stable() {
    let (_, maps) = run_rounds(8);
    let deltas = classify_rounds(&maps);
    assert_eq!(deltas.len(), 7);
    for (d, w) in deltas.iter().zip(maps.windows(2)) {
        // Partition of the previous round's observations.
        assert_eq!(
            d.stable + d.flipped + d.to_nr,
            w[0].len() as u64,
            "round {} does not partition",
            d.round
        );
        // Stability dominates.
        let responders = d.stable + d.flipped;
        assert!(
            d.stable as f64 / responders as f64 > 0.9,
            "round {}: stability only {}/{responders}",
            d.round,
            d.stable
        );
        // Flips are rarer than responsiveness churn (the Fig. 9 panels'
        // relative magnitudes).
        assert!(d.flipped < d.to_nr + d.from_nr);
    }
}

#[test]
fn flips_concentrate_and_attribute_to_multi_candidate_ases() {
    let (s, maps) = run_rounds(10);
    let table = flips_by_as(&maps, &s.world);
    if table.total_flips == 0 {
        // Extremely small worlds can be fully stable; nothing to assert.
        return;
    }
    let (top, _) = table.top_with_other(1);
    assert!(
        top[0].frac > 0.2,
        "no flip concentration: top AS only {:.2}",
        top[0].frac
    );
    // Every flipping AS must actually have multiple equally-good routes.
    let routing = s.routing();
    for row in &table.rows {
        let r = routing.per_as[row.asn.index()].as_ref().unwrap();
        assert!(
            r.candidates.len() > 1,
            "{} flips but has a single route",
            row.asn
        );
    }
}

#[test]
fn unstable_blocks_match_flip_observations() {
    let (_, maps) = run_rounds(10);
    let unstable = unstable_blocks(&maps);
    let deltas = classify_rounds(&maps);
    let total_flips: u64 = deltas.iter().map(|d| d.flipped).sum();
    if total_flips == 0 {
        assert!(unstable.is_empty());
    } else {
        assert!(!unstable.is_empty());
        // An unstable block flips at least once, so flips >= unstable count.
        assert!(total_flips as usize >= unstable.len());
    }
}
