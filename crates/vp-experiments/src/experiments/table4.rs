//! Table 4: coverage of B-Root from Atlas vs Verfploeter.
//!
//! Shape targets: Verfploeter sees a multiple-orders-of-magnitude superset
//! of Atlas' blocks (430× in the paper at Internet scale — here bounded by
//! the generated world's size), a ~55% hitlist response rate, a small
//! "no location" remainder, and most Atlas blocks shared with Verfploeter.

use std::collections::BTreeSet;

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::{count, pct, TextTable};
use verfploeter::{coverage, AtlasCoverage};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.broot();
    let atlas = lab.atlas_scan(
        "SBA-5-15",
        scenario,
        lab.atlas_broot(),
        &scenario.announcement,
    );
    let vp = lab.vp_scan(
        "SBV-5-15",
        scenario,
        lab.broot_hitlist(),
        &scenario.announcement,
        15,
    );

    let responding_blocks: BTreeSet<_> = atlas
        .outcomes
        .iter()
        .filter(|o| o.site.is_some())
        .map(|o| o.block)
        .collect();
    let ac = AtlasCoverage {
        vps_considered: atlas.vps_considered() as u64,
        vps_responding: atlas.vps_responding() as u64,
        blocks_considered: atlas.blocks_considered() as u64,
        responding_blocks,
    };
    let r = coverage(
        &vp.catchments,
        lab.broot_hitlist(),
        &scenario.world.geodb,
        &ac,
    );

    let mut t = TextTable::new(["", "RIPE Atlas (VPs)", "(/24s)", "Verfploeter (/24s)"]);
    t.row([
        "considered".to_owned(),
        count(r.atlas_vps_considered),
        count(r.atlas_blocks_considered),
        count(r.vp_blocks_considered),
    ]);
    t.row([
        "non-responding".to_owned(),
        count(r.atlas_vps_considered - r.atlas_vps_responding),
        count(r.atlas_blocks_considered - r.atlas_blocks_responding),
        count(r.vp_blocks_considered - r.vp_blocks_responding),
    ]);
    t.row([
        "responding".to_owned(),
        count(r.atlas_vps_responding),
        count(r.atlas_blocks_responding),
        count(r.vp_blocks_responding),
    ]);
    t.row([
        "no location".to_owned(),
        "0".to_owned(),
        count(r.atlas_blocks_responding - r.atlas_blocks_geolocatable),
        count(r.vp_blocks_no_location),
    ]);
    t.row([
        "geolocatable".to_owned(),
        count(r.atlas_vps_responding),
        count(r.atlas_blocks_geolocatable),
        count(r.vp_blocks_geolocatable),
    ]);
    t.row([
        "unique".to_owned(),
        String::new(),
        count(r.atlas_unique_blocks),
        count(r.vp_unique_blocks),
    ]);

    let mut out = String::from("Table 4: coverage of B-Root (datasets SBA-5-15, SBV-5-15)\n\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nHitlist response rate: {} (the paper and prior hitlist studies see ~55%).\n",
        pct(r.vp_blocks_responding as f64 / r.vp_blocks_considered as f64),
    ));
    let verdicts = vec![
        Verdict {
            claim: "Verfploeter sees orders of magnitude (100x or more) more responding blocks than Atlas",
            paper: "~430x",
            measured: format!("{:.0}x", r.coverage_ratio()),
            holds: r.coverage_ratio() >= 100.0,
        },
        Verdict {
            claim: "Most Atlas blocks are also seen by Verfploeter",
            paper: "~77%",
            measured: pct(r.atlas_overlap_fraction()),
            holds: r.atlas_overlap_fraction() > 0.5,
        },
    ];
    #[expect(
        clippy::expect_used,
        reason = "serde_json on owned derived data cannot fail."
    )]
    lab.write_json(
        "table4_coverage",
        &serde_json::to_value(r).expect("serialize"),
    );
    (out, verdicts)
}
