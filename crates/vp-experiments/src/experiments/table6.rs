//! Table 6: "% LAX" by method and date — the paper's central calibration
//! result.
//!
//! Shape targets (paper values in parentheses):
//! * methods disagree: Atlas VPs, Verfploeter blocks and load-weighted
//!   Verfploeter give different splits (68.8–87.8%);
//! * the load-weighted prediction lands closest to the actually measured
//!   load (81.6% predicted vs 81.4% measured);
//! * predicting with month-old catchments is worse (76.2%). Not in this
//!   world: at the golden seed the month-old prediction is 0.1 pp off,
//!   against 0.5 pp same-day, because between-dates drift moves only
//!   1.0 pp of blocks. No verdict checks it; `verfploeter::predict`'s
//!   `stale_catchments_predict_worse_than_fresh` test exercises the
//!   mechanism on a real routing change, as EXPERIMENTS.md notes.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::actual_load_fraction;
use verfploeter::load_fraction_to;
use verfploeter::{count, pct, TextTable};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.broot();
    #[expect(
        clippy::expect_used,
        reason = "the B-Root scenario always defines the LAX site."
    )]
    let lax = scenario.announcement.site_by_name("LAX").expect("LAX").id;
    let may_ann = &scenario.announcement;
    let april_seed = lab.april_policy_seed();

    // Scans on both dates with both methods; April differs from May by a
    // month of routing drift (policy tie-breaks), not by configuration.
    let atlas_april =
        lab.atlas_scan_seeded("SBA-4-21", scenario, lab.atlas_broot(), may_ann, april_seed);
    let atlas_may = lab.atlas_scan("SBA-5-15", scenario, lab.atlas_broot(), may_ann);
    let vp_april = lab.vp_scan_seeded(
        "SBV-4-21",
        scenario,
        lab.broot_hitlist(),
        may_ann,
        4,
        april_seed,
    );
    let vp_may = lab.vp_scan("SBV-5-15", scenario, lab.broot_hitlist(), may_ann, 15);

    let load_april = lab.load_april();
    let load_may = lab.load_may();
    let routing_may = scenario.routing_for(may_ann);

    let atlas_april_pct = atlas_april.fraction_to(lax);
    let atlas_may_pct = atlas_may.fraction_to(lax);
    let vp_april_pct = vp_april.catchments.fraction_to(lax);
    let vp_may_pct = vp_may.catchments.fraction_to(lax);
    // Same-day prediction: May catchments weighted with May load.
    let predicted_may = load_fraction_to(&vp_may.catchments, &load_may, lax);
    // Long-duration prediction: April catchments + April load.
    let predicted_long = load_fraction_to(&vp_april.catchments, &load_april, lax);
    // Ground truth: the split actually measured at the sites on the May day.
    let actual_may = actual_load_fraction(&routing_may, &load_may, lax);

    let mut t = TextTable::new(["Date", "Method", "Measurement", "% LAX"]);
    t.row([
        "2017-04-21".to_owned(),
        "Atlas".to_owned(),
        format!("{} VPs", count(atlas_april.vps_responding() as u64)),
        pct(atlas_april_pct),
    ]);
    t.row([
        "2017-05-15".to_owned(),
        "Atlas".to_owned(),
        format!("{} VPs", count(atlas_may.vps_responding() as u64)),
        pct(atlas_may_pct),
    ]);
    t.row([
        "2017-04-21".to_owned(),
        "Verfploeter".to_owned(),
        format!("{} /24s", count(vp_april.catchments.len() as u64)),
        pct(vp_april_pct),
    ]);
    t.row([
        "2017-05-15".to_owned(),
        "Verfploeter".to_owned(),
        format!("{} /24s", count(vp_may.catchments.len() as u64)),
        pct(vp_may_pct),
    ]);
    t.row([
        "2017-05-15".to_owned(),
        "Verfploeter + load".to_owned(),
        "q/day".to_owned(),
        pct(predicted_may),
    ]);
    t.row([
        "2017-04-21 (stale)".to_owned(),
        "Verfploeter + load".to_owned(),
        "q/day".to_owned(),
        pct(predicted_long),
    ]);
    t.row([
        "2017-05-15".to_owned(),
        "Actual load".to_owned(),
        "q/day".to_owned(),
        pct(actual_may),
    ]);

    let err_weighted = (predicted_may - actual_may).abs() * 100.0;
    let err_blocks = (vp_may_pct - actual_may).abs() * 100.0;
    let err_stale = (predicted_long - actual_may).abs() * 100.0;
    let drift_pp = (vp_may_pct - vp_april_pct).abs() * 100.0;

    let mut out = String::from(
        "Table 6: B-Root anycast split under different measurement methods and dates\n\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nLoad-weighted prediction error with month-old catchments: {err_stale:.1} pp.\n\
         Routing drift between the dates moved {drift_pp:.1} pp of blocks \
         (the paper sees 82.4% -> 87.8%).\n"
    ));
    let verdicts = vec![
        Verdict {
            claim: "The same-day load-weighted prediction lands within 3 pp of the measured load",
            paper: "0.2 pp off (81.6% vs 81.4%)",
            measured: format!(
                "{err_weighted:.1} pp off ({} vs {})",
                pct(predicted_may),
                pct(actual_may)
            ),
            holds: err_weighted <= 3.0,
        },
        Verdict {
            claim: "Load weighting predicts the measured load better than the block split",
            paper: "0.2 pp vs 6.4 pp off",
            measured: format!("{err_weighted:.1} pp vs {err_blocks:.1} pp off"),
            holds: err_weighted < err_blocks,
        },
    ];
    lab.write_json(
        "table6_pct_lax",
        &serde_json::json!({
            "atlas_april": atlas_april_pct,
            "atlas_may": atlas_may_pct,
            "vp_april": vp_april_pct,
            "vp_may": vp_may_pct,
            "predicted_may": predicted_may,
            "predicted_stale": predicted_long,
            "actual_may": actual_may,
            "err_weighted_pp": err_weighted,
            "err_blocks_pp": err_blocks,
            "err_stale_pp": err_stale,
        }),
    );
    (out, verdicts)
}
