//! Fig. 5: catchment split vs AS-prepending, Atlas vs Verfploeter.
//!
//! Shape targets: the LAX fraction grows monotonically from "+1 LAX"
//! through "+3 MIA"; a residual sticks with MIA even at +3 (customers of
//! MIA's host and prepend-ignoring ASes, §6.1); both measurement methods
//! agree on the trend while differing in exact values.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::{pct, TextTable};

/// The announcement variants of the sweep, in paper order.
pub(crate) fn sweep_configs() -> Vec<(&'static str, u8, u8)> {
    // (label, LAX prepend, MIA prepend)
    vec![
        ("+1 LAX", 1, 0),
        ("equal", 0, 0),
        ("+1 MIA", 0, 1),
        ("+2 MIA", 0, 2),
        ("+3 MIA", 0, 3),
    ]
}

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.broot();
    #[expect(
        clippy::expect_used,
        reason = "the B-Root scenario always defines the LAX site."
    )]
    let lax = scenario.announcement.site_by_name("LAX").expect("LAX").id;

    let mut t = TextTable::new([
        "prepending",
        "Atlas frac LAX (VPs)",
        "Verfploeter frac LAX (/24s)",
    ]);
    let mut series = Vec::new();
    for (i, (label, p_lax, p_mia)) in sweep_configs().into_iter().enumerate() {
        let mut ann = scenario.announcement.clone();
        ann.set_prepend("LAX", p_lax).set_prepend("MIA", p_mia);
        let atlas = lab.atlas_scan(
            &format!("SBA-prep-{label}"),
            scenario,
            lab.atlas_broot(),
            &ann,
        );
        let vp = lab.vp_scan(
            &format!("SBV-prep-{label}"),
            scenario,
            lab.broot_hitlist(),
            &ann,
            (40 + i) as u16,
        );
        let a = atlas.fraction_to(lax);
        let v = vp.catchments.fraction_to(lax);
        t.row([label.to_owned(), pct(a), pct(v)]);
        series.push((label.to_owned(), a, v));
    }

    // The LAX share never falls by more than 0.5 pp from one step to the next.
    let rising =
        |f: fn(&(String, f64, f64)) -> f64| series.windows(2).all(|w| f(&w[0]) <= f(&w[1]) + 0.005);
    let ((_, atlas_first, vp_first), (_, atlas_last, vp_last)) =
        (&series[0], &series[series.len() - 1]);
    let verdicts = vec![
        Verdict {
            claim: "Both methods see LAX's share rise from +1 LAX to +3 MIA (0.5 pp tolerance)",
            paper: "both rise, from ~35% to ~95% LAX",
            measured: format!(
                "Atlas {} → {}, Verfploeter {} → {}",
                pct(*atlas_first),
                pct(*atlas_last),
                pct(*vp_first),
                pct(*vp_last)
            ),
            holds: rising(|s| s.1) && rising(|s| s.2),
        },
        Verdict {
            claim: "Some blocks stay with MIA at +3 MIA",
            paper: "a small residual, ~5% (§6.1)",
            measured: pct(1.0 - vp_last),
            holds: *vp_last < 1.0,
        },
    ];

    let mut out = String::from(
        "Fig. 5: split between MIA and LAX under AS prepending (SBA-4-20/21, SBV-4-21)\n\n",
    );
    out.push_str(&t.render());
    lab.write_json(
        "fig5_prepending",
        &serde_json::json!(series
            .iter()
            .map(|(l, a, v)| serde_json::json!({ "config": l, "atlas": a, "verfploeter": v }))
            .collect::<Vec<_>>()),
    );
    (out, verdicts)
}
