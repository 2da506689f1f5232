//! Fig. 9: catchment stability over 24 hours.
//!
//! Shape targets: the overwhelming majority of VPs are stable every round
//! (~95% of responders in the paper); a few percent churn between
//! responsive and non-responsive (to-NR/from-NR, ~2.4%); and a tiny
//! fraction (~0.1%) flips site.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::{count, pct, TextTable};
use vp_monitor::diff::{diff_series, RoundDiff};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let rounds = lab.tangled_rounds();
    let deltas = diff_series(&rounds);
    assert!(!deltas.is_empty(), "need at least two rounds");

    // With --snapshots, emit the per-round maps + origins sidecar that
    // `vp-monitor diff` replays (see DESIGN.md §10).
    if let Some(dir) = &lab.snapshot_dir {
        let world = &lab.tangled().world;
        let n = crate::monitor::write_round_snapshots(dir, &rounds, world)
            .unwrap_or_else(|e| panic!("snapshot emission failed: {e}"));
        eprintln!("wrote {n} round snapshots to {}", dir.display());
    }

    let mut t = TextTable::new(["round", "stable", "flipped", "to_NR", "from_NR"]);
    let show_every = (deltas.len() / 12).max(1);
    for d in deltas.iter().step_by(show_every) {
        t.row([
            d.round.to_string(),
            count(d.stable),
            count(d.flipped),
            count(d.to_nr),
            count(d.from_nr),
        ]);
    }

    let median = |f: &dyn Fn(&RoundDiff) -> u64| -> u64 {
        let mut v: Vec<u64> = deltas.iter().map(f).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let med_stable = median(&|d| d.stable);
    let med_flipped = median(&|d| d.flipped);
    let med_to_nr = median(&|d| d.to_nr);
    let med_from_nr = median(&|d| d.from_nr);
    let responders = med_stable + med_flipped;
    let stable_frac = med_stable as f64 / responders.max(1) as f64;
    let verdicts = vec![
        Verdict {
            claim: "At least 95% of continuing responders keep their site from round to round",
            paper: "~95%+ of responders are stable",
            measured: format!("{} (median round)", pct(stable_frac)),
            holds: stable_frac >= 0.95,
        },
        Verdict {
            claim: "Site flips are an order of magnitude rarer than responsiveness churn",
            paper: "flips ~0.1%, to-NR churn ~2.4% of responders",
            measured: format!(
                "{} flips vs {} to-NR (median round)",
                count(med_flipped),
                count(med_to_nr)
            ),
            holds: 10 * med_flipped <= med_to_nr,
        },
    ];

    let mut out = String::from(
        "Fig. 9: stability over 24 hours, one point per 15-minute round (dataset STV-3-23)\n\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nMedians across {} transitions:\n\
         \x20 stable:  {} ({} of continuing responders)\n\
         \x20 flipped: {} ({})\n\
         \x20 to_NR:   {} | from_NR: {}\n",
        deltas.len(),
        count(med_stable),
        pct(stable_frac),
        count(med_flipped),
        pct(med_flipped as f64 / responders.max(1) as f64),
        count(med_to_nr),
        count(med_from_nr),
    ));
    lab.write_json(
        "fig9_stability",
        &serde_json::json!(deltas
            .iter()
            .map(|d| serde_json::json!({
                "round": d.round,
                "stable": d.stable,
                "flipped": d.flipped,
                "to_nr": d.to_nr,
                "from_nr": d.from_nr,
            }))
            .collect::<Vec<_>>()),
    );
    (out, verdicts)
}
