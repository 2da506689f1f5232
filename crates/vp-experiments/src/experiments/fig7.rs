//! Fig. 7: sites seen per AS vs announced-prefix count.
//!
//! Shape targets: a meaningful minority of ASes (12.7% in the paper) see
//! more than one site, and ASes seeing more sites announce more prefixes
//! (rising medians).

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::unstable_blocks;
use verfploeter::{as_divisions, fig7_rows, split_as_fraction};
use verfploeter::{pct, TextTable};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.tangled();
    let rounds = lab.tangled_rounds();
    // §6.2: remove unstable VPs first so flapping isn't read as division.
    let unstable = unstable_blocks(&rounds);
    let divisions = as_divisions(&rounds[0], &scenario.world, &unstable);
    let rows = fig7_rows(&divisions);
    let split_frac = split_as_fraction(&divisions);

    let mut t = TextTable::new(["sites seen", "ASes", "p5", "p25", "median", "p75", "p95"]);
    for r in &rows {
        let p = r.prefix_percentiles;
        t.row([
            r.sites.to_string(),
            r.ases.to_string(),
            format!("{:.0}", p[0]),
            format!("{:.0}", p[1]),
            format!("{:.0}", p[2]),
            format!("{:.0}", p[3]),
            format!("{:.0}", p[4]),
        ]);
    }
    let medians: Vec<f64> = rows.iter().map(|r| r.prefix_percentiles[2]).collect();
    let sites: Vec<String> = rows.iter().map(|r| r.sites.to_string()).collect();
    let shown: Vec<String> = medians.iter().map(|m| format!("{m:.0}")).collect();
    let verdicts = vec![Verdict {
        claim: "ASes that see more sites announce more prefixes",
        paper: "median prefixes rise with sites seen",
        measured: format!(
            "median prefixes {} at {} sites",
            shown.join(", "),
            sites.join(", ")
        ),
        holds: medians.len() > 1 && medians.windows(2).all(|w| w[1] >= w[0]),
    }];

    let mut out = String::from(
        "Fig. 7: announced prefixes vs number of sites seen per AS (dataset STV-3-23)\n\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nASes seeing >1 site: {} of {} ({}) — the paper reports 12.7%.\n\
         Excluded unstable blocks: {}.\n",
        divisions.iter().filter(|d| d.sites_seen > 1).count(),
        divisions.len(),
        pct(split_frac),
        unstable.len(),
    ));
    lab.write_json(
        "fig7_as_divisions",
        &serde_json::json!({
            "split_fraction": split_frac,
            "rows": rows
                .iter()
                .map(|r| serde_json::json!({
                    "sites": r.sites,
                    "ases": r.ases,
                    "prefix_percentiles": r.prefix_percentiles,
                }))
                .collect::<Vec<_>>(),
        }),
    );
    (out, verdicts)
}
