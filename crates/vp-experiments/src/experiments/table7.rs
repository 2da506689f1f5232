//! Table 7: the ASes behind the site flips.
//!
//! Shape targets: flips concentrate heavily — one AS carries about half of
//! all flips (Chinanet in the paper, 51%), the top five together most of
//! them (63%), with a long thin tail across a couple thousand ASes.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::flips_by_as;
use verfploeter::{count, TextTable};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.tangled();
    let rounds = lab.tangled_rounds();
    let table = flips_by_as(&rounds, &scenario.world);

    let (top, other) = table.top_with_other(5);
    let mut t = TextTable::new(["#", "AS", "IPs (/24s)", "Flips", "Frac."]);
    for (i, row) in top.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            row.asn.to_string(),
            count(row.blocks),
            count(row.flips),
            format!("{:.2}", row.frac),
        ]);
    }
    t.row([
        "".to_owned(),
        "Other".to_owned(),
        count(other.blocks),
        count(other.flips),
        format!("{:.2}", other.frac),
    ]);
    t.row([
        "".to_owned(),
        "Total".to_owned(),
        count(table.total_blocks),
        count(table.total_flips),
        "1.00".to_owned(),
    ]);

    let top1 = top.first().map_or(0.0, |r| r.frac);
    let top5: f64 = top.iter().map(|r| r.frac).sum();

    let mut out = String::from("Table 7: top ASes involved in site flips (dataset STV-3-23)\n\n");
    out.push_str(&t.render());
    out.push_str(&format!("\nFlipping ASes: {}.\n", table.flipping_ases()));
    let verdicts = vec![Verdict {
        claim: "Flips concentrate: the top AS carries over 25% of them, the top five over 50%",
        paper: "top AS 51%, top five 63%",
        measured: format!("top AS {:.0}%, top five {:.0}%", 100.0 * top1, 100.0 * top5),
        holds: top1 > 0.25 && top5 > 0.5,
    }];
    lab.write_json(
        "table7_flip_ases",
        &serde_json::json!({
            "total_flips": table.total_flips,
            "flipping_ases": table.flipping_ases(),
            "top": top
                .iter()
                .map(|r| serde_json::json!({
                    "asn": r.asn.0, "blocks": r.blocks, "flips": r.flips, "frac": r.frac,
                }))
                .collect::<Vec<_>>(),
        }),
    );
    (out, verdicts)
}
