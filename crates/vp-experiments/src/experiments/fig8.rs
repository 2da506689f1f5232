//! Fig. 8: sites seen per announced prefix, grouped by prefix length.
//!
//! Shape targets: long prefixes (/22, /23, /24) are mostly single-site;
//! short prefixes split across several sites; a substantial share of the
//! address space needs more than one VP to map (the paper: 75% of prefixes
//! larger than /10 see multiple sites; 38% of measured address space needs
//! multiple VPs).

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::fig8_rows;
use verfploeter::unstable_blocks;
use verfploeter::{pct, TextTable};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.tangled();
    let rounds = lab.tangled_rounds();
    let unstable = unstable_blocks(&rounds);
    let max_sites = scenario.announcement.sites.len();
    let rows = fig8_rows(&rounds[0], &scenario.world, &unstable, max_sites);

    let mut t = TextTable::new([
        "prefix len",
        "prefixes",
        "1 site",
        "2 sites",
        "3+ sites",
        "single-VP",
    ]);
    for r in &rows {
        let one = r.fractions.first().copied().unwrap_or(0.0);
        let two = r.fractions.get(1).copied().unwrap_or(0.0);
        let three_plus: f64 = r.fractions.iter().skip(2).sum();
        t.row([
            format!("/{}", r.prefix_len),
            r.prefixes.to_string(),
            pct(one),
            pct(two),
            pct(three_plus),
            pct(r.single_vp_fraction),
        ]);
    }

    // Aggregate shape stats.
    let agg = |filter: &dyn Fn(u8) -> bool| -> (f64, usize) {
        let sel: Vec<_> = rows.iter().filter(|r| filter(r.prefix_len)).collect();
        let total: usize = sel.iter().map(|r| r.prefixes).sum();
        let multi: f64 = sel
            .iter()
            .map(|r| (1.0 - r.fractions[0]) * r.prefixes as f64)
            .sum();
        (multi / total.max(1) as f64, total)
    };
    let (short_multi, short_n) = agg(&|l| l <= 16);
    let (long_multi, long_n) = agg(&|l| l >= 22);

    let mut out = String::from(
        "Fig. 8: number of sites seen within each announced prefix, by prefix length (STV-3-23)\n\n",
    );
    out.push_str(&t.render());
    let verdicts = vec![Verdict {
        claim: "Short prefixes (/16 or shorter) split across sites more often than long ones (/22 or longer)",
        paper: "most large prefixes see several sites; /22-/24 are mostly single-site",
        measured: format!(
            "multi-site: {} of {short_n} short, {} of {long_n} long prefixes",
            pct(short_multi),
            pct(long_multi)
        ),
        holds: short_multi > long_multi,
    }];
    lab.write_json(
        "fig8_prefix_divisions",
        &serde_json::json!(rows
            .iter()
            .map(|r| serde_json::json!({
                "prefix_len": r.prefix_len,
                "prefixes": r.prefixes,
                "fractions": r.fractions,
                "single_vp_fraction": r.single_vp_fraction,
            }))
            .collect::<Vec<_>>()),
    );
    (out, verdicts)
}
