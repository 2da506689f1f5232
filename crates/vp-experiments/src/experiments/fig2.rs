//! Fig. 2: geographic coverage of B-Root — RIPE Atlas vs Verfploeter.
//!
//! Shape targets: Atlas dense in Europe, sparse in South America and
//! nearly absent in China; Verfploeter covering the populated globe with
//! orders of magnitude more observations.

use crate::context::Lab;
use crate::experiments::maps::render_pair;
use crate::experiments::Verdict;
use verfploeter::{count, pct};
use vp_geo::Continent;
use vp_net::Block24;

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

    let mut out = String::from("Fig. 2: geographic coverage of vantage points for B-Root\n\n");
    out.push_str(&render_pair(lab, scenario, &atlas, &vp.catchments, "fig2"));

    // Each side's located observations: (all, in Europe, in China).
    let geodb = &scenario.world.geodb;
    let tally = |blocks: &mut dyn Iterator<Item = Block24>| {
        blocks
            .filter_map(|b| geodb.locate(b).map(|l| l.country.get()))
            .fold((0, 0, 0), |(n, eu, cn), c| {
                let in_eu = c.continent == Continent::Europe;
                (
                    n + 1,
                    eu + usize::from(in_eu),
                    cn + usize::from(c.code == "CN"),
                )
            })
    };
    let (a_n, a_eu, a_cn) = tally(
        &mut atlas
            .outcomes
            .iter()
            .filter(|o| o.site.is_some())
            .map(|o| o.block),
    );
    let (v_n, v_eu, v_cn) = tally(&mut vp.catchments.iter().map(|(b, _)| b));
    let share = |k: usize, n: usize| k as f64 / n.max(1) as f64;
    let ratio = v_n as f64 / a_n.max(1) as f64;
    let verdicts = vec![
        Verdict {
            claim: "Most Atlas observations are in Europe, a larger share than Verfploeter's",
            paper: "Atlas is dense in Europe; Verfploeter covers the globe",
            measured: format!(
                "Europe share: Atlas {}, Verfploeter {}",
                pct(share(a_eu, a_n)),
                pct(share(v_eu, v_n))
            ),
            holds: share(a_eu, a_n) > 0.5 && share(a_eu, a_n) > share(v_eu, v_n),
        },
        Verdict {
            claim: "Atlas is almost absent in China: under a tenth of Verfploeter's share there",
            paper: "Atlas cannot comment on China; Verfploeter shows how it routes (§5.1)",
            measured: format!(
                "China: Atlas {a_cn} of {a_n} observations, Verfploeter {} of {} blocks",
                count(v_cn as u64),
                count(v_n as u64)
            ),
            holds: 10.0 * share(a_cn, a_n) < share(v_cn, v_n),
        },
        Verdict {
            claim:
                "Verfploeter has orders of magnitude (100x or more) more observations than Atlas",
            paper: "~1000x (the maps' scales)",
            measured: format!("{ratio:.0}x"),
            holds: ratio >= 100.0,
        },
    ];
    (out, verdicts)
}
