//! Fig. 3: catchments of the nine-site Tangled testbed, Atlas vs
//! Verfploeter.
//!
//! Shape target: with more sites, the sparse Atlas view and the dense
//! Verfploeter view disagree qualitatively outside Europe (§5.2) — and
//! only Verfploeter covers China at all.

use std::collections::BTreeSet;

use crate::context::Lab;
use crate::experiments::maps::render_pair;
use crate::experiments::Verdict;

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let scenario = lab.tangled();
    let atlas = lab.atlas_scan(
        "STA-2-01",
        scenario,
        lab.atlas_tangled(),
        &scenario.announcement,
    );
    let vp = lab.vp_scan(
        "STV-2-01",
        scenario,
        lab.tangled_hitlist(),
        &scenario.announcement,
        21,
    );

    let mut out =
        String::from("Fig. 3: catchments for Tangled from RIPE Atlas and Verfploeter\n\n");
    out.push_str(&render_pair(lab, scenario, &atlas, &vp.catchments, "fig3"));

    let sites = &scenario.announcement.sites;
    let atlas_sites: BTreeSet<_> = atlas.site_counts().into_keys().collect();
    let vp_sites: BTreeSet<_> = vp.catchments.site_counts().into_keys().collect();
    let missed: Vec<&str> = vp_sites
        .difference(&atlas_sites)
        .map(|s| sites[s.index()].name.as_str())
        .collect();
    let verdicts = vec![Verdict {
        claim: "Atlas misses a site that Verfploeter sees",
        paper: "Atlas misses HND, the weakly connected Tokyo site; Verfploeter sees all 9",
        measured: format!(
            "sites seen: Atlas {} of {n}, Verfploeter {} of {n}; Atlas misses {}",
            atlas_sites.len(),
            vp_sites.len(),
            if missed.is_empty() {
                "none".to_owned()
            } else {
                missed.join(", ")
            },
            n = sites.len(),
        ),
        holds: !missed.is_empty(),
    }];
    (out, verdicts)
}
