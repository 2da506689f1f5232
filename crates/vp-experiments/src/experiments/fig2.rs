//! Fig. 2: geographic coverage of B-Root — RIPE Atlas vs Verfploeter.
//!
//! Shape targets: Atlas dense in Europe, sparse in South America and
//! nearly absent in China; Verfploeter covering the populated globe with
//! orders of magnitude more observations.

use crate::context::Lab;
use crate::experiments::maps::render_pair;
use vp_geo::Continent;

pub fn run(lab: &Lab) -> String {
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

    // The China contrast the paper highlights in §5.1.
    let world = &scenario.world;
    #[expect(clippy::expect_used, reason = "CN is in the static country table.")]
    let (cn, _) = vp_geo::country_by_code("CN").expect("CN in table");
    let atlas_cn = atlas
        .outcomes
        .iter()
        .filter(|o| {
            o.site.is_some()
                && world.geodb.locate(o.block).map(|l| l.country) == Some(cn)
        })
        .count();
    let vp_cn = vp
        .catchments
        .iter()
        .filter(|(b, _)| world.geodb.locate(*b).map(|l| l.country) == Some(cn))
        .count();
    out.push_str(&format!(
        "\nChina: Atlas observations = {atlas_cn}, Verfploeter blocks = {vp_cn} \
         (\"Atlas cannot comment, but Verfploeter shows\" how China routes, §5.1).\n"
    ));

    // Europe share contrast (Atlas skew).
    let continent_share = |is_atlas: bool| {
        let mut eu = 0usize;
        let mut total = 0usize;
        if is_atlas {
            for o in atlas.outcomes.iter().filter(|o| o.site.is_some()) {
                if let Some(loc) = world.geodb.locate(o.block) {
                    total += 1;
                    if loc.country.get().continent == Continent::Europe {
                        eu += 1;
                    }
                }
            }
        } else {
            for (b, _) in vp.catchments.iter() {
                if let Some(loc) = world.geodb.locate(b) {
                    total += 1;
                    if loc.country.get().continent == Continent::Europe {
                        eu += 1;
                    }
                }
            }
        }
        eu as f64 / total.max(1) as f64
    };
    out.push_str(&format!(
        "Europe share of observations: Atlas {} vs Verfploeter {}.\n",
        verfploeter::pct(continent_share(true)),
        verfploeter::pct(continent_share(false)),
    ));
    out
}
