//! Shared rendering of geographic catchment maps (Figs. 2 and 3).

use std::collections::BTreeMap;

use verfploeter::CatchmentMap;
use verfploeter::TextTable;
use verfploeter::{catchment_bins, weighted_bins};
use vp_atlas::AtlasResult;
use vp_bgp::{Announcement, SiteId};
use vp_geo::BinnedMap;
use vp_net::Block24;
use vp_sim::Scenario;

fn site_name(ann: &Announcement, site: SiteId) -> String {
    ann.sites[site.index()].name.clone()
}

/// Renders one measurement's binned map as a textual summary plus a JSON
/// value with every bin.
pub(super) fn render_binned(
    title: &str,
    bins: &BinnedMap<SiteId>,
    ann: &Announcement,
    unit: &str,
) -> (String, serde_json::Value) {
    let mut out = format!("{title}\n");
    let totals = bins.totals_by_key();
    let mut t = TextTable::new(["site", unit, "share"]);
    let total = bins.total();
    for (site, w) in &totals {
        t.row([
            site_name(ann, *site),
            format!("{:.0}", w),
            verfploeter::pct(w / total.max(1e-12)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "bins: {}   max bin: {:.0} {unit}\n",
        bins.bin_count(),
        bins.max_bin_total()
    ));
    // Top bins, as a flavour of the map.
    let mut rows = bins.rows();
    rows.sort_by(|a, b| {
        let wa: f64 = a.1.values().sum();
        let wb: f64 = b.1.values().sum();
        wb.total_cmp(&wa)
    });
    out.push_str("largest bins (lat,lon center -> per-site):\n");
    for (bin, weights) in rows.iter().take(8) {
        let (lat, lon) = bin.center();
        let per_site: Vec<String> = weights
            .iter()
            .map(|(s, w)| format!("{}={:.0}", site_name(ann, *s), w))
            .collect();
        out.push_str(&format!(
            "  ({lat:+05.0},{lon:+06.0})  {}\n",
            per_site.join(" ")
        ));
    }
    let json = serde_json::json!({
        "bins": rows
            .iter()
            .map(|(bin, weights)| {
                serde_json::json!({
                    "lat_bin": bin.lat_bin,
                    "lon_bin": bin.lon_bin,
                    "weights": weights
                        .iter()
                        .map(|(s, w)| (site_name(ann, *s), w))
                        .collect::<BTreeMap<String, &f64>>(),
                })
            })
            .collect::<Vec<_>>(),
        "totals": totals
            .iter()
            .map(|(s, w)| (site_name(ann, *s), w))
            .collect::<BTreeMap<String, &f64>>(),
    });
    (out, json)
}

/// Builds the Atlas-side bins: VPs per block weighted by VP count.
pub(super) fn atlas_bins(scenario: &Scenario, atlas: &AtlasResult) -> BinnedMap<SiteId> {
    let mut per_block: BTreeMap<(Block24, SiteId), f64> = BTreeMap::new();
    for o in &atlas.outcomes {
        if let Some(site) = o.site {
            *per_block.entry((o.block, site)).or_insert(0.0) += 1.0;
        }
    }
    weighted_bins(
        per_block.into_iter().map(|((b, s), w)| (b, s, w)),
        &scenario.world.geodb,
    )
}

/// Renders the Atlas-vs-Verfploeter map pair for one service.
pub(super) fn render_pair(
    lab: &crate::context::Lab,
    scenario: &Scenario,
    atlas: &AtlasResult,
    vp: &CatchmentMap,
    fig: &str,
) -> String {
    let ann = &scenario.announcement;
    let a_bins = atlas_bins(scenario, atlas);
    let v_bins = catchment_bins(vp, &scenario.world.geodb);
    let (a_text, a_json) = render_binned(
        &format!("({fig}a) RIPE Atlas coverage (dataset {})", atlas.name),
        &a_bins,
        ann,
        "VPs",
    );
    let (v_text, v_json) = render_binned(
        &format!("({fig}b) Verfploeter coverage (dataset {})", vp.name),
        &v_bins,
        ann,
        "blocks",
    );
    lab.write_json(
        &format!("{fig}_maps"),
        &serde_json::json!({ "atlas": a_json, "verfploeter": v_json }),
    );
    format!("{a_text}\n{v_text}")
}
