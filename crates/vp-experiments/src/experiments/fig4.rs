//! Fig. 4: geographic distribution of DNS load.
//!
//! 4a: B-Root load per site as inferred from Verfploeter catchments plus
//! the April logs — load concentrates in fewer hotspots than raw block
//! counts, and unmappable load (red in the paper) clusters in a few
//! regions. 4b: the `.nl`-style regional service, whose load is
//! Europe-dominated, shown per nameserver.

use std::collections::BTreeMap;

use crate::context::Lab;
use verfploeter::load::{load_bins, load_split};
use verfploeter::report::{pct, si, TextTable};

pub fn run(lab: &Lab) -> String {
    let scenario = lab.broot();
    let vp = lab.vp_scan(
        "SBV-5-15",
        scenario,
        lab.broot_hitlist(),
        &scenario.announcement,
        15,
    );
    let load = lab.load_april();

    // -- 4a: B-Root inferred load per site --
    let bins = load_bins(&vp.catchments, &load);
    let split = load_split(&vp.catchments, &load);
    let total: f64 = split.values().sum();
    let mut t = TextTable::new(["site", "q/day", "share"]);
    for (site, q) in &split {
        let name = match site {
            Some(s) => scenario.announcement.sites[s.index()].name.clone(),
            None => "UNKNOWN".to_owned(),
        };
        t.row([name, si(*q), pct(q / total)]);
    }
    let mut out = String::from(
        "Fig. 4a: geographic distribution of load by site for B-Root (SBV-5-15 x LB-4-12)\n\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "geographic bins with load: {} (vs {} bins with responding blocks — load is more concentrated)\n",
        bins.bin_count(),
        verfploeter::coverage::catchment_bins(&vp.catchments, &scenario.world.geodb).bin_count(),
    ));

    // -- 4b: the .nl-style regional service, per pseudo-nameserver --
    let nl = lab.load_nl();
    let world = &scenario.world;
    let mut ns_bins: vp_geo::BinnedMap<u8> = vp_geo::BinnedMap::new();
    let mut ns_totals: BTreeMap<u8, f64> = BTreeMap::new();
    for (b, q) in nl.per_block() {
        if q <= 0.0 {
            continue;
        }
        // Four unicast nameservers; blocks choose one by hash, as resolver
        // NS selection effectively does.
        let ns = (b.block.0 % 4) as u8 + 1;
        *ns_totals.entry(ns).or_insert(0.0) += q;
        if let Some(loc) = world.geodb.locate(b.block) {
            ns_bins.add(loc.lat, loc.lon, ns, q / 86_400.0);
        }
    }
    out.push_str("\nFig. 4b: geographic distribution of load for .nl (dataset LN-4-12)\n\n");
    let mut t = TextTable::new(["server", "q/day", "share"]);
    let nl_total: f64 = ns_totals.values().sum();
    for (ns, q) in &ns_totals {
        t.row([format!("ns{ns}"), si(*q), pct(q / nl_total)]);
    }
    out.push_str(&t.render());

    // Europe share contrast between the two services.
    let eu_share = |log: &vp_dns::QueryLog| {
        let mut eu = 0.0;
        let mut total = 0.0;
        for (b, q) in log.per_block() {
            if q <= 0.0 {
                continue;
            }
            total += q;
            if let Some(loc) = world.geodb.locate(b.block) {
                if loc.country.get().continent == vp_geo::Continent::Europe {
                    eu += q;
                }
            }
        }
        eu / total.max(1e-12)
    };
    out.push_str(&format!(
        "\nEurope's share of load: B-Root {} vs .nl {} — the regional service needs \
         load calibration far more (§5.4).\n",
        pct(eu_share(&load)),
        pct(eu_share(&nl)),
    ));
    lab.write_json(
        "fig4_load_maps",
        &serde_json::json!({
            "broot_split": split
                .iter()
                .map(|(k, v)| {
                    let name = match k {
                        Some(s) => scenario.announcement.sites[s.index()].name.clone(),
                        None => "UNKNOWN".to_owned(),
                    };
                    (name, *v)
                })
                .collect::<BTreeMap<String, f64>>(),
            "nl_split": ns_totals
                .iter()
                .map(|(k, v)| (format!("ns{k}"), *v))
                .collect::<BTreeMap<String, f64>>(),
            "broot_eu_share": eu_share(&load),
            "nl_eu_share": eu_share(&nl),
        }),
    );
    out
}
