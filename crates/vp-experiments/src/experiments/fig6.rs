//! Fig. 6: predicted hourly load per prepending configuration.
//!
//! For each of the five prepending configurations, the catchments measured
//! by Verfploeter are combined with the DITL day (LB-4-12) into hourly
//! per-site load series. Shape targets: "+1 LAX" sends nearly everything
//! to MIA; each added MIA prepend shifts load toward LAX; a small UNKNOWN
//! share persists throughout; and the series follow the diurnal curve.

use crate::context::Lab;
use crate::experiments::fig5::sweep_configs;
use verfploeter::predict::hourly_prediction;
use verfploeter::report::TextTable;

#[expect(clippy::expect_used, reason = "the B-Root scenario always defines the LAX and MIA sites.")]
pub fn run(lab: &Lab) -> String {
    let scenario = lab.broot();
    let load = lab.load_april();
    let lax = scenario.announcement.site_by_name("LAX").expect("LAX").id;
    let mia = scenario.announcement.site_by_name("MIA").expect("MIA").id;

    let mut out = String::from(
        "Fig. 6: predicted hourly load for B-Root under prepending (SBV-4-21 x LB-4-12)\n",
    );
    let mut json_rows = Vec::new();
    for (i, (label, p_lax, p_mia)) in sweep_configs().into_iter().enumerate() {
        let mut ann = scenario.announcement.clone();
        ann.set_prepend("LAX", p_lax).set_prepend("MIA", p_mia);
        let vp = lab.vp_scan(
            &format!("SBV-prep-{label}"),
            scenario,
            lab.broot_hitlist(),
            &ann,
            (40 + i) as u16,
        );
        let hours = hourly_prediction(&vp.catchments, &load);
        out.push_str(&format!("\n[{label}] queries/second by hour (UTC):\n"));
        let mut t = TextTable::new(["hour", "LAX", "MIA", "UNKNOWN"]);
        let mut daily = [0.0f64; 3];
        for (h, slot) in hours.iter().enumerate() {
            let l = slot.get(&Some(lax)).copied().unwrap_or(0.0);
            let m = slot.get(&Some(mia)).copied().unwrap_or(0.0);
            let u = slot.get(&None).copied().unwrap_or(0.0);
            daily[0] += l;
            daily[1] += m;
            daily[2] += u;
            if h % 4 == 0 {
                t.row([
                    format!("{h:02}:00"),
                    format!("{l:.0}"),
                    format!("{m:.0}"),
                    format!("{u:.0}"),
                ]);
            }
            json_rows.push(serde_json::json!({
                "config": label, "hour": h, "lax_qps": l, "mia_qps": m, "unknown_qps": u,
            }));
        }
        t.row([
            "mean".to_owned(),
            format!("{:.0}", daily[0] / 24.0),
            format!("{:.0}", daily[1] / 24.0),
            format!("{:.0}", daily[2] / 24.0),
        ]);
        out.push_str(&t.render());
    }
    out.push_str(
        "\n(Every fourth hour shown; full 24-hour series in the JSON artifact. \
         The top panel should be nearly all MIA, shifting to mostly LAX as MIA prepends grow, \
         with a persistent small UNKNOWN share — §6.1.)\n",
    );
    lab.write_json("fig6_prepend_load", &serde_json::json!(json_rows));
    out
}
