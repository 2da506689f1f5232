//! Table 2: the load datasets (IPv4 UDP queries/day and q/s, per site).

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::actual_load_fraction;
use verfploeter::{si, TextTable};

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let broot = lab.broot();
    let april = lab.load_april();
    let may = lab.load_may();
    let nl = lab.load_nl();
    let table = broot.routing();

    let mut t = TextTable::new(["Id", "Service", "Date", "Site", "q/day", "q/s"]);
    t.row([
        "LB-4-12".to_owned(),
        "B-Root".to_owned(),
        "2017-04-12".to_owned(),
        "unicast".to_owned(),
        si(april.total_daily()),
        si(april.queries_per_sec()),
    ]);
    t.row([
        "LB-5-15".to_owned(),
        "B-Root".to_owned(),
        "2017-05-15".to_owned(),
        "both".to_owned(),
        si(may.total_daily()),
        si(may.queries_per_sec()),
    ]);
    // Per-site split of the May day, as measured at the sites (ground-truth
    // replay of every block's queries to its catchment).
    for site in &broot.announcement.sites {
        let frac = actual_load_fraction(&table, &may, site.id);
        t.row([
            String::new(),
            String::new(),
            String::new(),
            site.name.clone(),
            si(may.total_daily() * frac),
            si(may.queries_per_sec() * frac),
        ]);
    }
    t.row([
        "LN-4-12".to_owned(),
        "NL ccTLD".to_owned(),
        "2017-04-12".to_owned(),
        "all".to_owned(),
        si(nl.total_daily()),
        si(nl.queries_per_sec()),
    ]);

    let mut out = String::from("Table 2: load datasets (IPv4 UDP queries only)\n\n");
    out.push_str(&t.render());
    out.push_str("\n(The paper redacts LN-4-12 volumes; the reproduction prints its synthetic equivalent.)\n");
    lab.write_json(
        "table2_load_datasets",
        &serde_json::json!({
            "LB-4-12": { "q_day": april.total_daily(), "q_s": april.queries_per_sec() },
            "LB-5-15": { "q_day": may.total_daily(), "q_s": may.queries_per_sec() },
            "LN-4-12": { "q_day": nl.total_daily(), "q_s": nl.queries_per_sec() },
        }),
    );
    (out, Vec::new())
}
