//! Table 3: the anycast sites of both deployments.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::TextTable;

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let mut t = TextTable::new(["Service", "Site", "Location", "Upstream"]);
    for (service, scenario) in [("B-Root", lab.broot()), ("Tangled", lab.tangled())] {
        for site in &scenario.announcement.sites {
            let pop = &scenario.world.graph.pops[site.pop];
            let country = pop.country.get();
            t.row([
                service.to_owned(),
                site.name.clone(),
                format!("{}, {}", country.continent.tag(), country.name),
                site.host_asn.to_string(),
            ]);
        }
    }
    let mut out = String::from("Table 3: anycast sites used in the measurements\n\n");
    out.push_str(&t.render());
    out.push_str("\n(HND announces with permanent prepending, reproducing the paper's weakly connected Tokyo site.)\n");
    lab.write_json(
        "table3_sites",
        &serde_json::json!({
            "broot": lab.broot().announcement.sites.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            "tangled": lab.tangled().announcement.sites.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
        }),
    );
    (out, Vec::new())
}
