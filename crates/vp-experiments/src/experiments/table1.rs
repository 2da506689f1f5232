//! Table 1: the scan-dataset inventory.
//!
//! Paper: eight datasets (SBA-4-20 … STV-3-23) scanning B-Root and Tangled
//! with Atlas and Verfploeter on various days. Here the inventory is
//! derived from the lab's configuration — the durations come from the real
//! probing parameters (hitlist size / probe rate; Atlas scan window), and
//! STV-3-23's row reflects the configured round count.

use crate::context::Lab;
use crate::experiments::Verdict;
use verfploeter::TextTable;

pub fn run(lab: &Lab) -> (String, Vec<Verdict>) {
    let broot_targets = lab.broot_hitlist().len();
    let tangled_targets = lab.tangled_hitlist().len();
    let vp_mins = |targets: usize| (targets as f64 / 10_000.0 / 60.0).ceil() as u64;
    let rounds = lab.scale.stability_rounds();

    let mut t = TextTable::new(["Id", "Service", "Method", "Start", "Dur."]);
    t.row(["SBA-4-20", "B-Root", "Atlas", "2017-04-20", "8 m"]);
    t.row(["SBA-4-21", "B-Root", "Atlas", "2017-04-21", "8 m"]);
    t.row(["SBA-5-15", "B-Root", "Atlas", "2017-05-15", "8 m"]);
    t.row([
        "SBV-4-21".to_owned(),
        "B-Root".to_owned(),
        "Verfploeter".to_owned(),
        "2017-04-21".to_owned(),
        format!("{} m", vp_mins(broot_targets)),
    ]);
    t.row([
        "SBV-5-15".to_owned(),
        "B-Root".to_owned(),
        "Verfploeter".to_owned(),
        "2017-05-15".to_owned(),
        format!("{} m", vp_mins(broot_targets)),
    ]);
    t.row(["STA-2-01", "Tangled", "Atlas", "2017-02-01", "8 m"]);
    t.row([
        "STV-2-01".to_owned(),
        "Tangled".to_owned(),
        "Verfploeter".to_owned(),
        "2017-02-01".to_owned(),
        format!("{} m", vp_mins(tangled_targets)),
    ]);
    t.row([
        "STV-3-23".to_owned(),
        "Tangled".to_owned(),
        "Verfploeter".to_owned(),
        "2017-03-23".to_owned(),
        format!("{} x 15 m", rounds),
    ]);

    let mut out = String::from("Table 1: scans of anycast catchments (reproduction datasets)\n\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nB-Root hitlist: {broot_targets} /24 targets; Tangled hitlist: {tangled_targets} /24 targets; probe rate 10k/s.\n\
         STV-3-23 contains {rounds} measurements at 15-minute intervals.\n"
    ));
    lab.write_json(
        "table1_datasets",
        &serde_json::json!({
            "broot_targets": broot_targets,
            "tangled_targets": tangled_targets,
            "stability_rounds": rounds,
        }),
    );
    (out, Vec::new())
}
