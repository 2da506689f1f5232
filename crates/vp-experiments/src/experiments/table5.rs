//! Table 5: traffic-weighted coverage of Verfploeter from B-Root's logs.
//!
//! Shape targets: most traffic-sending blocks are mapped, but the mapped
//! *query* share is a bit lower than the mapped *block* share (the paper:
//! 87.1% of blocks, 82.4% of queries mapped; 12.9% / 17.6% not mappable).

use crate::context::Lab;
use verfploeter::load::mappability;
use verfploeter::report::{count, pct, si, TextTable};

pub fn run(lab: &Lab) -> String {
    let scenario = lab.broot();
    let vp = lab.vp_scan(
        "SBV-5-15",
        scenario,
        lab.broot_hitlist(),
        &scenario.announcement,
        15,
    );
    let log = lab.load_may();
    let m = mappability(&vp.catchments, &log);

    let mut t = TextTable::new(["Blocks", "/24s", "%", "q/day", "%"]);
    t.row([
        "seen at B-Root".to_owned(),
        count(m.blocks_seen),
        "100.0%".to_owned(),
        si(m.queries_seen),
        "100.0%".to_owned(),
    ]);
    t.row([
        "mapped by Verfploeter".to_owned(),
        count(m.blocks_mapped),
        pct(m.blocks_mapped_frac()),
        si(m.queries_mapped),
        pct(m.queries_mapped_frac()),
    ]);
    t.row([
        "not mappable".to_owned(),
        count(m.blocks_seen - m.blocks_mapped),
        pct(1.0 - m.blocks_mapped_frac()),
        si(m.queries_seen - m.queries_mapped),
        pct(1.0 - m.queries_mapped_frac()),
    ]);

    let mut out =
        String::from("Table 5: coverage of Verfploeter from B-Root (datasets SBV-5-15, LB-5-15)\n\n");
    out.push_str(&t.render());
    #[expect(clippy::expect_used, reason = "serde_json on owned derived data cannot fail.")]
    lab.write_json("table5_mappability", &serde_json::to_value(m).expect("serialize"));
    out
}
