//! Smoke test: every table/figure regenerator runs at tiny scale and
//! produces a report with its expected structure.

use vp_experiments::{experiments, Lab, Scale};

#[test]
fn every_experiment_runs_and_reports() {
    let lab = Lab::new(Scale::Tiny);
    for (name, run) in experiments::all() {
        let out = run(&lab);
        assert!(!out.is_empty(), "{name} produced no output");
        assert!(
            out.lines().count() >= 5,
            "{name} output suspiciously short:\n{out}"
        );
    }
}

/// An experiment, its runner and lines its report must contain.
type Expectation = (&'static str, fn(&Lab) -> String, &'static [&'static str]);

#[test]
fn reports_contain_their_key_lines() {
    let lab = Lab::new(Scale::Tiny);
    let expectations: &[Expectation] = &[
        (
            "table1",
            experiments::table1::run,
            &["SBV-5-15", "STV-3-23", "Verfploeter"],
        ),
        (
            "table2",
            experiments::table2::run,
            &["LB-4-12", "LB-5-15", "LN-4-12", "q/day"],
        ),
        ("table3", experiments::table3::run, &["B-Root", "Tangled", "LAX", "CPH"]),
        (
            "table4",
            experiments::table4::run,
            &["considered", "responding", "geolocatable", "unique", "more responding blocks"],
        ),
        (
            "table5",
            experiments::table5::run,
            &["seen at B-Root", "mapped by Verfploeter", "not mappable"],
        ),
        (
            "table6",
            experiments::table6::run,
            &["Atlas", "Verfploeter + load", "Actual load", "% LAX"],
        ),
        (
            "table7",
            experiments::table7::run,
            &["Flips", "Total", "Frac."],
        ),
        ("fig2", experiments::fig2::run, &["Atlas", "Verfploeter", "China"]),
        ("fig3", experiments::fig3::run, &["Tangled", "Sites observed"]),
        ("fig4", experiments::fig4::run, &["UNKNOWN", "ns1", "Europe"]),
        (
            "fig5",
            experiments::fig5::run,
            &["+1 LAX", "equal", "+3 MIA", "residual"],
        ),
        ("fig6", experiments::fig6::run, &["[equal]", "[+3 MIA]", "UNKNOWN"]),
        ("fig7", experiments::fig7::run, &["sites seen", "median", ">1 site"]),
        (
            "fig8",
            experiments::fig8::run,
            &["prefix len", "1 site", "single-VP"],
        ),
        (
            "fig9",
            experiments::fig9::run,
            &["stable", "flipped", "to_NR", "from_NR"],
        ),
    ];
    for (name, run, needles) in expectations {
        let out = run(&lab);
        for needle in *needles {
            assert!(
                out.contains(needle),
                "{name} report lacks {needle:?}:\n{out}"
            );
        }
    }
}

#[test]
fn json_artifacts_are_written_when_out_dir_set() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-exp-{}", std::process::id()));
    let mut lab = Lab::new(Scale::Tiny);
    lab.out_dir = Some(dir.clone());
    experiments::table4::run(&lab);
    experiments::fig5::run(&lab);
    let t4 = dir.join("table4_coverage.json");
    let f5 = dir.join("fig5_prepending.json");
    assert!(t4.exists(), "missing {}", t4.display());
    assert!(f5.exists(), "missing {}", f5.display());
    // Valid JSON.
    for p in [t4, f5] {
        let text = std::fs::read_to_string(&p).unwrap();
        serde_json::from_str::<serde_json::Value>(&text)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", p.display()));
    }
    std::fs::remove_dir_all(&dir).ok();
}
