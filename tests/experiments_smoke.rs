//! Smoke test: every table/figure regenerator runs at tiny scale and
//! produces a report with its expected structure and its verdicts.

use std::collections::BTreeSet;

use vp_experiments::{experiments, Lab, Scale};

/// Lines each experiment's report must contain, by experiment id.
const NEEDLES: &[(&str, &[&str])] = &[
    ("table1_datasets", &["SBV-5-15", "STV-3-23", "Verfploeter"]),
    ("table2_load_datasets", &["LB-4-12", "LB-5-15", "LN-4-12", "q/day"]),
    ("table3_sites", &["B-Root", "Tangled", "LAX", "CPH"]),
    ("fig2_broot_maps", &["Atlas", "Verfploeter", "largest bins"]),
    ("fig3_tangled_maps", &["Tangled", "ENS"]),
    ("table4_coverage", &["considered", "responding", "geolocatable", "unique"]),
    ("table5_mappability", &["seen at B-Root", "mapped by Verfploeter", "not mappable"]),
    ("table6_pct_lax", &["Atlas", "Verfploeter + load", "Actual load", "% LAX"]),
    ("fig4_load_maps", &["UNKNOWN", "ns1", ".nl"]),
    ("fig5_prepending", &["+1 LAX", "equal", "+3 MIA"]),
    ("fig6_prepend_load", &["[equal]", "[+3 MIA]", "UNKNOWN"]),
    ("fig7_as_divisions", &["sites seen", "median", ">1 site"]),
    ("fig8_prefix_divisions", &["prefix len", "1 site", "single-VP"]),
    ("fig9_stability", &["stable", "flipped", "to_NR", "from_NR"]),
    ("table7_flip_ases", &["Flips", "Total", "Frac."]),
];

/// The experiments EXPERIMENTS.md marks: those with verdicts in the
/// committed `results/verdicts.json`.
fn marked_experiments() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/verdicts.json");
    let text = std::fs::read_to_string(path).expect("read results/verdicts.json");
    let verdicts: serde_json::Value = serde_json::from_str(&text).expect("parse verdicts.json");
    let by_id = verdicts.as_object().expect("an object of experiments");
    by_id
        .iter()
        .filter(|(_, list)| list.as_array().is_some_and(|l| !l.is_empty()))
        .map(|(id, _)| id.clone())
        .collect()
}

/// Every experiment's report is non-trivial, each experiment EXPERIMENTS.md
/// marks returns a verdict, and no two verdicts share a claim (the claim is
/// the doc's join key).
#[test]
fn every_experiment_runs_and_reports() {
    let lab = Lab::new(Scale::Tiny);
    let marked = marked_experiments();
    let mut claims = BTreeSet::new();
    for (name, run) in experiments::all() {
        let (out, verdicts) = run(&lab);
        assert!(out.lines().count() >= 5, "{name} output suspiciously short:\n{out}");
        if marked.contains(name) {
            assert!(!verdicts.is_empty(), "{name} returned no verdict");
        }
        for v in &verdicts {
            assert!(claims.insert(v.claim), "claim {:?} is not unique", v.claim);
        }
    }
}

#[test]
fn reports_contain_their_key_lines() {
    let lab = Lab::new(Scale::Tiny);
    for (name, run) in experiments::all() {
        let (out, _) = run(&lab);
        let needles = NEEDLES.iter().find(|(id, _)| *id == name).expect("needles for every experiment");
        for needle in needles.1 {
            assert!(out.contains(needle), "{name} report lacks {needle:?}:\n{out}");
        }
    }
    assert_eq!(NEEDLES.len(), experiments::all().len());
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
        serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", p.display()));
    }
    std::fs::remove_dir_all(&dir).ok();
}
