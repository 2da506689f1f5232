//! Golden-result tests: re-run the fig2/fig3/table4 experiments on the
//! seed scenario (default scale, the scale the checked-in `results/`
//! artifacts were generated at) and diff the JSON artifacts and the
//! verdicts against the repository copies. A refactor that silently
//! changes any paper number — a bin weight, a site total, a coverage row,
//! a claim's verdict — fails here instead of shipping a different
//! "reproduction". EXPERIMENTS.md's claim rows are checked against the
//! committed `results/verdicts.json`.
//!
//! The experiments run through the sharded scan path, so these tests also
//! pin the sharded engine to the exact numbers the serial engine produced
//! when the goldens were generated.

use std::path::{Path, PathBuf};

use vp_experiments::experiments::{self, Verdict};
use vp_experiments::{Lab, Scale};

/// Repository `results/` directory (the golden artifacts).
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A scratch directory for this test process's regenerated artifacts.
fn scratch_dir() -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn load_json(path: &Path) -> serde_json::Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Asserts a regenerated artifact matches the checked-in golden file.
fn assert_matches_golden(scratch: &Path, name: &str) {
    let fresh = load_json(&scratch.join(format!("{name}.json")));
    let golden = load_json(&golden_dir().join(format!("{name}.json")));
    assert!(
        fresh == golden,
        "{name}.json diverged from results/{name}.json — if the change is \
         intentional, regenerate the goldens with \
         `cargo run --release -p vp-experiments --bin run_all -- --scale default --out results`"
    );
}

type Run = fn(&Lab) -> (String, Vec<Verdict>);

/// One Lab shared by all three regenerations so the expensive worlds and
/// scans are built once, exactly as `run_all` builds them.
#[test]
fn fig2_fig3_table4_match_golden_results() {
    let scratch = scratch_dir();
    let mut lab = Lab::new(Scale::Default);
    lab.out_dir = Some(scratch.clone());
    let verdicts = load_json(&golden_dir().join("verdicts.json"));

    for (id, run, artifact) in [
        (
            "fig2_broot_maps",
            experiments::fig2::run as Run,
            "fig2_maps",
        ),
        ("fig3_tangled_maps", experiments::fig3::run, "fig3_maps"),
        (
            "table4_coverage",
            experiments::table4::run,
            "table4_coverage",
        ),
    ] {
        let (_, checked) = run(&lab);
        assert_matches_golden(&scratch, artifact);
        let fresh = serde_json::json!(checked.iter().map(Verdict::to_json).collect::<Vec<_>>());
        assert!(
            fresh == verdicts[id],
            "{id}'s verdicts diverged from results/verdicts.json: {}",
            serde_json::to_string_pretty(&fresh).unwrap()
        );
    }

    let _ = std::fs::remove_dir_all(&scratch);
}

/// EXPERIMENTS.md's verdict column is `results/verdicts.json`: each
/// committed verdict is exactly one `| claim | paper | measured | ✓/✗ |`
/// row, and every line that carries ✓ or ✗ is such a row.
#[test]
fn experiments_md_claim_rows_are_the_committed_verdicts() {
    let doc_path = golden_dir().join("../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read EXPERIMENTS.md");
    let verdicts = load_json(&golden_dir().join("verdicts.json"));
    let mut rows = Vec::new();
    for (id, list) in verdicts.as_object().expect("an object of experiments") {
        for v in list.as_array().expect("a list of verdicts") {
            let text = |key: &str| v[key].as_str().expect("a string field").to_owned();
            let mark = if v["holds"].as_bool().expect("a bool") {
                "✓"
            } else {
                "✗"
            };
            let row = format!(
                "| {} | {} | {} | {mark} |",
                text("claim"),
                text("paper"),
                text("measured")
            );
            let found = doc.lines().filter(|l| *l == row).count();
            assert_eq!(
                found, 1,
                "EXPERIMENTS.md needs {id}'s verdict once, as:\n{row}"
            );
            rows.push(row);
        }
    }
    for line in doc.lines().filter(|l| l.contains('✓') || l.contains('✗')) {
        assert!(
            rows.iter().any(|r| r == line),
            "EXPERIMENTS.md marks a line no verdict in results/verdicts.json computes:\n{line}"
        );
    }
}
