//! Golden-result tests: re-run the fig2/fig3/table4 experiments on the
//! seed scenario (default scale, the scale the checked-in `results/`
//! artifacts were generated at) and diff the JSON artifacts against the
//! repository copies. A refactor that silently changes any paper number —
//! a bin weight, a site total, a coverage row — fails here instead of
//! shipping a different "reproduction".
//!
//! The experiments run through the sharded scan path, so these tests also
//! pin the sharded engine to the exact numbers the serial engine produced
//! when the goldens were generated.

use std::path::{Path, PathBuf};

use vp_experiments::{experiments, Lab, Scale};

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
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
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

/// One Lab shared by all three regenerations so the expensive worlds and
/// scans are built once, exactly as `run_all` builds them.
#[test]
fn fig2_fig3_table4_match_golden_results() {
    let scratch = scratch_dir();
    let mut lab = Lab::new(Scale::Default);
    lab.out_dir = Some(scratch.clone());

    experiments::fig2::run(&lab);
    assert_matches_golden(&scratch, "fig2_maps");

    experiments::fig3::run(&lab);
    assert_matches_golden(&scratch, "fig3_maps");

    experiments::table4::run(&lab);
    assert_matches_golden(&scratch, "table4_coverage");

    let _ = std::fs::remove_dir_all(&scratch);
}
