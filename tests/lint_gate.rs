//! Tier-1 lint gate: the workspace must be clean under `vp-lint`, and the
//! analyzer must still detect the seeded violations in its fixture
//! workspace (so a silently broken analyzer cannot fake a clean repo).

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file in the workspace passes the determinism-and-hygiene
/// rules — token layer and graph layer — with zero unsuppressed findings.
#[test]
fn workspace_is_lint_clean() {
    let findings = vp_lint::scan_workspace(repo_root()).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "vp-lint found unsuppressed issues:\n{}",
        vp_lint::to_text(&findings)
    );
}

/// Audits only go down: the number of source lines carrying an allow
/// directive (everything the analyzer scans, so fixtures and `vendor/`
/// excluded) may not exceed the committed figure. Removing an audit is
/// free — lower the ceiling in the same change; adding one needs an
/// explicit edit here, where a reviewer sees it. Same count as
/// `grep -rn "<directive>" --include=*.rs . | grep -v "/target/\|fixtures"`.
#[test]
fn allow_directive_count_only_ratchets_down() {
    const CEILING: usize = 110;
    // Spelled in two halves so this file does not count itself.
    let directive = concat!("vp-lint: ", "allow");
    let files = vp_lint::workspace::collect_rs_files(repo_root()).expect("walk workspace");
    let count: usize = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("read source file");
            text.lines().filter(|l| l.contains(directive)).count()
        })
        .sum();
    assert!(
        count <= CEILING,
        "{count} allow directives, ceiling {CEILING}: an audit was added without raising the ceiling"
    );
}

/// The analyzer still fires on the seeded fixture workspace. The exact
/// count pins the rule set: 21 findings in violations.rs (4 d1, 4 d2,
/// 1 d3, 2 d4, 5 h1, 2 h2, plus the g1 on `panics` and the g2s on
/// `entropy` and `LeakyWallClock::now_nanos`), 3 malformed-directive
/// findings in malformed.rs, 3 graph-rule findings in graphs.rs
/// (the cross-file g1 chain, the taint-through-allowed-helper g2, and
/// a stale-allow g3) and 10 confinement findings in conc.rs (c5: 2 per
/// primitive family — threads, locks, atomics/`static mut`, channels,
/// `thread_local!` — each family also carrying one audited allow).
#[test]
fn analyzer_detects_seeded_fixture_violations() {
    let ws = repo_root().join("crates/vp-lint/fixtures/ws");
    let findings = vp_lint::scan_workspace(&ws).expect("scan fixture ws");
    assert_eq!(
        findings.len(),
        37,
        "fixture finding count drifted:\n{}",
        vp_lint::to_text(&findings)
    );
    let count = |rule: &str| {
        findings
            .iter()
            .filter(|f| f.rule.name() == rule)
            .count()
    };
    assert_eq!(count("d1"), 4);
    assert_eq!(count("d2"), 4);
    assert_eq!(count("d3"), 1);
    assert_eq!(count("d4"), 2);
    assert_eq!(count("h1"), 5);
    assert_eq!(count("h2"), 2);
    assert_eq!(count("directive"), 3);
    assert_eq!(count("g1"), 2);
    assert_eq!(count("g2"), 3);
    assert_eq!(count("g3"), 1);
    assert_eq!(count("c5"), 10);
    for family in ["thread::", "Mutex", "Condvar", "static mut", "Atomic", "mpsc", "thread_local!"] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule.name() == "c5" && f.message.starts_with(family)),
            "no seeded c5 finding names `{family}`"
        );
    }
    // Everything seeded lives in the violation files; suppressed.rs,
    // depths.rs (only the deep end of a chain rooted elsewhere),
    // exec.rs (the blessed executor: its thread and channel are
    // c5-exempt) and fixture_tests.rs must contribute nothing.
    assert!(findings.iter().all(|f| {
        f.file.ends_with("violations.rs")
            || f.file.ends_with("malformed.rs")
            || f.file.ends_with("graphs.rs")
            || f.file.ends_with("conc.rs")
    }));
}

/// The g1 witness for the seeded cross-file chain names every hop:
/// public entry -> private mid hop -> private deep helper in another
/// file -> the slice-indexing sink itself.
#[test]
fn fixture_g1_witness_crosses_files() {
    let ws = repo_root().join("crates/vp-lint/fixtures/ws");
    let findings = vp_lint::scan_workspace(&ws).expect("scan fixture ws");
    let g1 = findings
        .iter()
        .find(|f| f.rule.name() == "g1" && f.file.ends_with("graphs.rs"))
        .expect("seeded cross-file g1 finding");
    assert_eq!(g1.witness.len(), 4, "witness: {:?}", g1.witness);
    assert!(g1.witness[0].contains("api_entry"));
    assert!(g1.witness[1].contains("mid_hop"));
    assert!(g1.witness[2].contains("deep_index"));
    assert!(g1.witness[2].contains("depths.rs"), "hop crosses files");
    assert!(g1.witness[3].contains("slice-indexing"));
    // The witness is also rendered into the message, so plain-text
    // consumers (CI logs) see the path without JSON.
    assert!(g1.message.contains("api_entry"));
    assert!(g1.message.contains("deep_index"));
}

/// allow(d2) at a wall-time read silences the token rule but not the
/// taint: the public wrapper still gets a g2 finding whose witness ends
/// at the allowed read site.
#[test]
fn fixture_g2_taints_through_allowed_source() {
    let ws = repo_root().join("crates/vp-lint/fixtures/ws");
    let findings = vp_lint::scan_workspace(&ws).expect("scan fixture ws");
    let g2 = findings
        .iter()
        .find(|f| f.rule.name() == "g2" && f.file.ends_with("graphs.rs"))
        .expect("seeded taint-through-allow g2 finding");
    assert!(g2.message.contains("wrapped_now"));
    assert!(
        g2.witness.last().expect("witness").contains("SystemTime::now"),
        "witness: {:?}",
        g2.witness
    );
    // And no d2 finding fires at the allowed read site.
    assert!(!findings
        .iter()
        .any(|f| f.rule.name() == "d2" && f.file.ends_with("graphs.rs")));
}
