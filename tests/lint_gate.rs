//! Tier-1 lint gate. The policy lives in `[workspace.lints]`, `clippy.toml`
//! and the library roots; this file runs the one gating clippy command and
//! holds what clippy cannot: audits only ratchet down, and every
//! `pub fn merge` names a merge-law test.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `crates/`, `src/`, `tests/` and `examples/`.
fn sources() -> Vec<(PathBuf, String)> {
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples"].map(|d| root().join(d)).into();
    let mut out = Vec::new();
    while let Some(path) = stack.pop() {
        if path.is_dir() && !path.ends_with("target") {
            stack.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path, text));
        }
    }
    out
}

/// The gating command, in its own target directory so it never waits on
/// the build that runs this test.
#[test]
fn workspace_is_lint_clean() {
    let out = Command::new(env!("CARGO"))
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/clippy"))
        .args(["clippy", "--workspace", "--all-targets", "--offline", "--quiet"])
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cargo clippy failed:\n{stderr}");
}

/// Audits only go down: adding an `expect` lint attribute (outer or inner)
/// needs an edit here, where a reviewer sees it; removing one lowers the
/// ceiling.
#[test]
fn expect_count_only_ratchets_down() {
    const CEILING: usize = 79;
    // Spelled in halves so this file does not count itself.
    let (outer, inner) = (concat!("#[", "expect("), concat!("#![", "expect("));
    let count: usize = sources().iter().map(|(_, t)| t.matches(outer).count() + t.matches(inner).count()).sum();
    assert!(count <= CEILING, "{count} expect audits, ceiling {CEILING}");
}

/// Every `pub fn merge` of a type `T` is named by a merge-tested marker
/// (`T::merge` in parentheses) on a commutativity/associativity test: in a
/// `tests/` suite or below a `#[cfg(test)]` line.
#[test]
fn every_pub_merge_names_a_merge_law_test() {
    let (def, marker) = (concat!("pub fn merge(&mut self, ", "other: &"), concat!("merge-", "tested("));
    let files = sources();
    let mut markers = Vec::new();
    for (path, text) in &files {
        let in_suite = path.components().any(|c| c.as_os_str() == "tests");
        let scope = if in_suite { text } else { text.split_once("#[cfg(test)]").map_or("", |(_, t)| t) };
        for (at, _) in scope.match_indices(marker) {
            let rest = &scope[at + marker.len()..];
            markers.push(rest[..rest.find(')').unwrap()].to_string());
        }
    }
    let mut defs = 0;
    for (path, text) in &files {
        for (at, _) in text.match_indices(def) {
            let ty: String = text[at + def.len()..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            assert!(markers.contains(&format!("{ty}::merge")), "{}: {ty}::merge has no merge-tested marker", path.display());
            defs += 1;
        }
    }
    assert_eq!(defs, 12, "pub fn merge count moved: pin the new one with its merge-law test");
}
