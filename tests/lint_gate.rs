//! Tier-1 lint gate. The policy lives in `[workspace.lints]`, `clippy.toml`
//! and the library roots; this file runs the one gating clippy command and
//! the rustdoc build, and holds what neither can: audits and exported
//! names only ratchet down, every dependency is used, every `pub fn
//! merge` names a merge-law test, no document is assembled key by key,
//! vendored stand-ins only get fewer and none is a proc-macro, DESIGN.md's
//! crate inventory names every crate, and DESIGN.md only gets shorter.

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

/// A cargo command in its own target directory, so it never waits on the
/// build that runs this test: its stderr if it failed.
fn cargo_fails(args: &[&str], rustdocflags: &str) -> Option<String> {
    let out = Command::new(env!("CARGO"))
        .current_dir(root())
        .env("CARGO_TARGET_DIR", root().join("target/clippy"))
        .env("RUSTDOCFLAGS", rustdocflags)
        .args(args)
        .output()
        .expect("run cargo");
    (!out.status.success()).then(|| String::from_utf8_lossy(&out.stderr).into_owned())
}

/// The gating command.
#[test]
fn workspace_is_lint_clean() {
    let args = ["clippy", "--workspace", "--all-targets", "--offline", "--quiet", "--", "-D", "warnings"];
    if let Some(stderr) = cargo_fails(&args, "") {
        panic!("cargo clippy failed:\n{stderr}");
    }
}

/// Every doc comment renders: no dangling intra-doc link, no stray HTML.
#[test]
fn workspace_docs_build_clean() {
    let args = ["doc", "--workspace", "--no-deps", "--offline", "--quiet"];
    if let Some(stderr) = cargo_fails(&args, "-D warnings") {
        panic!("cargo doc failed:\n{stderr}");
    }
}

/// Audits only go down: adding an `expect` lint attribute (outer or inner)
/// needs an edit here, where a reviewer sees it; removing one lowers the
/// ceiling. The largest family, `clippy::indexing_slicing`, has a ceiling
/// of its own.
#[test]
fn expect_count_only_ratchets_down() {
    const CEILING: usize = 48;
    const INDEXING_CEILING: usize = 7;
    // Spelled in halves so this file does not count itself.
    let (outer, inner) = (concat!("#[", "expect("), concat!("#![", "expect("));
    let files = sources();
    let audits: Vec<&str> = files
        .iter()
        .flat_map(|(_, t)| {
            t.match_indices(outer)
                .chain(t.match_indices(inner))
                .map(move |(at, _)| &t[at..])
        })
        .map(|rest| &rest[..rest.find(")]").unwrap()])
        .collect();
    let count = audits.len();
    assert!(count <= CEILING, "{count} expect audits, ceiling {CEILING}");
    let indexing = audits.iter().filter(|a| a.contains("clippy::indexing_slicing")).count();
    assert!(indexing <= INDEXING_CEILING, "{indexing} indexing_slicing audits, ceiling {INDEXING_CEILING}");
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

/// A document is a type that lists its fields in `impl_serialize!`,
/// rendered with `json!` (DESIGN.md §5): no non-test source inserts a
/// literal key and a `Value` into a map (whitespace aside).
#[test]
fn documents_are_not_assembled_key_by_key() {
    // Spelled in halves so this file does not match itself.
    let (open, close) = (concat!("insert(", "\""), concat!("\".to_owned(),", "Value::"));
    for (path, text) in sources() {
        let rel = path.strip_prefix(root()).unwrap();
        if rel.components().any(|c| c.as_os_str() == "tests") {
            continue;
        }
        let code = text.split_once("#[cfg(test)]").map_or(text.as_str(), |(code, _)| code);
        let code: String = code.chars().filter(|c| !c.is_whitespace()).collect();
        for (at, _) in code.match_indices(open) {
            let rest = &code[at + open.len()..];
            let key = &rest[..rest.find('"').unwrap_or(rest.len())];
            assert!(
                !rest[key.len()..].starts_with(close),
                "{}: key {key:?} is inserted by hand; list it in impl_serialize! or use json!",
                rel.display()
            );
        }
    }
}

/// The vendored stand-ins only get fewer: at most this many crates under
/// `vendor/`, and no manifest in the workspace declares a proc-macro.
#[test]
fn vendored_stand_ins_only_ratchet_down() {
    const CEILING: usize = 5;
    let vendored = std::fs::read_dir(root().join("vendor")).unwrap().count();
    assert!(vendored <= CEILING, "{vendored} crates under vendor/, ceiling {CEILING}");
    let members = ["crates", "vendor"].map(|d| std::fs::read_dir(root().join(d)).unwrap());
    let manifests = members.into_iter().flatten().map(|e| e.unwrap().path().join("Cargo.toml"));
    for manifest in manifests.chain([root().join("Cargo.toml"), root().join("benchmark/Cargo.toml")]) {
        let text = std::fs::read_to_string(&manifest).unwrap();
        let text: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(!text.contains("proc-macro=true"), "{}: a proc-macro crate", manifest.display());
    }
}

/// DESIGN.md §3's inventory block has a row for every `crates/*` directory.
#[test]
fn design_inventory_names_every_crate() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let section = design.split_once("## 3. Crate inventory").unwrap().1;
    let block = section.split("```").nth(1).unwrap();
    let rows: Vec<&str> = block.lines().filter_map(|l| l.split_whitespace().next()).collect();
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(rows.contains(&name.as_str()), "DESIGN.md §3 has no row for crates/{name}");
    }
}

/// DESIGN.md only gets shorter: a change that edits it leaves it at most
/// this long, and one that shortens it lowers the ceiling.
#[test]
fn design_md_line_count_only_ratchets_down() {
    const CEILING: usize = 917;
    let lines = std::fs::read_to_string(root().join("DESIGN.md")).unwrap().lines().count();
    assert!(lines <= CEILING, "DESIGN.md is {lines} lines, ceiling {CEILING}");
}

/// The `pub` names a Rust source exports, before its first `#[cfg(test)]`:
/// each item declared `pub` at the top level, each name a `pub use`
/// brings in, and each `pub mod` with the names of its own file, counted
/// the same way.
fn exported_names(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let code = text.split("#[cfg(test)]").next().unwrap();
    let dir = match path.file_name().unwrap().to_str().unwrap() {
        "lib.rs" | "mod.rs" => path.parent().unwrap().to_path_buf(),
        file => path.with_file_name(file.trim_end_matches(".rs")),
    };
    let mut count = 0;
    for (at, _) in code.match_indices("\npub ") {
        let rest = &code[at + 5..];
        let word = rest.split_whitespace().next().unwrap();
        if word == "use" {
            let body = &rest[..rest.find(';').unwrap()];
            let named = |n: &&str| !n.trim_matches(|c: char| c == '}' || c.is_whitespace()).is_empty();
            count += body.split_once('{').map_or(1, |(_, names)| names.split(',').filter(named).count());
        } else if word == "mod" {
            let name = rest[4..].split(';').next().unwrap().trim();
            let file = [dir.join(format!("{name}.rs")), dir.join(name).join("mod.rs")]
                .into_iter()
                .find(|f| f.exists())
                .unwrap();
            count += 1 + exported_names(&file);
        } else if ["fn", "const", "struct", "enum", "static", "type", "trait"].contains(&word) {
            count += 1;
        }
    }
    count
}

/// Each crate's API is what its `lib.rs` exports (`unreachable_pub` makes
/// every other `pub` item `pub(crate)`): the exported names of all
/// `crates/*` together only go down. Exporting a name needs an edit here;
/// removing one lowers the ceiling.
#[test]
fn exported_name_count_only_ratchets_down() {
    const CEILING: usize = 274;
    let mut count = 0;
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        count += exported_names(&entry.unwrap().path().join("src/lib.rs"));
    }
    assert!(count <= CEILING, "{count} exported names, ceiling {CEILING}");
}

/// Every `[dependencies]` entry of a `crates/*` manifest is named, as
/// `crate_name::`, somewhere in that crate's `src/`: a dependency the code
/// stopped using goes with it.
#[test]
fn every_crate_dependency_is_used() {
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let section = manifest.split_once("[dependencies]").map_or("", |(_, s)| s);
        let section = section.split("\n[").next().unwrap();
        let src: Vec<String> = sources()
            .into_iter()
            .filter(|(path, _)| path.starts_with(dir.join("src")))
            .map(|(_, text)| text)
            .collect();
        let entries = section.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
        for line in entries {
            let name = line.split(['.', ' ', '=']).next().unwrap().replace('-', "_");
            let path = format!("{name}::");
            let named = src.iter().any(|text| {
                text.match_indices(&path)
                    .any(|(at, _)| !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
            });
            assert!(named, "{}: dependency {name} is never named in src/", dir.display());
        }
    }
}
