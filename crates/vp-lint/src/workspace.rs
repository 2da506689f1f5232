//! Workspace file discovery and the cross-file scan.
//!
//! This is the driver that ties the analysis layers together. Every
//! file is lexed exactly once; the token stream feeds both the token
//! rules ([`crate::rules`]) and the graph engine
//! ([`crate::index`] → [`crate::graph`] → [`crate::grules`]). After both
//! layers run, rule g3 cross-checks every `allow(...)` directive against
//! the set of suppressions that actually fired.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::directives::{self, Allow};
use crate::graph::{CrateDeps, Graph};
use crate::grules::{self, Visibility};
use crate::index::{self, FileIndex};
use crate::lexer;
use crate::rules::{self, FileContext, Finding, RuleId};

/// Wall-time per analysis pass, in milliseconds: `(pass name, ms)`. The
/// clock is injected by the caller (the CLI uses a real one behind an
/// `allow(d2)`; the library default is a null clock reporting zeros) so
/// the library itself stays deterministic.
pub type PassTimes = Vec<(&'static str, u128)>;

/// Directory names never scanned: third-party stand-ins (`vendor` mirrors
/// upstream crates, not our determinism surface), build products, data, and
/// the analyzer's own violation fixtures.
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "results", "fixtures", "node_modules"];

/// Recursively collects `.rs` files under `root`, sorted by relative path
/// so reports (and the tier-1 gate) are byte-stable across filesystems.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The workspace-relative path of `path`, with `/` separators.
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate dependency map declared by the workspace `Cargo.toml`s:
/// crate name → its direct workspace dependencies. The root umbrella
/// package is the empty-string crate. Crates without a manifest under
/// `root` (fixture trees) simply stay absent, which the graph layer
/// treats as "sees everything" — conservative, never under-approximate.
pub fn crate_deps(root: &Path) -> CrateDeps {
    let mut names: BTreeSet<String> = BTreeSet::new();
    if let Ok(rd) = fs::read_dir(root.join("crates")) {
        for entry in rd.flatten() {
            let p = entry.path();
            if p.join("Cargo.toml").is_file() {
                names.insert(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    let mut deps = CrateDeps::new();
    for name in &names {
        if let Ok(text) = fs::read_to_string(root.join("crates").join(name).join("Cargo.toml")) {
            deps.insert(name.clone(), dep_names(&text, &names));
        }
    }
    if let Ok(text) = fs::read_to_string(root.join("Cargo.toml")) {
        if text.contains("[package]") {
            deps.insert(String::new(), dep_names(&text, &names));
        }
    }
    deps
}

/// Extracts the `[dependencies]` keys of one manifest, filtered to
/// workspace crate names (vendored and external deps are invisible to the
/// call graph anyway). Line-oriented on purpose: the manifests this
/// workspace writes are flat `name = { path = ".." }` tables.
fn dep_names(manifest: &str, workspace: &BTreeSet<String>) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_deps = l == "[dependencies]";
            if let Some(rest) = l.strip_prefix("[dependencies.") {
                let key = rest.trim_end_matches(']').trim().trim_matches('"');
                if workspace.contains(key) && !out.contains(&key.to_string()) {
                    out.push(key.to_string());
                }
            }
            continue;
        }
        if !in_deps || l.is_empty() || l.starts_with('#') {
            continue;
        }
        let key = l
            .split(['=', '.'])
            .next()
            .map(str::trim)
            .unwrap_or("")
            .trim_matches('"');
        if workspace.contains(key) && !out.contains(&key.to_string()) {
            out.push(key.to_string());
        }
    }
    out
}

/// Builds the visibility tables g1/g2 need from the per-file indexes.
pub fn visibility_of(indexes: &[FileIndex]) -> Visibility {
    let mut mod_pub: BTreeMap<(String, String), bool> = BTreeMap::new();
    let mut type_pub: BTreeMap<(String, String), bool> = BTreeMap::new();
    for fx in indexes {
        for m in &fx.mods {
            let parent = m.parent.join("::");
            let full = if parent.is_empty() {
                m.name.clone()
            } else {
                format!("{parent}::{}", m.name)
            };
            let e = mod_pub.entry((fx.crate_name.clone(), full)).or_insert(false);
            *e = *e || m.is_pub;
        }
        for t in &fx.types {
            let e = type_pub
                .entry((fx.crate_name.clone(), t.name.clone()))
                .or_insert(false);
            *e = *e || t.is_pub;
        }
    }
    Visibility { mod_pub, type_pub }
}

/// Indexes one set of files (library scope only — tests, benches,
/// examples and binaries are not part of any crate's API surface).
fn index_files(root: &Path, files: &[PathBuf]) -> io::Result<Vec<FileIndex>> {
    let mut indexes = Vec::new();
    for path in files {
        let bytes = fs::read(path)?;
        let source = String::from_utf8_lossy(&bytes);
        let ctx = FileContext::from_rel_path(&rel_path(root, path));
        if ctx.is_test || ctx.is_bin {
            continue;
        }
        let masked = lexer::mask(&source);
        let tokens = lexer::tokenize(&masked);
        let dirs = directives::parse(&masked.comments);
        indexes.push(index::index_file(&ctx, &tokens, &dirs));
    }
    Ok(indexes)
}

/// Builds the workspace call graph (the `vp-lint graph` subcommand).
pub fn build_graph(root: &Path) -> io::Result<Graph> {
    let files = collect_rs_files(root)?;
    let indexes = index_files(root, &files)?;
    Ok(Graph::build(&indexes, &crate_deps(root)))
}

/// Scans a set of files as one workspace rooted at `root`: token rules
/// per file, d3 across files, g1/g2 over the call graph, then g3 over
/// the allow directives. Findings come back sorted.
pub fn scan_files(root: &Path, files: &[PathBuf]) -> io::Result<Vec<Finding>> {
    scan_files_timed(root, files, &|| 0).map(|(findings, _)| findings)
}

/// [`scan_files`] with an injected millisecond clock: also returns the
/// wall time each analysis pass took, so the bench budget gate can
/// attribute a blowup to a rule instead of to "the lint".
pub fn scan_files_timed(
    root: &Path,
    files: &[PathBuf],
    clock: &dyn Fn() -> u128,
) -> io::Result<(Vec<Finding>, PassTimes)> {
    let mut times: PassTimes = Vec::new();
    let t0 = clock();
    let mut findings = Vec::new();
    let mut merge_defs = Vec::new();
    let mut markers: Vec<rules::MarkerSite> = Vec::new();
    let mut test_fn_keys = Vec::new();
    let mut scanned_files: Vec<String> = Vec::new();
    let mut indexes: Vec<FileIndex> = Vec::new();
    // Every allow directive in the scanned set, and the (file, line, rule)
    // suppressions that actually fired — rule g3 is their difference.
    let mut allow_sites: Vec<(String, Allow)> = Vec::new();
    let mut used: BTreeSet<(String, usize, RuleId)> = BTreeSet::new();

    for path in files {
        let bytes = fs::read(path)?;
        let source = String::from_utf8_lossy(&bytes);
        let ctx = FileContext::from_rel_path(&rel_path(root, path));
        let masked = lexer::mask(&source);
        let tokens = lexer::tokenize(&masked);
        let dirs = directives::parse(&masked.comments);

        let mut scan = rules::scan_tokens(&ctx, &tokens, &dirs);
        for (line, rule) in scan.used_allows.drain(..) {
            used.insert((ctx.rel_path.clone(), line, rule));
        }
        findings.append(&mut scan.findings);
        merge_defs.append(&mut scan.merge_defs);
        for marker in scan.merge_markers.drain(..) {
            markers.push(rules::MarkerSite {
                file: ctx.rel_path.clone(),
                marker,
            });
        }
        test_fn_keys.append(&mut scan.test_fn_keys);
        scanned_files.push(ctx.rel_path.clone());

        if !ctx.is_test && !ctx.is_bin {
            let mut fx = index::index_file(&ctx, &tokens, &dirs);
            for (line, rule) in fx.used_allows.drain(..) {
                used.insert((ctx.rel_path.clone(), line, rule));
            }
            indexes.push(fx);
        }
        for a in &dirs.allows {
            allow_sites.push((ctx.rel_path.clone(), a.clone()));
        }
    }

    let (d3_findings, d3_used) =
        rules::resolve_merge_rule(&merge_defs, &markers, &test_fn_keys, &scanned_files);
    findings.extend(d3_findings);
    for (file, line) in d3_used {
        used.insert((file, line, RuleId::D3));
    }
    let t1 = clock();
    times.push(("token", t1 - t0));

    let graph = Graph::build(&indexes, &crate_deps(root));
    let t2 = clock();
    times.push(("graph", t2 - t1));

    let vis = visibility_of(&indexes);
    let (g_findings, g_used) = grules::evaluate(&graph, &vis);
    findings.extend(g_findings);
    for (file, line, rule) in g_used {
        used.insert((file, line, rule));
    }
    let t3 = clock();
    times.push(("grules", t3 - t2));

    // g3 — a directive is live iff at least one of its rules suppressed
    // something on its target line. Stale allows are unsuppressible
    // findings (an allow(g3) would be a suppression that suppresses its
    // own removal notice).
    for (file, a) in &allow_sites {
        let live = a
            .rules
            .iter()
            .any(|r| used.contains(&(file.clone(), a.applies_to, *r)));
        if !live {
            let names: Vec<&str> = a.rules.iter().map(|r| r.name()).collect();
            findings.push(Finding {
                file: file.clone(),
                line: a.line,
                col: 1,
                rule: RuleId::G3,
                message: format!(
                    "stale suppression: allow({}) no longer suppresses any finding on \
                     line {} — remove it or narrow it to the rules still firing",
                    names.join(", "),
                    a.applies_to
                ),
                witness: Vec::new(),
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    times.push(("g3", clock() - t3));
    Ok((findings, times))
}

/// Scans every `.rs` file of the workspace at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_rs_files(root)?;
    scan_files(root, &files)
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
