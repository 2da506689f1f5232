//! `vp-lint` — the workspace determinism-and-hygiene analyzer.
//!
//! PR 1 made bit-identical determinism the scan engine's contract; this
//! crate turns that contract from "tested on one path" into "machine-checked
//! on every path". It is a dependency-free static analyzer (hand-rolled
//! lexer — the vendor-only environment has no `syn`) with two rule families
//! over one lexed token stream:
//!
//! * **token rules** ([`rules`]): hash-order nondeterminism (d1), ambient
//!   entropy (d2), untested merge algebra (d3), wall-time Clock impls
//!   (d4), narrowing casts in hot crates (h1) and panicking unwraps in
//!   library code (h2);
//! * **graph rules** (three layers: [`index`] → [`graph`] → [`grules`]): an
//!   item index and conservative call graph drive interprocedural
//!   panic-reachability (g1) and nondeterminism-taint (g2) analyses over
//!   every policed crate's public API, each finding carrying a witness
//!   call path; and g3 flags every `allow(...)` that no longer suppresses
//!   anything.
//!
//! The concurrency contract is one token rule, c5: threads, locks,
//! channels, atomics and thread-locals may be named only in the blessed
//! executor module. The analyzer does not reason about how concurrency
//! primitives are used — it makes them unwritable outside one file, and
//! leaves what crosses that file's boundary to rustc's `Send`/`Sync`
//! bounds and `#![forbid(unsafe_code)]`. Hot-path cost is likewise not
//! inferred here: `tests/alloc_witness.rs` and the repo benchmark
//! measure it (DESIGN.md §8, §14, §17).
//!
//! Ships three ways: the `cargo run -p vp-lint` CLI, the tier-1
//! `tests/lint_gate.rs` integration test that fails the build on any
//! unsuppressed finding, and `scripts/check.sh`.
//!
//! Suppression: `// vp-lint: allow(<rule>): <justification>` on (or
//! directly above) the offending line. The justification is mandatory.

#![forbid(unsafe_code)]

pub mod directives;
pub mod graph;
pub mod grules;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{FileContext, Finding, RuleId};
pub use workspace::{
    build_graph, find_workspace_root, scan_files, scan_files_timed, scan_workspace, PassTimes,
};

/// Renders findings as `file:line:col: rule: message` lines.
pub fn to_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            f.file,
            f.line,
            f.col,
            f.rule.name(),
            f.message
        ));
    }
    out.push_str(&format!(
        "vp-lint: {} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Renders findings as a JSON array (hand-rolled: the analyzer stays
/// dependency-free so it can never be broken by the crates it checks).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}",
            json_string(&f.file),
            f.line,
            f.col,
            json_string(f.rule.name()),
            json_string(&f.message)
        ));
        if !f.witness.is_empty() {
            out.push_str(",\"witness\":[");
            for (j, step) in f.witness.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(step));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]\n");
    out
}

/// Renders findings plus per-rule wall time as one JSON object:
/// `{"findings": [...], "rule_times_ms": [{"rule","pass","ms"}, ...]}`.
/// Rules are attributed the wall time of the analysis pass that evaluates
/// them, so a budget blowup in `scripts/check.sh` names a rule (family)
/// instead of "the lint got slow".
pub fn to_json_timed(findings: &[Finding], times: &PassTimes) -> String {
    let mut out = String::from("{\"findings\":");
    let body = to_json(findings);
    out.push_str(body.trim_end());
    out.push_str(",\"rule_times_ms\":[");
    let ms_of = |pass: &str| -> u128 {
        times
            .iter()
            .find(|(p, _)| *p == pass)
            .map(|(_, ms)| *ms)
            .unwrap_or(0)
    };
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let pass = pass_of(*rule);
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"pass\":\"{}\",\"ms\":{}}}",
            rule.name(),
            pass,
            ms_of(pass)
        ));
    }
    out.push_str("]}\n");
    out
}

/// The analysis pass that evaluates each rule (see
/// [`workspace::scan_files_timed`]'s pass names).
fn pass_of(rule: RuleId) -> &'static str {
    match rule {
        RuleId::G1 | RuleId::G2 => "grules",
        RuleId::G3 => "g3",
        // Token rules (d*, h*, c5, directive) are all evaluated in the
        // per-file token pass.
        _ => "token",
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
