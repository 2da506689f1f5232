//! The rule set.
//!
//! | id  | rule |
//! |-----|------|
//! | d1  | no `HashMap`/`HashSet` in non-test code — ambient hash order must never feed catchment maps, serialized results or reports |
//! | d2  | no ambient nondeterminism (`thread_rng`, `SystemTime::now`, `Instant::now`, `std::env`) outside `vp-bench` |
//! | d3  | every `pub fn merge` needs a merge-algebra test (a `vp-lint: merge-tested(Type::merge[, suite=<file-stem>])` marker or a matching test name; in marker-strict crates — `vp-monitor` — only an exact marker counts; a `suite=` claim must name a scanned file) |
//! | d4  | wall-time `Clock` impls belong in binaries or `vp-bench`: a library file that implements the `Clock` trait must not read `Instant`/`SystemTime` |
//! | h1  | no narrowing `as` casts in the hot crates (`vp-sim`, `verfploeter`, `vp-hitlist`) |
//! | h2  | no `unwrap()`/`expect()` in library (non-test, non-bin) code |
//! | c5  | concurrency primitives — `thread::spawn`/`scope`/`Builder`, locks and condvars, channels (`mpsc`), atomics, `static mut` and `thread_local!` — may be named only inside the blessed executor module (`crates/vp-sim/src/exec.rs`); everything else runs parallel work through `ShardExecutor` |
//! | directive | malformed `vp-lint:` directive (never suppressible) |
//!
//! c5 is the whole concurrency layer: it does not analyse how a lock,
//! channel or atomic is used, it makes them unwritable outside one
//! audited file. What crosses the executor boundary is then rustc's
//! business (`Send`/`Sync` bounds on `ShardExecutor::run_sharded_timed`,
//! `#![forbid(unsafe_code)]` on every library crate), and what the hot
//! path costs is measured, not inferred (`tests/alloc_witness.rs`, the
//! repo benchmark) — DESIGN.md §8 maps each retired rule id (c1–c4,
//! p1–p5) to the mechanism that now holds its property.
//!
//! Matching happens on masked tokens (see [`crate::lexer`]), so literals
//! and comments can never trigger a rule. Test scope — files under
//! `tests/`, `benches/` or `examples/`, and `#[cfg(test)]` blocks — is
//! exempt from every rule except `directive`.

use crate::directives::{self, Directives};
use crate::lexer::{self, Token};

/// Stable identifier of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    D1,
    D2,
    D3,
    D4,
    H1,
    H2,
    G1,
    G2,
    G3,
    C5,
    Directive,
}

impl RuleId {
    /// Every rule the analyzer runs, in report order. The length of this
    /// table is what `vp-lint bench --budget-per-rule-ms` scales by, so a
    /// new rule automatically widens the CI budget instead of silently
    /// eating the old one.
    pub const ALL: [RuleId; 11] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::H1,
        RuleId::H2,
        RuleId::G1,
        RuleId::G2,
        RuleId::G3,
        RuleId::C5,
        RuleId::Directive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "d1",
            RuleId::D2 => "d2",
            RuleId::D3 => "d3",
            RuleId::D4 => "d4",
            RuleId::H1 => "h1",
            RuleId::H2 => "h2",
            RuleId::G1 => "g1",
            RuleId::G2 => "g2",
            RuleId::G3 => "g3",
            RuleId::C5 => "c5",
            RuleId::Directive => "directive",
        }
    }

    pub fn from_name(s: &str) -> Option<RuleId> {
        match s {
            "d1" => Some(RuleId::D1),
            "d2" => Some(RuleId::D2),
            "d3" => Some(RuleId::D3),
            "d4" => Some(RuleId::D4),
            "h1" => Some(RuleId::H1),
            "h2" => Some(RuleId::H2),
            "g1" => Some(RuleId::G1),
            "g2" => Some(RuleId::G2),
            "g3" => Some(RuleId::G3),
            "c5" => Some(RuleId::C5),
            "directive" => Some(RuleId::Directive),
            _ => None,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// 1-based (chars).
    pub col: usize,
    pub rule: RuleId,
    pub message: String,
    /// For graph rules (g1/g2): the call chain from the public entry
    /// point down to the sink/source token. Empty for token rules.
    pub witness: Vec<String>,
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// `crates/<name>/...` → `<name>`; the root package otherwise.
    pub crate_name: String,
    /// Under `tests/`, `benches/` or `examples/`.
    pub is_test: bool,
    /// `src/main.rs`, under `src/bin/`, or a build script.
    pub is_bin: bool,
}

impl FileContext {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileContext {
        let components: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if components.len() > 2 && components[0] == "crates" {
            components[1].to_string()
        } else {
            String::new()
        };
        let is_test = components
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples"));
        let file_name = components.last().copied().unwrap_or("");
        let is_bin = components.iter().any(|c| *c == "bin")
            || file_name == "main.rs"
            || file_name == "build.rs";
        FileContext {
            rel_path: rel_path.to_string(),
            crate_name,
            is_test,
            is_bin,
        }
    }
}

/// The one file allowed to name a concurrency primitive (rule c5). The
/// same path works for the seeded fixture workspace, whose fake executor
/// lives at the same relative location.
pub const BLESSED_EXECUTOR_FILE: &str = "crates/vp-sim/src/exec.rs";

/// Crates whose narrowing casts H1 polices.
const HOT_CRATES: [&str; 3] = ["vp-sim", "verfploeter", "vp-hitlist"];
/// Crates exempt from D2 (benchmarks measure wall-clock by design).
const D2_EXEMPT_CRATES: [&str; 1] = ["vp-bench"];
/// Crates exempt from D4 (same reasoning: vp-bench times real work).
const D4_EXEMPT_CRATES: [&str; 1] = ["vp-bench"];
/// Crates where D3 accepts only an explicit `merge-tested(Type::merge)`
/// marker — a test that merely *names* the type is not proof it exercises
/// the algebra. vp-monitor's `DriftSummary` merge feeds alerting, where a
/// silently wrong fold means a silently wrong page.
const D3_MARKER_REQUIRED_CRATES: [&str; 1] = ["vp-monitor"];
/// Narrow numeric cast targets (anything that can drop bits from the u64 /
/// usize / f64 values this codebase computes with). `u64`/`u128`/`i64`/
/// `i128`/`f64` targets are widening at our value ranges and exempt.
const NARROW_TYPES: [&str; 9] = [
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize", "f32",
];
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "hash_map", "hash_set"];

/// A `pub fn merge` definition found in library code.
#[derive(Debug, Clone)]
pub struct MergeDef {
    /// `Type::merge`, or bare `merge` outside an `impl`.
    pub qualified: String,
    /// The `impl` type, lowercased with no underscores (for test-name
    /// matching); empty outside an `impl`.
    pub type_key: String,
    pub file: String,
    pub line: usize,
    pub col: usize,
    /// Whether an `allow(d3)` covers the definition line.
    pub suppressed: bool,
    /// Crate is marker-strict: only an exact `merge-tested(Type::merge)`
    /// marker satisfies D3, not a matching test name or a bare `merge`
    /// wildcard.
    pub marker_required: bool,
}

/// Everything one file contributes to the workspace scan.
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub merge_defs: Vec<MergeDef>,
    /// `merge-tested(...)` markers.
    pub merge_markers: Vec<directives::MergeMarker>,
    /// Names of `fn`s in test scope, lowercased with underscores removed.
    pub test_fn_keys: Vec<String>,
    /// `(applies-to line, rule)` pairs for allow directives that actually
    /// suppressed a token-rule finding here — feeds rule g3.
    pub used_allows: Vec<(usize, RuleId)>,
}

/// Per-token scope annotations computed in one pass.
struct Annotations {
    /// Token is inside a `#[cfg(test)]` block.
    in_test: Vec<bool>,
    /// Enclosing `impl` type name per token (innermost), if any.
    impl_type: Vec<Option<String>>,
}

fn annotate(tokens: &[Token]) -> Annotations {
    let mut in_test = vec![false; tokens.len()];
    let mut impl_type: Vec<Option<String>> = vec![None; tokens.len()];

    let mut depth = 0usize;
    let mut test_stack: Vec<usize> = Vec::new();
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();

    // `#[cfg(test)]`-ish attribute seen; latches onto the next `{` unless a
    // `;` ends the attributed item first.
    let mut pending_test = false;
    // Collecting the header of an `impl` (between `impl` and `{`).
    let mut impl_capture: Option<(usize, Vec<String>)> = None; // (angle_depth, idents)
    let mut pending_impl: Option<String> = None;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        in_test[i] = !test_stack.is_empty();
        impl_type[i] = impl_stack.iter().rev().find_map(|(_, n)| n.clone());

        // Attributes: consume `#[ ... ]` wholesale and classify.
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let mut j = i + 2;
            let mut bracket = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            while j < tokens.len() && bracket > 0 {
                match &tokens[j].tok {
                    lexer::Tok::Punct('[') => bracket += 1,
                    lexer::Tok::Punct(']') => bracket -= 1,
                    lexer::Tok::Ident(s) => idents.push(s),
                    _ => {}
                }
                in_test[j] = !test_stack.is_empty();
                impl_type[j] = impl_type[i].clone();
                j += 1;
            }
            let is_cfg_test = idents.first().is_some_and(|f| *f == "cfg" || *f == "cfg_attr")
                && idents.iter().any(|s| *s == "test");
            if is_cfg_test {
                pending_test = true;
            }
            i = j;
            continue;
        }

        match &t.tok {
            lexer::Tok::Ident(s) if s == "impl" && impl_capture.is_none() => {
                impl_capture = Some((0, Vec::new()));
            }
            lexer::Tok::Ident(s) => {
                if let Some((angle, idents)) = impl_capture.as_mut() {
                    if *angle == 0 {
                        if s == "for" {
                            idents.clear();
                        } else if s == "where" {
                            // Header name is settled; ignore the rest.
                        } else {
                            idents.push(s.clone());
                        }
                    }
                }
            }
            lexer::Tok::Punct('<') => {
                if let Some((angle, _)) = impl_capture.as_mut() {
                    *angle += 1;
                }
            }
            lexer::Tok::Punct('>') => {
                if let Some((angle, _)) = impl_capture.as_mut() {
                    *angle = angle.saturating_sub(1);
                }
            }
            lexer::Tok::Punct(';') => {
                // An attributed item without a body (`#[cfg(test)] use ...;`)
                // must not latch the test flag onto an unrelated later block.
                if pending_test && impl_capture.is_none() {
                    pending_test = false;
                }
            }
            lexer::Tok::Punct('{') => {
                if let Some((_, idents)) = impl_capture.take() {
                    pending_impl = Some(idents.last().cloned().unwrap_or_default());
                }
                if let Some(name) = pending_impl.take() {
                    let name = if name.is_empty() { None } else { Some(name) };
                    impl_stack.push((depth, name));
                }
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                depth += 1;
            }
            lexer::Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(d, _)| *d == depth) {
                    impl_stack.pop();
                }
                while test_stack.last().is_some_and(|d| *d == depth) {
                    test_stack.pop();
                }
            }
            _ => {}
        }
        i += 1;
    }

    Annotations { in_test, impl_type }
}

/// The concurrency primitive named at token `i`, if any (rule c5). Purely
/// lexical: `thread::spawn`/`scope`/`Builder` by path shape (which also
/// catches an aliased `use std::thread`, but not a renamed module import —
/// that is what code review is for), everything else by the type, module
/// or macro name no use of the primitive can avoid spelling.
fn confined_primitive(tokens: &[Token], i: usize) -> Option<String> {
    let id = tokens[i].ident()?;
    let after = |prev: &str| {
        i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].ident() == Some(prev)
    };
    match id {
        "spawn" | "scope" | "Builder" if after("thread") => Some(format!("thread::{id}")),
        "Mutex" | "RwLock" | "Condvar" | "Barrier" | "OnceLock" | "LazyLock" | "mpsc" => {
            Some(id.to_string())
        }
        // `&'static mut T` is a lifetime, not a mutable static.
        "static"
            if tokens.get(i + 1).and_then(Token::ident) == Some("mut")
                && !(i > 0 && tokens[i - 1].is_punct('\'')) =>
        {
            Some("static mut".to_string())
        }
        "thread_local" if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
            Some("thread_local!".to_string())
        }
        _ if id.starts_with("Atomic") => Some(id.to_string()),
        _ => None,
    }
}

/// Lowercases and strips underscores (for loose test-name matching).
fn name_key(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '_')
        .flat_map(char::to_lowercase)
        .collect()
}

/// Scans one file from source text. Cross-file conclusions (rules D3 and
/// g1–g3) are drawn later by [`crate::workspace::scan_files`].
pub fn scan_file(ctx: &FileContext, source: &str) -> FileScan {
    let masked = lexer::mask(source);
    let tokens = lexer::tokenize(&masked);
    let dirs = directives::parse(&masked.comments);
    scan_tokens(ctx, &tokens, &dirs)
}

/// Token-level scan over an already-lexed file (the workspace driver
/// lexes once and shares the tokens with the graph indexer).
pub fn scan_tokens(ctx: &FileContext, tokens: &[Token], dirs: &Directives) -> FileScan {
    let ann = annotate(tokens);

    let mut out = FileScan {
        merge_markers: dirs.merge_markers.clone(),
        ..FileScan::default()
    };

    let hot = HOT_CRATES.contains(&ctx.crate_name.as_str());
    let d2_exempt = D2_EXEMPT_CRATES.contains(&ctx.crate_name.as_str());
    let d4_exempt =
        D4_EXEMPT_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_bin || ctx.is_test;
    let d3_marker_required = D3_MARKER_REQUIRED_CRATES.contains(&ctx.crate_name.as_str());
    // d4 bookkeeping: wall-time reads and `impl ... Clock for ...` headers
    // are collected during the token walk and resolved after it.
    let mut wall_time_sites: Vec<(usize, usize)> = Vec::new();
    let mut implements_clock = false;

    let push = |dirs: &Directives, out: &mut FileScan, rule, line, col, message: String| {
        if dirs.allows_on(rule, line) {
            out.used_allows.push((line, rule));
        } else {
            out.findings.push(Finding {
                file: ctx.rel_path.clone(),
                line,
                col,
                rule,
                message,
                witness: Vec::new(),
            });
        }
    };

    for (i, t) in tokens.iter().enumerate() {
        let in_test = ctx.is_test || ann.in_test[i];

        // Collect test fn names (for D3 name matching).
        if in_test
            && t.ident() == Some("fn")
        {
            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                out.test_fn_keys.push(name_key(name));
            }
        }
        if in_test {
            continue;
        }

        // d1 — hash collections.
        if let Some(id) = t.ident() {
            if HASH_TYPES.contains(&id) {
                push(
                    dirs,
                    &mut out,
                    RuleId::D1,
                    t.line,
                    t.col,
                    format!(
                        "{id} has nondeterministic iteration order; use BTreeMap/BTreeSet \
                         (or sort before anything order-sensitive)"
                    ),
                );
            }
        }

        // d2 — ambient nondeterminism.
        if !d2_exempt {
            if t.ident() == Some("thread_rng") {
                push(
                    dirs,
                    &mut out,
                    RuleId::D2,
                    t.line,
                    t.col,
                    "thread_rng is ambient entropy; draw from a seeded, keyed RNG".into(),
                );
            }
            let path2 = |a: &str, b: &str| {
                t.ident() == Some(a)
                    && tokens.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && tokens.get(i + 3).and_then(Token::ident) == Some(b)
            };
            if path2("SystemTime", "now") || path2("Instant", "now") {
                push(
                    dirs,
                    &mut out,
                    RuleId::D2,
                    t.line,
                    t.col,
                    "wall-clock reads are nondeterministic; use SimTime or pass time in".into(),
                );
            }
            if path2("std", "env") {
                push(
                    dirs,
                    &mut out,
                    RuleId::D2,
                    t.line,
                    t.col,
                    "std::env makes behaviour depend on ambient process state".into(),
                );
            }
        }

        // d4 — collect wall-time sources and Clock-impl headers.
        if !d4_exempt {
            if matches!(t.ident(), Some("Instant") | Some("SystemTime")) {
                wall_time_sites.push((t.line, t.col));
            }
            if t.ident() == Some("impl") {
                // Walk the impl header (up to `{` or `;`): a trait path
                // ending in `Clock` right before `for` marks a Clock impl.
                let mut last_ident: Option<&str> = None;
                let mut j = i + 1;
                while let Some(n) = tokens.get(j) {
                    if n.is_punct('{') || n.is_punct(';') {
                        break;
                    }
                    if let Some(id) = n.ident() {
                        if id == "for" {
                            if last_ident == Some("Clock") {
                                implements_clock = true;
                            }
                            break;
                        }
                        last_ident = Some(id);
                    }
                    j += 1;
                }
            }
        }

        // d3 — record pub fn merge definitions.
        if t.ident() == Some("pub")
            && tokens.get(i + 1).and_then(Token::ident) == Some("fn")
            && tokens.get(i + 2).and_then(Token::ident) == Some("merge")
        {
            let def_tok = &tokens[i + 2];
            let (qualified, type_key) = match &ann.impl_type[i] {
                Some(ty) => (format!("{ty}::merge"), name_key(ty)),
                None => ("merge".to_string(), String::new()),
            };
            out.merge_defs.push(MergeDef {
                qualified,
                type_key,
                file: ctx.rel_path.clone(),
                line: def_tok.line,
                col: def_tok.col,
                suppressed: dirs.allows_on(RuleId::D3, def_tok.line),
                marker_required: d3_marker_required,
            });
        }

        // h1 — narrowing casts in hot crates.
        if hot
            && t.ident() == Some("as")
        {
            if let Some(ty) = tokens.get(i + 1).and_then(Token::ident) {
                if NARROW_TYPES.contains(&ty) {
                    push(
                        dirs,
                        &mut out,
                        RuleId::H1,
                        t.line,
                        t.col,
                        format!(
                            "narrowing `as {ty}` can truncate silently; use From/try_from \
                             or a saturating conversion"
                        ),
                    );
                }
            }
        }

        // c5 — concurrency primitives outside the blessed executor module.
        if !ctx.is_bin && ctx.rel_path != BLESSED_EXECUTOR_FILE {
            if let Some(what) = confined_primitive(tokens, i) {
                push(
                    dirs,
                    &mut out,
                    RuleId::C5,
                    t.line,
                    t.col,
                    format!(
                        "{what} outside the blessed executor module: threads, locks, \
                         channels, atomics and thread-locals are confined to \
                         {BLESSED_EXECUTOR_FILE}; run parallel work through \
                         vp_sim::exec::ShardExecutor, which merges in shard-id order"
                    ),
                );
            }
        }

        // h2 — unwrap/expect in library code.
        if !ctx.is_bin
            && t.is_punct('.')
            && tokens.get(i + 2).is_some_and(|x| x.is_punct('('))
        {
            if let Some(m) = tokens.get(i + 1).and_then(Token::ident) {
                if m == "unwrap" || m == "expect" {
                    let mt = &tokens[i + 1];
                    push(
                        dirs,
                        &mut out,
                        RuleId::H2,
                        mt.line,
                        mt.col,
                        format!("{m}() in library code can panic; propagate the error or \
                                 handle the None/Err case"),
                    );
                }
            }
        }
    }

    // d4 — a library file that implements `Clock` must not read wall time:
    // wall-backed clocks belong in binaries or vp-bench, so that every
    // clock a library can be handed is an injected, deterministic one.
    if implements_clock {
        for (line, col) in wall_time_sites {
            push(
                dirs,
                &mut out,
                RuleId::D4,
                line,
                col,
                "wall-time source in a file that implements Clock: wall-backed clocks \
                 belong in binaries or vp-bench; library code takes injected clocks"
                    .into(),
            );
        }
    }

    // Malformed directives are findings everywhere and cannot be allowed.
    for (line, why) in &dirs.malformed {
        out.findings.push(Finding {
            file: ctx.rel_path.clone(),
            line: *line,
            col: 1,
            rule: RuleId::Directive,
            message: why.clone(),
            witness: Vec::new(),
        });
    }

    out
}

/// A `merge-tested(...)` marker plus the file it was written in, for
/// cross-file D3 resolution (and for anchoring suite-claim findings).
#[derive(Debug, Clone)]
pub struct MarkerSite {
    /// Workspace-relative path of the file carrying the marker.
    pub file: String,
    pub marker: directives::MergeMarker,
}

/// Resolves rule D3 across files: every unsuppressed `pub fn merge` must be
/// named by a `merge-tested(...)` marker or covered by a test fn whose
/// name mentions both the type and "merge". In marker-strict crates
/// (`D3_MARKER_REQUIRED_CRATES`) only an exact `merge-tested(Type::merge)`
/// marker counts.
///
/// A marker may claim a proving suite with `suite=<file-stem>`; the claim
/// is verified against `scanned_files` (the workspace file set). A marker
/// whose suite does not exist is reported (unsuppressibly, like a malformed
/// directive) and does **not** discharge any obligation — deleting or
/// renaming the suite re-fires D3 at every merge that relied on it.
///
/// Also returns the `(file, line)` of every *suppressed* definition that
/// would have failed — those are the lines where an `allow(d3)` is doing
/// real work, which rule g3 needs to know.
pub fn resolve_merge_rule(
    defs: &[MergeDef],
    markers: &[MarkerSite],
    test_fn_keys: &[String],
    scanned_files: &[String],
) -> (Vec<Finding>, Vec<(String, usize)>) {
    let mut findings = Vec::new();
    let mut used: Vec<(String, usize)> = Vec::new();

    // Verify suite claims first; only markers with an honest (or absent)
    // claim participate in matching.
    let mut valid: Vec<&str> = Vec::new();
    for site in markers {
        match &site.marker.suite {
            Some(stem) => {
                let target = format!("{stem}.rs");
                let exists = scanned_files.iter().any(|f| {
                    f == &target || f.ends_with(&format!("/{target}"))
                });
                if exists {
                    valid.push(&site.marker.name);
                } else {
                    findings.push(Finding {
                        file: site.file.clone(),
                        line: site.marker.line,
                        col: 1,
                        rule: RuleId::Directive,
                        message: format!(
                            "merge-tested({}, suite={stem}) names a suite that does not \
                             exist: no scanned file is `{target}` — fix the stem or \
                             restore the suite",
                            site.marker.name
                        ),
                        witness: Vec::new(),
                    });
                }
            }
            None => valid.push(&site.marker.name),
        }
    }

    for def in defs {
        let exact = valid.iter().any(|m| *m == def.qualified);
        let ok = if def.marker_required {
            exact
        } else {
            let marked = exact || valid.iter().any(|m| *m == "merge");
            let named = !def.type_key.is_empty()
                && test_fn_keys
                    .iter()
                    .any(|k| k.contains("merge") && k.contains(&def.type_key));
            marked || named
        };
        if ok {
            continue;
        }
        if def.suppressed {
            used.push((def.file.clone(), def.line));
        } else {
            let requirement = if def.marker_required {
                "this crate is marker-strict: add a commutativity/associativity \
                 proptest carrying an exact"
            } else {
                "add a commutativity/associativity proptest and a"
            };
            findings.push(Finding {
                file: def.file.clone(),
                line: def.line,
                col: def.col,
                rule: RuleId::D3,
                message: format!(
                    "{} has no merge-algebra test: {requirement} \
                     `vp-lint: merge-tested({})` marker beside it",
                    def.qualified, def.qualified
                ),
                witness: Vec::new(),
            });
        }
    }
    (findings, used)
}
