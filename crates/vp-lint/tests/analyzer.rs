//! Analyzer self-tests: the lexer's masking edges, each rule firing and
//! being suppressed in isolation, and a byte-soup proptest proving the
//! whole pipeline is total (never panics) on arbitrary input.

use proptest::prelude::*;
use vp_lint::lexer::{self, Tok};
use vp_lint::rules::{self, FileContext, RuleId};

/// Scans `source` as if it were library code in a hot crate (every rule
/// active) and returns the rule ids that fired.
fn fired(source: &str) -> Vec<RuleId> {
    let ctx = FileContext::from_rel_path("crates/vp-sim/src/lib.rs");
    rules::scan_file(&ctx, source)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect()
}

// ---------------------------------------------------------------------
// Lexer: masking.
// ---------------------------------------------------------------------

#[test]
fn mask_blanks_cooked_strings_and_preserves_layout() {
    let m = lexer::mask("let x = \"HashMap\";\nlet y = 1;");
    assert_eq!(m.code, "let x =          ;\nlet y = 1;");
}

#[test]
fn mask_handles_escaped_quotes() {
    let m = lexer::mask(r#"let s = "a\"b.unwrap()\"c"; done"#);
    assert!(!m.code.contains("unwrap"));
    assert!(m.code.contains("done"));
}

#[test]
fn mask_blanks_raw_strings_with_hashes() {
    let m = lexer::mask(r###"let s = r#"thread_rng() "quoted" inside"#; after"###);
    assert!(!m.code.contains("thread_rng"));
    assert!(m.code.contains("after"));
}

#[test]
fn mask_blanks_byte_and_c_strings() {
    let m = lexer::mask(r##"let a = b"HashMap"; let b = br#"HashSet"#; let c = c"env";"##);
    assert!(!m.code.contains("HashMap"));
    assert!(!m.code.contains("HashSet"));
    assert!(!m.code.contains("env"));
}

#[test]
fn mask_blanks_char_literals_but_keeps_lifetimes() {
    let m = lexer::mask("fn f<'a>(x: &'a str) -> char { 'H' }");
    assert!(m.code.contains("'a>"), "lifetime eaten: {}", m.code);
    assert!(!m.code.contains('H'));
    // Escaped char literal.
    let m = lexer::mask("let q = '\\''; let n = '\\n'; rest");
    assert!(m.code.contains("rest"));
}

#[test]
fn mask_collects_line_and_block_comments() {
    let m = lexer::mask("let a = 1; // trailing note\n// standalone note\n/* block\nspan */ let b;");
    assert!(!m.code.contains("note"));
    assert_eq!(m.comments.len(), 3);
    assert!(m.comments[0].trailing);
    assert_eq!(m.comments[0].text, "trailing note");
    assert!(!m.comments[1].trailing);
    assert_eq!(m.comments[2].line, 3);
    // Newlines inside block comments are preserved for line numbering.
    assert_eq!(m.code.lines().count(), 4);
}

#[test]
fn mask_handles_nested_block_comments() {
    let m = lexer::mask("/* outer /* inner */ still-comment */ code");
    assert!(!m.code.contains("still-comment"));
    assert!(m.code.contains("code"));
}

#[test]
fn mask_empty_prefixed_strings_do_not_swallow_following_code() {
    // Regression: the closing quote of an empty `b""`/`c""` used to be
    // re-read as an opening quote, masking everything after the literal
    // (so an `unwrap()` following `b""` escaped rule h2 entirely).
    for src in [
        "let a = b\"\"; x.unwrap(); tail",
        "let a = c\"\"; x.unwrap(); tail",
    ] {
        let m = lexer::mask(src);
        assert!(m.code.contains("unwrap"), "swallowed code after empty literal: {:?}", m.code);
        assert!(m.code.contains("tail"), "{:?}", m.code);
        assert_eq!(m.code.chars().count(), src.chars().count());
    }
    assert_eq!(fired("fn f(v: Option<u32>) -> u32 { let _ = b\"\"; v.unwrap() }\n"), [RuleId::H2]);
}

#[test]
fn mask_raw_string_hash_boundaries() {
    // The closing `"#...#` sequence must consume exactly hashes+1 chars:
    // a partial-hash candidate inside the body is content, an extra hash
    // after the real close is code, and an empty raw body closes at once.
    let m = lexer::mask(r####"let s = r##"Q"# Z"##; tail"####);
    assert!(!m.code.contains('Q') && !m.code.contains('Z'), "{:?}", m.code);
    assert!(m.code.contains("tail"));

    let m = lexer::mask(r###"let s = r#"a"##; tail"###);
    assert!(m.code.contains("#; tail"), "extra hash after close must stay code: {:?}", m.code);

    let m = lexer::mask(r###"let s = r#""#; tail"###);
    assert!(m.code.contains("tail"), "{:?}", m.code);

    // A raw string with no hashes containing a hash char.
    let m = lexer::mask("let s = r\"#\"; tail");
    assert!(!m.code.contains('#'), "{:?}", m.code);
    assert!(m.code.contains("tail"));
}

#[test]
fn mask_nested_block_comment_boundaries() {
    // `/*/` opens without closing; adjacent `*//*` closes then reopens;
    // the boundary byte after the outermost `*/` is code again.
    let m = lexer::mask("/*/ x */ tail");
    assert!(!m.code.contains('x'), "{:?}", m.code);
    assert!(m.code.contains("tail"));

    let m = lexer::mask("/* Q *//* Z */ tail");
    assert!(!m.code.contains('Q') && !m.code.contains('Z'), "{:?}", m.code);
    assert!(m.code.contains("tail"));
    assert_eq!(m.comments.len(), 2);

    let m = lexer::mask("/* a */* tail");
    assert!(m.code.contains("* tail"), "char after close is code: {:?}", m.code);

    let m = lexer::mask("/* /**/ */ tail");
    assert!(m.code.contains("tail"), "{:?}", m.code);
}

#[test]
fn mask_survives_unterminated_literals() {
    for src in ["let s = \"never closed", "let c = '", "let r = r#\"open", "/* open"] {
        let m = lexer::mask(src);
        assert_eq!(m.code.len(), src.chars().count());
    }
}

#[test]
fn doc_comment_markers_are_stripped_from_text() {
    let m = lexer::mask("/// outer doc\n//! inner doc\nfn f() {}");
    assert_eq!(m.comments[0].text, "outer doc");
    assert_eq!(m.comments[1].text, "inner doc");
}

// ---------------------------------------------------------------------
// Lexer: tokenization.
// ---------------------------------------------------------------------

#[test]
fn tokenize_splits_idents_numbers_and_punct() {
    let m = lexer::mask("x.unwrap() as u32");
    let toks = lexer::tokenize(&m);
    let idents: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
    assert_eq!(idents, ["x", "unwrap", "as", "u32"]);
    assert!(toks.iter().any(|t| t.is_punct('.')));
}

#[test]
fn tokenize_number_suffix_is_not_an_ident() {
    let m = lexer::mask("let x = 1u16 + 0xbad;");
    let toks = lexer::tokenize(&m);
    assert!(toks.iter().all(|t| t.ident() != Some("u16")));
    let numbers = toks.iter().filter(|t| t.tok == Tok::Number).count();
    assert_eq!(numbers, 2);
}

#[test]
fn tokenize_reports_one_based_positions() {
    let m = lexer::mask("a\n  bee");
    let toks = lexer::tokenize(&m);
    assert_eq!((toks[0].line, toks[0].col), (1, 1));
    assert_eq!((toks[1].line, toks[1].col), (2, 3));
}

// ---------------------------------------------------------------------
// Rules: each fires in isolation, and each suppression form works.
// ---------------------------------------------------------------------

#[test]
fn d1_fires_on_hash_collections() {
    assert_eq!(fired("use std::collections::HashMap;\n"), [RuleId::D1]);
    assert_eq!(fired("fn f(s: HashSet<u32>) {}\n"), [RuleId::D1]);
    assert_eq!(fired("use std::collections::hash_map::Entry;\n"), [RuleId::D1]);
    assert!(fired("use std::collections::BTreeMap;\n").is_empty());
}

#[test]
fn d2_fires_on_ambient_entropy() {
    assert_eq!(fired("fn f() { let r = thread_rng(); }\n"), [RuleId::D2]);
    assert_eq!(fired("fn f() { SystemTime::now(); }\n"), [RuleId::D2]);
    assert_eq!(fired("fn f() { Instant::now(); }\n"), [RuleId::D2]);
    assert_eq!(fired("fn f() { std::env::var(\"X\"); }\n"), [RuleId::D2]);
    // vp-bench measures wall-clock by design.
    let bench = FileContext::from_rel_path("crates/vp-bench/src/lib.rs");
    let scan = rules::scan_file(&bench, "fn f() { Instant::now(); }\n");
    assert!(scan.findings.is_empty());
}

#[test]
fn d3_records_merge_defs_and_markers() {
    let src = "impl Stats {\n    pub fn merge(&mut self, o: &Stats) {}\n}\n";
    let scan = rules::scan_file(&FileContext::from_rel_path("crates/vp-sim/src/s.rs"), src);
    assert_eq!(scan.merge_defs.len(), 1);
    assert_eq!(scan.merge_defs[0].qualified, "Stats::merge");
    assert!(!scan.merge_defs[0].suppressed);

    let marked = "// vp-lint: merge-tested(Stats::merge)\nfn t() {}\n";
    let scan = rules::scan_file(&FileContext::from_rel_path("tests/t.rs"), marked);
    assert_eq!(scan.merge_markers.len(), 1);
    assert_eq!(scan.merge_markers[0].name, "Stats::merge");
    assert_eq!(scan.merge_markers[0].suite, None);

    // Unresolved defs become findings; marked or name-matched ones do not.
    let defs = scan_defs(src);
    assert_eq!(
        rules::resolve_merge_rule(&defs, &[], &[], &[]).0.len(),
        1,
        "unmarked merge must be a finding"
    );
    assert!(rules::resolve_merge_rule(&defs, &markers(&["Stats::merge"]), &[], &[])
        .0
        .is_empty());
    assert!(
        rules::resolve_merge_rule(&defs, &[], &["stats_merge_is_commutative".into()], &[])
            .0
            .is_empty()
    );
}

fn scan_defs(src: &str) -> Vec<rules::MergeDef> {
    rules::scan_file(&FileContext::from_rel_path("crates/vp-sim/src/s.rs"), src).merge_defs
}

/// Suite-less marker sites for resolve_merge_rule tests.
fn markers(names: &[&str]) -> Vec<rules::MarkerSite> {
    names
        .iter()
        .map(|n| rules::MarkerSite {
            file: "tests/t.rs".into(),
            marker: vp_lint::directives::MergeMarker {
                line: 1,
                name: (*n).into(),
                suite: None,
            },
        })
        .collect()
}

/// A marker site claiming a proving suite.
fn suite_marker(name: &str, suite: &str) -> rules::MarkerSite {
    rules::MarkerSite {
        file: "crates/vp-net/src/bitset.rs".into(),
        marker: vp_lint::directives::MergeMarker {
            line: 7,
            name: name.into(),
            suite: Some(suite.into()),
        },
    }
}

#[test]
fn d3_suite_markers_parse_and_verify() {
    // Parsing: name + suite stem, rejecting typos and duplicates.
    let src = "// vp-lint: merge-tested(BitSet::merge, suite=columnar_equivalence)\nfn t() {}\n";
    let scan = rules::scan_file(&FileContext::from_rel_path("tests/t.rs"), src);
    assert_eq!(scan.merge_markers.len(), 1);
    assert_eq!(scan.merge_markers[0].name, "BitSet::merge");
    assert_eq!(
        scan.merge_markers[0].suite.as_deref(),
        Some("columnar_equivalence")
    );
    for bad in [
        "// vp-lint: merge-tested(X::merge, suit=typo)\n",
        "// vp-lint: merge-tested(X::merge, suite=)\n",
        "// vp-lint: merge-tested(X::merge, suite=a, suite=b)\n",
    ] {
        let scan = rules::scan_file(&FileContext::from_rel_path("tests/t.rs"), bad);
        assert!(scan.merge_markers.is_empty(), "{bad:?} must not parse");
        assert!(
            scan.findings.iter().any(|f| f.rule == RuleId::Directive),
            "{bad:?} must be a malformed-directive finding"
        );
    }

    // Resolution: the claim discharges D3 only when the suite file exists.
    let defs = scan_defs("impl Stats {\n    pub fn merge(&mut self, o: &Stats) {}\n}\n");
    let good = [suite_marker("Stats::merge", "columnar_equivalence")];
    let scanned = ["tests/columnar_equivalence.rs".to_string()];
    assert!(rules::resolve_merge_rule(&defs, &good, &[], &scanned).0.is_empty());

    // A broken claim fires both an unsuppressable directive finding at the
    // marker and the original D3 at the merge definition.
    let broken = [suite_marker("Stats::merge", "deleted_suite")];
    let (findings, _) = rules::resolve_merge_rule(&defs, &broken, &[], &scanned);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::Directive && f.message.contains("deleted_suite")));
    assert!(findings.iter().any(|f| f.rule == RuleId::D3));
}

#[test]
fn d3_marker_strict_crates_require_an_exact_marker() {
    let src = "impl DriftSummary {\n    pub fn merge(&mut self, o: &DriftSummary) {}\n}\n";
    let strict =
        rules::scan_file(&FileContext::from_rel_path("crates/vp-monitor/src/diff.rs"), src)
            .merge_defs;
    assert_eq!(strict.len(), 1);
    assert!(strict[0].marker_required);

    // A name-matched test satisfies ordinary crates but not strict ones.
    let named_test = ["driftsummary_merge_is_commutative".to_string()];
    assert_eq!(rules::resolve_merge_rule(&strict, &[], &named_test, &[]).0.len(), 1);
    // The bare `merge` wildcard marker is not enough either.
    assert_eq!(
        rules::resolve_merge_rule(&strict, &markers(&["merge"]), &[], &[]).0.len(),
        1
    );
    // Only the exact qualified marker discharges the obligation.
    assert!(rules::resolve_merge_rule(&strict, &markers(&["DriftSummary::merge"]), &[], &[])
        .0
        .is_empty());
    // The strict finding says so explicitly.
    let f = &rules::resolve_merge_rule(&strict, &[], &[], &[]).0[0];
    assert!(f.message.contains("marker-strict"), "{}", f.message);

    // The same source in a non-strict crate keeps the lenient paths.
    let lenient = scan_defs(src);
    assert!(!lenient[0].marker_required);
    assert!(rules::resolve_merge_rule(&lenient, &[], &named_test, &[]).0.is_empty());
    assert!(rules::resolve_merge_rule(&lenient, &markers(&["merge"]), &[], &[]).0.is_empty());
}

#[test]
fn d4_fires_on_wall_time_in_clock_impl_files() {
    let wall_clock = "impl Clock for WallClock {\n    fn now_nanos(&self) -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n}\n";
    // The Instant read fires d2 (ambient time) AND d4 (Clock impl file).
    let mut rules = fired(wall_clock);
    rules.sort();
    assert_eq!(rules, [RuleId::D2, RuleId::D4]);

    // Wall time without a Clock impl is only d2.
    assert_eq!(fired("fn f() { Instant::now(); }\n"), [RuleId::D2]);

    // A sim-backed Clock impl (no wall time anywhere) is clean.
    let sim = "impl Clock for SimClock {\n    fn now_nanos(&self) -> u64 { self.0 }\n}\n";
    assert!(fired(sim).is_empty());

    // A fully-qualified trait path still counts as a Clock impl.
    let pathed = "impl vp_obs::Clock for W {\n    fn now_nanos(&self) -> u64 { SystemTime::now().into() }\n}\n";
    let mut rules = fired(pathed);
    rules.sort();
    assert_eq!(rules, [RuleId::D2, RuleId::D4]);

    // Binaries may back a Clock with wall time (d2 still wants its allow).
    let bin = FileContext::from_rel_path("crates/vp-sim/src/bin/tool.rs");
    let bin_rules: Vec<RuleId> = rules::scan_file(&bin, wall_clock)
        .findings
        .iter()
        .map(|f| f.rule)
        .collect();
    assert_eq!(bin_rules, [RuleId::D2]);

    // vp-bench is exempt outright.
    let bench = FileContext::from_rel_path("crates/vp-bench/src/lib.rs");
    assert!(rules::scan_file(&bench, wall_clock).findings.is_empty());

    // Suppression covers the wall-time read site.
    let suppressed = "impl Clock for W {\n    fn now_nanos(&self) -> u64 {\n        // vp-lint: allow(d2, d4): operator display only; never reaches an artifact.\n        Instant::now().elapsed().as_nanos() as u64\n    }\n}\n";
    assert!(fired(suppressed).is_empty());
}

#[test]
fn h1_fires_only_in_hot_crates() {
    let narrowing = "fn f(x: u64) -> u32 { x as u32 }\n";
    assert_eq!(fired(narrowing), [RuleId::H1]);
    // Widening casts are fine even in hot crates.
    assert!(fired("fn f(x: u32) -> u64 { x as u64 }\n").is_empty());
    // Cold crates are exempt.
    let cold = FileContext::from_rel_path("crates/vp-geo/src/lib.rs");
    assert!(rules::scan_file(&cold, narrowing).findings.is_empty());
}

#[test]
fn h2_fires_in_libraries_but_not_bins_or_tests() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(fired(src), [RuleId::H2]);
    assert_eq!(fired("fn f(v: Option<u32>) -> u32 { v.expect(\"x\") }\n"), [RuleId::H2]);
    for path in ["crates/vp-sim/src/main.rs", "crates/vp-sim/src/bin/tool.rs", "crates/vp-sim/tests/t.rs"] {
        let ctx = FileContext::from_rel_path(path);
        assert!(rules::scan_file(&ctx, src).findings.is_empty(), "{path} not exempt");
    }
    // unwrap_or / unwrap_or_else are not panics.
    assert!(fired("fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) }\n").is_empty());
}

#[test]
fn cfg_test_blocks_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f(v: Option<u32>) { v.unwrap(); }\n}\n";
    assert!(fired(src).is_empty());
}

#[test]
fn suppression_forms_standalone_trailing_and_multi_rule() {
    let standalone =
        "// vp-lint: allow(d1): justified here.\nuse std::collections::HashMap;\n";
    assert!(fired(standalone).is_empty());

    let trailing = "fn f(x: u64) -> u32 { x as u32 } // vp-lint: allow(h1): bounded by caller.\n";
    assert!(fired(trailing).is_empty());

    let multi = "// vp-lint: allow(d2, h1): justified twice.\nfn f(x: u64) -> u32 { (x ^ thread_rng()) as u32 }\n";
    assert!(fired(multi).is_empty());

    // A standalone allow covers only the next line.
    let too_far =
        "// vp-lint: allow(d1): too far away.\n\nuse std::collections::HashMap;\n";
    assert_eq!(fired(too_far), [RuleId::D1]);

    // An allow for one rule does not cover another.
    let wrong_rule = "// vp-lint: allow(h1): wrong rule.\nuse std::collections::HashMap;\n";
    assert_eq!(fired(wrong_rule), [RuleId::D1]);
}

#[test]
fn malformed_directives_are_findings_and_unsuppressable() {
    for src in [
        "// vp-lint: allow(d1)\nfn f() {}\n",
        "// vp-lint: allow(bogus): not a rule.\nfn f() {}\n",
        "// vp-lint: frobnicate(x)\nfn f() {}\n",
    ] {
        assert_eq!(fired(src), [RuleId::Directive], "on {src:?}");
    }
}

#[test]
fn literals_and_comments_never_fire() {
    let src = concat!(
        "// HashMap thread_rng() x.unwrap() y as u32\n",
        "fn f() -> String { \"HashMap::new().unwrap() as u32\".into() }\n",
    );
    assert!(fired(src).is_empty());
}

// ---------------------------------------------------------------------
// Totality: the pipeline never panics, for any input.
// ---------------------------------------------------------------------

/// Fragments that stress the literal/comment/directive edges when glued
/// together in arbitrary order.
const FRAGMENTS: [&str; 19] = [
    "\"", "'", "r#\"", "\"#", "/*", "*/", "//", "\\", "\n",
    "b'x'", "as u32", "unwrap()", "HashMap", "vp-lint: allow(d1):",
    "pub fn merge", "impl T {", "}", "#[cfg(test)]", "ident",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte soup in, findings (or nothing) out — never a panic, and the
    /// mask always preserves length and line structure. The character
    /// class covers every delimiter the lexer special-cases.
    #[test]
    fn pipeline_is_total_on_arbitrary_input(
        src in "[\"'/*\\\\a-z0-9 \n{}().:#!rbc_-]{0,120}",
    ) {
        let masked = lexer::mask(&src);
        prop_assert_eq!(masked.code.chars().count(), src.chars().count());
        prop_assert_eq!(
            masked.code.matches('\n').count(),
            src.matches('\n').count()
        );
        let _ = lexer::tokenize(&masked);
        let ctx = FileContext::from_rel_path("crates/vp-sim/src/fuzz.rs");
        let _ = rules::scan_file(&ctx, &src);
    }

    /// Rust-flavoured soup: token-level fragments in arbitrary order.
    #[test]
    fn pipeline_is_total_on_rusty_fragments(
        picks in collection::vec(0usize..FRAGMENTS.len(), 0..40),
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let masked = lexer::mask(&src);
        let _ = lexer::tokenize(&masked);
        let ctx = FileContext::from_rel_path("crates/verfploeter/src/fuzz.rs");
        let _ = rules::scan_file(&ctx, &src);
    }
}

// ---------------------------------------------------------------------
// Graph layer: indexer, call graph, g-rules.
// ---------------------------------------------------------------------

use vp_lint::graph::{CrateDeps, Graph};
use vp_lint::{directives, grules, index, workspace};

/// Indexes one source string as if it lived at `rel`.
fn index_src(rel: &str, src: &str) -> index::FileIndex {
    let ctx = FileContext::from_rel_path(rel);
    let masked = lexer::mask(src);
    let tokens = lexer::tokenize(&masked);
    let dirs = directives::parse(&masked.comments);
    index::index_file(&ctx, &tokens, &dirs)
}

/// Runs the graph rules over a set of (rel_path, source) files with no
/// crate dependency information (every crate sees every crate).
fn g_eval(files: &[(&str, &str)]) -> Vec<vp_lint::Finding> {
    g_eval_deps(files, &CrateDeps::new())
}

fn g_eval_deps(files: &[(&str, &str)], deps: &CrateDeps) -> Vec<vp_lint::Finding> {
    let indexes: Vec<_> = files.iter().map(|(r, s)| index_src(r, s)).collect();
    let graph = Graph::build(&indexes, deps);
    let vis = workspace::visibility_of(&indexes);
    grules::evaluate(&graph, &vis).0
}

#[test]
fn g1_reports_cross_file_chain_with_witness() {
    let findings = g_eval(&[
        (
            "crates/vp-sim/src/a.rs",
            "pub fn api(v: &[u64]) -> u64 { helper(v) }\n",
        ),
        (
            "crates/vp-sim/src/b.rs",
            "fn helper(v: &[u64]) -> u64 { v[0] }\n",
        ),
    ]);
    assert_eq!(findings.len(), 1, "{}", vp_lint::to_text(&findings));
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::G1);
    assert_eq!(f.file, "crates/vp-sim/src/a.rs");
    assert_eq!(f.witness.len(), 3, "witness: {:?}", f.witness);
    assert!(f.witness[1].contains("helper"));
    assert!(f.witness[2].contains("slice-indexing"));
}

#[test]
fn g1_audited_fn_stops_propagation() {
    let findings = g_eval(&[
        (
            "crates/vp-sim/src/a.rs",
            "pub fn api(v: &[u64]) -> u64 { helper(v) }\n",
        ),
        (
            "crates/vp-sim/src/b.rs",
            "// vp-lint: allow(g1): test audit — v is never empty here.\n\
             fn helper(v: &[u64]) -> u64 { v[0] }\n",
        ),
    ]);
    assert!(findings.is_empty(), "{}", vp_lint::to_text(&findings));
}

#[test]
fn g1_private_fns_are_not_entries() {
    let findings = g_eval(&[(
        "crates/vp-sim/src/a.rs",
        "fn internal(v: Option<u32>) -> u32 { v.unwrap() }\n",
    )]);
    assert!(findings.is_empty(), "{}", vp_lint::to_text(&findings));
}

#[test]
fn g1_ignores_unpoliced_crates() {
    // vp-experiments is not a policed crate: its public API may panic.
    let findings = g_eval(&[(
        "crates/vp-experiments/src/a.rs",
        "pub fn api(v: &[u64]) -> u64 { v[0] }\n",
    )]);
    assert!(findings.is_empty(), "{}", vp_lint::to_text(&findings));
}

#[test]
fn g2_propagates_taint_through_private_hops() {
    let findings = g_eval(&[(
        "crates/vp-sim/src/a.rs",
        "pub fn api() -> u64 { hop() }\n\
         fn hop() -> u64 { leaf() }\n\
         fn leaf() -> u64 { thread_rng() }\n",
    )]);
    let g2: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::G2).collect();
    assert_eq!(g2.len(), 1, "{}", vp_lint::to_text(&findings));
    assert!(g2[0].message.contains("api"));
    assert!(g2[0].witness.last().unwrap().contains("thread_rng"));
}

#[test]
fn crate_visibility_gates_cross_crate_edges() {
    let files = [
        (
            "crates/vp-sim/src/a.rs",
            "pub fn api(v: &[u64]) -> u64 { danger(v) }\n",
        ),
        (
            "crates/vp-net/src/b.rs",
            "pub fn danger(v: &[u64]) -> u64 { v[0] }\n",
        ),
    ];
    // vp-sim declares no dependency on vp-net: the call cannot resolve
    // into it, so only vp-net's own public API is flagged.
    let mut deps = CrateDeps::new();
    deps.insert("vp-sim".into(), vec![]);
    deps.insert("vp-net".into(), vec![]);
    let gated = g_eval_deps(&files, &deps);
    assert_eq!(gated.len(), 1, "{}", vp_lint::to_text(&gated));
    assert_eq!(gated[0].file, "crates/vp-net/src/b.rs");
    // With the dependency declared, the edge exists and both APIs reach
    // the panic.
    deps.insert("vp-sim".into(), vec!["vp-net".into()]);
    let linked = g_eval_deps(&files, &deps);
    assert_eq!(linked.len(), 2, "{}", vp_lint::to_text(&linked));
}

#[test]
fn graph_dumps_render() {
    let indexes = vec![index_src(
        "crates/vp-sim/src/a.rs",
        "pub fn api() -> u64 { hop() }\nfn hop() -> u64 { 7 }\n",
    )];
    let g = Graph::build(&indexes, &CrateDeps::new());
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("api"));
    assert!(dot.contains("->"));
    assert!(g.to_summary().contains("api"));
}

#[test]
fn fixture_workspace_scan_is_byte_deterministic() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws");
    let a = vp_lint::scan_workspace(&root).expect("scan");
    let b = vp_lint::scan_workspace(&root).expect("scan");
    assert_eq!(vp_lint::to_json(&a), vp_lint::to_json(&b));
    assert_eq!(vp_lint::to_text(&a), vp_lint::to_text(&b));
}

/// Fragments that stress the indexer's item recognition when glued
/// together in arbitrary order.
const G_FRAGMENTS: [&str; 20] = [
    "pub fn ", "fn ", "f", "(", ")", "{", "}", "::", "use ", "mod ",
    ";", "panic!(", "[0]", ".unwrap()", "SystemTime::now()", ",",
    "impl T {", "self.", "\n", "v",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The graph layer is total and deterministic on arbitrary
    /// item-shaped soup: indexing, graph construction and rule
    /// evaluation never panic, and two runs agree byte for byte.
    #[test]
    fn graph_layer_is_total_and_deterministic(
        picks in collection::vec(0usize..G_FRAGMENTS.len(), 0..60),
    ) {
        let src: String = picks.iter().map(|&i| G_FRAGMENTS[i]).collect();
        let run = || {
            let fx = index_src("crates/vp-sim/src/soup.rs", &src);
            let indexes = vec![fx];
            let g = Graph::build(&indexes, &CrateDeps::new());
            let vis = workspace::visibility_of(&indexes);
            let (findings, used) = grules::evaluate(&g, &vis);
            (vp_lint::to_json(&findings), format!("{used:?}"), g.to_dot())
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------
// Concurrency: rule c5 confines the primitives to the blessed executor.
// ---------------------------------------------------------------------

/// Every confined family fires by name alone — twice per family — and is
/// silent inside the blessed executor file, under a justified allow, and
/// in test scope.
#[test]
fn c5_confines_every_primitive_family_to_the_blessed_executor() {
    let families: [(&str, [&str; 2], &str); 5] = [
        (
            "thread",
            [
                "fn f() { std::thread::spawn(|| ()); }",
                "fn f() { std::thread::scope(|s| drop(s)); }",
            ],
            "std::thread::Builder::new();",
        ),
        (
            "lock",
            [
                "struct S { m: std::sync::Mutex<u64> }",
                "fn f(c: &Condvar, l: &RwLock<u8>) {}",
            ],
            "let once: OnceLock<u8> = OnceLock::new();",
        ),
        (
            "atomic/static",
            [
                "fn f(a: &std::sync::atomic::AtomicU64) {}",
                "static mut TOTAL: u64 = 0;",
            ],
            "static HITS: AtomicUsize = AtomicUsize::new(0);",
        ),
        (
            "channel",
            [
                "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }",
                "use std::sync::mpsc::{sync_channel, Receiver};",
            ],
            "let pair = mpsc::sync_channel::<u8>(1);",
        ),
        (
            "thread_local!",
            [
                "thread_local! { static X: u8 = 0; }",
                "thread_local!(static Y: u8 = 0);",
            ],
            "thread_local!(static Z: u8 = 0);",
        ),
    ];
    let blessed = FileContext::from_rel_path("crates/vp-sim/src/exec.rs");
    let lib = FileContext::from_rel_path("crates/vp-sim/src/lib.rs");
    for (family, violations, audited) in families {
        for src in violations {
            assert!(fired(src).contains(&RuleId::C5), "{family}: `{src}` must fire c5");
            // The blessed executor file itself is exempt.
            assert!(
                rules::scan_file(&blessed, src).findings.is_empty(),
                "{family}: `{src}` is legal in the blessed executor"
            );
            // So is test scope.
            let in_test = format!("#[cfg(test)]\nmod tests {{ {src} }}\n");
            assert!(!fired(&in_test).contains(&RuleId::C5), "{family}: test scope is exempt");
        }
        // allow(c5) suppresses and counts as used (g3 stays quiet).
        let src = format!("fn f() {{\n    // vp-lint: allow(c5): test audit.\n    {audited}\n}}\n");
        let scan = rules::scan_file(&lib, &src);
        assert!(scan.findings.is_empty(), "{family}: {}", vp_lint::to_text(&scan.findings));
        assert!(scan.used_allows.iter().any(|(_, r)| *r == RuleId::C5), "{family}: allow is live");
    }
}

/// What c5 must *not* confine: the words in prose and literals, a
/// `'static mut` borrow, host introspection, and single-threaded cells
/// (`Rc`/`RefCell` are `!Send` — rustc keeps them off the executor).
#[test]
fn c5_leaves_lifetimes_cells_and_host_queries_alone() {
    for src in [
        "fn f(x: &'static mut u64) -> u64 { *x }",
        "fn f() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }",
        "fn f() { let c = std::rc::Rc::new(std::cell::RefCell::new(0)); drop(c); }",
        "static TABLE: [u8; 2] = [0, 1];",
        "fn f() -> &'static str { \"Mutex mpsc thread_local! AtomicU64\" } // Condvar",
    ] {
        assert!(!fired(src).contains(&RuleId::C5), "`{src}` must not fire c5");
    }
}

/// The retired rule ids are gone from the directive grammar too: an
/// `allow(c1)` or a `cold(fn)` left behind is a malformed directive, not a
/// silent no-op.
#[test]
fn retired_rule_ids_and_cold_directive_are_malformed() {
    assert_eq!(RuleId::ALL.len(), 11);
    for id in ["c1", "c2", "c3", "c4", "p1", "p2", "p3", "p4", "p5", "o1"] {
        assert_eq!(RuleId::from_name(id), None);
        let src = format!("// vp-lint: allow({id}): stale audit.\nfn f() {{}}\n");
        assert!(fired(&src).contains(&RuleId::Directive), "allow({id}) must be malformed");
    }
    assert!(fired("// vp-lint: cold(fn): setup.\nfn f() {}\n").contains(&RuleId::Directive));
}
