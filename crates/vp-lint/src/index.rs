//! The item indexer: the first layer of the graph engine.
//!
//! Walks one file's masked token stream (see [`crate::lexer`]) and records
//! every item the call-graph layer needs: `mod` declarations (with their
//! visibility), `struct`/`enum`/`trait` declarations (ditto), `use` aliases,
//! and — the payload — every `fn` definition together with the call sites,
//! panic sinks and nondeterminism sources inside its body.
//!
//! The indexer is total (any token soup produces an index without
//! panicking) and purely lexical: it never resolves names itself. Name
//! resolution lives in [`crate::graph`], which over-approximates on
//! ambiguity — so the indexer's job is only to never *lose* an item, not
//! to understand one precisely.

use std::collections::BTreeMap;

use crate::directives::Directives;
use crate::lexer::{Tok, Token};
use crate::rules::{FileContext, RuleId};

/// What kind of panic sink a token is (rule g1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `.unwrap()` / `.expect(..)`.
    Method(String),
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro(String),
    /// Slice/array indexing `expr[..]`.
    Index,
}

impl SinkKind {
    /// Short human label used in witness paths.
    pub fn label(&self) -> String {
        match self {
            SinkKind::Method(m) => format!("{m}()"),
            SinkKind::Macro(m) => format!("{m}!"),
            SinkKind::Index => "slice-indexing".to_string(),
        }
    }
}

/// A panic sink inside a fn body.
#[derive(Debug, Clone)]
pub struct Sink {
    pub kind: SinkKind,
    pub line: usize,
    pub col: usize,
}

/// An ambient-nondeterminism source inside a fn body (rule g2; the same
/// source set as token rule d2).
#[derive(Debug, Clone)]
pub struct NondetSource {
    /// e.g. `thread_rng`, `Instant::now`, `std::env`.
    pub what: String,
    pub line: usize,
    pub col: usize,
}

/// A call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments as written (`Self` already substituted where known):
    /// `helper` / `conv::index` / `vp_net::conv::index`. Method calls
    /// (`x.get(..)`) carry their single segment with `method == true`.
    pub path: Vec<String>,
    pub method: bool,
    pub line: usize,
    pub col: usize,
}

/// One `fn` definition with everything reachability needs.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Crate-rooted module path (crate name first, `_`-normalised).
    pub module: Vec<String>,
    /// The `impl` self type, if the fn sits in an `impl` block.
    pub impl_type: Option<String>,
    /// The trait name when the fn sits in an `impl Trait for Type` block.
    pub trait_impl: Option<String>,
    /// `pub` with no visibility restriction (`pub(crate)` etc. is false).
    pub is_pub: bool,
    pub line: usize,
    pub col: usize,
    /// `vp-lint: allow(g1)` on the definition line: audited total — the
    /// fn's body (and transitively its callees) is vouched panic-free.
    pub audited_g1: bool,
    /// `vp-lint: allow(g2)` on the definition line: audited deterministic.
    pub audited_g2: bool,
    pub calls: Vec<Call>,
    pub sinks: Vec<Sink>,
    pub sources: Vec<NondetSource>,
}

impl FnInfo {
    /// `crate::module::Type::name` (display form).
    pub fn qualified(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(t) = &self.impl_type {
            parts.push(t);
        }
        parts.push(&self.name);
        parts.join("::")
    }

    /// Path segments used for suffix matching (type segment included).
    pub fn path_segments(&self) -> Vec<String> {
        let mut segs = self.module.clone();
        if let Some(t) = &self.impl_type {
            segs.push(t.clone());
        }
        segs.push(self.name.clone());
        segs
    }
}

/// A `mod` declaration (inline or out-of-line) with its visibility.
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// Module path of the *parent* the decl appears in.
    pub parent: Vec<String>,
    pub name: String,
    pub is_pub: bool,
}

/// A `struct`/`enum`/`trait`/`type` declaration with its visibility.
#[derive(Debug, Clone)]
pub struct TypeDecl {
    pub name: String,
    pub is_pub: bool,
}

/// Everything the indexer extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    pub file: String,
    /// `crates/<name>` crate, or `""` for the root umbrella package.
    pub crate_name: String,
    pub fns: Vec<FnInfo>,
    pub mods: Vec<ModDecl>,
    pub types: Vec<TypeDecl>,
    /// `use` aliases: local name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
    /// `(line, rule)` pairs for allow directives the indexer consumed
    /// (g1 on a sink line, g2 on a source line) — feeds rule g3.
    pub used_allows: Vec<(usize, RuleId)>,
}

/// Crate-rooted module path derived from the file's workspace path.
/// `crates/x/src/lib.rs` → `[x]`; `crates/x/src/a/b.rs` → `[x, a, b]`;
/// the root package's `src/...` gets the pseudo-crate name `""` → `[]`-ish.
fn module_path_of(ctx: &FileContext) -> Vec<String> {
    let comps: Vec<&str> = ctx.rel_path.split('/').collect();
    let mut path = Vec::new();
    if !ctx.crate_name.is_empty() {
        path.push(ctx.crate_name.replace('-', "_"));
    }
    // Everything between `src/` and the file name is module structure.
    let mut in_src = false;
    for (i, c) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            if in_src && *c != "lib.rs" && *c != "mod.rs" {
                if let Some(stem) = c.strip_suffix(".rs") {
                    path.push(stem.to_string());
                }
            }
        } else if *c == "src" {
            in_src = true;
        }
    }
    path
}

/// Identifiers that look like calls (`kw (`) or indexed values (`kw [`)
/// but are control flow / syntax, not names.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else" | "match" | "while" | "for" | "loop" | "return" | "break"
            | "continue" | "in" | "as" | "let" | "const" | "static" | "fn" | "mod"
            | "use" | "pub" | "impl" | "trait" | "struct" | "enum" | "type" | "where"
            | "move" | "ref" | "mut" | "dyn" | "unsafe" | "extern" | "crate" | "super"
            | "self" | "Self" | "box" | "await" | "yield" | "async"
    )
}

const SINK_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const SINK_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Walks one lexed file and builds its [`FileIndex`]. `dirs` supplies the
/// allow directives that audit sinks/sources in place.
pub fn index_file(ctx: &FileContext, tokens: &[Token], dirs: &Directives) -> FileIndex {
    let mut out = FileIndex {
        file: ctx.rel_path.clone(),
        crate_name: ctx.crate_name.clone(),
        ..FileIndex::default()
    };
    let file_module = module_path_of(ctx);

    let mut depth = 0usize;
    // (depth the block opened at, module name) for inline `mod x {`.
    let mut mod_stack: Vec<(usize, String)> = Vec::new();
    // (open depth, self type, trait name) for `impl` blocks.
    let mut impl_stack: Vec<(usize, Option<String>, Option<String>)> = Vec::new();
    // (open depth, index into out.fns) for fn bodies currently open.
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    // depths at which `#[cfg(test)]` blocks opened.
    let mut test_stack: Vec<usize> = Vec::new();

    let mut pending_test = false;
    // A parsed-but-unopened item header waiting for its `{` (or `;`).
    enum Pending {
        Mod { name: String, is_pub: bool },
        Impl { self_ty: Option<String>, trait_name: Option<String> },
        Fn(FnInfo),
    }
    let mut pending: Option<Pending> = None;

    let current_module = |mod_stack: &[(usize, String)]| -> Vec<String> {
        let mut m = file_module.clone();
        m.extend(mod_stack.iter().map(|(_, n)| n.clone()));
        m
    };

    // Visibility of the item whose `pub`-ish tokens *end* right before
    // token index `i` (i.e. `i` is the `fn`/`mod`/`struct` keyword).
    let is_pub_before = |tokens: &[Token], i: usize| -> bool {
        let mut j = i;
        loop {
            if j == 0 {
                return false;
            }
            j -= 1;
            match &tokens[j].tok {
                Tok::Ident(s)
                    if matches!(s.as_str(), "const" | "async" | "unsafe" | "extern") =>
                {
                    continue;
                }
                Tok::Ident(s) if s == "pub" => return true,
                // A `)` directly before the item keyword can only close a
                // `pub(crate)` / `pub(in path)` restriction — which is
                // restricted visibility, i.e. not public API.
                Tok::Punct(')') => return false,
                _ => return false,
            }
        }
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let in_test = ctx.is_test || !test_stack.is_empty();

        // Attributes: consume `#[...]` wholesale; latch cfg(test).
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let mut j = i + 2;
            let mut bracket = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            while j < tokens.len() && bracket > 0 {
                match &tokens[j].tok {
                    Tok::Punct('[') => bracket += 1,
                    Tok::Punct(']') => bracket -= 1,
                    Tok::Ident(s) => idents.push(s),
                    _ => {}
                }
                j += 1;
            }
            if idents.first().is_some_and(|f| *f == "cfg" || *f == "cfg_attr")
                && idents.iter().any(|s| *s == "test")
            {
                pending_test = true;
            }
            i = j;
            continue;
        }

        match &t.tok {
            Tok::Ident(kw) if kw == "mod" && pending.is_none() => {
                if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                    let is_pub = is_pub_before(tokens, i);
                    if tokens.get(i + 2).is_some_and(|x| x.is_punct(';')) {
                        // Out-of-line decl: visibility info only.
                        if !in_test {
                            out.mods.push(ModDecl {
                                parent: current_module(&mod_stack),
                                name: name.to_string(),
                                is_pub,
                            });
                        }
                        i += 3;
                        continue;
                    }
                    pending = Some(Pending::Mod {
                        name: name.to_string(),
                        is_pub,
                    });
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if (kw == "struct" || kw == "enum" || kw == "trait" || kw == "union")
                && pending.is_none() && !in_test =>
            {
                if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                    out.types.push(TypeDecl {
                        name: name.to_string(),
                        is_pub: is_pub_before(tokens, i),
                    });
                    if kw == "trait" {
                        // Default trait methods are public API through the
                        // trait: index them like `impl Trait` methods.
                        pending = Some(Pending::Impl {
                            self_ty: Some(name.to_string()),
                            trait_name: None,
                        });
                    }
                }
                // Fall through: the decl's `{` (if any) is plain nesting.
            }
            Tok::Ident(kw) if kw == "impl" && pending.is_none() => {
                // Parse the impl header up to `{` or `;`: the last path
                // segment before `for` is the trait, the last one before
                // `{` is the self type.
                let mut j = i + 1;
                let mut angle = 0usize;
                let mut last: Option<String> = None;
                let mut trait_name: Option<String> = None;
                while let Some(n) = tokens.get(j) {
                    match &n.tok {
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle = angle.saturating_sub(1),
                        Tok::Ident(s) if angle == 0 => {
                            if s == "for" {
                                trait_name = last.take();
                            } else if s == "where" {
                                break;
                            } else {
                                last = Some(s.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                pending = Some(Pending::Impl {
                    self_ty: last,
                    trait_name,
                });
                // Do not skip ahead: the header tokens carry no calls and
                // re-walking them only costs the `{` detection below.
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name_tok) = tokens.get(i + 1) {
                    if let Some(name) = name_tok.ident() {
                        if !in_test {
                            let (impl_ty, trait_name) = impl_stack
                                .last()
                                .map(|(_, t, tr)| (t.clone(), tr.clone()))
                                .unwrap_or((None, None));
                            let info = FnInfo {
                                name: name.to_string(),
                                module: current_module(&mod_stack),
                                impl_type: impl_ty,
                                trait_impl: trait_name,
                                is_pub: is_pub_before(tokens, i),
                                line: name_tok.line,
                                col: name_tok.col,
                                audited_g1: dirs.allows_on(RuleId::G1, name_tok.line),
                                audited_g2: dirs.allows_on(RuleId::G2, name_tok.line),
                                calls: Vec::new(),
                                sinks: Vec::new(),
                                sources: Vec::new(),
                            };
                            pending = Some(Pending::Fn(info));
                        }
                        i += 2;
                        continue;
                    }
                }
            }
            Tok::Ident(kw) if kw == "use" && pending.is_none() && !in_test => {
                // Parse `use path::{a, b as c, d::e};` into aliases.
                let mut j = i + 1;
                let mut end = j;
                while let Some(n) = tokens.get(end) {
                    if n.is_punct(';') {
                        break;
                    }
                    end += 1;
                }
                parse_use_tree(tokens, &mut j, end, &mut Vec::new(), &mut out.uses);
                i = end + 1;
                continue;
            }
            Tok::Punct(';') => {
                // A pending header without a body (trait method decl,
                // `impl Trait for T;`) never opens.
                pending = None;
                if pending_test {
                    pending_test = false;
                }
            }
            Tok::Punct('{') => {
                match pending.take() {
                    Some(Pending::Mod { name, is_pub }) => {
                        if !in_test {
                            out.mods.push(ModDecl {
                                parent: current_module(&mod_stack),
                                name: name.clone(),
                                is_pub,
                            });
                        }
                        mod_stack.push((depth, name));
                    }
                    Some(Pending::Impl { self_ty, trait_name }) => {
                        impl_stack.push((depth, self_ty, trait_name));
                    }
                    Some(Pending::Fn(info)) => {
                        out.fns.push(info);
                        fn_stack.push((depth, out.fns.len() - 1));
                    }
                    None => {}
                }
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while mod_stack.last().is_some_and(|(d, _)| *d == depth) {
                    mod_stack.pop();
                }
                while impl_stack.last().is_some_and(|(d, _, _)| *d == depth) {
                    impl_stack.pop();
                }
                while fn_stack.last().is_some_and(|(d, _)| *d == depth) {
                    fn_stack.pop();
                }
                while test_stack.last().is_some_and(|d| *d == depth) {
                    test_stack.pop();
                }
            }
            _ => {}
        }

        // Body-level extraction: calls, sinks, sources — attributed to the
        // innermost open fn, outside test scope.
        if !in_test {
            if let Some(&(_, fi)) = fn_stack.last() {
                extract_at(tokens, i, &impl_stack, dirs, &mut out, fi);
            }
        }

        i += 1;
    }

    out
}

/// Inspects the token at `i` inside a fn body and records any call, sink
/// or source that *starts* there.
fn extract_at(
    tokens: &[Token],
    i: usize,
    impl_stack: &[(usize, Option<String>, Option<String>)],
    dirs: &Directives,
    out: &mut FileIndex,
    fi: usize,
) {
    let t = &tokens[i];

    match &t.tok {
        Tok::Ident(name) => {
            // Sink macros: `panic!`, `unreachable!`, ...
            if SINK_MACROS.contains(&name.as_str())
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                push_sink(out, fi, dirs, SinkKind::Macro(name.clone()), t.line, t.col);
                return;
            }
            // Nondeterminism sources (mirrors token rule d2).
            if name == "thread_rng" {
                push_source(out, fi, dirs, "thread_rng", t.line, t.col);
                return;
            }
            let path2 = |a: &str, b: &str| {
                t.ident() == Some(a)
                    && tokens.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && tokens.get(i + 3).and_then(Token::ident) == Some(b)
            };
            if path2("SystemTime", "now") {
                push_source(out, fi, dirs, "SystemTime::now", t.line, t.col);
                return;
            }
            if path2("Instant", "now") {
                push_source(out, fi, dirs, "Instant::now", t.line, t.col);
                return;
            }
            if path2("std", "env") {
                push_source(out, fi, dirs, "std::env", t.line, t.col);
                return;
            }
        }
        // Method sinks & method calls both hang off the `.`.
        Tok::Punct('.') => {
            if let Some(m) = tokens.get(i + 1).and_then(Token::ident) {
                // `x.m(` directly, or `x.m::<T>(` through a turbofish.
                let mut call_paren = i + 2;
                if tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 4).is_some_and(|n| n.is_punct('<'))
                {
                    let mut k = i + 5;
                    let mut angle = 1usize;
                    while let Some(n) = tokens.get(k) {
                        if n.is_punct('<') {
                            angle += 1;
                        } else if n.is_punct('>') {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    call_paren = k + 1;
                }
                if tokens.get(call_paren).is_some_and(|n| n.is_punct('(')) {
                    let mt = &tokens[i + 1];
                    if SINK_METHODS.contains(&m) {
                        // An audited unwrap carries allow(h2) (the token
                        // rule) or allow(g1); either kills the sink.
                        let audited = dirs.allows_on(RuleId::G1, mt.line)
                            || dirs.allows_on(RuleId::H2, mt.line);
                        if dirs.allows_on(RuleId::G1, mt.line) {
                            out.used_allows.push((mt.line, RuleId::G1));
                        }
                        if !audited {
                            out.fns[fi].sinks.push(Sink {
                                kind: SinkKind::Method(m.to_string()),
                                line: mt.line,
                                col: mt.col,
                            });
                        }
                    } else {
                        out.fns[fi].calls.push(Call {
                            path: vec![m.to_string()],
                            method: true,
                            line: mt.line,
                            col: mt.col,
                        });
                    }
                }
            }
            return;
        }
        // Indexing: `[` directly after a value-ish token.
        Tok::Punct('[') => {
            let indexed = i > 0
                && match &tokens[i - 1].tok {
                    Tok::Ident(s) => !is_keyword(s),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
            // Full-range `x[..]` cannot panic; `x[..n]`/`x[a..b]` can.
            let full_range = tokens.get(i + 1).is_some_and(|a| a.is_punct('.'))
                && tokens.get(i + 2).is_some_and(|a| a.is_punct('.'))
                && tokens.get(i + 3).is_some_and(|a| a.is_punct(']'));
            if indexed && !full_range {
                push_sink(out, fi, dirs, SinkKind::Index, t.line, t.col);
            }
            return;
        }
        _ => return,
    }

    // Free-function / path calls: an ident directly followed by `(`.
    // Detection fires at the *last* path segment (`a::b::f(` fires at
    // `f`), and the whole path is collected in one bounded backward walk.
    if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        let Some(name) = t.ident() else { return };
        if is_keyword(name) {
            return;
        }
        // Method calls were handled at the `.`; a `.`-preceded ident here
        // would double count.
        if i > 0 && tokens[i - 1].is_punct('.') {
            return;
        }
        // Walk back through `seg ::` pairs to collect the full path.
        let mut segs = vec![name.to_string()];
        let mut j = i;
        while j >= 2
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
        {
            // `Vec::<u8>::new` style turbofish segments would put a `>`
            // here; stop at anything that is not a plain ident.
            if j >= 3 {
                if let Some(seg) = tokens[j - 3].ident() {
                    segs.push(seg.to_string());
                    j -= 3;
                    continue;
                }
            }
            break;
        }
        segs.reverse();
        // Substitute a leading `Self` with the enclosing impl type.
        if segs.first().is_some_and(|s| s == "Self") {
            if let Some((_, Some(ty), _)) = impl_stack.last() {
                segs[0] = ty.clone();
            }
        }
        out.fns[fi].calls.push(Call {
            path: segs,
            method: false,
            line: t.line,
            col: t.col,
        });
    }
}

fn push_sink(
    out: &mut FileIndex,
    fi: usize,
    dirs: &Directives,
    kind: SinkKind,
    line: usize,
    col: usize,
) {
    if dirs.allows_on(RuleId::G1, line) {
        out.used_allows.push((line, RuleId::G1));
        return;
    }
    out.fns[fi].sinks.push(Sink { kind, line, col });
}

fn push_source(
    out: &mut FileIndex,
    fi: usize,
    dirs: &Directives,
    what: &str,
    line: usize,
    col: usize,
) {
    if dirs.allows_on(RuleId::G2, line) {
        out.used_allows.push((line, RuleId::G2));
        return;
    }
    out.fns[fi].sources.push(NondetSource {
        what: what.to_string(),
        line,
        col,
    });
}

/// Recursive-descent parse of a `use` tree between `j` and `end`
/// (exclusive), accumulating aliases into `uses`.
fn parse_use_tree(
    tokens: &[Token],
    j: &mut usize,
    end: usize,
    prefix: &mut Vec<String>,
    uses: &mut BTreeMap<String, Vec<String>>,
) {
    let base_len = prefix.len();
    let mut last_seg: Option<String> = None;
    while *j < end {
        let t = &tokens[*j];
        match &t.tok {
            Tok::Ident(s) if s == "as" => {
                // `path as alias`
                *j += 1;
                if let Some(alias) = tokens.get(*j).and_then(Token::ident) {
                    let mut full = prefix.clone();
                    if let Some(seg) = last_seg.take() {
                        full.push(seg);
                    }
                    uses.insert(alias.to_string(), full);
                    *j += 1;
                }
            }
            Tok::Ident(s) => {
                if let Some(seg) = last_seg.take() {
                    prefix.push(seg);
                }
                last_seg = Some(s.clone());
                *j += 1;
            }
            Tok::Punct(':') => {
                *j += 1;
            }
            Tok::Punct('{') => {
                if let Some(seg) = last_seg.take() {
                    prefix.push(seg);
                }
                *j += 1;
                // Each `,`-separated branch restarts from this prefix.
                loop {
                    parse_use_tree(tokens, j, end, prefix, uses);
                    if tokens.get(*j).is_some_and(|t| t.is_punct(',')) && *j < end {
                        *j += 1;
                        continue;
                    }
                    break;
                }
                if tokens.get(*j).is_some_and(|t| t.is_punct('}')) {
                    *j += 1;
                }
                prefix.truncate(base_len);
                return;
            }
            Tok::Punct('}') | Tok::Punct(',') => break,
            _ => {
                *j += 1;
            }
        }
    }
    // A trailing plain segment is itself an importable name.
    if let Some(seg) = last_seg {
        if seg != "*" {
            let mut full = prefix.clone();
            full.push(seg.clone());
            uses.insert(seg, full);
        }
    }
    prefix.truncate(base_len);
}
