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

/// Shared-mutable-state evidence inside a fn body (rule c1): an
/// interior-mutability type named in the body (`Cell`/`RefCell`/
/// `UnsafeCell` — constructors and type ascriptions) or a `static mut`.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// e.g. `RefCell`, `static mut COUNTER`.
    pub what: String,
    pub line: usize,
    pub col: usize,
}

/// A lock acquisition `recv.lock()` inside a fn body (rules c2/c3). The
/// lock's identity is the receiver identifier — purely lexical, which is
/// exactly as precise as the rest of the index: two fields with the same
/// name are conservatively the same lock.
#[derive(Debug, Clone)]
pub struct LockAcq {
    pub lock: String,
    pub line: usize,
    pub col: usize,
}

/// A blocking call (`recv`/`join`/`lock`) evaluated while a `let`-bound
/// lock guard is still live in the same fn body (rule c3). Fully resolved
/// at index time — the rule is intraprocedural.
#[derive(Debug, Clone)]
pub struct BlockingUnderGuard {
    /// The blocking call, e.g. `recv()`.
    pub what: String,
    /// The lock whose guard is live.
    pub guard_lock: String,
    pub guard_line: usize,
    pub line: usize,
    pub col: usize,
}

/// A loop whose body (or header — `while let Ok(x) = rx.recv()`) receives
/// from a channel that is **not** indexed by shard id (rule c4). If the
/// same loop also calls `merge`, results are being folded in channel
/// arrival order; the interprocedural half (a loop-body call that reaches
/// a fn named `merge`) is resolved in [`crate::crules`] via `start_line`/
/// `end_line` against the call graph.
#[derive(Debug, Clone)]
pub struct RecvLoop {
    /// The receive call, e.g. `recv()`.
    pub recv_what: String,
    pub recv_line: usize,
    pub recv_col: usize,
    /// Line of the `for`/`while`/`loop` keyword.
    pub start_line: usize,
    /// Line of the loop's closing brace.
    pub end_line: usize,
    /// A direct `.merge(` inside the same loop, if any.
    pub merge: Option<(usize, usize)>,
}

/// A hot-path cost fact inside a fn body (rules p1–p5, resolved against
/// the hot region in [`crate::prules`]). The indexer only records what it
/// sees — whether the fn is hot is the region computation's business.
#[derive(Debug, Clone)]
pub struct PFact {
    /// Which p-rule the fact feeds (P1–P5).
    pub rule: RuleId,
    /// Human label for the witness path, e.g. `Vec::new`, `format!`,
    /// `results.push (no capacity witness)`.
    pub label: String,
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
    /// `vp-lint: allow(c1)` on the definition line: shared-mutable state
    /// in (or below) this fn is vouched thread-confined.
    pub audited_c1: bool,
    /// `vp-lint: allow(c2)` on the definition line: this fn's lock
    /// acquisitions are vouched cycle-free and excluded from the
    /// lock-order graph.
    pub audited_c2: bool,
    /// `vp-lint: allow(p1)`..`allow(p5)` on the definition line: the fn's
    /// hot-path costs for that rule are audited (index 0 = p1).
    pub audited_p: [bool; 5],
    /// `vp-lint: cold(fn)` on the definition line: setup/teardown — the
    /// hot-region closure does not traverse into this fn.
    pub is_cold: bool,
    pub calls: Vec<Call>,
    pub sinks: Vec<Sink>,
    pub sources: Vec<NondetSource>,
    pub hazards: Vec<Hazard>,
    pub locks: Vec<LockAcq>,
    pub blocked_guards: Vec<BlockingUnderGuard>,
    pub recv_loops: Vec<RecvLoop>,
    /// Hot-path cost facts (rules p1–p5).
    pub pfacts: Vec<PFact>,
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
    /// File-level `static mut` / interior-mutability statics (rule c1):
    /// reachable by anything in the file, so attributed to the file, not
    /// to a fn.
    pub statics: Vec<Hazard>,
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
/// Interior-mutability types whose mention in a fn body is a c1 hazard.
const INTERIOR_MUT_TYPES: [&str; 3] = ["Cell", "RefCell", "UnsafeCell"];
/// Channel receives that observe arrival order (rule c4). `join` blocks
/// but does not receive, so it is c3-only.
const RECV_METHODS: [&str; 3] = ["recv", "try_recv", "recv_timeout"];
/// Blocking calls that deadlock-risk while a guard is live (rule c3).
/// `try_recv` is non-blocking and exempt.
const BLOCKING_METHODS: [&str; 4] = ["recv", "recv_timeout", "join", "lock"];

/// Mutable walk state for the concurrency extraction (rules c1–c4): live
/// lock guards and open loop bodies, maintained by `index_file`'s brace
/// walk and consumed by `extract_at`.
#[derive(Default)]
struct ConcState {
    /// `let`-bound lock guards still live: (depth at acquisition, lock, line).
    guards: Vec<(usize, String, usize)>,
    /// Open `for`/`while`/`loop` bodies, innermost last.
    loops: Vec<OpenLoop>,
    /// A loop keyword was seen at this line; the next `{` opens its body.
    pending_loop: Option<usize>,
    /// A receive seen in a loop *header* (`while let Ok(x) = rx.recv()`)
    /// before the body's `{` opened; moved into the loop when it does.
    pending_recv: Option<(String, usize, usize)>,
}

struct OpenLoop {
    /// Depth the loop's `{` opened at (same convention as `mod_stack`).
    depth: usize,
    start_line: usize,
    /// First unindexed channel receive seen in the loop.
    recv: Option<(String, usize, usize)>,
    /// First `.merge(` seen in the loop.
    merge: Option<(usize, usize)>,
}

/// Collection types whose construction / growth is a p1 allocation fact
/// and whose declarations feed the receiver-type table (p1 clone, p2).
const COLLECTION_TYPES: [&str; 8] = [
    "Vec", "VecDeque", "BTreeMap", "BTreeSet", "BinaryHeap", "String", "BytesMut", "Bytes",
];
/// Encode/checksum helpers whose loop-invariant calls rule p3 flags: a
/// call inside a probe loop whose arguments never mention a loop-bound
/// name recomputes the same value every iteration.
const P3_HELPERS: [&str; 4] = [
    "internet_checksum",
    "internet_checksum_parts",
    "emit",
    "encode_payload",
];

/// A p3 candidate call held inside an open loop frame until the loop
/// closes and its invariance can be decided.
struct P3Call {
    helper: String,
    line: usize,
    col: usize,
    /// Identifiers mentioned in the call's receiver/arguments.
    args: Vec<String>,
}

/// One open loop for the p3 invariance analysis: the names the loop binds
/// (pattern vars, `let` bindings, assignment targets) and the helper calls
/// seen so far.
struct P3Frame {
    /// Depth the loop's `{` opened at.
    depth: usize,
    bound: Vec<String>,
    calls: Vec<P3Call>,
}

/// Mutable walk state for the hot-path cost extraction (rules p1–p5).
/// Pushes, map lookups and clones are *deferred*: their verdict depends on
/// file-level tables (capacity witnesses, receiver types) that are only
/// complete at end of file.
#[derive(Default)]
struct PState {
    /// Receiver idents with a `with_capacity`/`reserve` witness anywhere
    /// in this file — a `push` on them is amortized, not a p1 fact.
    witnessed: Vec<String>,
    /// Ident → collection type, from `name: Type<...>` ascriptions and
    /// `let name = Type::new()`-style bindings anywhere in the file.
    collections: BTreeMap<String, String>,
    /// Deferred `.get(`/`.contains_key(` sites: (fn index, receiver,
    /// method, line, col).
    lookups: Vec<(usize, String, String, usize, usize)>,
    /// Deferred `.clone()` sites: (fn index, receiver, line, col).
    clones: Vec<(usize, String, usize, usize)>,
    /// Open loop frames for p3, innermost last.
    frames: Vec<P3Frame>,
    /// A `for` keyword was seen: collect pattern idents until `in`. The
    /// names land in `pending_bound` and move into the frame at its `{`.
    /// (`while let` headers are not collected — their body `let`s and
    /// assignments still bind, which is enough in practice.)
    collecting: bool,
    pending_bound: Vec<String>,
    /// Inside an open frame, a `let` was seen: bind idents until `=`/`:`/`;`.
    let_bind: bool,
    /// Deferred p1 allocation sites whose verdict needs the witness set:
    /// (fn index, receiver, label, line, col).
    deferred_p1: Vec<(usize, String, String, usize, usize)>,
}

impl PState {
    /// Binds `name` in the innermost open loop frame, if any.
    fn bind(&mut self, name: &str) {
        if let Some(f) = self.frames.last_mut() {
            f.bound.push(name.to_string());
        }
    }
}

/// Identifiers mentioned in a call's argument list: everything between the
/// opening paren at `open` and its matching close. Purely lexical — for p3
/// invariance, mentioning a loop-bound name anywhere in the arguments is
/// what makes a call varying.
fn call_arg_idents(tokens: &[Token], open: usize) -> Vec<String> {
    let mut args = Vec::new();
    if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
        return args;
    }
    let mut paren = 1usize;
    let mut j = open + 1;
    while let Some(n) = tokens.get(j) {
        match &n.tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            Tok::Ident(s) if !is_keyword(s) => args.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    args
}

/// The receiver a collection constructor call binds to, if discoverable:
/// `let [mut] name [...] = X::ctor(..)`, `name = X::ctor(..)`, or a struct
/// literal / ascribed field `name: X::ctor(..)`. `i` is the index of the
/// type ident `X`. Bounded backward walk; an undiscoverable receiver
/// returns `None` (the caller decides whether that is a fact or a skip).
fn binding_receiver(tokens: &[Token], i: usize) -> Option<String> {
    if i == 0 {
        return None;
    }
    if tokens[i - 1].is_punct('=') {
        // `name = X::..` / `let mut name = X::..` (ident right before `=`).
        if let Some(name) = (i >= 2).then(|| tokens[i - 2].ident()).flatten() {
            if !is_keyword(name) {
                return Some(name.to_string());
            }
        }
        // `let mut name: Type<..> = X::..` — the type annotation sits
        // between the name and the `=`; find the `let` instead.
        let floor = i.saturating_sub(24);
        let mut j = i - 1;
        while j > floor {
            j -= 1;
            match &tokens[j].tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return None,
                Tok::Ident(s) if s == "let" => {
                    let mut k = j + 1;
                    if tokens.get(k).and_then(Token::ident) == Some("mut") {
                        k += 1;
                    }
                    return tokens.get(k).and_then(Token::ident).map(str::to_string);
                }
                _ => {}
            }
        }
        return None;
    }
    // Struct literal field `name: X::ctor(..)` (a single `:`, not `::`).
    if tokens[i - 1].is_punct(':') && i >= 2 && !tokens[i - 2].is_punct(':') {
        if let Some(name) = tokens[i - 2].ident() {
            if !is_keyword(name) {
                return Some(name.to_string());
            }
        }
    }
    None
}

/// Whether the ident at `i` is the target of a (possibly compound)
/// assignment: `x = ..`, `x += ..` — but not `x == ..` or `.. <= x`.
/// Assignment inside a loop body makes the name varying for p3.
fn is_assignment_target(tokens: &[Token], i: usize) -> bool {
    let simple = tokens.get(i + 1).is_some_and(|n| n.is_punct('='))
        && !tokens.get(i + 2).is_some_and(|n| n.is_punct('='))
        && !(i > 0
            && matches!(
                &tokens[i - 1].tok,
                Tok::Punct('=') | Tok::Punct('<') | Tok::Punct('>') | Tok::Punct('!')
            ));
    let compound = tokens.get(i + 1).is_some_and(|n| {
        matches!(
            n.tok,
            Tok::Punct('+')
                | Tok::Punct('-')
                | Tok::Punct('*')
                | Tok::Punct('/')
                | Tok::Punct('%')
                | Tok::Punct('&')
                | Tok::Punct('|')
                | Tok::Punct('^')
        )
    }) && tokens.get(i + 2).is_some_and(|n| n.is_punct('='));
    simple || compound
}

/// Feeds the file-level receiver-type table from `name: Type<..>`
/// ascriptions (struct fields, fn params, let bindings) — runs on every
/// non-test token, inside fn bodies or not, because a field declared on a
/// struct types the receivers every method of that struct uses.
fn collect_ascription(tokens: &[Token], i: usize, pstate: &mut PState) {
    let Some(ty) = tokens[i].ident() else { return };
    if !COLLECTION_TYPES.contains(&ty) {
        return;
    }
    // Walk back over `&` / `mut` to the ascription's `:` (a single colon).
    let mut j = i;
    while j > 0 && (tokens[j - 1].is_punct('&') || tokens[j - 1].ident() == Some("mut")) {
        j -= 1;
    }
    if j < 2 || !tokens[j - 1].is_punct(':') || tokens[j - 2].is_punct(':') {
        return;
    }
    if let Some(name) = tokens[j - 2].ident() {
        if !is_keyword(name) {
            pstate.collections.insert(name.to_string(), ty.to_string());
        }
    }
}

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
    let mut conc = ConcState::default();
    let mut pstate = PState::default();
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
                            let mut info = FnInfo {
                                name: name.to_string(),
                                module: current_module(&mod_stack),
                                impl_type: impl_ty,
                                trait_impl: trait_name,
                                is_pub: is_pub_before(tokens, i),
                                line: name_tok.line,
                                col: name_tok.col,
                                audited_g1: dirs.allows_on(RuleId::G1, name_tok.line),
                                audited_g2: dirs.allows_on(RuleId::G2, name_tok.line),
                                audited_c1: dirs.allows_on(RuleId::C1, name_tok.line),
                                audited_c2: dirs.allows_on(RuleId::C2, name_tok.line),
                                audited_p: [
                                    dirs.allows_on(RuleId::P1, name_tok.line),
                                    dirs.allows_on(RuleId::P2, name_tok.line),
                                    dirs.allows_on(RuleId::P3, name_tok.line),
                                    dirs.allows_on(RuleId::P4, name_tok.line),
                                    dirs.allows_on(RuleId::P5, name_tok.line),
                                ],
                                is_cold: dirs.cold_on(name_tok.line),
                                calls: Vec::new(),
                                sinks: Vec::new(),
                                sources: Vec::new(),
                                hazards: Vec::new(),
                                locks: Vec::new(),
                                blocked_guards: Vec::new(),
                                recv_loops: Vec::new(),
                                pfacts: Vec::new(),
                            };
                            // `dyn` in the signature (arguments or return
                            // type) is dynamic dispatch the body pays for
                            // on every call — a p4 fact on the fn itself.
                            let mut j = i + 2;
                            while let Some(n) = tokens.get(j) {
                                if n.is_punct('{') || n.is_punct(';') {
                                    break;
                                }
                                if n.ident() == Some("dyn") {
                                    if dirs.allows_on(RuleId::P4, n.line) {
                                        out.used_allows.push((n.line, RuleId::P4));
                                    } else {
                                        info.pfacts.push(PFact {
                                            rule: RuleId::P4,
                                            label: "dyn in signature".into(),
                                            line: n.line,
                                            col: n.col,
                                        });
                                    }
                                }
                                j += 1;
                            }
                            pending = Some(Pending::Fn(info));
                        }
                        i += 2;
                        continue;
                    }
                }
            }
            Tok::Ident(kw)
                if kw == "static"
                    && !in_test
                    && !(i > 0 && tokens[i - 1].is_punct('\'')) =>
            {
                // `static [mut] NAME : Type = ...` — a `'static` lifetime
                // is excluded by the quote check above. `static mut` is a
                // c1 hazard outright; an immutable static whose type
                // mentions an interior-mutability cell or `Rc` is a
                // non-`Sync` static, same hazard.
                let mut j = i + 1;
                let is_mut = tokens.get(j).and_then(Token::ident) == Some("mut");
                if is_mut {
                    j += 1;
                }
                if let Some(name) = tokens.get(j).and_then(Token::ident) {
                    let mut non_sync = false;
                    if !is_mut {
                        let mut k = j + 1;
                        while let Some(n) = tokens.get(k) {
                            if n.is_punct('=') || n.is_punct(';') {
                                break;
                            }
                            if matches!(
                                n.ident(),
                                Some("Cell") | Some("RefCell") | Some("UnsafeCell") | Some("Rc")
                            ) {
                                non_sync = true;
                            }
                            k += 1;
                        }
                    }
                    if is_mut || non_sync {
                        let what = if is_mut {
                            format!("static mut {name}")
                        } else {
                            format!("non-Sync static {name}")
                        };
                        if dirs.allows_on(RuleId::C1, t.line) {
                            out.used_allows.push((t.line, RuleId::C1));
                        } else if let Some(&(_, fi)) = fn_stack.last() {
                            out.fns[fi].hazards.push(Hazard {
                                what,
                                line: t.line,
                                col: t.col,
                            });
                        } else {
                            out.statics.push(Hazard {
                                what,
                                line: t.line,
                                col: t.col,
                            });
                        }
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
                conc.pending_loop = None;
                conc.pending_recv = None;
                pstate.collecting = false;
                pstate.let_bind = false;
                pstate.pending_bound.clear();
            }
            Tok::Punct('{') => {
                if let Some(start_line) = conc.pending_loop.take() {
                    if fn_stack.last().is_some() {
                        conc.loops.push(OpenLoop {
                            depth,
                            start_line,
                            recv: conc.pending_recv.take(),
                            merge: None,
                        });
                        pstate.frames.push(P3Frame {
                            depth,
                            bound: std::mem::take(&mut pstate.pending_bound),
                            calls: Vec::new(),
                        });
                    }
                }
                pstate.collecting = false;
                pstate.let_bind = false;
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
                // Close loops first, while the owning fn is still open.
                while conc.loops.last().is_some_and(|l| l.depth == depth) {
                    if let (Some(l), Some(&(_, fi))) = (conc.loops.pop(), fn_stack.last()) {
                        if let Some((what, rl, rc)) = l.recv {
                            out.fns[fi].recv_loops.push(RecvLoop {
                                recv_what: what,
                                recv_line: rl,
                                recv_col: rc,
                                start_line: l.start_line,
                                end_line: t.line,
                                merge: l.merge,
                            });
                        }
                    }
                }
                // p3 frames close with their loop. A call that never
                // mentioned a name bound by this loop is invariant *here*;
                // it escalates to the parent frame (a nested loop may still
                // vary it) and becomes a fact at the outermost close.
                while pstate.frames.last().is_some_and(|f| f.depth == depth) {
                    let Some(frame) = pstate.frames.pop() else { break };
                    for call in frame.calls {
                        if call.args.iter().any(|a| frame.bound.contains(a)) {
                            continue; // varying: recomputed for a reason
                        }
                        if let Some(parent) = pstate.frames.last_mut() {
                            parent.calls.push(call);
                        } else if let Some(&(_, fi)) = fn_stack.last() {
                            if dirs.allows_on(RuleId::P3, call.line) {
                                out.used_allows.push((call.line, RuleId::P3));
                            } else {
                                out.fns[fi].pfacts.push(PFact {
                                    rule: RuleId::P3,
                                    label: format!(
                                        "loop-invariant {}(..) recomputed per iteration",
                                        call.helper
                                    ),
                                    line: call.line,
                                    col: call.col,
                                });
                            }
                        }
                    }
                }
                // Guards die with the block they were acquired in.
                conc.guards.retain(|(d, _, _)| *d <= depth);
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

        // Body-level extraction: calls, sinks, sources, concurrency facts
        // — attributed to the innermost open fn, outside test scope.
        if !in_test {
            // Receiver-type ascriptions feed the p-rule tables even outside
            // fn bodies (struct fields type the receivers methods use).
            collect_ascription(tokens, i, &mut pstate);
            if let Some(&(_, fi)) = fn_stack.last() {
                extract_at(
                    tokens, i, &impl_stack, dirs, &mut out, fi, &mut conc, &mut pstate, depth,
                );
            }
        }

        i += 1;
    }

    // Deferred p-fact resolution: the witness and receiver-type tables are
    // file-level and only complete now.
    for (fi, recv, label, line, col) in std::mem::take(&mut pstate.deferred_p1) {
        if pstate.witnessed.contains(&recv) {
            continue;
        }
        push_pfact(&mut out, fi, dirs, RuleId::P1, label, line, col);
    }
    for (fi, recv, method, line, col) in std::mem::take(&mut pstate.lookups) {
        if pstate.collections.get(&recv).map(String::as_str) != Some("BTreeMap") {
            continue;
        }
        push_pfact(
            &mut out,
            fi,
            dirs,
            RuleId::P2,
            format!("{recv}.{method}() on a BTreeMap (dense block-id/column lookup exists)"),
            line,
            col,
        );
    }
    for (fi, recv, line, col) in std::mem::take(&mut pstate.clones) {
        // `Bytes` is exempt: post-refactor it is a zero-copy view and its
        // clone is a refcount bump, not an allocation.
        let Some(ty) = pstate.collections.get(&recv) else { continue };
        if ty == "Bytes" {
            continue;
        }
        push_pfact(
            &mut out,
            fi,
            dirs,
            RuleId::P1,
            format!("{recv}.clone() of {ty}"),
            line,
            col,
        );
    }

    out
}

/// Records a p-rule fact on fn `fi`, or consumes a line allow for it.
fn push_pfact(
    out: &mut FileIndex,
    fi: usize,
    dirs: &Directives,
    rule: RuleId,
    label: String,
    line: usize,
    col: usize,
) {
    if dirs.allows_on(rule, line) {
        out.used_allows.push((line, rule));
        return;
    }
    out.fns[fi].pfacts.push(PFact { rule, label, line, col });
}

/// Inspects the token at `i` inside a fn body and records any call, sink,
/// source or concurrency fact that *starts* there.
#[allow(clippy::too_many_arguments)]
fn extract_at(
    tokens: &[Token],
    i: usize,
    impl_stack: &[(usize, Option<String>, Option<String>)],
    dirs: &Directives,
    out: &mut FileIndex,
    fi: usize,
    conc: &mut ConcState,
    pstate: &mut PState,
    depth: usize,
) {
    let t = &tokens[i];

    match &t.tok {
        // `=` / `:` / `;` end a `let`'s pattern; bindings stop there.
        Tok::Punct('=') | Tok::Punct(':') | Tok::Punct(';') => {
            pstate.let_bind = false;
        }
        Tok::Ident(name) => {
            // Loop headers: the next `{` opens this loop's body (rule c4).
            if matches!(name.as_str(), "for" | "while" | "loop") {
                conc.pending_loop = Some(t.line);
                // A `for` pattern binds fresh names every iteration (p3).
                pstate.collecting = name == "for";
                pstate.pending_bound.clear();
                return;
            }
            // Collect `for`-pattern idents until the `in` keyword.
            if pstate.collecting {
                if name == "in" {
                    pstate.collecting = false;
                } else if !is_keyword(name) {
                    pstate.pending_bound.push(name.clone());
                }
                return;
            }
            // `dyn` in a body: boxed closure / trait object — p4.
            if name == "dyn" {
                push_pfact(
                    out,
                    fi,
                    dirs,
                    RuleId::P4,
                    "dyn (dynamic dispatch)".into(),
                    t.line,
                    t.col,
                );
                return;
            }
            // p3 binding bookkeeping inside open loop frames: `let`
            // patterns and assignment targets vary per iteration.
            if name == "let" {
                if !pstate.frames.is_empty() {
                    pstate.let_bind = true;
                }
                return;
            }
            if !pstate.frames.is_empty() && !is_keyword(name) {
                if pstate.let_bind {
                    pstate.bind(name);
                } else if is_assignment_target(tokens, i) {
                    pstate.bind(name);
                }
            }
            // Interior-mutability types named in a body — constructors
            // (`RefCell::new`) and ascriptions (`let x: Cell<u64>`) — are
            // c1 hazards (rule c1; shared state must not reach the
            // parallel region unaudited).
            if INTERIOR_MUT_TYPES.contains(&name.as_str())
                && tokens
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct(':') || n.is_punct('<'))
            {
                if dirs.allows_on(RuleId::C1, t.line) {
                    out.used_allows.push((t.line, RuleId::C1));
                } else {
                    out.fns[fi].hazards.push(Hazard {
                        what: name.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
                // Fall through: `RefCell::new(` is also a path call.
            }
            // Sink macros: `panic!`, `unreachable!`, ...
            if SINK_MACROS.contains(&name.as_str())
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                // p5: a formatted message — the lexer masks string
                // literals, so `panic!("{}", x)` tokenizes as `panic ! ( ,
                // x )`: any surviving token before `)` means per-call
                // message construction.
                if tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|n| !n.is_punct(')'))
                {
                    push_pfact(
                        out,
                        fi,
                        dirs,
                        RuleId::P5,
                        format!("formatted {name}! message"),
                        t.line,
                        t.col,
                    );
                }
                push_sink(out, fi, dirs, SinkKind::Macro(name.clone()), t.line, t.col);
                return;
            }
            // Allocation macros: `vec![..]` always heap-allocates; a bare
            // `format!` is a fresh String per call. `Err(format!(..))` is
            // the p5 shape (per-probe error construction) instead.
            if name == "vec" && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                push_pfact(out, fi, dirs, RuleId::P1, "vec![..]".into(), t.line, t.col);
                return;
            }
            if name == "format" && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                let in_err = i >= 2
                    && tokens[i - 1].is_punct('(')
                    && tokens[i - 2].ident() == Some("Err");
                let (rule, label) = if in_err {
                    (RuleId::P5, "Err(format!(..))".to_string())
                } else {
                    (RuleId::P1, "format!".to_string())
                };
                push_pfact(out, fi, dirs, rule, label, t.line, t.col);
                return;
            }
            // Collection constructors: `X::with_capacity`/`.reserve` are
            // capacity *witnesses*; `X::new`/`X::default` defer their
            // verdict to the witness table; `X::from` and
            // `Bytes::copy_from_slice` always allocate a fresh buffer.
            if (COLLECTION_TYPES.contains(&name.as_str()) || name == "Box")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && tokens.get(i + 4).is_some_and(|n| n.is_punct('('))
            {
                if let Some(ctor) = tokens.get(i + 3).and_then(Token::ident) {
                    let recv = binding_receiver(tokens, i);
                    match ctor {
                        "with_capacity" => {
                            if let Some(r) = recv {
                                pstate.collections.insert(r.clone(), name.clone());
                                pstate.witnessed.push(r);
                            }
                        }
                        "new" | "default" if name != "Box" => {
                            if let Some(r) = recv {
                                pstate.collections.insert(r.clone(), name.clone());
                                pstate.deferred_p1.push((
                                    fi,
                                    r.clone(),
                                    format!(
                                        "{name}::{ctor} on `{r}` (no capacity witness \
                                         in this file)"
                                    ),
                                    t.line,
                                    t.col,
                                ));
                            } else {
                                push_pfact(
                                    out,
                                    fi,
                                    dirs,
                                    RuleId::P1,
                                    format!("{name}::{ctor}"),
                                    t.line,
                                    t.col,
                                );
                            }
                        }
                        "new" | "from" | "copy_from_slice" => {
                            if let Some(r) = recv {
                                pstate.collections.insert(r, name.clone());
                            }
                            push_pfact(
                                out,
                                fi,
                                dirs,
                                RuleId::P1,
                                format!("{name}::{ctor}"),
                                t.line,
                                t.col,
                            );
                        }
                        _ => {}
                    }
                }
                // Fall through: `X::ctor(` is also a path call.
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
                        // Concurrency facts hang off the same method call.
                        // The receiver is the identifier before the `.`;
                        // an unnameable receiver (`make_lock().lock()`)
                        // degrades to `<expr>`.
                        let receiver = (i > 0)
                            .then(|| tokens[i - 1].ident())
                            .flatten()
                            .filter(|r| !is_keyword(r));
                        // c3: any blocking call while a `let`-bound guard
                        // is live — including a second `.lock()`, since a
                        // std Mutex is not reentrant.
                        if BLOCKING_METHODS.contains(&m) {
                            if let Some((_, guard_lock, guard_line)) = conc.guards.first() {
                                if dirs.allows_on(RuleId::C3, mt.line) {
                                    out.used_allows.push((mt.line, RuleId::C3));
                                } else {
                                    out.fns[fi].blocked_guards.push(BlockingUnderGuard {
                                        what: format!("{m}()"),
                                        guard_lock: guard_lock.clone(),
                                        guard_line: *guard_line,
                                        line: mt.line,
                                        col: mt.col,
                                    });
                                }
                            }
                        }
                        if m == "lock" {
                            let lock = receiver.unwrap_or("<expr>").to_string();
                            // c2: record the acquisition for the lock-order
                            // graph; allow(c2) on the line excludes it.
                            if dirs.allows_on(RuleId::C2, mt.line) {
                                out.used_allows.push((mt.line, RuleId::C2));
                            } else {
                                out.fns[fi].locks.push(LockAcq {
                                    lock: lock.clone(),
                                    line: mt.line,
                                    col: mt.col,
                                });
                            }
                            // A `let`-bound guard stays live to the end of
                            // its block; a temporary dies at the `;` and
                            // is not tracked.
                            if stmt_has_let(tokens, i) {
                                conc.guards.push((depth, lock, mt.line));
                            }
                        }
                        // c4: an unindexed receive inside a loop observes
                        // channel-arrival order. `rx[k].recv()` (receiver
                        // ends in `]`) is the blessed shard-indexed shape.
                        if RECV_METHODS.contains(&m) {
                            let indexed = i > 0 && tokens[i - 1].is_punct(']');
                            let in_loop =
                                conc.loops.last().is_some() || conc.pending_loop.is_some();
                            if !indexed && in_loop {
                                if dirs.allows_on(RuleId::C4, mt.line) {
                                    out.used_allows.push((mt.line, RuleId::C4));
                                } else {
                                    let site = (format!("{m}()"), mt.line, mt.col);
                                    match conc.loops.last_mut() {
                                        Some(l) if conc.pending_loop.is_none() => {
                                            if l.recv.is_none() {
                                                l.recv = Some(site);
                                            }
                                        }
                                        // Loop header: attach when `{` opens.
                                        _ => {
                                            if conc.pending_recv.is_none() {
                                                conc.pending_recv = Some(site);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        if m == "merge" {
                            if let Some(l) = conc.loops.last_mut() {
                                if l.merge.is_none() {
                                    l.merge = Some((mt.line, mt.col));
                                }
                            }
                        }
                        // p-rule method facts. Deferred ones resolve at end
                        // of file against the witness / receiver-type
                        // tables; immediate ones always allocate.
                        match m {
                            "reserve" | "with_capacity" => {
                                if let Some(r) = receiver {
                                    pstate.witnessed.push(r.to_string());
                                }
                            }
                            "push" | "push_back" | "insert" | "extend_from_slice" => {
                                if let Some(r) = receiver {
                                    pstate.deferred_p1.push((
                                        fi,
                                        r.to_string(),
                                        format!(
                                            "{r}.{m} (no capacity witness in this file)"
                                        ),
                                        mt.line,
                                        mt.col,
                                    ));
                                }
                            }
                            "to_string" | "to_vec" | "collect" => {
                                push_pfact(
                                    out,
                                    fi,
                                    dirs,
                                    RuleId::P1,
                                    format!("{m}()"),
                                    mt.line,
                                    mt.col,
                                );
                            }
                            "clone" => {
                                if let Some(r) = receiver {
                                    pstate.clones.push((fi, r.to_string(), mt.line, mt.col));
                                }
                            }
                            "get" | "contains_key" => {
                                if let Some(r) = receiver {
                                    pstate.lookups.push((
                                        fi,
                                        r.to_string(),
                                        m.to_string(),
                                        mt.line,
                                        mt.col,
                                    ));
                                }
                            }
                            // p3 method-form helpers: the receiver counts
                            // as an argument for invariance.
                            "emit" | "encode_payload" => {
                                if let Some(frame) = pstate.frames.last_mut() {
                                    let mut args = call_arg_idents(tokens, call_paren);
                                    if let Some(r) = receiver {
                                        args.push(r.to_string());
                                    }
                                    frame.calls.push(P3Call {
                                        helper: m.to_string(),
                                        line: mt.line,
                                        col: mt.col,
                                        args,
                                    });
                                }
                            }
                            _ => {}
                        }
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
        // p3 path-form helpers (`checksum::internet_checksum(..)` etc.)
        // inside an open loop frame: held until the loop closes.
        if P3_HELPERS.contains(&name) {
            if let Some(frame) = pstate.frames.last_mut() {
                frame.calls.push(P3Call {
                    helper: name.to_string(),
                    line: t.line,
                    col: t.col,
                    args: call_arg_idents(tokens, i + 1),
                });
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

/// Looks backward from the `.` of a `.lock()` call to the start of the
/// statement (`;`, `{` or `}`) for a `let`: decides whether the call
/// binds a live guard or produces a same-statement temporary. The scan is
/// bounded; a pathological 256-token statement degrades to "no guard",
/// i.e. c3 under-approximates rather than scanning the whole file.
fn stmt_has_let(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    let floor = i.saturating_sub(256);
    while j > floor {
        j -= 1;
        match &tokens[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return false,
            Tok::Ident(s) if s == "let" => return true,
            _ => {}
        }
    }
    false
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
