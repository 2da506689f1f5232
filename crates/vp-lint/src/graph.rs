//! The conservative call graph: layer two of the graph engine.
//!
//! Nodes are the `fn` definitions the indexer found in library code
//! (tests, benches, examples and binaries are out — they are not part of
//! any crate's public determinism surface). Edges come from name
//! resolution over the item index:
//!
//! * **path calls** (`a::b::f(..)`) resolve by *segment-suffix match*
//!   against every definition's qualified path, after expanding a leading
//!   segment through the file's `use` aliases and normalising
//!   `crate`/`self`/`super` heads;
//! * **method calls** (`x.f(..)`) resolve to every workspace definition
//!   named `f` — the receiver's type is unknown to a lexical analyzer;
//! * both are filtered by **crate visibility**: a call in crate `c` can
//!   only land in `c` itself or a (transitive) dependency of `c`, as
//!   declared in the workspace `Cargo.toml`s. Cargo enforces exactly this
//!   at build time, so the filter removes impossible edges only.
//!
//! Ambiguity is handled by over-approximation: if several definitions
//! match, the call gets an edge to each of them (`Edge::ambiguity` counts
//! the candidates). A call matching nothing is external (std or a
//! vendored stand-in) and contributes no edge — its panics are visible to
//! g1 only through the lexical sink tokens (`unwrap`, `panic!`, indexing)
//! at the call site itself. Function-pointer and closure indirection is
//! not tracked; that boundary is documented in DESIGN.md §8.

use std::collections::{BTreeMap, BTreeSet};

use crate::index::{FileIndex, FnInfo};

/// A node in the call graph: one `fn` definition.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable id: the qualified name, de-duplicated with `@file:line` when
    /// two definitions share one (e.g. `cfg`-gated twins).
    pub id: String,
    pub info: FnInfo,
    pub file: String,
    pub crate_name: String,
}

/// A resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index of the callee node.
    pub callee: usize,
    /// How many candidates the call resolved to (1 = unambiguous).
    pub ambiguity: usize,
    pub line: usize,
    pub col: usize,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    /// Outgoing edges per node (deduplicated, sorted by callee id).
    pub edges: Vec<Vec<Edge>>,
    /// Calls that resolved to nothing, per node (for `graph` diagnostics).
    pub unresolved: Vec<Vec<String>>,
}

/// Workspace crate dependency map: crate → its *direct* workspace deps.
/// The empty-string crate is the root umbrella package.
pub type CrateDeps = BTreeMap<String, Vec<String>>;

/// Transitive visibility: `c` plus everything reachable through deps.
/// Crates absent from the map (e.g. a fixture crate without a manifest)
/// conservatively see every crate.
fn visible_crates(deps: &CrateDeps, c: &str) -> Option<BTreeSet<String>> {
    deps.get(c)?;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack = vec![c.to_string()];
    while let Some(cur) = stack.pop() {
        if !seen.insert(cur.clone()) {
            continue;
        }
        if let Some(ds) = deps.get(&cur) {
            for d in ds {
                if !seen.contains(d) {
                    stack.push(d.clone());
                }
            }
        }
    }
    Some(seen)
}

/// Does `candidate` (a definition's full path) end with the call path?
fn suffix_match(candidate: &[String], call: &[String]) -> bool {
    if call.len() > candidate.len() {
        return false;
    }
    candidate[candidate.len() - call.len()..]
        .iter()
        .zip(call)
        .all(|(a, b)| a == b)
}

impl Graph {
    /// Builds the graph from per-file indexes and the crate dep map.
    pub fn build(indexes: &[FileIndex], deps: &CrateDeps) -> Graph {
        let mut g = Graph::default();

        // 1. Nodes, with stable de-duplicated ids.
        let mut id_counts: BTreeMap<String, usize> = BTreeMap::new();
        for fx in indexes {
            for f in &fx.fns {
                let q = f.qualified();
                let n = id_counts.entry(q.clone()).or_insert(0);
                *n += 1;
                let id = if *n == 1 {
                    q
                } else {
                    format!("{q}@{}:{}", fx.file, f.line)
                };
                g.nodes.push(Node {
                    id,
                    info: f.clone(),
                    file: fx.file.clone(),
                    crate_name: fx.crate_name.clone(),
                });
            }
        }

        // 2. Name index: last path segment → node indices (BTree order of
        // insertion is by file then token order — deterministic).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in g.nodes.iter().enumerate() {
            by_name.entry(n.info.name.as_str()).or_default().push(i);
        }

        // Per-file use-alias maps, keyed by file (nodes carry the file).
        let mut uses_of: BTreeMap<&str, &BTreeMap<String, Vec<String>>> = BTreeMap::new();
        for fx in indexes {
            uses_of.insert(fx.file.as_str(), &fx.uses);
        }

        // 3. Edges.
        let node_count = g.nodes.len();
        for ni in 0..node_count {
            let node = g.nodes[ni].clone();
            let visible = visible_crates(deps, &node.crate_name);
            let mut out_edges: BTreeMap<usize, Edge> = BTreeMap::new();
            let mut unresolved: Vec<String> = Vec::new();

            for call in &node.info.calls {
                // Normalise the call path.
                let mut path: Vec<String> = call.path.clone();
                if !call.method {
                    // `crate::x::f` → caller crate's name; `self::f` →
                    // caller module; `super::f` → parent module.
                    match path.first().map(String::as_str) {
                        Some("crate") => {
                            path.remove(0);
                            let mut head = node.info.module.first().cloned();
                            if node.crate_name.is_empty() {
                                head = None;
                            }
                            if let Some(h) = head {
                                path.insert(0, h);
                            }
                        }
                        Some("self") => {
                            path.remove(0);
                            let mut m = node.info.module.clone();
                            m.extend(path);
                            path = m;
                        }
                        Some("super") => {
                            path.remove(0);
                            let mut m = node.info.module.clone();
                            m.pop();
                            m.extend(path);
                            path = m;
                        }
                        _ => {}
                    }
                    // Expand the head segment through this file's aliases.
                    if let Some(first) = path.first().cloned() {
                        if let Some(full) = uses_of.get(node.file.as_str()).and_then(|u| u.get(&first)) {
                            let mut p = full.clone();
                            p.extend(path.into_iter().skip(1));
                            path = p;
                        }
                    }
                    // Drop leading `std`/`core`/`alloc`: always external.
                    if matches!(
                        path.first().map(String::as_str),
                        Some("std") | Some("core") | Some("alloc")
                    ) {
                        continue;
                    }
                }

                let Some(last) = path.last() else { continue };
                // `vp_obs::Registry::new` reaches `vp_obs::metrics::Registry::new`
                // through a crate-root `pub use`; the written path is then
                // not a segment suffix of the definition's. When the head
                // names a workspace crate, retry the match inside that
                // crate with the head stripped.
                let head_crate: Option<&str> = path
                    .first()
                    .map(String::as_str)
                    .filter(|_| !call.method && path.len() > 1)
                    .and_then(|h| {
                        g.nodes
                            .iter()
                            .map(|n| n.crate_name.as_str())
                            .find(|c| c.replace('-', "_") == h)
                    });
                let mut candidates: Vec<usize> = Vec::new();
                if let Some(cands) = by_name.get(last.as_str()) {
                    for &ci in cands {
                        let cand = &g.nodes[ci];
                        if let Some(vis) = &visible {
                            if !vis.contains(&cand.crate_name) {
                                continue;
                            }
                        }
                        if call.method || path.len() == 1 {
                            candidates.push(ci);
                        } else if suffix_match(&cand.info.path_segments(), &path) {
                            candidates.push(ci);
                        } else if head_crate == Some(cand.crate_name.as_str())
                            && suffix_match(&cand.info.path_segments(), &path[1..])
                        {
                            candidates.push(ci);
                        }
                    }
                }
                if candidates.is_empty() {
                    // Multi-segment paths that matched nothing by suffix
                    // are *not* retried by bare name: a fully-qualified
                    // path to a non-workspace item is external, and a
                    // misspelt one would not compile in the first place.
                    if path.len() == 1 || call.method {
                        unresolved.push(path.join("::"));
                    }
                    continue;
                }
                let ambiguity = candidates.len();
                for ci in candidates {
                    out_edges.entry(ci).or_insert(Edge {
                        callee: ci,
                        ambiguity,
                        line: call.line,
                        col: call.col,
                    });
                }
            }

            g.edges.push(out_edges.into_values().collect());
            g.unresolved.push(unresolved);
        }

        g
    }

    /// Node index by id.
    pub fn node_by_id(&self, id: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// Renders the graph in Graphviz DOT form, clustered by crate.
    /// Deterministic: nodes and edges come out in node order.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph vp_calls {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        // Cluster nodes by crate.
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            by_crate.entry(n.crate_name.as_str()).or_default().push(i);
        }
        for (ci, (crate_name, nodes)) in by_crate.iter().enumerate() {
            let label = if crate_name.is_empty() { "(root)" } else { crate_name };
            out.push_str(&format!(
                "  subgraph cluster_{ci} {{\n    label=\"{label}\";\n"
            ));
            for &i in nodes {
                let n = &self.nodes[i];
                let mut attrs = String::new();
                if !n.info.sinks.is_empty() {
                    attrs.push_str(", color=red");
                }
                if !n.info.sources.is_empty() {
                    attrs.push_str(", color=orange");
                }
                if n.info.audited_g1 || n.info.audited_g2 {
                    attrs.push_str(", style=dashed");
                }
                out.push_str(&format!(
                    "    n{i} [label=\"{}\"{attrs}];\n",
                    n.id.replace('"', "'")
                ));
            }
            out.push_str("  }\n");
        }
        for (i, edges) in self.edges.iter().enumerate() {
            for e in edges {
                let style = if e.ambiguity > 1 {
                    format!(" [style=dotted, label=\"{}\"]", e.ambiguity)
                } else {
                    String::new()
                };
                out.push_str(&format!("  n{i} -> n{}{style};\n", e.callee));
            }
        }
        out.push_str("}\n");
        out
    }

    /// One-line per node summary (`graph` without `--dot`).
    pub fn to_summary(&self) -> String {
        let mut out = String::new();
        let total_edges: usize = self.edges.iter().map(Vec::len).sum();
        let unresolved: usize = self.unresolved.iter().map(Vec::len).sum();
        out.push_str(&format!(
            "call graph: {} nodes, {} edges, {} unresolved external calls\n",
            self.nodes.len(),
            total_edges,
            unresolved
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "{} [{}] calls={} sinks={} sources={}{}{}\n",
                n.id,
                n.file,
                self.edges[i].len(),
                n.info.sinks.len(),
                n.info.sources.len(),
                if n.info.audited_g1 { " audited-g1" } else { "" },
                if n.info.audited_g2 { " audited-g2" } else { "" },
            ));
        }
        out
    }
}
