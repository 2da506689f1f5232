//! The interprocedural rules: layer three of the graph engine.
//!
//! | id | rule |
//! |----|------|
//! | g1 | no public API of a policed crate (`vp-sim`, `verfploeter`, `vp-net`, `vp-bgp`, `vp-monitor`) may transitively reach a panic sink: `panic!` / `unreachable!` / `todo!` / `unimplemented!`, `.unwrap()` / `.expect()`, or slice indexing |
//! | g2 | no public API of a policed crate may transitively read ambient nondeterminism (`thread_rng`, `Instant::now`, `SystemTime::now`, `std::env`) — rule d2's sources, propagated through every callee |
//! | g3 | every `vp-lint: allow(...)` directive must still suppress something: a dead allow is itself a finding |
//!
//! g1/g2 are evaluated by round-based fixpoint propagation over the call
//! graph. Each finding carries a **witness path**: the call chain from
//! the public entry point down to the sink/source token. Witness choice
//! is deterministic: a node's own (lowest-position) sink beats
//! propagation, and among tainted callees the lexicographically smallest
//! node id wins in the round where taint first arrives.
//!
//! Suppression model (all line-scoped `vp-lint: allow(...)`):
//! * at a **sink site**: `allow(g1)` (or `allow(h2)` for unwrap/expect —
//!   the token rule's justification doubles as the audit) removes the
//!   sink;
//! * at a **source site**: `allow(g2)` removes the source. `allow(d2)`
//!   does **not**: d2's justification covers the local read, g2 asks the
//!   global question of whether any public API can observe it;
//! * on a **fn definition line**: `allow(g1)`/`allow(g2)` marks the fn
//!   audited — its body and callees are vouched for, and taint does not
//!   propagate out of it.

use std::collections::BTreeMap;

use crate::graph::Graph;
use crate::rules::{Finding, RuleId};

/// Crates whose public API g1/g2 police.
pub const POLICED_CRATES: [&str; 5] =
    ["vp-sim", "verfploeter", "vp-net", "vp-bgp", "vp-monitor"];

/// How a node first reaches a sink/source (g1 and g2 share the machinery).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Witness {
    /// The node's own token: (label, line, col).
    Local(String, usize, usize),
    /// Through a call to the node at this index.
    Via(usize),
}

/// The result of one taint pass.
struct Taint {
    /// Propagating witness per node index (None = clean or audited).
    reach: Vec<Option<Witness>>,
    /// Nodes that would be tainted ignoring their own audit — used both
    /// for findings (an audited entry is not a finding) and for marking
    /// the audit directive as live (g3).
    would_reach: Vec<Option<Witness>>,
}

/// Fixpoint taint propagation. `local` yields a node's own lowest
/// sink/source as a witness, if any.
fn propagate(g: &Graph, audited: impl Fn(usize) -> bool, local: impl Fn(usize) -> Option<Witness>) -> Taint {
    let n = g.nodes.len();
    let mut reach: Vec<Option<Witness>> = Vec::with_capacity(n);
    let mut would: Vec<Option<Witness>> = vec![None; n];

    // Round 0: local tokens.
    for i in 0..n {
        reach.push(local(i));
    }
    for i in 0..n {
        if reach[i].is_some() {
            would[i] = reach[i].clone();
        }
        if audited(i) {
            // Audited nodes never propagate.
            reach[i] = None;
        }
    }

    // Rounds: pull taint from callees until nothing changes. Among newly
    // available tainted callees the smallest node id wins, which makes
    // the chosen witness independent of iteration order.
    loop {
        let mut changed = false;
        for i in 0..n {
            if would[i].is_some() {
                continue;
            }
            let mut best: Option<usize> = None;
            for e in &g.edges[i] {
                if reach[e.callee].is_some() {
                    let better = match best {
                        None => true,
                        Some(b) => g.nodes[e.callee].id < g.nodes[b].id,
                    };
                    if better {
                        best = Some(e.callee);
                    }
                }
            }
            if let Some(b) = best {
                would[i] = Some(Witness::Via(b));
                if !audited(i) {
                    reach[i] = Some(Witness::Via(b));
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    Taint { reach, would_reach: would }
}

/// Reconstructs the witness path for node `i`: each step is
/// `qualified (file:line)`, ending at the sink/source token.
fn witness_path(g: &Graph, taint: &Taint, i: usize) -> Vec<String> {
    let mut path = Vec::new();
    let mut cur = i;
    // The entry step itself.
    path.push(format!(
        "{} ({}:{})",
        g.nodes[cur].id, g.nodes[cur].file, g.nodes[cur].info.line
    ));
    loop {
        // Follow `would_reach` at the start (the entry may be audited in
        // which case reach is cleared), `reach` below.
        let w = if cur == i {
            taint.would_reach[cur].as_ref()
        } else {
            taint.reach[cur].as_ref()
        };
        match w {
            Some(Witness::Local(label, line, _col)) => {
                path.push(format!("{label} ({}:{line})", g.nodes[cur].file));
                break;
            }
            Some(Witness::Via(next)) => {
                cur = *next;
                path.push(format!(
                    "{} ({}:{})",
                    g.nodes[cur].id, g.nodes[cur].file, g.nodes[cur].info.line
                ));
            }
            None => break,
        }
    }
    path
}

/// Is this node part of a policed crate's public API surface?
///
/// Requires: a policed crate, a `pub fn` (or any fn in an `impl Trait
/// for Type` block — trait methods are public through the trait), every
/// enclosing module `pub`, and a `pub` impl self type where one exists.
/// Unknown visibility (a type or module the index did not see) counts as
/// public — over-approximate, never under-approximate.
fn is_entry(
    g: &Graph,
    i: usize,
    mod_pub: &BTreeMap<(String, String), bool>,
    type_pub: &BTreeMap<(String, String), bool>,
) -> bool {
    let n = &g.nodes[i];
    if !POLICED_CRATES.contains(&n.crate_name.as_str()) {
        return false;
    }
    let via_trait = n.info.trait_impl.is_some();
    if !n.info.is_pub && !via_trait {
        return false;
    }
    // Every module segment below the crate root must be pub.
    let segs = &n.info.module;
    for k in 1..segs.len() {
        let parent = segs[..k].join("::");
        let key = (n.crate_name.clone(), format!("{parent}::{}", segs[k]));
        if let Some(p) = mod_pub.get(&key) {
            if !p {
                return false;
            }
        }
    }
    // The impl self type must be pub where we know it.
    if let Some(ty) = &n.info.impl_type {
        if let Some(p) = type_pub.get(&(n.crate_name.clone(), ty.clone())) {
            if !p {
                return false;
            }
        }
    }
    true
}

/// Visibility tables, built by the caller from the file indexes.
pub struct Visibility {
    /// (crate, full module path joined with `::`) → declared pub.
    pub mod_pub: BTreeMap<(String, String), bool>,
    /// (crate, type name) → any pub declaration of that name in the crate.
    pub type_pub: BTreeMap<(String, String), bool>,
}

/// Evaluates g1 and g2 over the graph. Returns findings plus the
/// `(file, line, rule)` allow-usages consumed by fn-level audits.
pub fn evaluate(g: &Graph, vis: &Visibility) -> (Vec<Finding>, Vec<(String, usize, RuleId)>) {
    let mut findings = Vec::new();
    let mut used: Vec<(String, usize, RuleId)> = Vec::new();

    // g1: panic reachability.
    let t1 = propagate(
        g,
        |i| g.nodes[i].info.audited_g1,
        |i| {
            g.nodes[i]
                .info
                .sinks
                .iter()
                .min_by_key(|s| (s.line, s.col))
                .map(|s| Witness::Local(s.kind.label(), s.line, s.col))
        },
    );
    // g2: nondeterminism taint.
    let t2 = propagate(
        g,
        |i| g.nodes[i].info.audited_g2,
        |i| {
            g.nodes[i]
                .info
                .sources
                .iter()
                .min_by_key(|s| (s.line, s.col))
                .map(|s| Witness::Local(s.what.clone(), s.line, s.col))
        },
    );

    for i in 0..g.nodes.len() {
        let n = &g.nodes[i];
        // Fn-level audit usage: the allow on the def line is live iff it
        // actually stops something (the fn would otherwise carry taint).
        if n.info.audited_g1 && t1.would_reach[i].is_some() {
            used.push((n.file.clone(), n.info.line, RuleId::G1));
        }
        if n.info.audited_g2 && t2.would_reach[i].is_some() {
            used.push((n.file.clone(), n.info.line, RuleId::G2));
        }

        if !is_entry(g, i, &vis.mod_pub, &vis.type_pub) {
            continue;
        }
        if !n.info.audited_g1 {
            if t1.reach[i].is_some() {
                let witness = witness_path(g, &t1, i);
                findings.push(Finding {
                    file: n.file.clone(),
                    line: n.info.line,
                    col: n.info.col,
                    rule: RuleId::G1,
                    message: format!(
                        "public API `{}` can reach a panic: {}",
                        n.id,
                        witness.join(" -> ")
                    ),
                    witness,
                });
            }
        }
        if !n.info.audited_g2 {
            if t2.reach[i].is_some() {
                let witness = witness_path(g, &t2, i);
                findings.push(Finding {
                    file: n.file.clone(),
                    line: n.info.line,
                    col: n.info.col,
                    rule: RuleId::G2,
                    message: format!(
                        "public API `{}` transitively reads ambient nondeterminism: {}",
                        n.id,
                        witness.join(" -> ")
                    ),
                    witness,
                });
            }
        }
    }

    (findings, used)
}
