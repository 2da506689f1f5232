//! `vp-lint:` comment directives.
//!
//! Two forms are recognised anywhere in a comment:
//!
//! * `vp-lint: allow(<rule>[, <rule>]*): <justification>` — suppresses the
//!   listed rules on the annotated line. A trailing comment annotates its
//!   own line; a comment alone on a line annotates the next line. The
//!   justification is mandatory: an allow without one is itself a finding.
//! * `vp-lint: merge-tested(<Type::merge>[, suite=<file-stem>])` — declares
//!   that the named `pub fn merge` has a commutativity/associativity test
//!   (rule D3). The optional `suite=` names the test file (by stem, e.g.
//!   `suite=columnar_equivalence` for `tests/columnar_equivalence.rs`) that
//!   proves the algebra; rule D3 verifies the named file actually exists in
//!   the scanned set, so a marker cannot point at a deleted or misspelled
//!   suite and still discharge the obligation.
//!
//! Anything else after a `vp-lint:` marker is a malformed directive and is
//! reported (unsuppressibly) so typos cannot silently disable a rule.

use crate::lexer::Comment;
use crate::rules::RuleId;

/// A parsed suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the directive comment itself starts on.
    pub line: usize,
    /// 1-based line the suppression applies to.
    pub applies_to: usize,
    pub rules: Vec<RuleId>,
}

/// A parsed `merge-tested(...)` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeMarker {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// Qualified merge name the marker vouches for, e.g.
    /// `CatchmentMap::merge` (or the bare `merge` wildcard).
    pub name: String,
    /// Stem of the test file claimed to prove the algebra
    /// (`suite=<file-stem>`), when declared.
    pub suite: Option<String>,
}

/// Directives extracted from one file's comments.
#[derive(Debug, Clone, Default)]
pub struct Directives {
    pub allows: Vec<Allow>,
    /// `merge-tested(...)` markers, e.g. `CatchmentMap::merge`.
    pub merge_markers: Vec<MergeMarker>,
    /// Malformed directives: (line, explanation).
    pub malformed: Vec<(usize, String)>,
}

impl Directives {
    /// Whether `rule` is suppressed on `line`.
    pub fn allows_on(&self, rule: RuleId, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.applies_to == line && a.rules.contains(&rule))
    }
}

const MARKER: &str = "vp-lint";

/// Parses all directives out of a file's comments.
///
/// Only comments that *start* with `vp-lint` are directives — prose that
/// mentions the syntax mid-sentence (documentation, this file) is ignored.
/// A leading `vp-lint` without the colon is still reported as malformed so
/// a typo cannot silently disable a rule.
pub fn parse(comments: &[Comment]) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        let Some(after_marker) = c.text.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let Some(rest) = after_marker.strip_prefix(':').map(str::trim_start) else {
            out.malformed
                .push((c.line, "vp-lint directive is missing its `:`".into()));
            continue;
        };
        if let Some(args) = rest.strip_prefix("allow") {
            match parse_allow(args) {
                Ok(rules) => out.allows.push(Allow {
                    line: c.line,
                    applies_to: if c.trailing { c.line } else { c.line + 1 },
                    rules,
                }),
                Err(why) => out.malformed.push((c.line, why)),
            }
        } else if let Some(args) = rest.strip_prefix("merge-tested") {
            match parse_paren(args).map(|inner| parse_merge_marker(inner, c.line)) {
                Some(Ok(marker)) => out.merge_markers.push(marker),
                Some(Err(why)) => out.malformed.push((c.line, why)),
                None => out.malformed.push((
                    c.line,
                    "merge-tested needs a (Type::merge[, suite=<file-stem>]) argument".into(),
                )),
            }
        } else {
            out.malformed.push((
                c.line,
                format!(
                    "unknown vp-lint directive `{}` (expected allow(...) or \
                     merge-tested(...))",
                    rest.split_whitespace().next().unwrap_or("")
                ),
            ));
        }
    }
    out
}

/// Parses the `Type::merge[, suite=<file-stem>]` payload of a
/// `merge-tested` directive. Unknown arguments are malformed — a typo like
/// `suit=` must not silently become part of the merge name.
fn parse_merge_marker(inner: &str, line: usize) -> Result<MergeMarker, String> {
    let mut parts = inner.split(',').map(str::trim);
    let name = parts.next().unwrap_or("");
    if name.is_empty() {
        return Err("merge-tested needs a (Type::merge[, suite=<file-stem>]) argument".into());
    }
    let mut suite = None;
    for p in parts {
        let Some(v) = p.strip_prefix("suite=") else {
            return Err(format!(
                "unknown merge-tested argument `{p}` (expected suite=<file-stem>)"
            ));
        };
        let v = v.trim();
        if v.is_empty() {
            return Err("merge-tested suite= needs a test file stem".into());
        }
        if suite.replace(v.to_string()).is_some() {
            return Err("merge-tested takes at most one suite= argument".into());
        }
    }
    Ok(MergeMarker {
        line,
        name: name.to_string(),
        suite,
    })
}

/// Extracts the content of a leading `( ... )` group, if present.
fn parse_paren(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let inner = s.strip_prefix('(')?;
    let end = inner.find(')')?;
    Some(&inner[..end])
}

/// Parses `( rule[, rule]* ): justification`.
fn parse_allow(args: &str) -> Result<Vec<RuleId>, String> {
    let args_trimmed = args.trim_start();
    let Some(inner) = parse_paren(args_trimmed) else {
        return Err("allow needs a (rule, ...) list".into());
    };
    let mut rules = Vec::new();
    for part in inner.split(',') {
        let name = part.trim();
        match RuleId::from_name(name) {
            Some(r) => rules.push(r),
            None => return Err(format!("unknown rule `{name}` in allow(...)")),
        }
    }
    if rules.is_empty() {
        return Err("allow(...) lists no rules".into());
    }
    // The justification: everything after the closing paren, introduced by
    // a colon, must be non-empty.
    let after = match args_trimmed.find(')') {
        Some(i) => args_trimmed[i + 1..].trim_start(),
        None => "",
    };
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err("allow(...) needs a `: <one-line justification>`".into());
    }
    Ok(rules)
}
