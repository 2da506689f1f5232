//! The per-AS policy facts: which ASes ignore prepending, and which use
//! their slack routes locally.
//!
//! Route selection and every model of it must agree on these two facts,
//! so they are stated once, here. Both are pure functions of their
//! arguments: an AS's policy never depends on the order ASes are routed in.

use vp_net::{mix, unit, Asn};

/// Whether `asn` is one of the `fraction` of ASes that "choose to ignore
/// prepending" (§6.1): it selects among its strict and slack routes alike
/// (slack: one hop longer than its best), and uses its slack routes
/// locally. Keyed by `(policy_seed ^ 0x1971, asn)`.
pub fn ignores_prepending(policy_seed: u64, fraction: f64, asn: Asn) -> bool {
    unit(mix(policy_seed ^ 0x1971, u64::from(asn.0))) < fraction
}

/// Whether an AS with `pops` PoPs egresses over its slack routes as well
/// as its strict ones: multi-PoP ASes do (hot-potato from each PoP, the
/// big-AS splits of Figs. 7 and 8), and so do prepend-ignoring ASes.
/// Slack routes are never re-advertised, whatever this says.
pub fn uses_slack_locally(pops: usize, ignores_prepending: bool) -> bool {
    pops >= 2 || ignores_prepending
}
