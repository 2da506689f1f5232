//! The drift diff engine: what changed between consecutive catchment maps.
//!
//! Public by path: the benchmark harness imports `vp_monitor::diff::Origins`.
//!
//! Holds the paper's §6.3 round classification (stable / flipped /
//! to-NR / from-NR — the Fig. 9 taxonomy, which `fig9_stability`
//! reports from here) and extends it with the
//! operator-facing signals the alert evaluator consumes: per-round flip
//! rate, site load-share deltas, coverage changes, and per-AS flip
//! attribution (Table 7's view, computed incrementally).
//!
//! Everything is integer arithmetic in permille, so diffs — and the
//! documents built from them — are byte-stable across platforms.

use std::collections::BTreeMap;

use verfploeter::CatchmentMap;
use vp_net::Joined;
use vp_net::{Asn, BlockColumn};

/// Block → origin AS, from the `origins.json` sidecar the fig9 snapshot
/// writer emits. Without it, per-AS flip attribution is empty.
pub type Origins = BlockColumn<Asn>;

/// Everything that changed between one round and the next; it renders as
/// one entry of a drift document's `rounds` and as the daemon status's
/// `current`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundDiff {
    /// 1-based: diff of `rounds[round]` against `rounds[round - 1]`.
    pub round: u32,
    /// Name of the previous round's map, rendered as `"prev"`.
    pub prev: String,
    /// Name of the current round's map, rendered as `"cur"`.
    pub cur: String,
    /// Fig. 9 taxonomy over the previous round's responders.
    pub stable: u64,
    pub flipped: u64,
    pub to_nr: u64,
    pub from_nr: u64,
    /// Responding blocks per round.
    pub prev_blocks: u64,
    pub cur_blocks: u64,
    /// `(cur - prev) * 1000 / prev`; negative = coverage shrank.
    pub coverage_delta_permille: i64,
    /// `flipped * 1000 / (stable + flipped)` — flips per continuing
    /// responder.
    pub flip_rate_permille: u64,
    /// Load share of each site in the current round, in permille of all
    /// responding blocks (keyed by raw `SiteId`).
    pub site_shares_permille: BTreeMap<u8, u64>,
    /// Max over sites of `|cur_share - prev_share|` (permille).
    pub max_share_delta_permille: u64,
    /// Flips attributed to the flipping block's origin AS (empty without
    /// an origins sidecar).
    pub flips_by_as: BTreeMap<u32, u64>,
}
serde_json::impl_serialize! { RoundDiff {
    round, prev, cur, stable, flipped, to_nr, from_nr, prev_blocks, cur_blocks,
    coverage_delta_permille, flip_rate_permille, site_shares_permille, max_share_delta_permille,
    flips_by_as,
} }

fn site_shares(map: &CatchmentMap) -> BTreeMap<u8, u64> {
    let total = map.len() as u64;
    map.site_counts()
        .into_iter()
        .map(|(site, n)| (site.0, (n as u64) * 1000 / total.max(1)))
        .collect()
}

/// Diffs one consecutive round pair. `round` is the 1-based index of
/// `cur` in the sequence.
pub fn diff_rounds(
    prev: &CatchmentMap,
    cur: &CatchmentMap,
    round: u32,
    origins: Option<&Origins>,
) -> RoundDiff {
    let (mut stable, mut flipped, mut to_nr, mut from_nr) = (0u64, 0u64, 0u64, 0u64);
    let mut flips_by_as: BTreeMap<u32, u64> = BTreeMap::new();
    for row in prev.join(cur) {
        match row {
            Joined::Both(_, was, now) if was == now => stable += 1,
            Joined::Both(block, ..) => {
                flipped += 1;
                if let Some(asn) = origins.and_then(|o| o.get(block)) {
                    *flips_by_as.entry(asn.0).or_insert(0) += 1;
                }
            }
            Joined::Left(..) => to_nr += 1,
            Joined::Right(..) => from_nr += 1,
        }
    }

    let prev_blocks = prev.len() as u64;
    let cur_blocks = cur.len() as u64;
    let coverage_delta_permille =
        (cur_blocks as i64 - prev_blocks as i64) * 1000 / (prev_blocks.max(1) as i64);
    let flip_rate_permille = flipped * 1000 / (stable + flipped).max(1);

    let prev_shares = site_shares(prev);
    let cur_shares = site_shares(cur);
    let mut max_share_delta_permille = 0u64;
    for site in prev_shares.keys().chain(cur_shares.keys()) {
        let p = prev_shares.get(site).copied().unwrap_or(0);
        let c = cur_shares.get(site).copied().unwrap_or(0);
        max_share_delta_permille = max_share_delta_permille.max(p.abs_diff(c));
    }

    RoundDiff {
        round,
        prev: prev.name.clone(),
        cur: cur.name.clone(),
        stable,
        flipped,
        to_nr,
        from_nr,
        prev_blocks,
        cur_blocks,
        coverage_delta_permille,
        flip_rate_permille,
        site_shares_permille: cur_shares,
        max_share_delta_permille,
        flips_by_as,
    }
}

/// Diffs each round of `maps` against the one before, numbering rounds
/// from 1 and attributing no flips (the Fig. 9 series).
pub fn diff_series(maps: &[CatchmentMap]) -> Vec<RoundDiff> {
    let pairs = maps.iter().zip(maps.iter().skip(1)).zip(1..);
    pairs.map(|((prev, cur), round)| diff_rounds(prev, cur, round, None)).collect()
}

/// Mergeable drift statistics over a window of rounds.
///
/// Obeys the workspace merge-algebra contract (`SimStats`, `Registry`,
/// `CatchmentMap`): [`DriftSummary::merge`] is associative and commutative
/// with [`DriftSummary::default`] as the identity — counts and per-AS maps
/// sum, extrema fold by max — so per-window summaries fold in any grouping
/// to the same totals (`tests/proptests.rs` proves it). It renders as the
/// `summary` of the drift and daemon status documents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriftSummary {
    /// Round transitions summarized.
    pub rounds: u64,
    pub stable: u64,
    pub flipped: u64,
    pub to_nr: u64,
    pub from_nr: u64,
    /// Worst single round, for each alert signal.
    pub max_flipped: u64,
    pub max_flip_rate_permille: u64,
    /// Largest single-round coverage *drop* (permille, ≥ 0).
    pub max_coverage_drop_permille: u64,
    pub max_share_delta_permille: u64,
    /// Total flips per origin AS across the window.
    pub flips_by_as: BTreeMap<u32, u64>,
}
serde_json::impl_serialize! { DriftSummary {
    rounds, stable, flipped, to_nr, from_nr, max_flipped, max_flip_rate_permille,
    max_coverage_drop_permille, max_share_delta_permille, flips_by_as,
} }

impl DriftSummary {
    /// The summary of a single round transition.
    pub fn from_diff(d: &RoundDiff) -> DriftSummary {
        DriftSummary {
            rounds: 1,
            stable: d.stable,
            flipped: d.flipped,
            to_nr: d.to_nr,
            from_nr: d.from_nr,
            max_flipped: d.flipped,
            max_flip_rate_permille: d.flip_rate_permille,
            max_coverage_drop_permille: (-d.coverage_delta_permille).max(0) as u64,
            max_share_delta_permille: d.max_share_delta_permille,
            flips_by_as: d.flips_by_as.clone(),
        }
    }

    /// Folds `other` in: counts and per-AS flips sum, extrema take the
    /// max. Associative and commutative with the empty summary as
    /// identity.
    pub fn merge(&mut self, other: &DriftSummary) {
        self.rounds += other.rounds;
        self.stable += other.stable;
        self.flipped += other.flipped;
        self.to_nr += other.to_nr;
        self.from_nr += other.from_nr;
        self.max_flipped = self.max_flipped.max(other.max_flipped);
        self.max_flip_rate_permille = self
            .max_flip_rate_permille
            .max(other.max_flip_rate_permille);
        self.max_coverage_drop_permille = self
            .max_coverage_drop_permille
            .max(other.max_coverage_drop_permille);
        self.max_share_delta_permille = self
            .max_share_delta_permille
            .max(other.max_share_delta_permille);
        for (asn, flips) in &other.flips_by_as {
            *self.flips_by_as.entry(*asn).or_insert(0) += flips;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_bgp::SiteId;
    use vp_net::Block24;

    fn map(name: &str, pairs: &[(u32, u8)]) -> CatchmentMap {
        CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))))
    }

    #[test]
    fn diff_matches_fig9_taxonomy() {
        let r0 = map("r0", &[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let r1 = map("r1", &[(1, 0), (2, 1), (4, 1), (5, 0)]);
        let d = diff_rounds(&r0, &r1, 1, None);
        // Blocks 1 and 4 stay, 2 flips, 3 goes silent, 5 starts answering.
        assert_eq!((d.stable, d.flipped, d.to_nr, d.from_nr), (2, 1, 1, 1));
        // A partition of the previous round: stable + flipped + to-NR.
        assert_eq!(d.stable + d.flipped + d.to_nr, r0.len() as u64);
        // 1 flip among 3 continuing responders.
        assert_eq!(d.flip_rate_permille, 333);
        assert_eq!(d.prev_blocks, 4);
        assert_eq!(d.cur_blocks, 4);
        assert_eq!(d.coverage_delta_permille, 0);
    }

    #[test]
    fn share_deltas_and_coverage() {
        // r0: site0 has 750‰, site1 250‰; r1: site0 500‰, site1 500‰, and
        // coverage halves.
        let r0 = map("r0", &[(1, 0), (2, 0), (3, 0), (4, 1)]);
        let r1 = map("r1", &[(1, 0), (4, 1)]);
        let d = diff_rounds(&r0, &r1, 1, None);
        assert_eq!(d.site_shares_permille[&0], 500);
        assert_eq!(d.site_shares_permille[&1], 500);
        assert_eq!(d.max_share_delta_permille, 250);
        assert_eq!(d.coverage_delta_permille, -500);
        let sum = DriftSummary::from_diff(&d);
        assert_eq!(sum.max_coverage_drop_permille, 500);
    }

    #[test]
    fn flips_attribute_to_origin_as() {
        let r0 = map("r0", &[(1, 0), (2, 0)]);
        let r1 = map("r1", &[(1, 1), (2, 1)]);
        let origins: Origins = [(Block24(1), Asn(64500)), (Block24(2), Asn(64501))]
            .into_iter()
            .collect();
        let d = diff_rounds(&r0, &r1, 1, Some(&origins));
        assert_eq!(d.flips_by_as[&64500], 1);
        assert_eq!(d.flips_by_as[&64501], 1);
        // Without origins the attribution is empty but counts are intact.
        let bare = diff_rounds(&r0, &r1, 1, None);
        assert!(bare.flips_by_as.is_empty());
        assert_eq!(bare.flipped, 2);
    }

    #[test]
    fn summary_accumulates_sums_and_extrema() {
        let rounds = [
            map("r0", &[(1, 0), (2, 0), (3, 0), (4, 0)]),
            map("r1", &[(1, 1), (2, 0), (3, 0), (4, 0)]),
            map("r2", &[(1, 0), (2, 1), (3, 1), (4, 0)]),
        ];
        let diffs = diff_series(&rounds);
        let mut sum = DriftSummary::default();
        for d in &diffs {
            sum.merge(&DriftSummary::from_diff(d));
        }
        assert_eq!(sum.rounds, 2);
        assert_eq!(sum.flipped, 1 + 3);
        assert_eq!(sum.max_flipped, 3);
        assert_eq!(sum.stable, 3 + 1);
        // Folding from empty == pairwise merge in either order.
        let mut left = DriftSummary::from_diff(&diffs[0]);
        left.merge(&DriftSummary::from_diff(&diffs[1]));
        assert_eq!(left, sum);
        let mut right = DriftSummary::from_diff(&diffs[1]);
        right.merge(&DriftSummary::from_diff(&diffs[0]));
        assert_eq!(right, sum);
    }
}
