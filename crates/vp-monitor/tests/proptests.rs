//! Merge-algebra proptests for [`vp_monitor::DriftSummary`]: associative,
//! commutative, empty identity — the same contract `SimStats` and
//! `Registry` carry, and the property that makes windowed drift summaries
//! fold to the same totals however monitoring windows are grouped.

use std::collections::BTreeMap;

use proptest::prelude::*;
use verfploeter::CatchmentMap;
use vp_bgp::SiteId;
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::{diff_rounds, DriftSummary, Origins, RoundDiff};
use vp_monitor::stream::{DriftTracker, TAIL};
use vp_net::{Asn, Block24};

/// A generated drift summary over a closed AS set so merges collide on
/// keys.
fn summary_strategy() -> impl Strategy<Value = DriftSummary> {
    let asn_flip = (0u32..4, 1u64..50);
    (
        (0u64..20, 0u64..500, 0u64..50, 0u64..20), // rounds/stable/flipped/to_nr
        (0u64..20, 0u64..50, 0u64..1000, 0u64..1000), // from_nr/max_flipped/rate/cover
        (0u64..1000, prop::collection::vec(asn_flip, 0..5)),
    )
        .prop_map(
            |((rounds, stable, flipped, to_nr), (from_nr, maxf, rate, cover), (share, flips))| {
                let mut s = DriftSummary {
                    rounds,
                    stable,
                    flipped,
                    to_nr,
                    from_nr,
                    max_flipped: maxf,
                    max_flip_rate_permille: rate,
                    max_coverage_drop_permille: cover,
                    max_share_delta_permille: share,
                    ..DriftSummary::default()
                };
                for (asn, n) in flips {
                    *s.flips_by_as.entry(64500 + asn).or_insert(0) += n;
                }
                s
            },
        )
}

/// A short random round sequence over a small block/site universe, so
/// flips, coverage changes and share moves all actually occur.
fn rounds_strategy() -> impl Strategy<Value = Vec<CatchmentMap>> {
    let round = prop::collection::vec((0u32..8, 0u8..3), 1..8);
    prop::collection::vec(round, 2..6).prop_map(|rounds| {
        rounds
            .into_iter()
            .enumerate()
            .map(|(i, pairs)| {
                CatchmentMap::from_pairs(
                    &format!("r{i}"),
                    pairs.into_iter().map(|(b, s)| (Block24(b), SiteId(s))),
                )
            })
            .collect()
    })
}

// merge-tested(DriftSummary::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drift_summary_merge_is_associative_and_commutative(
        a in summary_strategy(),
        b in summary_strategy(),
        c in summary_strategy(),
    ) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    #[test]
    fn drift_summary_merge_empty_identity(a in summary_strategy()) {
        let mut left = DriftSummary::default();
        left.merge(&a);
        prop_assert_eq!(&left, &a);
        let mut right = a.clone();
        right.merge(&DriftSummary::default());
        prop_assert_eq!(&right, &a);
    }

    /// Splitting a real diff sequence at any point and merging the two
    /// window summaries equals summarizing the whole window at once.
    #[test]
    fn windowed_summaries_fold_like_the_whole(
        rounds in rounds_strategy(),
        split in 0usize..8,
    ) {
        let mut tracker = DriftTracker::new(AlertConfig::default(), 1, None);
        for r in &rounds {
            tracker.observe_round(r.clone(), None);
        }
        let diffs: Vec<RoundDiff> = tracker.diffs().iter().cloned().collect();
        let summarize = |window: &[RoundDiff]| {
            let mut sum = DriftSummary::default();
            for d in window {
                sum.merge(&DriftSummary::from_diff(d));
            }
            sum
        };
        let cut = split.min(diffs.len());
        let mut folded = summarize(&diffs[..cut]);
        folded.merge(&summarize(&diffs[cut..]));
        prop_assert_eq!(&folded, tracker.summary());
        // The taxonomy partitions every previous round's responders.
        for d in &diffs {
            prop_assert_eq!(d.stable + d.flipped + d.to_nr, d.prev_blocks);
        }
    }
}

/// Origins for the proptest block universe, so per-AS flip attribution is
/// exercised on both the batch and streaming paths.
fn origins_fixture() -> Origins {
    (0u32..8).map(|b| (Block24(b), Asn(64500 + b))).collect()
}

/// An aggressive config so short generated sequences actually fire and
/// clear alerts (the default trigger/clear windows rarely complete in
/// 2-6 rounds).
fn twitchy_config() -> AlertConfig {
    AlertConfig {
        flip_rate_permille: 100,
        share_delta_permille: 100,
        coverage_drop_permille: 100,
        trigger_rounds: 1,
        clear_rounds: 1,
        duration_baseline_rounds: 2,
        ..AlertConfig::default()
    }
}

/// `diff_rounds` as it was before the merge-join: a binary search into
/// the other map for every block of either, kept as the independent
/// formulation of the taxonomy and the per-AS attribution.
fn searched_counts(
    prev: &CatchmentMap,
    cur: &CatchmentMap,
    origins: &Origins,
) -> (u64, u64, u64, u64, BTreeMap<u32, u64>) {
    let (mut stable, mut flipped, mut to_nr) = (0, 0, 0);
    let mut flips_by_as = BTreeMap::new();
    for (block, site) in prev.iter() {
        match cur.site_of(block) {
            Some(s) if s == site => stable += 1,
            Some(_) => {
                flipped += 1;
                if let Some(asn) = origins.get(block) {
                    *flips_by_as.entry(asn.0).or_insert(0) += 1;
                }
            }
            None => to_nr += 1,
        }
    }
    let from_nr = cur
        .iter()
        .filter(|(b, _)| prev.site_of(*b).is_none())
        .count() as u64;
    (stable, flipped, to_nr, from_nr, flips_by_as)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random map pairs with flips, appearances and disappearances: the
    /// join counts what the searches counted, attribution included (half
    /// the block universe has an origin, half has none).
    #[test]
    fn merge_join_diff_equals_the_binary_search_formulation(
        prev in prop::collection::vec((0u32..40, 0u8..4), 0..40),
        cur in prop::collection::vec((0u32..40, 0u8..4), 0..40),
    ) {
        let build = |name: &str, pairs: Vec<(u32, u8)>| {
            CatchmentMap::from_pairs(name, pairs.into_iter().map(|(b, s)| (Block24(b), SiteId(s))))
        };
        let (prev, cur) = (build("prev", prev), build("cur", cur));
        let origins: Origins = (0u32..20).map(|b| (Block24(b), Asn(64500 + b % 3))).collect();
        let d = diff_rounds(&prev, &cur, 1, Some(&origins));
        let (stable, flipped, to_nr, from_nr, flips_by_as) = searched_counts(&prev, &cur, &origins);
        prop_assert_eq!((d.stable, d.flipped, d.to_nr, d.from_nr), (stable, flipped, to_nr, from_nr));
        prop_assert_eq!(d.flips_by_as, flips_by_as);
        let (flips, appeared, disappeared) = prev.diff(&cur);
        prop_assert_eq!((flips as u64, appeared as u64, disappeared as u64), (flipped, from_nr, to_nr));
    }
}

/// Rounds of the four blocks `0..4`, each at site 0, 1 or 2 or (3) not
/// responding. About half the rounds repeat the one before, so alerts
/// fire on a change and clear on the calm after it, and a long stream
/// clears more alerts than the tail keeps.
fn four_block_rounds(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<CatchmentMap>> {
    let round = (any::<bool>(), prop::collection::vec(0u8..4, 4..5));
    prop::collection::vec(round, len).prop_map(|rounds| {
        let mut sites = Vec::new();
        let mut maps = Vec::new();
        for (i, (repeat, fresh)) in rounds.into_iter().enumerate() {
            if !repeat || sites.is_empty() {
                sites = fresh;
            }
            let pairs = (0u32..).zip(sites.iter().copied()).filter(|&(_, s)| s < 3);
            let pairs = pairs.map(|(b, s)| (Block24(b), SiteId(s)));
            maps.push(CatchmentMap::from_pairs(&format!("r{i}"), pairs));
        }
        maps
    })
}

/// The newest `TAIL` of `items`.
fn newest<T: Clone>(items: &[T]) -> Vec<T> {
    items[items.len().saturating_sub(TAIL)..].to_vec()
}

/// The windowed-split fold: cutting the stream at `cut`, running the tail
/// through a second tracker resuming there (it re-ingests the boundary
/// round as its baseline), then concatenating diffs and merging summaries
/// and windows equals the whole-stream tracker — whose diffs are the
/// newest `TAIL` of the concatenation, numbered by rounds ingested. The
/// whole tracker's cleared alerts are the newest `TAIL` of every clear its
/// steps narrated.
fn assert_split_folds(rounds: &[CatchmentMap], cut: usize) {
    let origins = origins_fixture();
    let config = twitchy_config();
    let width = 3usize;

    let mut whole = DriftTracker::new(config.clone(), width, Some(origins.clone()));
    let mut cleared = Vec::new();
    for r in rounds {
        let step = whole.observe_round(r.clone(), None);
        for t in &step.transitions {
            if let Some((_, rule)) = t.split_once(": ") {
                if let Some((rule, _)) = rule.split_once(" cleared ") {
                    let round = step.diff.as_ref().expect("a transition has a diff").round;
                    cleared.push((round, rule.to_owned()));
                }
            }
        }
    }

    let cut = cut.min(rounds.len() - 1).max(1);
    let mut head = DriftTracker::new(config.clone(), width, Some(origins.clone()));
    for r in &rounds[..cut] {
        head.observe_round(r.clone(), None);
    }
    let mut tail = DriftTracker::with_start_round(config, width, Some(origins), cut as u32 - 1);
    for r in &rounds[cut - 1..] {
        tail.observe_round(r.clone(), None);
    }

    // Diffs concatenate with global round numbers intact.
    let diffs: Vec<RoundDiff> = head.diffs().iter().chain(tail.diffs()).cloned().collect();
    prop_assert_eq!(*whole.diffs(), newest(&diffs));
    for (tracker, start) in [(&whole, 0), (&head, 0), (&tail, cut as u64 - 1)] {
        let ingested = tracker.rounds_ingested();
        let last = tracker.last_diff().map(|d| u64::from(d.round));
        prop_assert_eq!(last, (ingested > 1).then(|| start + ingested - 1));
    }

    // Summaries and rolling windows merge to the whole-stream state.
    let mut summary = head.summary().clone();
    summary.merge(tail.summary());
    prop_assert_eq!(&summary, whole.summary());

    let mut flip = head.flip_window().clone();
    flip.merge(tail.flip_window());
    prop_assert_eq!(&flip, whole.flip_window());
    let mut skew = head.skew_window().clone();
    skew.merge(tail.skew_window());
    prop_assert_eq!(&skew, whole.skew_window());
    let mut coverage = head.coverage_window().clone();
    coverage.merge(tail.coverage_window());
    prop_assert_eq!(&coverage, whole.coverage_window());

    // The evaluator keeps the newest cleared alerts, in the order they
    // cleared; the snapshot sorts them by when they fired.
    let mut kept: Vec<_> = whole
        .alerts_snapshot()
        .into_iter()
        .filter_map(|a| Some((a.cleared_round?, a.rule)))
        .collect();
    let mut want = newest(&cleared);
    kept.sort();
    want.sort();
    prop_assert_eq!(kept, want);
}

// The batch pipeline is a fold over the DriftTracker, so streaming equals
// batch by construction; what remains to prove is that a stream can be
// cut and resumed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_split_fold_matches_whole(
        rounds in rounds_strategy(),
        split in 1usize..6,
    ) {
        assert_split_folds(&rounds, split);
    }

    /// Streams longer than the tail, cut anywhere: the tail drops the
    /// oldest diffs, transitions and cleared alerts, never a fold.
    #[test]
    fn streaming_split_fold_crosses_the_tail(
        rounds in four_block_rounds(90..200),
        split in 1usize..200,
    ) {
        assert_split_folds(&rounds, split);
    }
}
