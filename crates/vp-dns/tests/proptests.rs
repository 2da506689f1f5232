//! Property-based tests of the load substrate.

use proptest::prelude::*;
use vp_dns::{LoadModel, QueryLog, Rssac002Report};
use vp_topology::{Internet, TopologyConfig};

fn world(seed: u64) -> Internet {
    Internet::generate(TopologyConfig {
        seed,
        num_ases: 80,
        num_tier1: 4,
        max_blocks: 1200,
        max_prefixes_per_as: 20,
        max_blocks_per_prefix: 16,
        ..TopologyConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hourly rates are non-negative and integrate to the daily volume
    /// within the configured noise.
    #[test]
    fn hourly_integral_matches_daily(world_seed in 0u64..3000, model_seed in any::<u64>()) {
        let w = world(world_seed);
        let model = LoadModel { seed: model_seed, ..LoadModel::default() };
        let log = QueryLog::ditl(&w, model, "L");
        for (b, daily) in log.per_block().step_by(31) {
            let sum: f64 = (0..24).map(|h| {
                let v = log.hourly(b, daily, h);
                assert!(v >= 0.0 && v.is_finite());
                v
            }).sum();
            if daily > 0.0 {
                prop_assert!((sum - daily).abs() / daily < 0.15, "block {:?}: {sum} vs {daily}", b.block);
            } else {
                prop_assert_eq!(sum, 0.0);
            }
        }
    }

    /// Date drift preserves the zero/non-zero participation pattern and
    /// stays within the documented ±30% per block.
    #[test]
    fn date_drift_bounded(world_seed in 0u64..3000, date_seed in any::<u64>()) {
        let w = world(world_seed);
        let log = QueryLog::ditl(&w, LoadModel::default(), "a");
        let drifted = log.with_date(date_seed, "b");
        for ((_, a), (_, b)) in log.per_block().zip(drifted.per_block()) {
            if a == 0.0 {
                prop_assert_eq!(b, 0.0);
            } else {
                let ratio = b / a;
                prop_assert!((0.69..=1.31).contains(&ratio), "ratio {ratio}");
            }
        }
    }

    /// Reply classes are ordered: good <= all replies <= queries, for any
    /// model parameters in range.
    #[test]
    fn reply_class_ordering(
        world_seed in 0u64..3000,
        good in 0.05f64..0.9,
        rrl in 0.0f64..0.3,
    ) {
        let w = world(world_seed);
        let model = LoadModel {
            good_reply_frac_mean: good,
            rrl_drop_frac: rrl,
            ..LoadModel::default()
        };
        let log = QueryLog::ditl(&w, model, "L");
        let q = log.total_daily();
        prop_assert!(log.total_replies() <= q + 1e-9);
        for b in w.blocks.iter().take(64) {
            let g = log.good_reply_frac(b.block);
            prop_assert!((0.0..=1.0).contains(&g));
            prop_assert!(log.reply_frac(b.block) <= 1.0);
        }
    }

    /// RSSAC reports partition the log under any block-to-site assignment.
    #[test]
    fn rssac_partitions(world_seed in 0u64..3000, sites in 1u8..9) {
        let w = world(world_seed);
        let log = QueryLog::ditl(&w, LoadModel::default(), "L");
        let report = Rssac002Report::build(&log, |b| Some((b.0 % sites as u32) as u8));
        prop_assert!((report.totals().queries - log.total_daily()).abs() < 1e-6);
        let share: f64 = (0..sites).map(|s| report.query_share(s)).sum();
        if log.total_daily() > 0.0 {
            prop_assert!((share - 1.0).abs() < 1e-9);
        }
    }
}
