//! Query-log generation.

use serde::Serialize;
use vp_geo::Continent;
use vp_net::{mix, unit, Block24};
use vp_topology::{BlockInfo, Internet};

/// Parameters of the load model.
#[derive(Debug, Clone, Serialize)]
pub struct LoadModel {
    /// Seed for all deterministic noise.
    pub seed: u64,
    /// Amplitude of the diurnal curve (0 = flat, 1 = full swing).
    pub diurnal_amplitude: f64,
    /// Mean fraction of queries that get a "good" (non-NXDOMAIN) reply.
    /// Root traffic is dominated by junk queries, "first observed in 1992
    /// and still true today" (§3.2).
    pub good_reply_frac_mean: f64,
    /// Fraction of replies suppressed by response rate limiting.
    pub rrl_drop_frac: f64,
    /// Relative noise applied per (block, hour).
    pub hourly_noise: f64,
    /// Fraction of the world's traffic-sending blocks this particular
    /// service hears from (1.0 = all of them). Which blocks send queries
    /// at all is a world property (`BlockInfo::sends_queries`): most hosts
    /// reach the DNS root through their ISP's recursive resolver in
    /// another block.
    pub participation: f64,
}

impl Default for LoadModel {
    fn default() -> Self {
        LoadModel {
            seed: 0xd17,
            diurnal_amplitude: 0.45,
            good_reply_frac_mean: 0.35,
            rrl_drop_frac: 0.05,
            hourly_noise: 0.10,
            participation: 1.0,
        }
    }
}

/// A day of per-block query volumes for one service.
///
/// Indexed by the world's block index; hourly rates are computed on demand
/// from the daily weight, the block's longitude (diurnal phase) and
/// deterministic noise, so a log over a million blocks is cheap to hold.
#[derive(Debug, Clone)]
pub struct QueryLog<'w> {
    world: &'w Internet,
    model: LoadModel,
    /// Daily queries per block (parallel to `world.blocks`).
    daily: Vec<f64>,
    /// Dataset tag, e.g. "LB-5-15".
    pub name: String,
}

impl<'w> QueryLog<'w> {
    /// The DITL-style log of a root-like service: every block contributes
    /// its world load weight.
    pub fn ditl(world: &'w Internet, model: LoadModel, name: &str) -> QueryLog<'w> {
        let daily = world
            .blocks
            .iter()
            .map(|b| {
                if b.sends_queries
                    && unit(mix(model.seed ^ 0x9a67, b.block.0 as u64)) < model.participation
                {
                    b.daily_queries
                } else {
                    0.0
                }
            })
            .collect();
        QueryLog {
            world,
            model,
            daily,
            name: name.to_owned(),
        }
    }

    /// A regionally skewed service log (the `.nl` analog): blocks in
    /// `home_country` keep full weight, the rest of its continent is
    /// down-weighted, other continents heavily down-weighted.
    ///
    /// # Panics
    /// Panics if `home_country_code` is not in the static country table.
    #[expect(
        clippy::expect_used,
        reason = "documented contract - callers pass codes from the static table."
    )]
    pub fn regional(
        world: &'w Internet,
        model: LoadModel,
        name: &str,
        home_country_code: &str,
    ) -> QueryLog<'w> {
        let (home, home_info) =
            vp_geo::world::country_by_code(home_country_code).expect("known country code");
        let home_continent = home_info.continent;
        let daily = world
            .blocks
            .iter()
            .map(|b| {
                let weight = match world.geodb.locate(b.block) {
                    Some(loc) if loc.country == home => 1.0,
                    Some(loc) => {
                        let c = loc.country.get().continent;
                        if c == home_continent {
                            0.12
                        } else if c == Continent::NorthAmerica {
                            0.05
                        } else {
                            0.01
                        }
                    }
                    None => 0.01,
                };
                if b.sends_queries
                    && unit(mix(model.seed ^ 0x9a67, b.block.0 as u64)) < model.participation
                {
                    b.daily_queries * weight
                } else {
                    0.0
                }
            })
            .collect();
        QueryLog {
            world,
            model,
            daily,
            name: name.to_owned(),
        }
    }

    /// A drifted copy of this log for a different collection date: each
    /// block's volume is scaled by date-keyed noise (±~30%), modelling the
    /// April → May load shift behind Table 6's long-duration prediction
    /// error.
    pub fn with_date(&self, date_seed: u64, name: &str) -> QueryLog<'w> {
        let daily = self
            .per_block()
            .map(|(b, d)| {
                let u = unit(mix(date_seed, b.block.0 as u64));
                d * (0.7 + 0.6 * u)
            })
            .collect();
        QueryLog {
            world: self.world,
            model: self.model.clone(),
            daily,
            name: name.to_owned(),
        }
    }

    /// The world this log covers.
    pub fn world(&self) -> &'w Internet {
        self.world
    }

    /// Every block of the world with its daily queries, in block order.
    pub fn per_block(&self) -> impl Iterator<Item = (&'w BlockInfo, f64)> + '_ {
        self.world.blocks.iter().zip(self.daily.iter().copied())
    }

    /// Daily queries from a block (0 for unpopulated blocks).
    pub fn daily(&self, block: Block24) -> f64 {
        self.world
            .block_id(block)
            .and_then(|i| self.daily.get(i as usize).copied())
            .unwrap_or(0.0)
    }

    /// Queries during UTC hour `hour` (0..24) from `block`, whose daily
    /// volume is `daily` (as [`QueryLog::per_block`] yields it).
    ///
    /// The diurnal curve peaks at 20:00 local time (evening usage), with
    /// local time derived from the block's longitude; deterministic noise
    /// is added per (block, hour). The curve averages to 1 over the day, so
    /// hourly values sum to ≈ the daily volume.
    pub fn hourly(&self, block: &BlockInfo, daily: f64, hour: u32) -> f64 {
        assert!(hour < 24, "hour {hour} out of range");
        let lon = self
            .world
            .geodb
            .locate(block.block)
            .map_or(0.0, |loc| loc.lon);
        let local = (hour as f64 + lon / 15.0).rem_euclid(24.0);
        let phase = (local - 20.0) / 24.0 * std::f64::consts::TAU;
        let diurnal = 1.0 + self.model.diurnal_amplitude * phase.cos();
        let noise = 1.0
            + self.model.hourly_noise
                * (2.0 * unit(mix(self.model.seed ^ 0x40d, (block.block.0 as u64) << 5 | hour as u64))
                    - 1.0);
        (daily / 24.0) * diurnal * noise
    }

    /// Total queries over the day.
    pub fn total_daily(&self) -> f64 {
        self.daily.iter().sum()
    }

    /// Average queries per second over the day.
    pub fn queries_per_sec(&self) -> f64 {
        self.total_daily() / 86_400.0
    }

    /// Fraction of this block's queries that receive a good reply.
    pub fn good_reply_frac(&self, block: Block24) -> f64 {
        let m = self.model.good_reply_frac_mean;
        let jitter = 0.5 * m * (2.0 * unit(mix(self.model.seed ^ 0x60d, block.0 as u64)) - 1.0);
        (m + jitter).clamp(0.0, 1.0)
    }

    /// Fraction of this block's queries that receive any reply (RRL may
    /// suppress some).
    pub fn reply_frac(&self, _block: Block24) -> f64 {
        1.0 - self.model.rrl_drop_frac
    }

    /// Daily good replies across the whole log.
    pub fn total_good_replies(&self) -> f64 {
        self.per_block()
            .map(|(b, d)| d * self.good_reply_frac(b.block))
            .sum()
    }

    /// Daily replies of any kind across the whole log.
    pub fn total_replies(&self) -> f64 {
        self.per_block()
            .map(|(b, d)| d * self.reply_frac(b.block))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_topology::TopologyConfig;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(23))
    }

    #[test]
    fn ditl_weights_come_from_participating_blocks() {
        let w = world();
        let model = LoadModel::default();
        let log = QueryLog::ditl(&w, model.clone(), "LB-TEST");
        // Exactly the world's traffic-sending blocks contribute (the model's
        // participation factor defaults to 1.0 = all of them).
        for (b, d) in log.per_block() {
            if b.sends_queries {
                assert!((d - b.daily_queries).abs() < 1e-9);
            } else {
                assert_eq!(d, 0.0);
            }
        }
        let active = w.blocks.iter().filter(|b| b.sends_queries).count();
        let frac = active as f64 / w.blocks.len() as f64;
        assert!(
            (frac - w.config.participation).abs() < 0.05,
            "participation {frac:.3}"
        );
        assert!(log.total_daily() > 0.0);
        assert!(log.total_daily() < w.total_daily_queries());
        assert!(log.queries_per_sec() > 0.0);
        assert_eq!(log.name, "LB-TEST");
    }

    #[test]
    fn hourly_sums_to_daily_within_noise() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "x");
        for (b, expect) in log.per_block().step_by(97) {
            let day: f64 = (0..24).map(|h| log.hourly(b, expect, h)).sum();
            if expect > 0.0 {
                let rel = (day - expect).abs() / expect;
                assert!(
                    rel < 0.12,
                    "block {:?}: hourly sum off by {rel:.3}",
                    b.block
                );
            }
        }
    }

    #[test]
    fn diurnal_curve_varies_by_hour() {
        let w = world();
        let model = LoadModel {
            hourly_noise: 0.0,
            ..LoadModel::default()
        };
        let log = QueryLog::ditl(&w, model, "x");
        let (b, daily) = log.per_block().find(|&(_, d)| d > 0.0).unwrap();
        let rates: Vec<f64> = (0..24).map(|h| log.hourly(b, daily, h)).collect();
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "diurnal swing too flat: {min}..{max}");
    }

    #[test]
    fn regional_concentrates_at_home() {
        let w = world();
        let model = LoadModel::default();
        let nl = QueryLog::regional(&w, model.clone(), "LN-TEST", "NL");
        let global = QueryLog::ditl(&w, model, "LB-TEST");
        // Home-country share must be much larger in the regional log.
        let share = |log: &QueryLog, code: &str| {
            let (cid, _) = vp_geo::world::country_by_code(code).unwrap();
            let mut home = 0.0;
            let mut total = 0.0;
            for (b, d) in log.per_block() {
                total += d;
                if w.geodb.locate(b.block).map(|l| l.country) == Some(cid) {
                    home += d;
                }
            }
            home / total
        };
        let nl_share_regional = share(&nl, "NL");
        let nl_share_global = share(&global, "NL");
        assert!(
            nl_share_regional > 3.0 * nl_share_global,
            "regional {nl_share_regional:.3} vs global {nl_share_global:.3}"
        );
    }

    #[test]
    fn date_drift_changes_volumes_but_not_wildly() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "april");
        let may = log.with_date(0x0515, "may");
        let (a, b) = (log.total_daily(), may.total_daily());
        assert!(a != b);
        assert!((a - b).abs() / a < 0.25, "drift too large: {a} -> {b}");
        // Per-block drift exists on participating blocks; zeros stay zero.
        let pairs: Vec<(f64, f64)> = log
            .per_block()
            .zip(may.per_block())
            .map(|((_, a), (_, b))| (a, b))
            .collect();
        let active = pairs.iter().filter(|&&(a, _)| a > 0.0).count();
        let changed = pairs
            .iter()
            .filter(|&&(a, b)| a > 0.0 && (a - b).abs() > 1e-12)
            .count();
        assert!(changed > active / 2);
        for (a, b) in pairs {
            if a == 0.0 {
                assert_eq!(b, 0.0);
            }
        }
    }

    #[test]
    fn reply_classes_are_fractions_of_queries() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "x");
        let q = log.total_daily();
        let good = log.total_good_replies();
        let all = log.total_replies();
        assert!(good < all && all < q, "expected good < all < queries; {good} {all} {q}");
        for b in w.blocks.iter().take(50) {
            let g = log.good_reply_frac(b.block);
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hour_out_of_range_panics() {
        let w = world();
        let log = QueryLog::ditl(&w, LoadModel::default(), "x");
        log.hourly(&w.blocks[0], 1.0, 24);
    }
}
