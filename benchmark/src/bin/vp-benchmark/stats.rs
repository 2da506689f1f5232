//! Order statistics for timing samples: medians, the tail-percentile rule
//! and the quartile spread the regression bounds are judged against.

/// Sorted copy of `xs` (NaNs cannot occur: every sample is a clock delta).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0.0 for an empty slice (an absent layer reads as zero).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fast-decile estimate of a per-round cost: the 10th percentile
/// (nearest rank; the minimum below eleven samples), 0.0 for an empty
/// slice.
///
/// On a shared host, neighbours slow whole stretches of a run by tens of
/// percent, and the median of the rounds moves with how long those
/// stretches were. The fast decile needs only a tenth of the rounds to run
/// undisturbed, so it repeats from run to run where the median does not —
/// and a change to the code moves every round, the fast ones included.
pub fn fast_decile(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(xs, 10.0)
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when the sample is too small to say anything about its tail
/// (always below 20 samples, where only the median itself would qualify).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        // Whole-sample arithmetic (basis points) so 1% of 1000 is exactly 10.
        .find(|p| samples as u64 * (10_000 - (p * 100.0).round() as u64) >= 10 * 10_000)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(xs, n=4)`
/// gives (the "exclusive" method) — the same spread the benchmark's
/// acceptance check computes. `None` below two samples.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        // Clamped to the end intervals, where Python extrapolates too.
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    (m != 0.0).then(|| (quartile(3) - quartile(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1500), Some(99.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(240), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn no_tail_is_reported_for_small_samples() {
        for n in [0, 1, 5, 7, 10, 19, 20, 39] {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
    }

    #[test]
    fn median_and_percentile_use_order_not_position() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.5), 1.0);
    }

    #[test]
    fn fast_decile_is_the_tenth_percentile_and_the_minimum_of_a_few() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&xs), 10.0);
        assert_eq!(fast_decile(&[7.0, 5.0, 9.0, 6.0, 8.0]), 5.0);
        assert_eq!(fast_decile(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&xs).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[1.0, 2.0]).expect("two samples");
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]).expect("five samples");
        assert!((s - 3.5 / 3.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
