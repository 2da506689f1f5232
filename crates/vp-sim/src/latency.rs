//! Propagation-delay model.

use vp_geo::{distance_km, MAX_DISTANCE_KM};
use vp_net::SimDuration;

/// Distance-proportional latency with a processing floor and deterministic
/// jitter.
///
/// One-way delay = `base + distance / (0.66 c) + jitter`, the usual
/// fiber-path approximation (~200 km per ms), with jitter up to
/// `jitter_frac` of the distance term keyed by a per-packet hash.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Fixed per-hop processing/serialization floor.
    pub base: SimDuration,
    /// Propagation speed in km per millisecond.
    pub km_per_ms: f64,
    /// Maximum jitter as a fraction of the propagation term.
    pub jitter_frac: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base: SimDuration::from_millis(2),
            km_per_ms: 200.0,
            jitter_frac: 0.25,
        }
    }
}

impl LatencyModel {
    /// One-way delay between two coordinates; `jitter_key` selects the
    /// deterministic jitter sample.
    pub fn delay(&self, from: (f64, f64), to: (f64, f64), jitter_key: u64) -> SimDuration {
        let d = distance_km(from.0, from.1, to.0, to.1);
        let jitter_unit = (hash(jitter_key) >> 11) as f64 / (1u64 << 53) as f64;
        self.over(d, jitter_unit)
    }

    /// No [`LatencyModel::delay`] is longer: the delay over half the
    /// circumference at full jitter, a nanosecond up for rounding. (A NaN
    /// distance — the haversine of out-of-range coordinates — costs only
    /// `base`.) Every delay is therefore in `[base, max_delay()]`, which
    /// is what lets the engine tell that one arrival cannot be later than
    /// another without computing either.
    pub fn max_delay(&self) -> SimDuration {
        self.over(MAX_DISTANCE_KM, 1.0) + SimDuration(1)
    }

    /// Delay over `d` km with `jitter_unit` (in `[0, 1]`) of the maximum
    /// jitter: monotone in both.
    fn over(&self, d: f64, jitter_unit: f64) -> SimDuration {
        let prop_ms = d / self.km_per_ms;
        let jitter_ms = prop_ms * self.jitter_frac * jitter_unit;
        self.base + SimDuration::from_secs_f64((prop_ms + jitter_ms) / 1e3)
    }
}

fn hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_has_base_delay() {
        let m = LatencyModel::default();
        let d = m.delay((52.0, 5.0), (52.0, 5.0), 1);
        assert_eq!(d, m.base);
    }

    #[test]
    fn transatlantic_delay_is_tens_of_ms() {
        let m = LatencyModel::default();
        // Amsterdam -> Los Angeles, ~8900 km -> ~45ms + jitter + base.
        let d = m.delay((52.3, 4.9), (34.05, -118.25), 7);
        let ms = d.as_millis();
        assert!((40..90).contains(&ms), "delay {ms}ms");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = LatencyModel::default();
        let a = m.delay((0.0, 0.0), (10.0, 10.0), 42);
        let b = m.delay((0.0, 0.0), (10.0, 10.0), 42);
        assert_eq!(a, b);
        let no_jitter = LatencyModel {
            jitter_frac: 0.0,
            ..LatencyModel::default()
        }
        .delay((0.0, 0.0), (10.0, 10.0), 42);
        assert!(a >= no_jitter);
        let max = SimDuration(no_jitter.0 + (no_jitter.0 - m.base.0) / 4 + 1);
        assert!(a <= max, "jitter exceeds bound: {a} > {max}");
    }

    #[test]
    fn longer_distance_longer_delay() {
        let m = LatencyModel {
            jitter_frac: 0.0,
            ..LatencyModel::default()
        };
        let near = m.delay((0.0, 0.0), (1.0, 1.0), 0);
        let far = m.delay((0.0, 0.0), (50.0, 50.0), 0);
        assert!(far > near);
    }
}
