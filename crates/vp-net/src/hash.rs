//! The workspace's one keyed hash.
//!
//! Every stochastic decision in the pipeline — fault draws, routing
//! tie-breaks, hitlist staleness, query-load noise — is `mix(seed ^ tag,
//! key)` mapped to the unit interval, a pure function of *what* is being
//! decided. The determinism contract (DESIGN.md §7) rests on every crate
//! computing the same function, so it is defined here once.

/// The splitmix64 finaliser over `seed ^ x·φ`: a keyed 64-bit hash.
#[inline]
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)` using its top 53 bits.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed vectors: goldens, fault draws and routing tie-breaks all
    /// change if a constant here drifts.
    #[test]
    fn fixed_vectors() {
        assert_eq!(mix(0, 0), 0);
        assert_eq!(mix(0, 1), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(0x5eed, 42), 0x0372_366a_ca28_b4a3);
        assert_eq!(mix(u64::MAX, u64::MAX), 0xe4d9_7177_1b65_2c20);
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(1 << 63), 0.5);
        assert_eq!(unit(u64::MAX), 1.0 - f64::EPSILON / 2.0);
    }
}
