//! Pseudorandom probe-order permutations.
//!
//! Verfploeter sends one ICMP Echo Request to each hitlist entry "in a
//! pseudorandom order (following [Heidemann et al., IMC 2008]) ... to spread
//! traffic, limiting traffic to any given network to avoid rate limits and
//! abuse complaints" (§3.1). These types produce such an order as a
//! *permutation of indexes* `0..n`, so a probing run needs no shuffle buffer
//! and can be resumed from any position.
//!
//! Two implementations:
//!
//! * [`FeistelPermutation`] — a 4-round Feistel network over the smallest
//!   even-bit-width domain covering `n`, with cycle-walking to stay in
//!   `0..n`. This is the production choice: neighbouring inputs map to
//!   scattered outputs, so consecutive probes hit unrelated networks.
//! * [`LcgPermutation`] — a full-period linear-congruential walk. Cheaper,
//!   but consecutive outputs differ by a fixed stride, which concentrates
//!   probe bursts in arithmetic progressions of the address space. Kept as
//!   the baseline for the probe-ordering ablation bench.

/// A deterministic bijection on `0..len()` used to order probes.
pub trait ProbeOrder {
    /// Domain size.
    fn len(&self) -> u64;

    /// True when the domain is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position assigned to index `i`. Must be a bijection on
    /// `0..self.len()`. Panics if `i >= len()`.
    fn permute(&self, i: u64) -> u64;

    /// Iterates the permuted order: `permute(0), permute(1), ...`.
    fn order(&self) -> Box<dyn Iterator<Item = u64> + '_>
    where
        Self: Sized,
    {
        Box::new((0..self.len()).map(move |i| self.permute(i)))
    }
}

/// A 4-round Feistel permutation with cycle-walking, uniform for any `n`.
#[derive(Debug, Clone)]
pub struct FeistelPermutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl FeistelPermutation {
    /// Builds the permutation for domain `0..n` keyed by `seed`.
    ///
    /// `n == 0` yields an empty permutation.
    pub fn new(n: u64, seed: u64) -> Self {
        // Smallest even bit width 2h with 2^(2h) >= n, h >= 1.
        let bits = 64 - n.saturating_sub(1).leading_zeros().min(63);
        let half_bits = bits.div_ceil(2).max(1);
        // Derive round keys from the seed with splitmix64.
        let mut s = seed;
        let mut keys = [0u64; 4];
        for k in keys.iter_mut() {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *k = z ^ (z >> 31);
        }
        FeistelPermutation { n, half_bits, keys }
    }

    fn round(&self, right: u64, key: u64) -> u64 {
        // A small mixing function; only the low `half_bits` of the output
        // are used.
        let mut z = right ^ key;
        z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^= z >> 33;
        z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^= z >> 29;
        z
    }

    /// One pass of the Feistel network over the `2 * half_bits` domain.
    fn encrypt_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for &key in &self.keys {
            let next = left ^ (self.round(right, key) & mask);
            left = right;
            right = next;
        }
        (left << self.half_bits) | right
    }
}

impl ProbeOrder for FeistelPermutation {
    fn len(&self) -> u64 {
        self.n
    }

    fn permute(&self, i: u64) -> u64 {
        assert!(i < self.n, "index {i} out of domain 0..{}", self.n);
        // Cycle-walk: the Feistel network permutes the full power-of-two
        // domain; re-encrypt until we land back inside 0..n. Expected walk
        // length is < 4 because the domain is at most 4x larger than n.
        let mut x = self.encrypt_once(i);
        while x >= self.n {
            x = self.encrypt_once(x);
        }
        x
    }
}

/// A full-period linear-congruential permutation (ablation baseline).
///
/// Uses `x -> (a*x + c) mod m` with `m` the smallest power of two `>= n`
/// and Hull–Dobell-satisfying `a, c`, cycle-walked into `0..n`. Consecutive
/// outputs are strongly correlated — this is exactly the deficiency the
/// ablation bench demonstrates.
#[derive(Debug, Clone)]
pub struct LcgPermutation {
    n: u64,
    m: u64,
    a: u64,
    c: u64,
}

impl LcgPermutation {
    /// Builds the permutation for domain `0..n` keyed by `seed`.
    pub fn new(n: u64, seed: u64) -> Self {
        let m = n.max(2).next_power_of_two();
        // Hull–Dobell for power-of-two modulus: a ≡ 1 (mod 4), c odd.
        let a = ((seed.wrapping_mul(0x9e37_79b9) % m) & !3).wrapping_add(1) % m.max(4);
        let a = if a <= 1 { 5 % m } else { a };
        let c = (seed | 1) % m;
        LcgPermutation { n, m, a, c }
    }

    fn step(&self, x: u64) -> u64 {
        (x.wrapping_mul(self.a).wrapping_add(self.c)) & (self.m - 1)
    }
}

impl ProbeOrder for LcgPermutation {
    fn len(&self) -> u64 {
        self.n
    }

    fn permute(&self, i: u64) -> u64 {
        assert!(i < self.n, "index {i} out of domain 0..{}", self.n);
        let mut x = self.step(i);
        while x >= self.n {
            x = self.step(x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn assert_bijection(p: &dyn ProbeOrder) {
        let n = p.len();
        let seen: BTreeSet<u64> = (0..n).map(|i| p.permute(i)).collect();
        assert_eq!(seen.len() as u64, n, "not a bijection for n={n}");
        assert!(seen.iter().all(|&x| x < n), "output out of domain");
    }

    #[test]
    fn feistel_is_bijection_awkward_sizes() {
        for n in [1u64, 2, 3, 5, 16, 17, 255, 256, 257, 1000, 4096, 5000] {
            assert_bijection(&FeistelPermutation::new(n, 42));
        }
    }

    #[test]
    fn lcg_is_bijection_awkward_sizes() {
        for n in [1u64, 2, 3, 5, 16, 17, 255, 256, 257, 1000, 4096, 5000] {
            assert_bijection(&LcgPermutation::new(n, 42));
        }
    }

    #[test]
    fn feistel_differs_by_seed() {
        let a = FeistelPermutation::new(1000, 1);
        let b = FeistelPermutation::new(1000, 2);
        let same = (0..1000).filter(|&i| a.permute(i) == b.permute(i)).count();
        // Different keys should agree only about 1/1000 of the time.
        assert!(same < 50, "permutations nearly identical: {same} matches");
    }

    #[test]
    fn feistel_is_deterministic() {
        let a = FeistelPermutation::new(1 << 20, 7);
        let b = FeistelPermutation::new(1 << 20, 7);
        for i in (0..1u64 << 20).step_by(100_000) {
            assert_eq!(a.permute(i), b.permute(i));
        }
    }

    #[test]
    fn feistel_scatters_consecutive_indexes() {
        // The abuse-avoidance property: consecutive probe positions should
        // land far apart. Measure mean absolute gap of consecutive outputs;
        // for a random permutation it's ~n/3.
        let n = 100_000u64;
        let p = FeistelPermutation::new(n, 3);
        let mut sum = 0u64;
        let mut prev = p.permute(0);
        for i in 1..10_000 {
            let cur = p.permute(i);
            sum += cur.abs_diff(prev);
            prev = cur;
        }
        let mean = sum / 9_999;
        assert!(
            mean > n / 10,
            "consecutive outputs too close together: mean gap {mean}"
        );
    }

    #[test]
    fn order_iterator_covers_domain() {
        let p = FeistelPermutation::new(513, 9);
        let all: BTreeSet<u64> = p.order().collect();
        assert_eq!(all.len(), 513);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn permute_out_of_domain_panics() {
        FeistelPermutation::new(10, 0).permute(10);
    }

    #[test]
    fn empty_domain() {
        let p = FeistelPermutation::new(0, 0);
        assert!(p.is_empty());
        assert_eq!(p.order().count(), 0);
    }
}
