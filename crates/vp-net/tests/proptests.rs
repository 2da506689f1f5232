//! Property-based tests for the vp-net primitives.

use proptest::prelude::*;
use vp_net::{Block24, FeistelPermutation, Ipv4Addr, LcgPermutation, Prefix, ProbeOrder};

proptest! {
    /// Display/parse roundtrip for addresses.
    #[test]
    fn addr_display_parse_roundtrip(v in any::<u32>()) {
        let a = Ipv4Addr(v);
        let parsed: Ipv4Addr = a.to_string().parse().unwrap();
        prop_assert_eq!(parsed, a);
    }

    /// Display/parse roundtrip for prefixes.
    #[test]
    fn prefix_display_parse_roundtrip(v in any::<u32>(), len in 0u8..=32) {
        let p = Prefix::new(Ipv4Addr(v), len).unwrap();
        let parsed: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    /// A prefix contains exactly the addresses sharing its masked bits.
    #[test]
    fn prefix_contains_matches_mask(v in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let p = Prefix::new(Ipv4Addr(v), len).unwrap();
        let expected = (probe & Prefix::mask(len)) == p.addr().0;
        prop_assert_eq!(p.contains(Ipv4Addr(probe)), expected);
    }

    /// Both halves of a prefix are covered by it, are disjoint, and
    /// together cover every block the parent covers.
    #[test]
    fn prefix_halves_partition(v in any::<u32>(), len in 0u8..=23) {
        let p = Prefix::new(Ipv4Addr(v), len).unwrap();
        let (lo, hi) = p.halves().unwrap();
        prop_assert!(p.covers(lo) && p.covers(hi));
        prop_assert!(!lo.covers(hi) && !hi.covers(lo));
        prop_assert_eq!(lo.block_count() + hi.block_count(), p.block_count());
    }

    /// Every block yielded by `blocks()` is inside the prefix.
    #[test]
    fn prefix_blocks_are_contained(v in any::<u32>(), len in 8u8..=24) {
        let p = Prefix::new(Ipv4Addr(v), len).unwrap();
        let blocks: Vec<Block24> = p.blocks().collect();
        prop_assert_eq!(blocks.len() as u32, p.block_count());
        for b in blocks {
            prop_assert!(p.contains(b.network()));
            prop_assert!(p.covers(b.prefix()));
        }
    }

    /// Feistel permutations are bijections on arbitrary domains.
    #[test]
    fn feistel_bijection(n in 1u64..5000, seed in any::<u64>()) {
        let p = FeistelPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let x = p.permute(i);
            prop_assert!(x < n);
            prop_assert!(!seen[x as usize], "duplicate output {}", x);
            seen[x as usize] = true;
        }
    }

    /// LCG permutations are bijections on arbitrary domains.
    #[test]
    fn lcg_bijection(n in 1u64..5000, seed in any::<u64>()) {
        let p = LcgPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let x = p.permute(i);
            prop_assert!(x < n);
            prop_assert!(!seen[x as usize], "duplicate output {}", x);
            seen[x as usize] = true;
        }
    }
}
