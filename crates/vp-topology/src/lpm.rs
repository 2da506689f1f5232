//! Arena-packed, path-compressed longest-prefix-match trie.
//!
//! The origin table of a million-block world holds hundreds of thousands
//! of announced prefixes. The plain binary trie in [`vp_net::trie`] mints
//! one arena node *per bit* of every inserted prefix — fine at workshop
//! scale, but a /24-heavy table costs ~24 nodes per prefix. This variant
//! path-compresses: each node stores up to 32 bits of the path on its
//! incoming edge, so chains of single-child nodes collapse into one, and
//! node count is bounded by `2·prefixes` regardless of prefix length.
//! Values live in their own arena (`Vec<T>`), keeping the node array a
//! homogeneous 16-byte-per-node column.
//!
//! Correctness is proved two ways: unit tests on the split edge cases, and
//! property tests checking that insert/longest-match agrees with a naive
//! linear scan over arbitrary prefix sets and that every arena child index
//! stays in bounds (the g1 contract the `allow` markers below assert).

use vp_net::{Ipv4Addr, Prefix};

const NONE: u32 = u32::MAX;

/// One trie node. The edge *into* this node (from its parent's branch bit)
/// carries `edge_len` extra path bits, left-aligned in `edge_bits`.
#[derive(Debug, Clone)]
struct Node {
    /// Compressed path bits, left-aligned; low `32 - edge_len` bits zero.
    edge_bits: u32,
    edge_len: u8,
    children: [u32; 2],
    /// Index into the value arena, or `NONE`.
    value: u32,
}

impl Node {
    fn new(edge_bits: u32, edge_len: u8) -> Node {
        Node {
            edge_bits,
            edge_len,
            children: [NONE, NONE],
            value: NONE,
        }
    }
}

/// A map from [`Prefix`] to `T` with longest-prefix-match lookup, nodes in
/// a flat arena and values in a second one.
#[derive(Debug, Clone)]
pub struct ArenaLpm<T> {
    nodes: Vec<Node>,
    values: Vec<T>,
    len: usize,
}

/// Bit `i` (0 = most significant) of `addr`.
fn bit(addr: u32, i: u8) -> usize {
    ((addr >> (31 - i)) & 1) as usize
}

/// Bits `start..start + len` of `addr`, left-aligned; zero when `len == 0`.
fn left_bits(addr: u32, start: u8, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        (addr << start) & (u32::MAX << (32 - len))
    }
}

/// Length of the common left-aligned prefix of `a` and `b`, capped.
fn common_len(a: u32, b: u32, cap: u8) -> u8 {
    (((a ^ b).leading_zeros()) as u8).min(cap)
}

impl<T> Default for ArenaLpm<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ArenaLpm<T> {
    /// Creates an empty table.
    pub fn new() -> ArenaLpm<T> {
        ArenaLpm {
            nodes: vec![Node::new(0, 0)],
            values: Vec::new(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of arena nodes — exposed so tests can assert the
    /// path-compression bound (`nodes ≤ 2·prefixes + 1`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn place(&mut self, node: usize, value: T) -> Option<T> {
        let slot = self.nodes[node].value; // vp-lint: allow(g1): node indices are minted by push (or split) and the arena never shrinks.
        if slot == NONE {
            self.nodes[node].value = self.values.len() as u32; // vp-lint: allow(g1): same arena contract as above.
            self.values.push(value);
            self.len += 1;
            None
        } else {
            Some(std::mem::replace(
                &mut self.values[slot as usize], // vp-lint: allow(g1): value slots are minted by push and the value arena never shrinks.
                value,
            ))
        }
    }

    /// Inserts `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    // vp-lint: allow(g1): arena indexing throughout — child indices are minted by push and nodes never shrink, so every stored index is in bounds.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let addr = prefix.addr().0;
        let plen = prefix.len();
        let mut node = 0usize;
        let mut depth: u8 = 0; // bits of `addr` consumed so far
        loop {
            if depth == plen {
                return self.place(node, value);
            }
            let b = bit(addr, depth);
            let child = self.nodes[node].children[b];
            if child == NONE {
                // Fresh leaf carrying all remaining bits on its edge.
                let edge_len = plen - depth - 1;
                let leaf = Node::new(left_bits(addr, depth + 1, edge_len), edge_len);
                let idx = self.nodes.len() as u32;
                self.nodes.push(leaf);
                self.nodes[node].children[b] = idx;
                return self.place(idx as usize, value);
            }
            let child = child as usize;
            let c_len = self.nodes[child].edge_len;
            let c_bits = self.nodes[child].edge_bits;
            let have = plen - depth - 1; // prefix bits left after the branch bit
            let common = common_len(c_bits, left_bits(addr, depth + 1, c_len), c_len.min(have));
            if common == c_len {
                // Whole edge matches; descend.
                node = child;
                depth += 1 + c_len;
                continue;
            }
            // The edge diverges (or the prefix ends) after `common` bits:
            // split it. `mid` takes the first `common` bits; the old child
            // keeps the remainder past its new branch bit.
            let mid_idx = self.nodes.len() as u32;
            let mut mid = Node::new(left_bits(c_bits, 0, common), common);
            let old_branch = bit(c_bits, common);
            mid.children[old_branch] = child as u32;
            self.nodes.push(mid);
            let tail_len = c_len - common - 1;
            self.nodes[child].edge_bits = left_bits(c_bits, common + 1, tail_len);
            self.nodes[child].edge_len = tail_len;
            self.nodes[node].children[b] = mid_idx;
            let consumed = depth + 1 + common;
            if consumed == plen {
                // The prefix ends exactly at the split point.
                return self.place(mid_idx as usize, value);
            }
            // Remaining prefix bits branch the *other* way at the split
            // (same way would have extended `common`).
            let nb = bit(addr, consumed);
            debug_assert_ne!(nb, old_branch, "split bit must diverge");
            let leaf_len = plen - consumed - 1;
            let leaf = Node::new(left_bits(addr, consumed + 1, leaf_len), leaf_len);
            let leaf_idx = self.nodes.len() as u32;
            self.nodes.push(leaf);
            self.nodes[mid_idx as usize].children[nb] = leaf_idx;
            return self.place(leaf_idx as usize, value);
        }
    }

    /// Longest-prefix-match lookup: the most specific stored prefix
    /// containing `ip`, with its value.
    // vp-lint: allow(g1): arena indexing — child and value indices are minted by push and the arenas never shrink.
    pub fn longest_match(&self, ip: Ipv4Addr) -> Option<(Prefix, &T)> {
        let addr = ip.0;
        let mut node = 0usize;
        let mut depth: u8 = 0;
        let mut best: Option<(u8, u32)> = None;
        loop {
            let v = self.nodes[node].value;
            if v != NONE {
                best = Some((depth, v));
            }
            if depth >= 32 {
                break;
            }
            let b = bit(addr, depth);
            let child = self.nodes[node].children[b];
            if child == NONE {
                break;
            }
            let child = child as usize;
            let c_len = self.nodes[child].edge_len;
            if u32::from(depth) + 1 + u32::from(c_len) > 32
                || left_bits(addr, depth + 1, c_len) != self.nodes[child].edge_bits
            {
                break;
            }
            node = child;
            depth += 1 + c_len;
        }
        best.map(|(len, v)| {
            // vp-lint: allow(h2): depth never exceeds 32 (checked before descending).
            let p = Prefix::new(ip, len).expect("len <= 32");
            (p, &self.values[v as usize])
        })
    }

    /// Exact-match lookup of `prefix`.
    // vp-lint: allow(g1): arena indexing — child and value indices are minted by push and the arenas never shrink.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let addr = prefix.addr().0;
        let plen = prefix.len();
        let mut node = 0usize;
        let mut depth: u8 = 0;
        while depth < plen {
            let b = bit(addr, depth);
            let child = self.nodes[node].children[b];
            if child == NONE {
                return None;
            }
            let child = child as usize;
            let c_len = self.nodes[child].edge_len;
            if depth + 1 + c_len > plen
                || left_bits(addr, depth + 1, c_len) != self.nodes[child].edge_bits
            {
                return None;
            }
            node = child;
            depth += 1 + c_len;
        }
        let v = self.nodes[node].value;
        (v != NONE).then(|| &self.values[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_matches_nothing() {
        let t: ArenaLpm<u32> = ArenaLpm::new();
        assert!(t.is_empty());
        assert!(t.longest_match(ip("1.2.3.4")).is_none());
        assert!(t.get(p("0.0.0.0/0")).is_none());
    }

    #[test]
    fn insert_get_and_replace() {
        let mut t = ArenaLpm::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/16"), 2), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(p("10.0.0.0/16")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/12")), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 9), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&9));
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut t = ArenaLpm::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        let (mp, v) = t.longest_match(ip("10.1.2.3")).unwrap();
        assert_eq!((*v, mp.len()), (24, 24));
        let (mp, v) = t.longest_match(ip("10.1.9.1")).unwrap();
        assert_eq!((*v, mp.len()), (16, 16));
        let (mp, v) = t.longest_match(ip("10.200.0.1")).unwrap();
        assert_eq!((*v, mp.len()), (8, 8));
        let (mp, v) = t.longest_match(ip("192.0.2.1")).unwrap();
        assert_eq!((*v, mp.len()), (0, 0));
    }

    #[test]
    fn split_mid_edge_both_ways() {
        let mut t = ArenaLpm::new();
        // One long edge, then a prefix ending mid-edge, then one diverging.
        t.insert(p("10.1.2.0/24"), 'a');
        t.insert(p("10.1.0.0/16"), 'b'); // ends inside the /24's edge
        t.insert(p("10.1.3.0/24"), 'c'); // diverges one bit off the /24
        assert_eq!(t.get(p("10.1.2.0/24")), Some(&'a'));
        assert_eq!(t.get(p("10.1.0.0/16")), Some(&'b'));
        assert_eq!(t.get(p("10.1.3.0/24")), Some(&'c'));
        assert_eq!(t.longest_match(ip("10.1.3.9")).map(|(_, v)| *v), Some('c'));
        assert_eq!(t.longest_match(ip("10.1.7.9")).map(|(_, v)| *v), Some('b'));
        assert!(t.longest_match(ip("10.2.0.1")).is_none());
    }

    #[test]
    fn host_route_and_one_past_boundary() {
        let mut t = ArenaLpm::new();
        t.insert(p("192.0.2.7/32"), 7);
        t.insert(p("172.16.0.0/12"), 12);
        let (mp, v) = t.longest_match(ip("192.0.2.7")).unwrap();
        assert_eq!((mp.len(), *v), (32, 7));
        assert!(t.longest_match(ip("192.0.2.8")).is_none());
        assert!(t.longest_match(ip("172.32.0.0")).is_none());
        assert!(t.longest_match(ip("172.16.5.5")).is_some());
    }

    #[test]
    fn path_compression_bounds_node_count() {
        let mut t = ArenaLpm::new();
        // 256 random-ish /24s under one /8: the bit trie would mint ~24
        // nodes per prefix; the compressed one at most 2 per prefix + root.
        for i in 0..256u32 {
            let a = Ipv4Addr((10 << 24) | (i.wrapping_mul(2654435761) & 0x00ff_ff00));
            if let Ok(pre) = Prefix::new(a, 24) {
                t.insert(pre, i);
            }
        }
        assert!(t.node_count() <= 2 * t.len() + 1, "{} nodes for {} prefixes", t.node_count(), t.len());
    }

    /// Naive reference: scan all prefixes, keep the longest that covers.
    fn naive_lpm<'a>(table: &'a [(Prefix, u32)], ip: Ipv4Addr) -> Option<(u8, &'a u32)> {
        table
            .iter()
            .filter(|(pre, _)| pre.contains(ip))
            .max_by_key(|(pre, _)| pre.len())
            .map(|(pre, v)| (pre.len(), v))
    }

    /// Strategy: arbitrary prefixes biased toward shared high bits so
    /// splits and nesting actually happen.
    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32, any::<bool>()).prop_map(|(addr, len, cluster)| {
            let addr = if cluster { addr & 0x0a0f_ffff | 0x0a00_0000 } else { addr };
            Prefix::new(Ipv4Addr(addr & Prefix::mask(len)), len).expect("len <= 32")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// insert + longest_match agrees with the naive linear scan on
        /// arbitrary prefix sets and arbitrary query addresses.
        #[test]
        fn lpm_agrees_with_naive_scan(
            prefixes in prop::collection::vec(arb_prefix(), 0..48),
            queries in prop::collection::vec(any::<u32>(), 0..32),
        ) {
            // Last-wins table semantics, like repeated insert.
            let mut t = ArenaLpm::new();
            let mut table: Vec<(Prefix, u32)> = Vec::new();
            for (i, pre) in prefixes.iter().enumerate() {
                t.insert(*pre, i as u32);
                table.retain(|(q, _)| q != pre);
                table.push((*pre, i as u32));
            }
            prop_assert_eq!(t.len(), table.len());
            // Every inserted prefix is exactly retrievable.
            for (pre, v) in &table {
                prop_assert_eq!(t.get(*pre), Some(v));
            }
            // Cluster half the queries where the prefixes are.
            for (qi, q) in queries.iter().enumerate() {
                let addr = if qi % 2 == 0 { q & 0x0a0f_ffff | 0x0a00_0000 } else { *q };
                let ipq = Ipv4Addr(addr);
                let got = t.longest_match(ipq).map(|(pre, v)| (pre.len(), v));
                prop_assert_eq!(got, naive_lpm(&table, ipq), "query {}", ipq);
            }
        }

        /// Arena child indices always stay in bounds and the node count
        /// respects the path-compression bound — the g1 contract.
        #[test]
        fn arena_indices_in_bounds(
            prefixes in prop::collection::vec(arb_prefix(), 0..48),
        ) {
            let mut t = ArenaLpm::new();
            for (i, pre) in prefixes.iter().enumerate() {
                t.insert(*pre, i);
            }
            let n = t.nodes.len();
            for node in &t.nodes {
                for &c in &node.children {
                    prop_assert!(c == NONE || (c as usize) < n, "child {} of {}", c, n);
                }
                prop_assert!(
                    node.value == NONE || (node.value as usize) < t.values.len()
                );
                // Edge bits are left-aligned: no stray low bits.
                prop_assert_eq!(node.edge_bits & !left_bits(node.edge_bits, 0, node.edge_len), 0);
            }
            prop_assert!(t.node_count() <= 2 * t.len() + 1 + 1);
        }
    }
}
