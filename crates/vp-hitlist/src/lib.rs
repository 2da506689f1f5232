//! The hitlist: one representative probe target per `/24` block.
//!
//! Verfploeter probes "a recent ISI IPv4 hitlist ... because they provide
//! representative addresses for each /24 block that are most likely to
//! reply to pings, and with one address per /24 block, we can reduce
//! measurement traffic to 0.4% of a complete IPv4 scan" (§3.1).
//!
//! The stand-in here derives its targets from the generated world's
//! populated blocks. Like the real hitlist, it is imperfect: for a small
//! fraction of blocks the listed address is *not* the block's live
//! representative ("the specific address we chose to contact did not
//! reply", §5.4) — those blocks end up unmapped even though they are
//! responsive, feeding Table 5's "not mappable" row.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A hot crate: no narrowing casts (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use serde::Serialize;
use vp_net::{mix, unit, Block24, Id, IdVec, Ipv4Addr};
use vp_topology::Internet;

/// The id of a hitlist entry: its row, in block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitlistRow(pub u32);

impl Id for HitlistRow {
    fn from_index(index: usize) -> Self {
        HitlistRow(vp_net::conv::sat_u32(index))
    }

    fn index(self) -> usize {
        vp_net::conv::index(self.0)
    }
}

/// One hitlist row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HitlistEntry {
    pub block: Block24,
    /// The address the prober will target in this block.
    pub target: Ipv4Addr,
}

/// Configuration of hitlist construction.
#[derive(Debug, Clone, Serialize)]
pub struct HitlistConfig {
    /// Probability the listed target is a stale/wrong address that will not
    /// answer even when the block is responsive.
    pub wrong_addr_prob: f64,
    /// Seed for the deterministic wrong-address selection.
    pub seed: u64,
}

impl Default for HitlistConfig {
    fn default() -> Self {
        HitlistConfig {
            wrong_addr_prob: 0.03,
            seed: 0x4157,
        }
    }
}

/// The hitlist entry for one block — a pure function of the block, its
/// representative octet, and the config seed.
pub fn entry_for(block: Block24, rep_octet: u8, cfg: &HitlistConfig) -> HitlistEntry {
    let h = mix(cfg.seed, block.0 as u64);
    let target = if unit(h) < cfg.wrong_addr_prob {
        // Deterministically pick a different final octet.
        let mut octet = vp_net::conv::sat_u8(mix(cfg.seed ^ 0xbad, block.0 as u64) % 254) + 1;
        if octet == rep_octet {
            octet = if octet == 254 { 1 } else { octet + 1 };
        }
        block.addr(octet)
    } else {
        block.addr(rep_octet)
    };
    HitlistEntry { block, target }
}

/// Partitions `0..n` into `shards` disjoint contiguous ranges, sizes
/// differing by at most one (the first `n % shards` get the extra entry).
/// A pure function of `(n, shards)`: every caller computes the same bounds.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn shard_bounds_of(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards > 0, "cannot shard into zero parts");
    let base = n / shards;
    let rem = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for k in 0..shards {
        let len = base + usize::from(k < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// An ordered hitlist over every populated block of a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hitlist {
    entries: IdVec<HitlistRow, HitlistEntry>,
}

impl Hitlist {
    /// Builds the hitlist from a world: one entry per populated block, in
    /// block order. A `wrong_addr_prob` fraction of entries points at a
    /// non-representative address.
    pub fn from_internet(world: &Internet, cfg: &HitlistConfig) -> Hitlist {
        assert!(
            (0.0..=1.0).contains(&cfg.wrong_addr_prob),
            "wrong_addr_prob out of range"
        );
        let entries: Vec<HitlistEntry> = world
            .blocks
            .iter()
            .map(|b| entry_for(b.block, b.rep_octet, cfg))
            .collect();
        debug_assert!(entries.is_sorted_by(|a, b| a.block < b.block));
        Hitlist { entries: entries.into() }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in block order, keyed by their rows.
    pub fn entries(&self) -> &IdVec<HitlistRow, HitlistEntry> {
        &self.entries
    }

    /// Looks up the entry for a block (binary search).
    pub fn for_block(&self, block: Block24) -> Option<HitlistEntry> {
        let entries = self.entries.as_slice();
        entries
            .binary_search_by_key(&block, |e| e.block)
            .ok()
            .and_then(|i| entries.get(i).copied())
    }

    /// Partitions the hitlist into `shards` disjoint contiguous index
    /// ranges in stable block order, together covering `0..len()`.
    ///
    /// Sizes differ by at most one (the first `len % shards` ranges get
    /// the extra entry), so the partition is a pure function of
    /// `(len, shards)` — every caller computes the same bounds, which the
    /// sharded scan path relies on to reproduce serial runs exactly.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn shard_bounds(&self, shards: usize) -> Vec<std::ops::Range<usize>> {
        shard_bounds_of(self.entries.len(), shards)
    }

    /// Serializes to JSON (one array; stable order).
    #[expect(
        clippy::expect_used,
        reason = "serializing owned plain data with derived impls cannot fail."
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self.entries.as_slice()).expect("hitlist serializes")
    }

    /// Reloads a hitlist written by [`Hitlist::to_json`], walking the text
    /// row by row: each row needs a `block` and a `target` that fit `u32`;
    /// unknown members are skipped and rows may come in any order, but no
    /// two may name the same block — a hitlist is one target per /24.
    pub fn from_json(s: &str) -> Result<Hitlist, HitlistError> {
        let mut reader = serde_json::Reader::new(s);
        let mut entries = Vec::new();
        reader.begin_array()?;
        while reader.next_element()? {
            let (mut block, mut target) = (None, None);
            reader.begin_object()?;
            while let Some(member) = reader.next_key()? {
                match &*member {
                    "block" => block = Some(read_u32(&mut reader)?),
                    "target" => target = Some(read_u32(&mut reader)?),
                    _ => reader.skip()?,
                }
            }
            let (Some(block), Some(target)) = (block, target) else {
                return Err(reader.error("hitlist row needs block and target").into());
            };
            entries.push(HitlistEntry {
                block: Block24(block),
                target: Ipv4Addr(target),
            });
        }
        reader.end()?;
        entries.sort_by_key(|e| e.block);
        let mut pairs = entries.iter().zip(entries.iter().skip(1));
        if let Some((repeated, _)) = pairs.find(|(a, b)| a.block == b.block) {
            return Err(HitlistError::RepeatedBlock(repeated.block));
        }
        Ok(Hitlist { entries: entries.into() })
    }
}

/// Why [`Hitlist::from_json`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HitlistError {
    /// The text is not a well-formed hitlist document.
    Json(serde_json::Error),
    /// Two rows name this block.
    RepeatedBlock(Block24),
}

impl std::fmt::Display for HitlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HitlistError::Json(e) => write!(f, "{e}"),
            HitlistError::RepeatedBlock(block) => write!(f, "block {block} is listed twice"),
        }
    }
}

impl std::error::Error for HitlistError {}

impl From<serde_json::Error> for HitlistError {
    fn from(e: serde_json::Error) -> Self {
        HitlistError::Json(e)
    }
}

fn read_u32(reader: &mut serde_json::Reader<'_>) -> Result<u32, serde_json::Error> {
    let n = reader.u64()?;
    u32::try_from(n).map_err(|_| reader.error(format!("{n} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_topology::TopologyConfig;

    fn world() -> Internet {
        Internet::generate(TopologyConfig::tiny(17))
    }

    #[test]
    fn covers_every_populated_block_once() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        assert_eq!(hl.len(), w.blocks.len());
        let blocks: std::collections::BTreeSet<Block24> =
            hl.entries().iter().map(|e| e.block).collect();
        assert_eq!(blocks.len(), hl.len());
        for e in hl.entries().iter() {
            assert!(e.block.contains(e.target), "{} outside {}", e.target, e.block);
            assert!(w.block(e.block).is_some());
        }
    }

    #[test]
    fn most_targets_are_representatives() {
        let w = world();
        let cfg = HitlistConfig::default();
        let hl = Hitlist::from_internet(&w, &cfg);
        let wrong = hl
            .entries()
            .iter()
            .filter(|e| w.block(e.block).unwrap().representative() != e.target)
            .count();
        let frac = wrong as f64 / hl.len() as f64;
        assert!(
            (frac - cfg.wrong_addr_prob).abs() < 0.02,
            "wrong-target fraction {frac:.3}"
        );
    }

    #[test]
    fn zero_wrong_prob_means_all_representatives() {
        let w = world();
        let cfg = HitlistConfig {
            wrong_addr_prob: 0.0,
            ..HitlistConfig::default()
        };
        let hl = Hitlist::from_internet(&w, &cfg);
        for e in hl.entries().iter() {
            assert_eq!(e.target, w.block(e.block).unwrap().representative());
        }
    }

    #[test]
    fn for_block_lookup() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let some = hl.entries().as_slice()[hl.len() / 2];
        assert_eq!(hl.for_block(some.block), Some(some));
        assert_eq!(hl.for_block(Block24(0)), None);
    }

    #[test]
    fn json_roundtrip() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let json = hl.to_json();
        let back = Hitlist::from_json(&json).unwrap();
        assert_eq!(back, hl);
        // Rows in any order, unknown members skipped; a row missing a
        // member, a value past u32 and trailing text are errors.
        let e = hl.entries()[HitlistRow(0)];
        let loose = format!(
            r#"[{{"target": {}, "x": [1], "block": {}}}]"#,
            e.target.0, e.block.0
        );
        assert_eq!(Hitlist::from_json(&loose).unwrap().entries().as_slice(), [e]);
        for text in [r#"[{"block": 1}]"#, r#"[{"block": 1, "target": 4294967296}]"#, "[] x", "{}"] {
            assert!(matches!(Hitlist::from_json(text), Err(HitlistError::Json(_))), "{text}");
        }
    }

    /// One target per /24: a document that lists a block twice — with the
    /// same target or another, next to each other or not — is refused,
    /// naming the block, instead of scanning it twice.
    #[test]
    fn a_repeated_block_is_refused() {
        let w = world();
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let (a, b) = (hl.entries()[HitlistRow(0)], hl.entries()[HitlistRow(1)]);
        let elsewhere = HitlistEntry {
            target: Ipv4Addr(a.target.0 ^ 1),
            ..a
        };
        for rows in [vec![a, a], vec![a, b, elsewhere], vec![b, a, b]] {
            let text = serde_json::to_string(&rows).unwrap();
            let repeated = if rows.last() == Some(&b) { b.block } else { a.block };
            assert_eq!(Hitlist::from_json(&text), Err(HitlistError::RepeatedBlock(repeated)), "{text}");
        }
        let refused = Hitlist::from_json(&serde_json::to_string(&[a, a]).unwrap()).unwrap_err();
        assert_eq!(refused.to_string(), format!("block {} is listed twice", a.block));
    }

    #[test]
    fn shard_bounds_of_partitions_exactly() {
        for (n, shards) in [(10usize, 3usize), (0, 4), (7, 7), (5, 16), (1_000_000, 64)] {
            let bounds = shard_bounds_of(n, shards);
            assert_eq!(bounds.len(), shards);
            let mut next = 0;
            for r in &bounds {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n);
            let sizes: Vec<usize> = bounds.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "uneven shards: {sizes:?}");
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let w = world();
        let a = Hitlist::from_internet(&w, &HitlistConfig::default());
        let b = Hitlist::from_internet(&w, &HitlistConfig::default());
        assert_eq!(a, b);
        let c = Hitlist::from_internet(
            &w,
            &HitlistConfig {
                seed: 999,
                ..HitlistConfig::default()
            },
        );
        // Different seed changes which blocks get wrong targets.
        assert_ne!(a, c);
    }
}
