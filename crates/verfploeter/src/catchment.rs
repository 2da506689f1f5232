//! The catchment map: block → anycast site.
//!
//! Storage is **columnar**: two parallel, block-sorted columns
//! (`Vec<Block24>`, `Vec<SiteId>`) instead of a `BTreeMap`. At a million
//! mapped blocks that is 5 bytes of payload per entry in two contiguous
//! allocations — lookups are a binary search over one hot `u32` column and
//! merges are linear column zips, where the tree spent ~50+ bytes per entry
//! across pointer-chased nodes. The original tree engine survives as the
//! `BTreeCatchment` format oracle inside the `columnar_equivalence` suite,
//! which proves the two agree byte-for-byte on every operation, so the
//! columnar core inherits the tree's contract (including serialized
//! bytes) verbatim.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};
use vp_bgp::SiteId;
use vp_hitlist::Hitlist;
use vp_net::Block24;

use crate::cleaning::CleanReply;

/// The product of one Verfploeter measurement: for every responding block,
/// the anycast site its reply arrived at.
///
/// Entries are stored in block order, so iteration — and the serialized
/// [`CatchmentMap::to_json`] dataset — is canonical: two equal maps always
/// produce byte-identical JSON, and the bytes are exactly those of the
/// historical `BTreeMap`-backed engine (asserted by the
/// `columnar_equivalence` suite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchmentMap {
    /// Dataset tag, e.g. "SBV-5-15".
    pub name: String,
    /// Mapped blocks, strictly ascending.
    blocks: Vec<Block24>,
    /// Site of `blocks[i]`, parallel to `blocks`.
    sites: Vec<SiteId>,
}

impl CatchmentMap {
    /// Folds cleaned replies into the map. Cleaning guarantees one reply
    /// per hitlist index, hence one entry per block.
    pub fn from_replies(name: &str, replies: &[CleanReply], hitlist: &Hitlist) -> CatchmentMap {
        Self::from_pairs(
            name,
            replies.iter().map(|r| {
                let block = hitlist.entry(vp_net::conv::sat_usize(r.index)).block;
                (block, r.site)
            }),
        )
    }

    /// Builds a map directly from `(block, site)` pairs (used by analyses
    /// and tests). Later pairs win on duplicate blocks, matching map-insert
    /// semantics.
    pub fn from_pairs(name: &str, pairs: impl IntoIterator<Item = (Block24, SiteId)>) -> Self {
        let mut rows: Vec<(Block24, SiteId)> = pairs.into_iter().collect();
        // Stable sort keeps duplicate blocks in input order, so keeping the
        // last of each run reproduces `BTreeMap::insert` last-wins.
        rows.sort_by_key(|&(b, _)| b);
        let mut blocks: Vec<Block24> = Vec::with_capacity(rows.len());
        let mut sites: Vec<SiteId> = Vec::with_capacity(rows.len());
        for (b, s) in rows {
            if blocks.last() == Some(&b) {
                // vp-lint: allow(h2): last() == Some above proves non-emptiness.
                *sites.last_mut().expect("parallel columns") = s;
            } else {
                blocks.push(b);
                sites.push(s);
            }
        }
        CatchmentMap {
            name: name.to_owned(),
            blocks,
            sites,
        }
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The site a block maps to, if it responded.
    pub fn site_of(&self, block: Block24) -> Option<SiteId> {
        self.blocks
            .binary_search(&block)
            .ok()
            .map(|i| self.sites[i]) // vp-lint: allow(g1): binary_search ranks are below len and the columns are parallel.
    }

    /// Iterates all `(block, site)` entries in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, SiteId)> + '_ {
        self.blocks
            .iter()
            .copied()
            .zip(self.sites.iter().copied())
    }

    /// Absorbs another map's entries (disjoint union).
    ///
    /// Inputs are expected to cover disjoint block sets — the per-shard
    /// maps of one partitioned scan. Under that precondition the merge is
    /// associative and order-insensitive, so any shard merge order yields
    /// the same map. Columnar storage makes it a linear two-way zip of
    /// sorted columns.
    ///
    /// # Panics
    /// Panics (debug builds) if `other` maps a block this map already
    /// holds with a different site — that means the inputs were not
    /// shards of one scan.
    // vp-lint: merge-tested(CatchmentMap::merge, suite=columnar_equivalence)
    pub fn merge(&mut self, other: &CatchmentMap) {
        if other.is_empty() {
            return;
        }
        // Fast path: the common shard-merge case appends a strictly later
        // block range — a plain column extend, no re-sort.
        if self.blocks.last() < other.blocks.first() {
            self.blocks.extend_from_slice(&other.blocks);
            self.sites.extend_from_slice(&other.sites);
            return;
        }
        let mut blocks = Vec::with_capacity(self.blocks.len() + other.blocks.len());
        let mut sites = Vec::with_capacity(self.sites.len() + other.sites.len());
        let (mut i, mut j) = (0, 0);
        while i < self.blocks.len() && j < other.blocks.len() {
            let (a, b) = (self.blocks[i], other.blocks[j]); // vp-lint: allow(g1): i and j are bounded by the loop condition.
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    blocks.push(a);
                    sites.push(self.sites[i]); // vp-lint: allow(g1): columns are parallel.
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    blocks.push(b);
                    sites.push(other.sites[j]); // vp-lint: allow(g1): columns are parallel.
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let (sa, sb) = (self.sites[i], other.sites[j]); // vp-lint: allow(g1): columns are parallel.
                    debug_assert!(
                        sa == sb,
                        "merge inputs disagree on block {a}: {sa:?} vs {sb:?}"
                    );
                    blocks.push(b);
                    sites.push(sb); // other wins like map insert
                    j += 1;
                    i += 1;
                }
            }
        }
        blocks.extend_from_slice(&self.blocks[i..]); // vp-lint: allow(g1): i never exceeds len, per the loop condition.
        sites.extend_from_slice(&self.sites[i..]); // vp-lint: allow(g1): i never exceeds len, per the loop condition.
        blocks.extend_from_slice(&other.blocks[j..]); // vp-lint: allow(g1): j never exceeds len, per the loop condition.
        sites.extend_from_slice(&other.sites[j..]); // vp-lint: allow(g1): j never exceeds len, per the loop condition.
        self.blocks = blocks;
        self.sites = sites;
    }

    /// Mapped blocks per site.
    pub fn site_counts(&self) -> BTreeMap<SiteId, usize> {
        let mut m = BTreeMap::new();
        for s in &self.sites {
            *m.entry(*s).or_insert(0) += 1;
        }
        m
    }

    /// Fraction of mapped blocks that map to `site`.
    pub fn fraction_to(&self, site: SiteId) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let hits = self.sites.iter().filter(|&&s| s == site).count();
        hits as f64 / self.sites.len() as f64
    }

    /// Serializes the dataset to JSON (the paper releases all its
    /// datasets; this is the equivalent open-data format).
    pub fn to_json(&self) -> String {
        // vp-lint: allow(h2): serializing owned plain data cannot fail.
        serde_json::to_string(self).expect("catchment map serializes")
    }

    /// Reloads a dataset written by [`CatchmentMap::to_json`].
    pub fn from_json(s: &str) -> Result<CatchmentMap, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Blocks that changed site (or appeared/disappeared) between two maps:
    /// returns `(flipped, appeared, disappeared)` counts.
    pub fn diff(&self, other: &CatchmentMap) -> (usize, usize, usize) {
        let mut flipped = 0;
        let mut disappeared = 0;
        for (b, s) in self.iter() {
            match other.site_of(b) {
                Some(t) if t != s => flipped += 1,
                Some(_) => {}
                None => disappeared += 1,
            }
        }
        let appeared = other
            .blocks
            .iter()
            .filter(|b| self.site_of(**b).is_none())
            .count();
        (flipped, appeared, disappeared)
    }
}

/// Serialized form is the byte-identical successor of the historical
/// `#[derive(Serialize)]` on `{ name: String, map: BTreeMap<Block24,
/// SiteId> }`: an object with a "map" member keyed by decimal block
/// numbers. Goldens and released datasets depend on these exact bytes.
impl Serialize for CatchmentMap {
    fn to_value(&self) -> Value {
        let map: BTreeMap<String, Value> = self
            .iter()
            .map(|(b, s)| (b.0.to_string(), s.to_value()))
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert("map".to_owned(), Value::Object(map));
        obj.insert("name".to_owned(), self.name.to_value());
        Value::Object(obj)
    }
}

impl Deserialize for CatchmentMap {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected catchment map object"))?;
        let name = match obj.get("name") {
            Some(n) => String::from_value(n)?,
            None => return Err(serde::Error::msg("missing field name")),
        };
        let map = match obj.get("map") {
            Some(m) => BTreeMap::<Block24, SiteId>::from_value(m)?,
            None => return Err(serde::Error::msg("missing field map")),
        };
        Ok(CatchmentMap::from_pairs(&name, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(name: &str, pairs: &[(u32, u8)]) -> CatchmentMap {
        CatchmentMap::from_pairs(
            name,
            pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))),
        )
    }

    #[test]
    fn counts_and_fractions() {
        let m = map("t", &[(1, 0), (2, 0), (3, 1), (4, 0)]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.site_of(Block24(3)), Some(SiteId(1)));
        assert_eq!(m.site_of(Block24(9)), None);
        let counts = m.site_counts();
        assert_eq!(counts[&SiteId(0)], 3);
        assert_eq!(counts[&SiteId(1)], 1);
        assert!((m.fraction_to(SiteId(0)) - 0.75).abs() < 1e-12);
        assert_eq!(m.fraction_to(SiteId(2)), 0.0);
    }

    #[test]
    fn empty_map() {
        let m = CatchmentMap::default();
        assert!(m.is_empty());
        assert_eq!(m.fraction_to(SiteId(0)), 0.0);
        assert!(m.site_counts().is_empty());
    }

    #[test]
    fn from_pairs_is_last_wins_and_sorted() {
        // Unsorted input with a duplicate block: the later pair must win,
        // like BTreeMap::insert, and iteration must come out sorted.
        let m = map("t", &[(5, 1), (2, 0), (5, 3), (1, 2)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.site_of(Block24(5)), Some(SiteId(3)));
        let order: Vec<u32> = m.iter().map(|(b, _)| b.0).collect();
        assert_eq!(order, vec![1, 2, 5]);
    }

    #[test]
    fn json_roundtrip_preserves_dataset() {
        let m = map("SBV-5-15", &[(1, 0), (2, 1), (300000, 3)]);
        let json = m.to_json();
        let back = CatchmentMap::from_json(&json).unwrap();
        assert_eq!(back.name, "SBV-5-15");
        assert_eq!(back.len(), 3);
        for (b, s) in m.iter() {
            assert_eq!(back.site_of(b), Some(s));
        }
        assert!(CatchmentMap::from_json("not json").is_err());
    }

    #[test]
    fn merge_interleaved_and_appended() {
        let mut a = map("m", &[(1, 0), (5, 1)]);
        let b = map("m", &[(3, 2), (7, 3)]);
        a.merge(&b); // interleaved: slow path
        let c = map("m", &[(9, 1), (11, 0)]);
        a.merge(&c); // strictly later: append fast path
        let got: Vec<(u32, u8)> = a.iter().map(|(b, s)| (b.0, s.0)).collect();
        assert_eq!(got, vec![(1, 0), (3, 2), (5, 1), (7, 3), (9, 1), (11, 0)]);
        a.merge(&CatchmentMap::default());
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn diff_classifies_changes() {
        let a = map("a", &[(1, 0), (2, 0), (3, 1)]);
        let b = map("b", &[(1, 0), (2, 1), (4, 0)]);
        let (flipped, appeared, disappeared) = a.diff(&b);
        assert_eq!(flipped, 1); // block 2 changed site
        assert_eq!(appeared, 1); // block 4 new
        assert_eq!(disappeared, 1); // block 3 gone
        // Diff with self is null.
        assert_eq!(a.diff(&a), (0, 0, 0));
    }
}
