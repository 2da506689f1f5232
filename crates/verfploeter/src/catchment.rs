//! The catchment map: block → anycast site.
//!
//! Storage is **columnar**: a [`BlockColumn`] — two parallel, block-sorted
//! columns (`Vec<Block24>`, `Vec<SiteId>`) — instead of a `BTreeMap`. At a
//! million mapped blocks that is 5 bytes of payload per entry in two
//! contiguous allocations — lookups are a binary search over one hot `u32`
//! column and merges are linear column zips, where the tree spent ~50+
//! bytes per entry across pointer-chased nodes. The original tree engine
//! survives as the `BTreeCatchment` format oracle inside the
//! `columnar_equivalence` suite, which proves the two agree byte-for-byte
//! on every operation, so the columnar core inherits the tree's contract
//! (including serialized bytes) verbatim.

use std::collections::BTreeMap;

use serde::{Serialize, Value};
use vp_bgp::SiteId;
use vp_hitlist::Hitlist;
pub use vp_net::Joined;
use vp_net::{Block24, BlockColumn};

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
    /// Site per mapped block, in ascending block order.
    entries: BlockColumn<SiteId>,
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
        CatchmentMap {
            name: name.to_owned(),
            entries: BlockColumn::from_pairs(pairs),
        }
    }

    /// Number of mapped blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The site a block maps to, if it responded.
    pub fn site_of(&self, block: Block24) -> Option<SiteId> {
        self.entries.get(block)
    }

    /// Iterates all `(block, site)` entries in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, SiteId)> + '_ {
        self.entries.iter()
    }

    /// Merge-joins two maps on block ([`BlockColumn::join`]): every block
    /// of either map once, in ascending order. Diffs are folds over this.
    pub fn join<'a>(
        &'a self,
        other: &'a CatchmentMap,
    ) -> impl Iterator<Item = Joined<SiteId>> + 'a {
        self.entries.join(&other.entries)
    }

    /// Absorbs another map's entries (disjoint union).
    ///
    /// Inputs are expected to cover disjoint block sets — the per-shard
    /// maps of one partitioned scan. Under that precondition the merge is
    /// associative and order-insensitive, so any shard merge order yields
    /// the same map ([`BlockColumn::merge`]).
    ///
    /// # Panics
    /// Panics (debug builds) if `other` maps a block this map already
    /// holds with a different site — that means the inputs were not
    /// shards of one scan.
    pub fn merge(&mut self, other: &CatchmentMap) {
        debug_assert_eq!(
            self.join(other)
                .find(|row| matches!(row, Joined::Both(_, ours, theirs) if ours != theirs)),
            None,
            "merge inputs disagree on a block: not shards of one scan"
        );
        self.entries.merge(&other.entries);
    }

    /// Mapped blocks per site.
    #[expect(clippy::indexing_slicing, reason = "a u8 indexes 256 slots.")]
    pub fn site_counts(&self) -> BTreeMap<SiteId, usize> {
        let mut counts = [0usize; 256];
        for s in self.entries.values() {
            counts[usize::from(s.0)] += 1;
        }
        let sites = (0..=u8::MAX).map(SiteId).zip(counts);
        sites.filter(|&(_, n)| n > 0).collect()
    }

    /// Fraction of mapped blocks that map to `site`.
    pub fn fraction_to(&self, site: SiteId) -> f64 {
        let sites = self.entries.values();
        if sites.is_empty() {
            return 0.0;
        }
        let hits = sites.iter().filter(|&&s| s == site).count();
        hits as f64 / sites.len() as f64
    }

    /// Serializes the dataset to JSON (the paper releases all its
    /// datasets; this is the equivalent open-data format).
    #[expect(clippy::expect_used, reason = "serializing owned plain data cannot fail.")]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("catchment map serializes")
    }

    /// Reloads a dataset written by [`CatchmentMap::to_json`], walking the
    /// text straight into the columns: linear in its bytes, no value tree.
    ///
    /// Members may come in any order and unknown ones are skipped; `name`
    /// and `map` are required. A `map` key must be the canonical decimal
    /// of a `u32` ([`Block24::from_key`]) and a site must fit `u8`; of
    /// duplicate keys the last wins, and every occurrence is checked.
    pub fn from_json(s: &str) -> Result<CatchmentMap, serde_json::Error> {
        let mut reader = serde_json::Reader::new(s);
        let (mut name, mut columns) = (None, None);
        reader.begin_object()?;
        while let Some(member) = reader.next_key()? {
            match &*member {
                "name" => name = Some(reader.string()?.into_owned()),
                "map" => columns = Some(read_map(&mut reader)?),
                _ => reader.skip()?,
            }
        }
        reader.end()?;
        let name = name.ok_or_else(|| serde_json::Error::msg("missing field name"))?;
        let (blocks, sites) = columns.ok_or_else(|| serde_json::Error::msg("missing field map"))?;
        let entries = BlockColumn::from_columns(blocks, sites);
        Ok(CatchmentMap { name, entries })
    }

    /// Blocks that changed site (or appeared/disappeared) between two maps:
    /// returns `(flipped, appeared, disappeared)` counts.
    pub fn diff(&self, other: &CatchmentMap) -> (usize, usize, usize) {
        let (mut flipped, mut appeared, mut disappeared) = (0, 0, 0);
        for row in self.join(other) {
            match row {
                Joined::Both(_, ours, theirs) => flipped += usize::from(ours != theirs),
                Joined::Right(..) => appeared += 1,
                Joined::Left(..) => disappeared += 1,
            }
        }
        (flipped, appeared, disappeared)
    }
}

/// Reads the `map` member — `{"<block>": <site>, ...}` — as parallel
/// columns in document order.
fn read_map(
    reader: &mut serde_json::Reader<'_>,
) -> Result<(Vec<Block24>, Vec<SiteId>), serde_json::Error> {
    let (mut blocks, mut sites) = (Vec::new(), Vec::new());
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        let block = Block24::from_key(&key)
            .ok_or_else(|| reader.error(format!("cannot interpret object key {key:?}")))?;
        let site = reader.u64()?;
        let site = u8::try_from(site).map_err(|_| reader.error(format!("{site} out of range")))?;
        blocks.push(block);
        sites.push(SiteId(site));
    }
    Ok((blocks, sites))
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
    fn from_json_reads_members_in_any_order_and_skips_unknown_ones() {
        let text = r#" { "extra": [1, {"x": "\u00e9"}], "map": {"10": 1, "9": 0, "300000": 3},
            "name": "S\u0042V \ud83d\ude00", "more": null } "#;
        let m = CatchmentMap::from_json(text).unwrap();
        assert_eq!(m.name, "SBV \u{1f600}");
        assert_eq!(m, map(&m.name, &[(9, 0), (10, 1), (300_000, 3)]));
        // Exact-duplicate keys and members: the last wins.
        let m = CatchmentMap::from_json(
            r#"{"name": "a", "map": {"1": 9}, "map": {"7": 1, "5": 2, "7": 3}, "name": "b"}"#,
        )
        .unwrap();
        assert_eq!(m, map("b", &[(5, 2), (7, 3)]));
    }

    #[test]
    fn from_json_rejects_what_it_cannot_represent() {
        for text in [
            // A member missing, or of the wrong type.
            r#"{"map": {}}"#,
            r#"{"name": "n"}"#,
            r#"{"name": 5, "map": {}}"#,
            r#"{"name": "n", "map": []}"#,
            r#"{"name": "n", "map": {"1": "0"}}"#,
            r#"[]"#,
            // A site past u8, a block past u32, a key that is no number.
            r#"{"name": "n", "map": {"1": 256}}"#,
            r#"{"name": "n", "map": {"1": -1}}"#,
            r#"{"name": "n", "map": {"4294967296": 0}}"#,
            r#"{"name": "n", "map": {"x": 0}}"#,
            // Trailing characters, and a truncated document.
            r#"{"name": "n", "map": {"1": 0}} x"#,
            r#"{"name": "n", "map": {"1": 0}"#,
            // A key must be the canonical decimal: "07" and "7" would be one
            // block under two keys, and no writer emits the former.
            r#"{"name": "n", "map": {"07": 0}}"#,
            r#"{"name": "n", "map": {"+7": 0}}"#,
            r#"{"name": "n", "map": {"-0": 0}}"#,
            // Every occurrence of a duplicate is checked, not only the
            // surviving one.
            r#"{"name": "n", "map": {"7": 300, "7": 1}}"#,
            r#"{"name": 5, "name": "n", "map": {}}"#,
        ] {
            assert!(CatchmentMap::from_json(text).is_err(), "{text}");
        }
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
