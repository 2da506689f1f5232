//! Scale-equivalence suite: the columnar scan core against the BTree
//! engine.
//!
//! The columnar `CatchmentMap`/`RttTable` replace tree-backed maps with
//! sorted parallel columns; this suite is the proof that the swap is
//! unobservable. Both engines are driven through identical operation
//! sequences — arbitrary construction orders, shard splits at the
//! determinism contract's K ∈ {1, 2, 7, 16}, merge sequences in arbitrary
//! order, serialization round-trips — and must agree **byte-for-byte** on
//! serialized output (the format oracle is the historical
//! `#[derive(Serialize)]` tree engine, [`BTreeCatchment`]) and value-for-
//! value on every query. `BitSet::merge` union semantics are proven here
//! too, against a naive set-of-indices model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use verfploeter_suite::bgp::SiteId;
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{BitSet, Block24, SimDuration, SimTime};
use verfploeter_suite::sim::exec::ShardExecutor;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::rtt::RttTable;
use verfploeter_suite::vp::scan::{run_scan, run_scan_sharded_on, ScanConfig};
use verfploeter_suite::vp::CatchmentMap;

/// The historical tree-backed map, field-for-field the pre-columnar
/// `CatchmentMap` (so its derived serialization defines the on-disk
/// format the columnar engine must reproduce).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BTreeCatchment {
    name: String,
    map: BTreeMap<Block24, SiteId>,
}

impl BTreeCatchment {
    /// Builds a map from `(block, site)` pairs; later pairs win.
    fn from_pairs(name: &str, pairs: impl IntoIterator<Item = (Block24, SiteId)>) -> Self {
        BTreeCatchment {
            name: name.to_owned(),
            map: pairs.into_iter().collect(),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn iter(&self) -> impl Iterator<Item = (Block24, SiteId)> + '_ {
        self.map.iter().map(|(b, s)| (*b, *s))
    }

    /// Disjoint union, the tree way: per-entry inserts.
    fn merge(&mut self, other: &BTreeCatchment) {
        for (block, site) in &other.map {
            self.map.insert(*block, *site);
        }
    }

    /// Serializes via the derived impl — the format oracle.
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("catchment map serializes")
    }

    fn from_json(s: &str) -> Result<BTreeCatchment, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Site chosen deterministically from the block, so overlapping pairs in
/// merge inputs always agree (the disjoint-shards precondition of
/// `CatchmentMap::merge`, which debug-asserts agreement).
fn site_of(block: u32) -> SiteId {
    SiteId((block % 7) as u8)
}

fn pairs_of(blocks: &[u32]) -> Vec<(Block24, SiteId)> {
    blocks.iter().map(|&b| (Block24(b), site_of(b))).collect()
}

/// Builds both engines from the same pairs.
fn both(name: &str, pairs: &[(Block24, SiteId)]) -> (CatchmentMap, BTreeCatchment) {
    (
        CatchmentMap::from_pairs(name, pairs.iter().copied()),
        BTreeCatchment::from_pairs(name, pairs.iter().copied()),
    )
}

/// Byte-level agreement plus query-level agreement.
fn assert_engines_agree(col: &CatchmentMap, tree: &BTreeCatchment) {
    assert_eq!(col.to_json(), tree.to_json(), "serialized bytes differ");
    assert_eq!(col.len(), tree.len());
    assert_eq!(col.is_empty(), tree.is_empty());
    let col_rows: Vec<(Block24, SiteId)> = col.iter().collect();
    let tree_rows: Vec<(Block24, SiteId)> = tree.iter().collect();
    assert_eq!(col_rows, tree_rows, "iteration order differs");
    for (b, s) in tree.iter() {
        assert_eq!(col.site_of(b), Some(s), "site of {b}");
    }
}

/// The format contract in miniature: same pairs, same bytes.
#[test]
fn json_bytes_match_btree_reference() {
    let pairs = pairs_of(&[1, 2, 10, 300_000]);
    let (col, tree) = both("SBV-5-15", &pairs);
    assert_eq!(col.to_json(), tree.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary construction input (unsorted, duplicate-heavy): both
    /// engines produce the same bytes and answers.
    #[test]
    fn construction_agrees(blocks in proptest::collection::vec(0u32..5_000, 0..300)) {
        let (col, tree) = both("SBV-prop", &pairs_of(&blocks));
        assert_engines_agree(&col, &tree);
    }

    /// Serialization round-trips through JSON land in identical states on
    /// both engines, and re-serialize to the same bytes.
    #[test]
    fn json_roundtrip_agrees(blocks in proptest::collection::vec(0u32..100_000, 0..200)) {
        let (col, tree) = both("SBV-rt", &pairs_of(&blocks));
        let col_back = CatchmentMap::from_json(&col.to_json()).unwrap();
        let tree_back = BTreeCatchment::from_json(&tree.to_json()).unwrap();
        prop_assert_eq!(col_back.to_json(), tree_back.to_json());
        // Cross-load: each engine can read the other's bytes.
        let cross = CatchmentMap::from_json(&tree.to_json()).unwrap();
        prop_assert_eq!(cross.to_json(), col.to_json());
        assert_engines_agree(&col_back, &tree_back);
    }

    /// Arbitrary merge sequences over agreeing parts: fold order and part
    /// boundaries never change the result, and the engines stay in
    /// lockstep after every step.
    // vp-lint: merge-tested(CatchmentMap::merge)
    #[test]
    fn merge_sequences_agree(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u32..3_000, 0..80),
            0..6,
        ),
        rotate in 0usize..6,
    ) {
        // Forward fold, both engines, checking agreement at every step.
        let mut col = CatchmentMap::from_pairs("SBV-m", std::iter::empty());
        let mut tree = BTreeCatchment::from_pairs("SBV-m", std::iter::empty());
        for p in &parts {
            let (c, t) = both("SBV-m", &pairs_of(p));
            col.merge(&c);
            tree.merge(&t);
            assert_engines_agree(&col, &tree);
        }
        // A rotated merge order must land on the same bytes (the merge is
        // order-insensitive for agreeing inputs).
        let mut rotated = CatchmentMap::from_pairs("SBV-m", std::iter::empty());
        let k = if parts.is_empty() { 0 } else { rotate % parts.len() };
        for p in parts[k..].iter().chain(parts[..k].iter()) {
            rotated.merge(&CatchmentMap::from_pairs("SBV-m", pairs_of(p)));
        }
        prop_assert_eq!(rotated.to_json(), col.to_json());
    }

    /// Contiguous shard splits at the determinism contract's shard counts:
    /// merging the split parts — in order and rotated — reproduces the
    /// serial map byte-for-byte on both engines.
    #[test]
    fn shard_splits_agree(
        blocks in proptest::collection::vec(0u32..50_000, 1..250),
        rotate in 0usize..16,
    ) {
        let all = pairs_of(&blocks);
        let (serial_col, serial_tree) = both("SBV-k", &all);
        assert_engines_agree(&serial_col, &serial_tree);
        // Split the canonical (sorted, deduped) row set, not the raw input:
        // shards of one scan are disjoint by construction.
        let rows: Vec<(Block24, SiteId)> = serial_col.iter().collect();
        for shards in [1usize, 2, 7, 16] {
            let chunk = rows.len().div_ceil(shards).max(1);
            let parts: Vec<&[(Block24, SiteId)]> = rows.chunks(chunk).collect();
            let mut col = CatchmentMap::from_pairs("SBV-k", std::iter::empty());
            let mut tree = BTreeCatchment::from_pairs("SBV-k", std::iter::empty());
            let k = rotate % parts.len().max(1);
            for p in parts[k..].iter().chain(parts[..k].iter()) {
                col.merge(&CatchmentMap::from_pairs("SBV-k", p.iter().copied()));
                tree.merge(&BTreeCatchment::from_pairs("SBV-k", p.iter().copied()));
            }
            prop_assert_eq!(col.to_json(), serial_col.to_json(), "K={}", shards);
            assert_engines_agree(&col, &tree);
        }
    }

    /// `RttTable` against the historical `BTreeMap<Block24, SimDuration>`:
    /// construction, lookup, iteration and merge sequences agree exactly
    /// (the fixed-point packing is lossless for in-cutoff RTTs).
    // vp-lint: merge-tested(RttTable::merge)
    #[test]
    fn rtt_table_matches_btree_model(
        parts in proptest::collection::vec(
            proptest::collection::vec((0u32..10_000, 0u64..4_000_000_000), 0..80),
            1..5,
        ),
    ) {
        let mut table = RttTable::default();
        let mut model: BTreeMap<Block24, SimDuration> = BTreeMap::new();
        for part in &parts {
            let pairs: Vec<(Block24, SimDuration)> = part
                .iter()
                .map(|&(b, ns)| (Block24(b), SimDuration::from_nanos(ns)))
                .collect();
            table.merge(&RttTable::from_pairs(pairs.iter().copied()));
            model.extend(pairs.iter().copied());

            prop_assert_eq!(table.len(), model.len());
            let cols: Vec<(Block24, SimDuration)> = table.iter().collect();
            let tree: Vec<(Block24, SimDuration)> = model.iter().map(|(b, r)| (*b, *r)).collect();
            prop_assert_eq!(cols, tree);
            let vals: Vec<SimDuration> = table.values().collect();
            let model_vals: Vec<SimDuration> = model.values().copied().collect();
            prop_assert_eq!(vals, model_vals);
            for (b, r) in &model {
                prop_assert_eq!(table.get(*b), Some(*r));
            }
            prop_assert_eq!(table.get(Block24(10_001)), None);
        }
    }

    /// `BitSet::merge` is set union, proven against a `BTreeSet` model,
    /// and commutative.
    // vp-lint: merge-tested(BitSet::merge)
    #[test]
    fn bitset_merge_is_union(
        a_ids in proptest::collection::vec(0usize..500, 0..100),
        b_ids in proptest::collection::vec(0usize..500, 0..100),
    ) {
        let a: BTreeSet<usize> = a_ids.into_iter().collect();
        let b: BTreeSet<usize> = b_ids.into_iter().collect();
        let build = |ids: &BTreeSet<usize>| {
            let mut s = BitSet::new(500);
            for &i in ids {
                s.set(i);
            }
            s
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        let union: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(ab.iter_ones().collect::<Vec<_>>(), union.clone());
        prop_assert_eq!(ba.iter_ones().collect::<Vec<_>>(), union);
        prop_assert_eq!(ab.count_ones(), a.union(&b).count());
    }
}

/// End-to-end: a real measured round's columnar map serializes to the
/// exact bytes the tree engine produces from the same entries — at K=1
/// (`run_scan`), and at every contract shard count on both the inline executor
/// and real OS threads (one per shard): the columnar rows must be
/// scheduling-independent, not just shard-count-independent.
#[test]
fn measured_round_matches_tree_bytes() {
    let s = Scenario::broot(TopologyConfig::tiny(4242), 7);
    let hitlist = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let serial = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(s.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        0xc01,
    );
    let tree = BTreeCatchment::from_pairs(&serial.catchments.name, serial.catchments.iter());
    assert_eq!(serial.catchments.to_json(), tree.to_json());
    assert!(serial.catchments.len() > 0);

    for shards in [1usize, 2, 7, 16] {
        for (mode, exec) in [
            ("inline", ShardExecutor::serial()),
            ("threads", ShardExecutor::new(shards)),
        ] {
            let sharded = run_scan_sharded_on(
                &exec,
                &s.world,
                &hitlist,
                &s.announcement,
                &|| Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig::default(),
                0xc01,
                shards,
            );
            assert_eq!(
                sharded.catchments.to_json(),
                tree.to_json(),
                "K={shards}/{mode} bytes"
            );
            assert_eq!(sharded.rtts, serial.rtts, "K={shards}/{mode} rtts");
            assert_eq!(
                sharded.obs.registry.to_canonical_json(),
                serial.obs.registry.to_canonical_json(),
                "K={shards}/{mode} merged registries"
            );
        }
    }
}
