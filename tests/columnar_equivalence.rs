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
//!
//! The tree engine is also the ingest oracle: `CatchmentMap::from_json`
//! and `vp_monitor::ingest::parse_origins` walk JSON text straight into
//! their rows, and must accept, reject and read generated documents —
//! well-formed and hostile — exactly as the `Value`-tree path does.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde::Serialize;
use verfploeter_suite::bgp::SiteId;
use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::{mix, Asn, BitSet, Block24, SimDuration, SimTime};
use verfploeter_suite::sim::exec::ShardExecutor;
use verfploeter_suite::sim::{FaultConfig, Scenario, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::rtt::RttTable;
use verfploeter_suite::vp::scan::{run_scan, run_scan_sharded_on, ScanConfig};
use verfploeter_suite::vp::CatchmentMap;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::parse_origins;

/// The historical tree-backed map, field-for-field the pre-columnar
/// `CatchmentMap` (so its derived serialization defines the on-disk
/// format the columnar engine must reproduce).
#[derive(Debug, Clone, Default, Serialize)]
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

    /// Text → `Value` tree → map, the last hop by the rules the retired
    /// `#[derive(Deserialize)]` applied: `name` a string, `map` an object,
    /// other members ignored, a key any decimal spelling of a `u32`
    /// (`"07"`, `"+7"`, `"-0"` included), a site any integer in `u8`.
    fn from_json(s: &str) -> Result<BTreeCatchment, String> {
        use serde_json::Value;
        let doc: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let name = doc.get("name").and_then(Value::as_str).ok_or("name: expected string")?;
        let entries = doc.get("map").and_then(Value::as_object).ok_or("map: expected object")?;
        let mut map = BTreeMap::new();
        for (key, site) in entries {
            let spelled = key.parse::<u64>().ok();
            let signed = || key.parse::<i64>().ok().and_then(|i| u64::try_from(i).ok());
            let block = spelled.or_else(signed).and_then(|b| u32::try_from(b).ok());
            let block = block.ok_or_else(|| format!("cannot interpret object key {key:?}"))?;
            let site = site.as_u64().and_then(|s| u8::try_from(s).ok());
            let site = site.ok_or_else(|| format!("map.{key}: expected an integer in u8"))?;
            map.insert(Block24(block), SiteId(site));
        }
        Ok(BTreeCatchment { name: name.to_owned(), map })
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
    // merge-tested(CatchmentMap::merge)
    // merge-tested(BlockColumn::merge)
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
    // merge-tested(RttTable::merge)
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
    // merge-tested(BitSet::merge)
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

// ---------------------------------------------------------------------------
// Differential ingest: the pull reader against the value tree
// ---------------------------------------------------------------------------

/// `parse_origins` as it was on the value tree, kept as the oracle.
fn tree_parse_origins(text: &str) -> Result<Origins, String> {
    let doc: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(serde_json::Value::as_str) {
        Some("vp-monitor-origins/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let Some(map) = doc.get("origins").and_then(serde_json::Value::as_object) else {
        return Err("missing origins object".to_owned());
    };
    let mut origins = Origins::new();
    for (block, asn) in map {
        let b: u32 = block
            .parse()
            .map_err(|_| format!("bad block key {block:?}"))?;
        let a = asn
            .as_u64()
            .and_then(|a| u32::try_from(a).ok())
            .ok_or_else(|| format!("bad ASN for block {block}"))?;
        origins.insert(Block24(b), Asn(a));
    }
    Ok(origins)
}

/// The two documents the monitor ingests differ only in these names.
struct DocShape {
    text_member: &'static str,
    /// The text member's key with an escape in it (same key once read).
    text_member_escaped: &'static str,
    map_member: &'static str,
    /// JSON string literals for the text member.
    texts: &'static [&'static str],
    /// Largest value a map entry may carry.
    max_value: u64,
}

const CATCHMENT_DOC: DocShape = DocShape {
    text_member: "name",
    text_member_escaped: r"n\u0061me",
    map_member: "map",
    texts: &[
        r#""SBV-5-15""#,
        r#""""#,
        r#""caf\u00e9 \"quoted\" \\ \/ \b\f\n\r\t""#,
        r#""\ud83d\ude00 escaped pair, raw 😀 é""#,
    ],
    max_value: u8::MAX as u64,
};

const ORIGINS_DOC: DocShape = DocShape {
    text_member: "schema",
    text_member_escaped: r"sch\u0065ma",
    map_member: "origins",
    texts: &[
        r#""vp-monitor-origins/v1""#,
        r#""vp-monitor-origins\/v1""#,
        r#""vp-monitor-origins/v1""#,
        r#""vp-monitor-origins/v2""#,
    ],
    max_value: u32::MAX as u64,
};

/// Layout decisions drawn from one generated seed.
struct Draws(u64);

impl Draws {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = mix(self.0, bound);
        self.0 % bound
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// Any JSON whitespace, or none.
    fn ws(&mut self) -> &'static str {
        ["", "", "", " ", "\n", "\t", " \r\n  "][self.below(7) as usize]
    }
}

/// One `"key": value` pair of the map member, as JSON text. Sets
/// `noncanonical` when the key is a spelling only the tree path accepts.
///
/// Valid entries draw their key from a small universe, so exact
/// duplicates (differently spelled, too: one digit may be escaped) occur
/// and last-wins is exercised. An invalid entry gets a key nothing else
/// uses: the reader checks every occurrence of a key, the tree only the
/// surviving one, so a *shadowed* invalid entry is the one document the
/// two treat differently by design (pinned by a unit test beside
/// `from_json`).
fn map_entry(
    shape: &DocShape,
    index: usize,
    (key_sel, value_sel, kind): (u32, u32, u8),
    noncanonical: &mut bool,
) -> (String, String) {
    let shared = key_sel % 40;
    let own = 1_000 + index;
    let valid = (u64::from(value_sel) % (shape.max_value + 1)).to_string();
    match kind {
        0..=55 => (format!("\"{shared}\""), valid),
        56 | 57 => {
            let digits = shared.to_string();
            (format!("\"\\u003{}\"", digits), valid)
        }
        58 => (
            format!("\"{own}\""),
            (shape.max_value + 1 + u64::from(value_sel)).to_string(),
        ),
        59 => ("\"4294967296\"".to_owned(), valid),
        60 => (format!("\"x{own}\""), valid),
        61 => {
            let wrong = ["\"3\"", "1.5", "null", "-1", "[]", "true", "{}"];
            (
                format!("\"{own}\""),
                wrong[value_sel as usize % wrong.len()].to_owned(),
            )
        }
        _ => {
            *noncanonical = true;
            let spelling = ["0", "+", "-0", "00"][value_sel as usize % 4];
            let digits = if spelling == "-0" {
                String::new()
            } else {
                own.to_string()
            };
            (format!("\"{spelling}{digits}\""), valid)
        }
    }
}

fn object_text(members: &[(String, String)], draws: &mut Draws) -> String {
    let mut text = format!("{{{}", draws.ws());
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text += &format!(
            "{}{key}{}:{}{value}{}",
            draws.ws(),
            draws.ws(),
            draws.ws(),
            draws.ws()
        );
    }
    text + "}"
}

/// Renders one document of `shape`: its members in any order, sometimes
/// missing, duplicated, mistyped or joined by unknown ones, with arbitrary
/// whitespace and sometimes trailing bytes. Returns the text and whether
/// it carries a non-canonical key.
fn render_doc(shape: &DocShape, entries: &[(u32, u32, u8)], layout: u64) -> (String, bool) {
    let mut draws = Draws(layout);
    let mut noncanonical = false;
    let rows: Vec<(String, String)> = entries
        .iter()
        .enumerate()
        .map(|(i, &e)| map_entry(shape, i, e, &mut noncanonical))
        .collect();

    let quoted = |name: &str| format!("\"{name}\"");
    let mut members: Vec<(String, String)> = Vec::new();
    let text_key = match draws.one_in(8) {
        true => quoted(shape.text_member_escaped),
        false => quoted(shape.text_member),
    };
    let text_value = |draws: &mut Draws| shape.texts[draws.below(4) as usize].to_owned();
    match draws.below(8) {
        0 => {}
        1 => members.push((text_key, "5".to_owned())),
        2 => {
            members.push((text_key.clone(), text_value(&mut draws)));
            members.push((text_key, text_value(&mut draws)));
        }
        _ => members.push((text_key, text_value(&mut draws))),
    }
    let map_key = quoted(shape.map_member);
    match draws.below(16) {
        0 => {}
        1 => members.push((map_key, "[]".to_owned())),
        2 | 3 => {
            // An earlier whole map that the later one must replace. The two
            // travel as one member so the shuffle keeps the generated rows
            // last: shadowed, their invalid entries would go unchecked by
            // the tree.
            let earlier = [
                ("\"1\"".to_owned(), "0".to_owned()),
                ("\"77\"".to_owned(), "1".to_owned()),
            ];
            let both = format!(
                "{},{}{map_key}:{}",
                object_text(&earlier, &mut draws),
                draws.ws(),
                object_text(&rows, &mut draws)
            );
            members.push((map_key, both));
        }
        _ => members.push((map_key, object_text(&rows, &mut draws))),
    }
    for _ in 0..draws.below(3) {
        let unknown = [
            (
                "\"extra\"",
                r#"{"a": [1, 2.5e3, {"b": null}], "name": "inner"}"#,
            ),
            ("\"zzz\"", r#""text with \"escapes\" \u00e9""#),
            ("\"\"", "[]"),
        ];
        let (key, value) = unknown[draws.below(3) as usize];
        members.push((key.to_owned(), value.to_owned()));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, draws.below(i as u64 + 1) as usize);
    }

    let trailing = ["", "", "", "", "", " \n", "x", "{}"][draws.below(8) as usize];
    let text = format!(
        "{}{}{}",
        draws.ws(),
        object_text(&members, &mut draws),
        trailing
    );
    (text, noncanonical)
}

/// Both readers must reject, or both accept and agree; the reader alone
/// may (and must) reject a document for a non-canonical key.
fn assert_same_verdict<T, U, E: std::fmt::Debug, F: std::fmt::Debug>(
    text: &str,
    noncanonical: bool,
    reader: Result<T, E>,
    tree: Result<U, F>,
    agree: impl FnOnce(T, U),
) {
    match (reader, tree) {
        (Ok(r), Ok(t)) => {
            assert!(!noncanonical, "a non-canonical key was accepted: {text}");
            agree(r, t);
        }
        (Err(_), Err(_)) => {}
        (Err(e), Ok(_)) => assert!(noncanonical, "only the reader rejects ({e:?}): {text}"),
        (Ok(_), Err(e)) => panic!("only the tree rejects ({e:?}): {text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn reader_ingest_agrees_with_the_tree_oracle(
        entries in proptest::collection::vec((0u32..1_000, any::<u32>(), 0u8..64), 0..20),
        layout in any::<u64>(),
    ) {
        let (text, noncanonical) = render_doc(&CATCHMENT_DOC, &entries, layout);
        let (reader, tree) = (CatchmentMap::from_json(&text), BTreeCatchment::from_json(&text));
        assert_same_verdict(&text, noncanonical, reader, tree, |col, tree| {
            assert_eq!(col.name, tree.name, "{text}");
            assert_engines_agree(&col, &tree);
        });

        let (text, noncanonical) = render_doc(&ORIGINS_DOC, &entries, layout);
        let (reader, tree) = (parse_origins(&text, "generated"), tree_parse_origins(&text));
        assert_same_verdict(&text, noncanonical, reader, tree, |reader, tree| {
            assert_eq!(reader, tree, "{text}");
        });
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
    assert!(!serial.catchments.is_empty());

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
