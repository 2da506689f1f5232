//! Torn and truncated snapshot files (ROADMAP 4c): whatever prefix of a
//! round file or an origins sidecar a reader finds on disk, loading it is
//! an error naming the file — never a panic, never a shorter map.
//!
//! The writers rename finished files into place, so a follower should not
//! meet a prefix at all; this is the guarantee for when it does anyway (a
//! crash between write and rename on another writer, a copy in flight).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use verfploeter::catchment::CatchmentMap;
use vp_bgp::SiteId;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{build_origins_doc, load_origins_sidecar, load_round_file};
use vp_net::{Asn, Block24};

/// A scratch directory of this test's own (tests run on parallel threads).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vp-monitor-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn round_doc(name: &str, pairs: &[(u32, u8)]) -> String {
    CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s)))).to_json()
}

fn sidecar_doc(pairs: &[(u32, u8)]) -> String {
    let origins: Origins = pairs
        .iter()
        .map(|&(b, s)| (Block24(b), Asn(64500 + u32::from(s))))
        .collect();
    serde_json::to_string_pretty(&build_origins_doc(&origins)).expect("sidecar renders")
}

/// Writes the `cut`-byte prefix of each document `cut` is a proper prefix
/// of — as a round file, as a sidecar — and loads it.
fn assert_prefix_rejected(dir: &Path, round: &[u8], sidecar: &[u8], cut: usize) {
    fn proper(doc: &[u8], cut: usize) -> Option<&[u8]> {
        doc.get(..cut).filter(|prefix| prefix.len() < doc.len())
    }
    let path = dir.join("r000.json");
    if let Some(prefix) = proper(round, cut) {
        std::fs::write(&path, prefix).expect("write prefix");
        let err = load_round_file(&path).expect_err("a truncated round file must not load");
        assert!(err.contains("r000.json"), "cut {cut}: {err}");
    }
    if let Some(prefix) = proper(sidecar, cut) {
        std::fs::write(dir.join("origins.json"), prefix).expect("write prefix");
        let err = load_origins_sidecar(dir).expect_err("a truncated sidecar must not load");
        assert!(err.contains("origins.json"), "cut {cut}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small documents, cut at every byte — mid-token, mid-escape and
    /// mid-character (the name is not ASCII) included.
    #[test]
    fn every_proper_prefix_of_a_small_snapshot_is_an_error(
        pairs in prop::collection::vec((0u32..20_000_000, 0u8..9), 0..10),
        name in "[a-z\"\\\\ é😀/-]{0,8}",
    ) {
        let dir = scratch("prefix-small");
        let (round, sidecar) = (round_doc(&name, &pairs), sidecar_doc(&pairs));
        // The whole documents load; every shorter one must not.
        std::fs::write(dir.join("r000.json"), &round).expect("write round");
        std::fs::write(dir.join("origins.json"), &sidecar).expect("write sidecar");
        prop_assert_eq!(load_round_file(&dir.join("r000.json")).expect("whole round loads").to_json(), round.clone());
        prop_assert!(load_origins_sidecar(&dir).expect("whole sidecar loads").is_some());
        for cut in 0..round.len().max(sidecar.len()) {
            assert_prefix_rejected(&dir, round.as_bytes(), sidecar.as_bytes(), cut);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A 30 000-entry round and sidecar, cut at sampled offsets.
    #[test]
    fn sampled_prefixes_of_a_large_snapshot_are_errors(
        cuts in prop::collection::vec(0usize..1_000_000, 1..8),
    ) {
        static DOCS: OnceLock<(String, String)> = OnceLock::new();
        let (round, sidecar) = DOCS.get_or_init(|| {
            let pairs: Vec<(u32, u8)> =
                (0..30_000u32).map(|i| (9_900_000 + 7 * i, (i % 9) as u8)).collect();
            (round_doc("large", &pairs), sidecar_doc(&pairs))
        });
        let dir = scratch("prefix-large");
        for cut in cuts {
            assert_prefix_rejected(&dir, round.as_bytes(), sidecar.as_bytes(), cut % round.len());
            assert_prefix_rejected(&dir, round.as_bytes(), sidecar.as_bytes(), cut % sidecar.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
