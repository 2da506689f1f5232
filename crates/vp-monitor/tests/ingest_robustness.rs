//! Torn and truncated snapshot files (ROADMAP 4c): whatever prefix of a
//! round file or an origins sidecar a reader finds on disk, loading it is
//! an error naming the file — never a panic, never a shorter map.
//!
//! The writers rename finished files into place, so a follower should not
//! meet a prefix at all; this is the guarantee for when it does anyway (a
//! crash between write and rename on another writer, a copy in flight).
//!
//! The other half is the writers' side (ROADMAP 4a): every document a
//! reader may poll is published through `write_atomic`, whose in-flight
//! temp name no reader's glob matches.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a once-built fixture is shared across proptest cases, and a poller thread races a live writer"
)]

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use verfploeter::catchment::CatchmentMap;
use vp_bgp::SiteId;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{
    build_origins_doc, list_round_files, load_origins_sidecar, load_round_file, write_atomic,
};
use vp_net::{Asn, Block24};

/// A scratch directory of this test's own (tests run on parallel threads).
fn scratch(test: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-monitor-{test}-{}", std::process::id()));
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

/// A published document is never observable partially written. What a
/// publish in flight (or a writer killed mid-publish) leaves on disk is a
/// prefix under the temp name: `list_round_files` does not list it,
/// `vp-monitor validate <dir>` does not open it, and the final path holds
/// the previous whole document until the rename replaces it with the next.
#[test]
fn a_publish_in_flight_is_invisible_to_every_reader() {
    let pairs = |round: u32| -> Vec<(u32, u8)> {
        (0..200u32).map(|i| (9_900_000 + 7 * i, ((i + round) % 9) as u8)).collect()
    };
    let (old_round, new_round) = (round_doc("r0", &pairs(0)), round_doc("r1", &pairs(1)));
    let status_golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/daemon/vp_daemon_status.json");
    let status = std::fs::read_to_string(&status_golden).expect("committed status golden");

    let rounds = scratch("publish-rounds");
    let docs = scratch("publish-docs");
    write_atomic(&rounds.join("r000.json"), &old_round).expect("publish round");
    write_atomic(&docs.join("status.json"), &status).expect("publish status");
    // The state mid-publish: half of the next document under the temp name.
    std::fs::write(rounds.join(".r000.json.tmp"), &new_round[..new_round.len() / 2])
        .expect("plant torn round");
    std::fs::write(rounds.join(".r001.json.tmp"), &new_round[..new_round.len() / 2])
        .expect("plant torn round");
    std::fs::write(docs.join(".status.json.tmp"), &status[..status.len() / 2])
        .expect("plant torn status");

    // The follower lists one whole round and loads it.
    let listed = list_round_files(&rounds).expect("list rounds");
    assert_eq!(listed, vec![rounds.join("r000.json")]);
    assert_eq!(load_round_file(&listed[0]).expect("whole round").to_json(), old_round);
    // `validate <dir>` sees one document, and it conforms.
    let validate = std::process::Command::new(env!("CARGO_BIN_EXE_vp-monitor"))
        .arg("validate")
        .arg(&docs)
        .output()
        .expect("run vp-monitor validate");
    let stdout = String::from_utf8_lossy(&validate.stdout);
    assert!(validate.status.success(), "validate failed: {stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("status.json: ok"), "{stdout}");

    // Finishing the publish replaces the whole document and consumes the
    // temp name.
    write_atomic(&rounds.join("r000.json"), &new_round).expect("republish round");
    assert_eq!(load_round_file(&rounds.join("r000.json")).expect("whole round").to_json(), new_round);
    assert!(!rounds.join(".r000.json.tmp").exists());
    for dir in [rounds, docs] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same guarantee against a live poller: while a writer republishes
/// two different rounds over one path, every read of that path parses to
/// one of them, whole. (With a bare `fs::write` the poller meets the
/// truncate-then-write window within a few publishes.)
#[test]
fn a_poller_only_ever_reads_whole_documents() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let docs: Vec<String> = [0u32, 1]
        .iter()
        .map(|r| {
            let pairs: Vec<(u32, u8)> =
                (0..4_000 + 2_000 * r).map(|i| (9_900_000 + 7 * i, ((i + r) % 9) as u8)).collect();
            round_doc(&format!("r{r}"), &pairs)
        })
        .collect();
    let dir = scratch("publish-poll");
    let path = dir.join("r000.json");
    write_atomic(&path, &docs[0]).expect("first publish");
    let reads = AtomicUsize::new(0);
    const WANT_READS: usize = 200;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while reads.load(Ordering::SeqCst) < WANT_READS {
                let got = load_round_file(&path).expect("a poller must never meet a torn file");
                assert!(docs.contains(&got.to_json()), "read a document nobody published");
                reads.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Publish until the poller has read its fill (bounded, so a stuck
        // poller fails the test instead of hanging it).
        for i in 0..50_000usize {
            if reads.load(Ordering::SeqCst) >= WANT_READS {
                break;
            }
            write_atomic(&path, &docs[i % 2]).expect("republish");
        }
    });
    assert!(reads.load(Ordering::SeqCst) >= WANT_READS);
    let _ = std::fs::remove_dir_all(&dir);
}
