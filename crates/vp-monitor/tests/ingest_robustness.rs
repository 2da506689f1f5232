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
//! temp name no reader's glob matches. And a directory whose rounds start
//! past `r000` is read as what it is: its diffs carry its round numbers.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a once-built fixture is shared across proptest cases, and a poller thread races a live writer"
)]

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use verfploeter::CatchmentMap;
use vp_bgp::SiteId;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{
    list_round_files, load_origins_sidecar, load_round_file, origins_to_json, write_atomic,
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
    origins_to_json(&origins)
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
        let origins = load_origins_sidecar(&dir).expect("whole sidecar loads").expect("present");
        prop_assert_eq!(origins_to_json(&origins), sidecar.clone());
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

/// Runs `vp-monitor <args> --rounds <dir>`: its exit code, stdout and
/// stderr.
fn monitor(args: &[&str], dir: &Path) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vp-monitor"))
        .args(args)
        .arg("--rounds")
        .arg(dir)
        .output()
        .expect("run vp-monitor");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

const WATCH_FOLLOW: &[&str] = &["watch", "--follow", "--until-rounds", "4", "--poll-ms", "1"];

/// A rounds directory that starts at `r005` numbers its diffs from there:
/// in `diff`'s drift document and in `watch`'s narration, followed or not.
/// Numbers run up to `u32::MAX`, a diff's round type; a file past it is
/// refused by name before any round is numbered.
#[test]
fn diffs_are_numbered_from_the_directorys_first_round() {
    let write_rounds = |dir: &Path, rounds: &[u64]| {
        for (i, round) in rounds.iter().enumerate() {
            let doc = round_doc(&format!("r{round}"), &[(1, u8::from(i % 2 == 1)), (2, 0)]);
            std::fs::write(dir.join(format!("r{round:03}.json")), doc).expect("write round");
        }
    };
    let dir = scratch("first-round");
    write_rounds(&dir, &[5, 6, 7, 8]);
    let run = |args: &[&str]| {
        let (code, stdout, stderr) = monitor(args, &dir);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        stdout
    };

    let docs = dir.join("docs");
    run(&["diff", "--out", docs.to_str().expect("utf-8 path")]);
    let drift = std::fs::read_to_string(docs.join("drift.json")).expect("drift document");
    let drift: serde_json::Value = serde_json::from_str(&drift).expect("drift parses");
    let rounds = drift.get("rounds").and_then(serde_json::Value::as_array).expect("rounds");
    let numbered: Vec<_> = rounds.iter().filter_map(|d| d.get("round")?.as_u64()).collect();
    assert_eq!(numbered, [6, 7, 8]);

    for watch in [&["watch"][..], WATCH_FOLLOW] {
        let stdout = run(watch);
        let numbered: Vec<_> = stdout
            .lines()
            .filter_map(|line| line.strip_prefix("round ")?.split_once(':'))
            .map(|(round, _)| round)
            .collect();
        assert_eq!(numbered, ["6", "7", "8"], "{watch:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let last = u64::from(u32::MAX);
    let dir = scratch("last-round");
    write_rounds(&dir, &[last - 1, last]);
    let (code, stdout, stderr) = monitor(&["watch"], &dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains(&format!("round {last}: ")), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("past-last-round");
    write_rounds(&dir, &[last, last + 1]);
    for args in [&["diff"][..], &["watch"], WATCH_FOLLOW] {
        let (code, stdout, stderr) = monitor(args, &dir);
        assert_eq!(code, Some(2), "{args:?} accepted round {}: {stdout}", last + 1);
        assert!(stderr.contains(&format!("r{}.json", last + 1)), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("past round {last}")), "{args:?}: {stderr}");
        assert!(!stdout.contains("round "), "{args:?} numbered a diff: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--until-rounds` is a count of rounds: zero would stop `watch` before
/// its first round, so it is refused by name rather than read as an empty
/// directory.
#[test]
fn watch_refuses_zero_until_rounds() {
    let dir = scratch("until-zero");
    for round in 0..12u32 {
        let doc = round_doc(&format!("r{round}"), &[(1, 0), (2, 1)]);
        std::fs::write(dir.join(format!("r{round:03}.json")), doc).expect("write round");
    }
    for args in [&["watch", "--until-rounds", "0"][..], &["watch", "--follow", "--until-rounds", "0"]] {
        let (code, stdout, stderr) = monitor(args, &dir);
        assert_eq!(code, Some(2), "{args:?} accepted a zero count: {stdout}");
        assert!(stderr.contains("--until-rounds \"0\""), "{args:?}: {stderr}");
        assert!(!stderr.contains("no r*.json"), "{args:?}: {stderr}");
    }
    let (code, stdout, stderr) = monitor(&["watch", "--until-rounds", "3"], &dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("round ")).count(), 2, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A round holding a block the origins in use do not list is refused by
/// `diff` and `watch`, which name the file and the block: its flips would
/// otherwise drop out of the per-AS attribution, and the summary would
/// undercount them. The origins come from `--origins` or the sidecar.
#[test]
fn rounds_the_origins_do_not_list_are_refused_by_name() {
    let dir = scratch("unlisted-origins");
    let rounds: [&[(u32, u8)]; 3] = [&[(1, 0), (2, 0)], &[(1, 1), (2, 0)], &[(1, 0), (2, 1), (3, 1)]];
    for (round, pairs) in rounds.iter().enumerate() {
        let doc = round_doc(&format!("r{round}"), pairs);
        std::fs::write(dir.join(format!("r{round:03}.json")), doc).expect("write round");
    }
    let listed = dir.join("listed.json");
    std::fs::write(&listed, sidecar_doc(&[(1, 0), (2, 0), (3, 0)])).expect("write origins");
    std::fs::write(dir.join("origins.json"), sidecar_doc(&[(1, 0), (2, 0)])).expect("write sidecar");
    let unlisted = format!("r002.json: block {} is not in the origins in use", Block24(3));
    for args in [&["diff"][..], &["watch"], WATCH_FOLLOW] {
        let (code, stdout, stderr) = monitor(args, &dir);
        assert_eq!(code, Some(2), "{args:?} accepted an unlisted block: {stdout}");
        assert!(stderr.contains(&unlisted), "{args:?}: {stderr}");
    }
    // With origins that list every block, the same rounds replay.
    for command in ["diff", "watch"] {
        let args = [command, "--origins", listed.to_str().expect("utf-8 path")];
        let (code, stdout, stderr) = monitor(&args, &dir);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stdout.contains("round "), "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
