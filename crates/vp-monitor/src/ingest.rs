//! Loading monitoring inputs: catchment-round directories, the optional
//! block→origin-AS sidecar, and `vp-obs-report/v2` documents.
//!
//! The canonical source is a snapshot directory written by
//! `fig9_stability --snapshots <dir>`:
//!
//! ```text
//! rounds/
//!   origins.json   (optional `vp-monitor-origins/v1` sidecar)
//!   r000.json      (CatchmentMap for round 0)
//!   r001.json
//!   ...
//! ```
//!
//! Round files are ordered by the round number in their name, never by
//! directory order or mtime — the ingest layer is as deterministic as
//! everything downstream of it — and their numbers must run without a gap
//! or a repeat, up to `u32::MAX`, the last round a diff can carry. All
//! fallible paths return `Err(String)` with the offending file named; the
//! library never panics on malformed input.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};
use verfploeter::catchment::CatchmentMap;
use vp_net::{Asn, Block24};

use crate::diff::Origins;

/// The round a file named `r<digits>.json` holds; `None` for any other
/// name (`origins.json`, a writer's `.r000.json.tmp`), an error for a
/// number past `u32::MAX`.
fn round_number(name: &str) -> Option<Result<u32, std::num::ParseIntError>> {
    let digits = name.strip_prefix('r')?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(digits.parse())
}

/// The round files of `dir` with their round numbers, in round order,
/// numbered without a repeat or a gap. A diff carries its round as a
/// `u32`, so a file numbered past `u32::MAX` is an error naming it.
fn list_rounds(dir: &Path) -> Result<Vec<(u32, PathBuf)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut rounds = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if let Some(round) = round_number(&entry.file_name().to_string_lossy()) {
            let round = round.map_err(|_| {
                format!("{}: its round is past round {}, the last a diff can number", path.display(), u32::MAX)
            })?;
            rounds.push((round, path));
        }
    }
    rounds.sort_unstable();
    for pair in rounds.windows(2) {
        let [(prev, a), (round, b)] = pair else { continue };
        if round == prev {
            return Err(format!("{} and {} both hold round {round}", a.display(), b.display()));
        }
        if *round != prev + 1 {
            return Err(missing(b, (*round).into(), u64::from(*prev) + 1));
        }
    }
    Ok(rounds)
}

fn missing(path: &Path, round: u64, next: u64) -> String {
    format!("{}: round {round} follows round {}; round {next} is missing", path.display(), next - 1)
}

/// Lists the `r<digits>.json` catchment snapshots in `dir` in round-number
/// order (`r1000.json` after `r999.json`, whatever the padding). Other
/// files (`origins.json`, a writer's `.r000.json.tmp`) are skipped. Two
/// files with one number, a gap in the numbering and a number past
/// `u32::MAX` are errors naming the file. An empty list is not an error — `watch --follow` polls a
/// directory that may not have its first round yet.
pub fn list_round_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    Ok(list_rounds(dir)?.into_iter().map(|(_, path)| path).collect())
}

/// The rounds of a directory that may still be growing, read in order:
/// each [`RoundTail::poll`] returns those that landed since the last.
pub struct RoundTail {
    dir: PathBuf,
    /// The first round read and the next one due (past `u32::MAX` once
    /// that round is read).
    read: Option<(u32, u64)>,
}

impl RoundTail {
    pub fn new(dir: &Path) -> RoundTail {
        RoundTail { dir: dir.to_owned(), read: None }
    }

    /// The round files listed now and not read before, with their round
    /// numbers, in round order. Beyond [`list_round_files`]' refusals, a
    /// round that is not the next one due is an error naming its file: one
    /// landing below the first round read, or one past the next (the
    /// rounds between were never listed).
    pub fn poll(&mut self) -> Result<Vec<(u32, PathBuf)>, String> {
        let mut fresh = Vec::new();
        for (round, path) in list_rounds(&self.dir)? {
            let (first, next) = *self.read.get_or_insert((round, round.into()));
            if round < first {
                return Err(format!("{}: round {round} landed after round {first} was read", path.display()));
            }
            if u64::from(round) > next {
                return Err(missing(&path, round.into(), next));
            }
            if u64::from(round) == next {
                fresh.push((round, path));
                self.read = Some((first, next + 1));
            }
        }
        Ok(fresh)
    }
}

/// Publishes `text` at `path` for readers that may poll it: written under
/// a sibling name no reader lists (`.<name>.tmp` — not `r*.json` for
/// [`list_round_files`], not `*.json` for `validate`) and renamed into
/// place, so a poller sees the previous whole file or the new whole file.
/// Every writer of a document a reader may poll goes through here. The
/// rename orders the file for readers; it is not a durability barrier.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Loads one catchment-snapshot round file.
pub fn load_round_file(path: &Path) -> Result<CatchmentMap, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    CatchmentMap::from_json(&text)
        .map_err(|e| format!("{}: invalid catchment map: {e}", path.display()))
}

/// Loads one round file, refusing a block `origins` does not list: its
/// flips would drop out of the per-AS attribution.
pub fn load_round_listed(path: &Path, origins: Option<&Origins>) -> Result<CatchmentMap, String> {
    let map = load_round_file(path)?;
    match origins.and_then(|o| map.iter().find(|(block, _)| !o.contains_key(block))) {
        Some((block, _)) => Err(format!("{}: block {block} is not in the origins in use", path.display())),
        None => Ok(map),
    }
}

/// Loads every round snapshot in `dir` at once through
/// [`load_round_listed`], with the directory's first round number (the
/// batch path; an empty directory is an error here).
pub fn load_rounds_dir(dir: &Path, origins: Option<&Origins>) -> Result<(u32, Vec<CatchmentMap>), String> {
    let rounds = list_rounds(dir)?;
    let Some(&(first, _)) = rounds.first() else {
        return Err(format!("no r*.json round files in {}", dir.display()));
    };
    let maps = rounds.iter().map(|(_, path)| load_round_listed(path, origins));
    Ok((first, maps.collect::<Result<_, _>>()?))
}

/// Parses the `vp-monitor-origins/v1` sidecar mapping each /24 block to
/// its origin AS, used to attribute flips per AS.
///
/// Walks the text once, like [`CatchmentMap::from_json`], and by the
/// same rules: members in any order, unknown ones skipped, a
/// block key in canonical decimal, an ASN that fits `u32`, the last of
/// duplicate keys wins.
pub fn parse_origins(text: &str, what: &str) -> Result<Origins, String> {
    read_origins(text).map_err(|e| format!("{what}: invalid origins sidecar: {e}"))
}

fn read_origins(text: &str) -> Result<Origins, serde_json::Error> {
    let mut reader = serde_json::Reader::new(text);
    let (mut schema, mut origins) = (None, None);
    reader.begin_object()?;
    while let Some(member) = reader.next_key()? {
        match &*member {
            "schema" => schema = Some(reader.string()?),
            "origins" => {
                // Keys arrive in string order, not block order: collect,
                // then build the map in bulk. `from_iter` sorts stably and
                // keeps the last of equal keys, so the last duplicate wins.
                let mut pairs = Vec::new();
                reader.begin_object()?;
                while let Some(key) = reader.next_key()? {
                    let block = Block24::from_key(&key)
                        .ok_or_else(|| reader.error(format!("bad block key {key:?}")))?;
                    let asn = u32::try_from(reader.u64()?)
                        .map_err(|_| reader.error(format!("bad ASN for block {key}")))?;
                    pairs.push((block, Asn(asn)));
                }
                origins = Some(Origins::from_iter(pairs));
            }
            _ => reader.skip()?,
        }
    }
    reader.end()?;
    if schema.as_deref() != Some("vp-monitor-origins/v1") {
        let found = format!("unexpected schema {schema:?}");
        return Err(serde_json::Error::msg(found));
    }
    origins.ok_or_else(|| serde_json::Error::msg("missing origins object"))
}

/// Loads the `origins.json` sidecar next to the round files, if present.
pub fn load_origins_sidecar(dir: &Path) -> Result<Option<Origins>, String> {
    let path = dir.join("origins.json");
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_origins(&text, &path.display().to_string()).map(Some)
}

/// Renders an [`Origins`] map as the canonical `vp-monitor-origins/v1`
/// sidecar document: `schema`, and `origins` mapping each block's decimal
/// number to its origin ASN.
pub fn build_origins_doc(origins: &Origins) -> Value {
    json!({ "schema": "vp-monitor-origins/v1", "origins": origins })
}

/// One scan entry of a `vp-obs-report/v2` document, reduced to the fields
/// the monitor consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSummary {
    /// Dataset name, e.g. `"STV-3-23/r17"`.
    pub name: String,
    pub probes_sent: u64,
    pub blocks_mapped: u64,
    /// Sim-time bounds: scan span = `sim_end_ns - started_ns`.
    pub started_ns: u64,
    pub sim_end_ns: u64,
}

impl ScanSummary {
    /// Sim-time duration of the scan.
    pub fn duration_ns(&self) -> u64 {
        self.sim_end_ns.saturating_sub(self.started_ns)
    }
}

/// A parsed `vp-obs-report/v2` document (the monitor's view of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReportDoc {
    pub experiment: String,
    pub mode: String,
    pub scans: Vec<ScanSummary>,
}

impl ObsReportDoc {
    /// Maps `"<dataset>/r<N>"` scan names to per-round durations: index
    /// `N` → sim-time span. Scans without the round suffix are ignored.
    /// This is how fig9's obs report feeds the `scan-duration` alert rule.
    pub fn round_durations(&self) -> BTreeMap<u32, u64> {
        let mut durations = BTreeMap::new();
        for scan in &self.scans {
            if let Some(idx) = scan.name.rsplit_once("/r").and_then(|(_, n)| n.parse().ok()) {
                durations.insert(idx, scan.duration_ns());
            }
        }
        durations
    }
}

/// Parses a `vp-obs-report/v2` document from its JSON text.
pub fn parse_obs_report(text: &str, what: &str) -> Result<ObsReportDoc, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("vp-obs-report/v2") => {}
        other => return Err(format!("{what}: unexpected schema {other:?}")),
    }
    let experiment = doc
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing experiment"))?
        .to_owned();
    let mode = doc
        .get("mode")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing mode"))?
        .to_owned();
    let mut scans = Vec::new();
    for (i, scan) in doc
        .get("scans")
        .and_then(Value::as_array)
        .map(Vec::as_slice)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let field = |key: &str| -> Result<u64, String> {
            scan.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{what}: scans[{i}] missing {key}"))
        };
        scans.push(ScanSummary {
            name: scan
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{what}: scans[{i}] missing name"))?
                .to_owned(),
            probes_sent: field("probes_sent")?,
            blocks_mapped: field("blocks_mapped")?,
            started_ns: field("started_ns")?,
            sim_end_ns: field("sim_end_ns")?,
        });
    }
    Ok(ObsReportDoc {
        experiment,
        mode,
        scans,
    })
}

/// Loads and parses a `vp-obs-report/v2` file.
pub fn load_obs_report(path: &Path) -> Result<ObsReportDoc, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_obs_report(&text, &path.display().to_string())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests' scratch directories; no result depends on where they live"
)]
mod tests {
    use super::*;
    use vp_bgp::SiteId;

    /// A fresh scratch directory holding one round file per name.
    fn rounds_dir(test: &str, files: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vp-monitor-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for file in files {
            write_round(&dir, file);
        }
        dir
    }

    /// Writes round file `file`, whose one block is the round number.
    fn write_round(dir: &Path, file: &str) {
        let block = round_number(file).and_then(Result::ok).unwrap_or(u32::MAX);
        let m = CatchmentMap::from_pairs(file, [(Block24(block), SiteId(0))]);
        std::fs::write(dir.join(file), m.to_json()).unwrap();
    }

    #[test]
    fn rounds_dir_sorts_by_name_and_skips_sidecars() {
        // Written out of order, and across a change of digit count, where
        // name order and round order part.
        for files in [&["r002.json", "r000.json", "r001.json"], &["r1000.json", "r999.json", "r1001.json"]] {
            let dir = rounds_dir("sorts", files);
            std::fs::write(dir.join("origins.json"), "{not json").unwrap();
            std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
            std::fs::write(dir.join("rough.json"), "{not json").unwrap();
            // A round still being written sits under its writer's temp name.
            std::fs::write(dir.join(".r003.json.tmp"), "{\"name\":\"r003.json\",\"ma").unwrap();
            let (first, rounds) = load_rounds_dir(&dir, None).unwrap();
            let mut want: Vec<u32> = files.iter().filter_map(|f| round_number(f)).map(Result::unwrap).collect();
            want.sort_unstable();
            let got: Vec<u32> = rounds.iter().map(|m| m.iter().next().unwrap().0 .0).collect();
            assert_eq!(got, want);
            assert_eq!(first, want[0]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Rounds out of turn are refused, each with the file or the round
    /// named: a repeated number and a gap by any listing, and under a
    /// tail, a round landing below the first one read or a first new
    /// round past the next one.
    #[test]
    fn round_files_out_of_turn_are_refused_by_name() {
        let refused = |files: &[&str], named: &[&str]| {
            let dir = rounds_dir("refused", files);
            let err = list_round_files(&dir).unwrap_err();
            assert!(named.iter().all(|n| err.contains(n)), "{err}");
            assert_eq!(load_rounds_dir(&dir, None).unwrap_err(), err);
            let _ = std::fs::remove_dir_all(&dir);
        };
        refused(&["r000.json", "r001.json", "r1.json"], &["r001.json", "r1.json", "round 1"]);
        refused(&["r005.json", "r007.json"], &["r007.json", "round 6 is missing"]);
        // A diff numbers its round as a u32; one past that is named, not wrapped.
        refused(&["r4294967295.json", "r4294967296.json"], &["r4294967296.json", "past round 4294967295"]);

        let dir = rounds_dir("tail", &["r001.json", "r002.json"]);
        let mut tail = RoundTail::new(&dir);
        assert_eq!(tail.poll().unwrap(), [(1, dir.join("r001.json")), (2, dir.join("r002.json"))]);
        assert!(tail.poll().unwrap().is_empty());
        write_round(&dir, "r003.json");
        assert_eq!(tail.poll().unwrap(), [(3, dir.join("r003.json"))]);
        // A late lower-numbered file shifts the listing under the tail.
        write_round(&dir, "r000.json");
        let err = tail.poll().unwrap_err();
        assert!(err.contains("r000.json") && err.contains("round 0"), "{err}");
        // Old rounds pruned, and the next one skipped.
        for round in ["r000.json", "r001.json", "r002.json", "r003.json"] {
            std::fs::remove_file(dir.join(round)).unwrap();
        }
        write_round(&dir, "r005.json");
        let err = tail.poll().unwrap_err();
        assert!(err.contains("r005.json") && err.contains("round 4 is missing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // The last round a diff can number is read once.
        let dir = rounds_dir("tail-last", &["r4294967295.json"]);
        let mut tail = RoundTail::new(&dir);
        assert_eq!(tail.poll().unwrap(), [(u32::MAX, dir.join("r4294967295.json"))]);
        assert!(tail.poll().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_rounds_dir_is_an_error() {
        let dir = std::env::temp_dir().join("vp-monitor-ingest-empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_rounds_dir(&dir, None).is_err());
        // ... but merely *listing* an empty directory is fine: the follow
        // path polls a directory whose first round hasn't landed yet.
        assert_eq!(list_round_files(&dir).unwrap(), Vec::<std::path::PathBuf>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn origins_doc_roundtrips() {
        let mut origins: Origins = BTreeMap::new();
        origins.insert(Block24(7), Asn(64512));
        origins.insert(Block24(9), Asn(64513));
        let doc = build_origins_doc(&origins);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = parse_origins(&text, "test").unwrap();
        assert_eq!(back, origins);
        for bad in [
            "{}",
            "nope",
            r#"{"schema": "vp-monitor-origins/v1"}"#,
            r#"{"schema": "other/v1", "origins": {}}"#,
            r#"{"schema": "vp-monitor-origins/v1", "origins": {"07": 1}}"#,
            r#"{"schema": "vp-monitor-origins/v1", "origins": {"7": 4294967296}}"#,
            r#"{"schema": "vp-monitor-origins/v1", "origins": {"7": 1}} trailing"#,
        ] {
            let err = parse_origins(bad, "the-sidecar").unwrap_err();
            assert!(err.starts_with("the-sidecar: "), "{err}");
        }
        // Members in any order, unknown ones skipped, the last duplicate wins.
        let text = r#"{"origins": {"7": 1, "9": 2, "7": 3}, "note": [1], "schema": "vp-monitor-origins/v1"}"#;
        let parsed = parse_origins(text, "test").unwrap();
        let want: Origins = [(Block24(7), Asn(3)), (Block24(9), Asn(2))].into();
        assert_eq!(parsed, want);
    }

    /// The bulk build is the insert loop it replaced: keys in the
    /// document's string order with adjacent repeats, then repeats of
    /// earlier keys at the end, give the map that inserting each member
    /// in turn gives.
    #[test]
    fn bulk_built_origins_equal_the_insert_loop() {
        let mut members: Vec<(u32, u32)> = (0..300).map(|b| (b * 7 % 1_000, b)).collect();
        members.extend((0..40).map(|b| (b * 7 % 1_000, 5_000 + b)));
        members.sort_by_key(|&(block, _)| block.to_string());
        members.extend([(7, 9_001), (63, 9_002), (7, 9_003)]);
        let body: Vec<String> = members
            .iter()
            .map(|(b, a)| format!("\"{b}\": {a}"))
            .collect();
        let text = format!(
            r#"{{"schema": "vp-monitor-origins/v1", "origins": {{{}}}}}"#,
            body.join(", ")
        );
        let mut inserted = Origins::new();
        for &(block, asn) in &members {
            inserted.insert(Block24(block), Asn(asn));
        }
        assert_eq!(parse_origins(&text, "test").unwrap(), inserted);
        assert_eq!(inserted.get(&Block24(7)), Some(&Asn(9_003)));
    }

    #[test]
    fn obs_report_parses_and_extracts_round_durations() {
        let text = r#"{
            "schema": "vp-obs-report/v2",
            "experiment": "fig9_stability",
            "mode": "summary",
            "scans": [
                {"name": "STV-3-23/r0", "probes_sent": 10, "blocks_mapped": 9,
                 "started_ns": 0, "sim_end_ns": 500},
                {"name": "STV-3-23/r1", "probes_sent": 10, "blocks_mapped": 9,
                 "started_ns": 1000, "sim_end_ns": 1700},
                {"name": "SBV-5-15", "probes_sent": 3, "blocks_mapped": 3,
                 "started_ns": 0, "sim_end_ns": 10}
            ]
        }"#;
        let doc = parse_obs_report(text, "test").unwrap();
        assert_eq!(doc.experiment, "fig9_stability");
        assert_eq!(doc.scans.len(), 3);
        let durations = doc.round_durations();
        assert_eq!(durations.len(), 2); // the unnumbered scan is skipped
        assert_eq!(durations[&0], 500);
        assert_eq!(durations[&1], 700);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(parse_obs_report(r#"{"schema":"other/v1"}"#, "t").is_err());
        assert!(parse_obs_report("[]", "t").is_err());
    }
}
