//! Loading monitoring inputs: catchment-round directories, the optional
//! block→origin-AS sidecar, and `vp-obs-report/v1` documents.
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
//! Round files are ordered by file *name*, never by directory order or
//! mtime — the ingest layer is as deterministic as everything downstream
//! of it. All fallible paths return `Err(String)` with the offending file
//! named; the library never panics on malformed input.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;
use verfploeter::catchment::CatchmentMap;
use vp_net::{Asn, Block24};

use crate::diff::Origins;

/// Lists the `r*.json` catchment snapshots in `dir`, sorted by file name
/// (lexicographic == numeric for the zero-padded `r000.json` scheme).
/// Non-round files (`origins.json`, a writer's `.r*.json.tmp`, anything
/// not `r*.json`) are skipped.
/// An empty list is not an error — `watch --follow` polls a directory
/// that may not have its first round yet.
pub fn list_round_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('r') && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort_unstable();
    Ok(names.into_iter().map(|n| dir.join(n)).collect())
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

/// Loads every round snapshot in `dir` at once (the batch path; an empty
/// directory is an error here).
pub fn load_rounds_dir(dir: &Path) -> Result<Vec<CatchmentMap>, String> {
    let files = list_round_files(dir)?;
    if files.is_empty() {
        return Err(format!("no r*.json round files in {}", dir.display()));
    }
    files.iter().map(|p| load_round_file(p)).collect()
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
/// sidecar document.
pub fn build_origins_doc(origins: &Origins) -> Value {
    let mut map = BTreeMap::new();
    for (block, asn) in origins {
        map.insert(block.0.to_string(), Value::U64(u64::from(asn.0)));
    }
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_owned(),
        Value::Str("vp-monitor-origins/v1".to_owned()),
    );
    doc.insert("origins".to_owned(), Value::Object(map));
    Value::Object(doc)
}

/// One scan entry of a `vp-obs-report/v1` document, reduced to the fields
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

/// A parsed `vp-obs-report/v1` document (the monitor's view of it).
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

/// Parses a `vp-obs-report/v1` document from its JSON text.
pub fn parse_obs_report(text: &str, what: &str) -> Result<ObsReportDoc, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("vp-obs-report/v1") => {}
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

/// Loads and parses a `vp-obs-report/v1` file.
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

    #[test]
    fn rounds_dir_sorts_by_name_and_skips_sidecars() {
        let dir = std::env::temp_dir().join("vp-monitor-ingest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Write out of order; expect name order back.
        for (file, block) in [("r002.json", 30u32), ("r000.json", 10), ("r001.json", 20)] {
            let m = CatchmentMap::from_pairs(file, [(Block24(block), SiteId(0))]);
            std::fs::write(dir.join(file), m.to_json()).unwrap();
        }
        std::fs::write(dir.join("origins.json"), "{not json").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        // A round still being written sits under its writer's temp name.
        std::fs::write(dir.join(".r003.json.tmp"), "{\"name\":\"r003.json\",\"ma").unwrap();
        let rounds = load_rounds_dir(&dir).unwrap();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0].site_of(Block24(10)), Some(SiteId(0)));
        assert_eq!(rounds[2].site_of(Block24(30)), Some(SiteId(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_rounds_dir_is_an_error() {
        let dir = std::env::temp_dir().join("vp-monitor-ingest-empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_rounds_dir(&dir).is_err());
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
            "schema": "vp-obs-report/v1",
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
