//! Snapshot emission for the vp-monitor replay pipeline.
//!
//! `fig9_stability --snapshots <dir>` writes each stability round's
//! [`CatchmentMap`] as `r<NNN>.json` plus a `vp-monitor-origins/v1`
//! sidecar mapping every block that ever responded to its origin AS.
//! `vp-monitor diff --rounds <dir>` then replays the sequence offline:
//! the same drift numbers fig9 reports, but as an alertable stream
//! instead of a figure.
//!
//! File names are zero-padded so lexicographic order equals round order —
//! the property `vp_monitor::ingest::load_rounds_dir` sorts by.

use std::collections::BTreeSet;
use std::path::Path;

use verfploeter::catchment::CatchmentMap;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{build_origins_doc, write_atomic};
use vp_net::Block24;
use vp_topology::Internet;

/// Origin-AS attribution for every block appearing in any round.
fn collect_origins(rounds: &[CatchmentMap], world: &Internet) -> Origins {
    let blocks: BTreeSet<Block24> = rounds.iter().flat_map(|r| r.iter().map(|(b, _)| b)).collect();
    blocks
        .into_iter()
        .filter_map(|b| world.block(b).map(|info| (b, info.origin)))
        .collect()
}

/// Writes the per-round snapshots and the origins sidecar into `dir`
/// (created if needed), each through [`write_atomic`] so a `watch
/// --follow` polling the directory sees a whole file or none. Returns the
/// number of round files written.
pub fn write_round_snapshots(
    dir: &Path,
    rounds: &[CatchmentMap],
    world: &Internet,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (i, round) in rounds.iter().enumerate() {
        write_atomic(&dir.join(format!("r{i:03}.json")), &round.to_json())?;
    }
    let origins = collect_origins(rounds, world);
    let doc = build_origins_doc(&origins);
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| format!("serialize origins sidecar: {e}"))?;
    write_atomic(&dir.join("origins.json"), &text)?;
    Ok(rounds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lab, Scale};
    use vp_monitor::ingest::{load_origins_sidecar, load_rounds_dir};

    /// Round-trips tiny-scale fig9 rounds through the snapshot format and
    /// checks the reloaded sequence is identical, block for block.
    #[test]
    fn snapshots_roundtrip_through_vp_monitor_ingest() {
        let lab = Lab::new(Scale::Tiny);
        let rounds = lab.tangled_rounds();
        let world = &lab.tangled().world;
        #[expect(
            clippy::disallowed_methods,
            reason = "a test's scratch directory; no result depends on where it lives"
        )]
        let dir = std::env::temp_dir().join("vp-monitor-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);

        let n = write_round_snapshots(&dir, &rounds, world).expect("write snapshots");
        assert_eq!(n, rounds.len());

        // Nothing but the finished files is left behind: every temp name
        // was renamed into place.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("list snapshots")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort_unstable();
        let mut want: Vec<String> = (0..n).map(|i| format!("r{i:03}.json")).collect();
        want.insert(0, "origins.json".to_owned());
        assert_eq!(names, want);

        let reloaded = load_rounds_dir(&dir).expect("reload rounds");
        assert_eq!(reloaded.len(), rounds.len());
        for (orig, back) in rounds.iter().zip(&reloaded) {
            assert_eq!(orig.name, back.name);
            assert_eq!(orig.len(), back.len());
            for (b, s) in orig.iter() {
                assert_eq!(back.site_of(b), Some(s));
            }
        }

        let origins = load_origins_sidecar(&dir).expect("sidecar").expect("present");
        // Every block of every round has an attributed origin.
        for round in rounds.iter() {
            for (b, _) in round.iter() {
                assert!(origins.contains_key(&b), "block {b} missing from origins");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
