//! Anycast stability over time (Fig. 9, Table 7).
//!
//! §6.3: the catchment of the Tangled testbed is measured every 15 minutes
//! for 24 hours (96 rounds); VPs are classified per round against the
//! previous round as **stable**, **flipped** (same VP, different site),
//! **to-NR** (stopped responding) or **from-NR** (started responding).
//! Flips are rare (~0.1% per round) but concentrated: one AS contributes
//! half of them.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;
use vp_net::conv;
use vp_net::{Asn, Block24};
use vp_topology::Internet;

use crate::catchment::{CatchmentMap, Joined};

/// Per-round classification counts (one Fig. 9 data point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RoundDelta {
    /// Round index (1-based: deltas compare round r against r-1).
    pub round: u32,
    pub stable: u64,
    pub flipped: u64,
    pub to_nr: u64,
    pub from_nr: u64,
}

/// Classifies consecutive measurement rounds. Returns one delta per round
/// after the first.
pub fn classify_rounds(rounds: &[CatchmentMap]) -> Vec<RoundDelta> {
    rounds
        .iter()
        .zip(rounds.iter().skip(1))
        .enumerate()
        .map(|(i, (prev, cur))| {
            let mut delta = RoundDelta {
                round: conv::sat_u32(i) + 1,
                stable: 0,
                flipped: 0,
                to_nr: 0,
                from_nr: 0,
            };
            for row in prev.join(cur) {
                match row {
                    Joined::Both(_, was, now) if was == now => delta.stable += 1,
                    Joined::Both(..) => delta.flipped += 1,
                    Joined::Left(..) => delta.to_nr += 1,
                    Joined::Right(..) => delta.from_nr += 1,
                }
            }
            delta
        })
        .collect()
}

/// Blocks that ever changed site across the rounds — the "unstable VPs"
/// §6.2 removes before the AS-division analysis.
pub fn unstable_blocks(rounds: &[CatchmentMap]) -> BTreeSet<Block24> {
    let mut first_site: BTreeMap<Block24, vp_bgp::SiteId> = BTreeMap::new();
    let mut unstable = BTreeSet::new();
    for round in rounds {
        for (block, site) in round.iter() {
            match first_site.entry(block) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    if *e.get() != site {
                        unstable.insert(block);
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(site);
                }
            }
        }
    }
    unstable
}

/// One row of Table 7: an AS and its share of all site flips.
#[derive(Debug, Clone, Serialize)]
pub struct FlipRow {
    pub asn: Asn,
    /// Distinct /24s of this AS that flipped at least once.
    pub blocks: u64,
    /// Total flips observed from this AS.
    pub flips: u64,
    /// Fraction of all flips.
    pub frac: f64,
}

/// Per-AS flip accounting across rounds (Table 7).
#[derive(Debug, Clone, Serialize)]
pub struct FlipTable {
    /// Rows sorted by flips, descending.
    pub rows: Vec<FlipRow>,
    pub total_flips: u64,
    pub total_blocks: u64,
}

impl FlipTable {
    /// The top `n` rows plus an aggregate "other" row, as the paper prints.
    pub fn top_with_other(&self, n: usize) -> (Vec<FlipRow>, FlipRow) {
        let top: Vec<FlipRow> = self.rows.iter().take(n).cloned().collect();
        let other_flips: u64 = self.rows.iter().skip(n).map(|r| r.flips).sum();
        let other_blocks: u64 = self.rows.iter().skip(n).map(|r| r.blocks).sum();
        let other = FlipRow {
            asn: Asn(u32::MAX),
            blocks: other_blocks,
            flips: other_flips,
            frac: other_flips as f64 / self.total_flips.max(1) as f64,
        };
        (top, other)
    }

    /// Number of distinct ASes with at least one flip.
    pub fn flipping_ases(&self) -> usize {
        self.rows.len()
    }
}

/// Attributes every flip across rounds to the origin AS of the flipping
/// block.
pub fn flips_by_as(rounds: &[CatchmentMap], world: &Internet) -> FlipTable {
    // Per origin AS: its flip count and the blocks that flipped.
    let mut per_as: BTreeMap<Asn, (u64, BTreeSet<Block24>)> = BTreeMap::new();
    for (prev, cur) in rounds.iter().zip(rounds.iter().skip(1)) {
        for row in prev.join(cur) {
            let Joined::Both(block, was, now) = row else {
                continue;
            };
            if was != now {
                if let Some(info) = world.block(block) {
                    let (flips, blocks) = per_as.entry(info.origin).or_default();
                    *flips += 1;
                    blocks.insert(block);
                }
            }
        }
    }
    let total_flips: u64 = per_as.values().map(|(f, _)| f).sum();
    let mut rows: Vec<FlipRow> = per_as
        .into_iter()
        .map(|(asn, (f, blocks))| FlipRow {
            asn,
            blocks: blocks.len() as u64,
            flips: f,
            frac: f as f64 / total_flips.max(1) as f64,
        })
        .collect();
    rows.sort_by_key(|r| (std::cmp::Reverse(r.flips), r.asn));
    let total_blocks = rows.iter().map(|r| r.blocks).sum();
    FlipTable {
        rows,
        total_flips,
        total_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_bgp::SiteId;
    use vp_topology::TopologyConfig;

    fn map(name: &str, pairs: &[(u32, u8)]) -> CatchmentMap {
        CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))))
    }

    #[test]
    fn classification_partitions_previous_round() {
        let r0 = map("r0", &[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let r1 = map("r1", &[(1, 0), (2, 1), (4, 1), (5, 0)]);
        let deltas = classify_rounds(&[r0, r1]);
        assert_eq!(deltas.len(), 1);
        let d = deltas[0];
        assert_eq!(d.stable, 2); // blocks 1, 4
        assert_eq!(d.flipped, 1); // block 2
        assert_eq!(d.to_nr, 1); // block 3
        assert_eq!(d.from_nr, 1); // block 5
        // Partition invariant: stable + flipped + to_nr = |prev|.
        assert_eq!(d.stable + d.flipped + d.to_nr, 4);
    }

    #[test]
    fn single_round_has_no_deltas() {
        assert!(classify_rounds(&[map("r0", &[(1, 0)])]).is_empty());
        assert!(classify_rounds(&[]).is_empty());
    }

    #[test]
    fn unstable_blocks_found_across_any_rounds() {
        let r0 = map("r0", &[(1, 0), (2, 0)]);
        let r1 = map("r1", &[(1, 0), (2, 1)]);
        let r2 = map("r2", &[(1, 0), (2, 0)]);
        let unstable = unstable_blocks(&[r0, r1, r2]);
        assert_eq!(unstable.len(), 1);
        assert!(unstable.contains(&Block24(2)));
    }

    #[test]
    fn flips_attributed_to_origin_as() {
        let w = Internet::generate(TopologyConfig::tiny(121));
        // Flip two blocks of (possibly) different ASes back and forth over
        // 3 rounds -> 2 flips per block.
        let b0 = w.blocks[0].block;
        let b1 = w.blocks[1].block;
        let r0 = CatchmentMap::from_pairs("r0", [(b0, SiteId(0)), (b1, SiteId(0))]);
        let r1 = CatchmentMap::from_pairs("r1", [(b0, SiteId(1)), (b1, SiteId(0))]);
        let r2 = CatchmentMap::from_pairs("r2", [(b0, SiteId(0)), (b1, SiteId(1))]);
        let table = flips_by_as(&[r0, r1, r2], &w);
        assert_eq!(table.total_flips, 3); // b0 flips twice, b1 once
        let frac_sum: f64 = table.rows.iter().map(|r| r.frac).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
        let (top, other) = table.top_with_other(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].flips + other.flips, 3);
    }

    #[test]
    fn stable_series_has_no_flips() {
        let r = map("r", &[(1, 0), (2, 1), (3, 0)]);
        let rounds = vec![r.clone(), r.clone(), r];
        let deltas = classify_rounds(&rounds);
        assert!(deltas.iter().all(|d| d.flipped == 0 && d.to_nr == 0 && d.from_nr == 0));
        assert!(unstable_blocks(&rounds).is_empty());
        let w = Internet::generate(TopologyConfig::tiny(122));
        let t = flips_by_as(&rounds, &w);
        assert_eq!(t.total_flips, 0);
        assert_eq!(t.flipping_ases(), 0);
    }
}
