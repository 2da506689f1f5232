//! Data cleaning: §4's pipeline over the raw central reply stream.
//!
//! "We remove from our dataset the duplicate results, replies from
//! IP-addresses that we did not send a request to, and late replies (15
//! minutes after the start of the measurement). Duplicates ... account for
//! approximately 2% of all replies."

use vp_hitlist::{Hitlist, HitlistRow};
use vp_net::{conv, SimDuration, SimTime};
use vp_sim::Earliest;

use crate::collector::RawReply;

/// Counters over one cleaning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningStats {
    /// Replies entering the pipeline.
    pub total: u64,
    /// Dropped: an earlier reply for this hitlist index was kept.
    pub duplicates: u64,
    /// Dropped: no/foreign payload or foreign ICMP identifier.
    pub foreign: u64,
    /// Dropped: source address was never probed (includes aliased replies).
    pub unprobed_source: u64,
    /// Dropped: arrived after the cutoff.
    pub late: u64,
    /// Replies surviving all filters.
    pub kept: u64,
}

/// A cleaned catchment observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanReply {
    pub site: vp_bgp::SiteId,
    pub at: SimTime,
    /// The hitlist row probed (identifies the observed block).
    pub row: HitlistRow,
}

/// The §4 cleaning pass as an order-free fold: the central point feeds it
/// each reply once, in any order, with the reply's identity key — so a
/// scan never holds its raw reply stream, only the kept observations.
///
/// A reply is a candidate iff its payload decodes to a hitlist index
/// within bounds, its ICMP identifier matches this round's `ident`, its
/// source is exactly the probed target for that index, and it arrived
/// within `cutoff` of `start`. Of the candidates for one index the first
/// in arrival order — the least `(at, key)`, which [`Earliest`] keeps — is
/// kept and every other is a duplicate, so each verdict depends on which
/// replies arrived, never on the order they are pushed in.
///
/// A cleaner holds one slot per row of the range it cleans — a shard's
/// own rows, not the whole hitlist. A reply naming a row outside it is
/// `foreign`; under shard-closed traffic (DESIGN.md §7) there is none.
pub(crate) struct Cleaner<'h> {
    hitlist: &'h Hitlist,
    ident: u16,
    deadline: SimTime,
    /// The hitlist rows cleaned; slot `i` is row `rows.start + i`.
    rows: std::ops::Range<u32>,
    /// The candidates' sites, one slot per row of `rows`.
    candidates: Earliest<vp_bgp::SiteId>,
    stats: CleaningStats,
}

impl<'h> Cleaner<'h> {
    pub(crate) fn new(
        hitlist: &'h Hitlist,
        rows: std::ops::Range<usize>,
        ident: u16,
        start: SimTime,
        cutoff: SimDuration,
    ) -> Self {
        let rows = conv::sat_u32(rows.start)..conv::sat_u32(rows.end);
        Cleaner {
            hitlist,
            ident,
            deadline: start + cutoff,
            candidates: Earliest::new(rows.len()),
            rows,
            stats: CleaningStats::default(),
        }
    }

    /// Classifies one reply of the central stream; `key` is its identity
    /// hash, which breaks ties in `at`.
    pub(crate) fn push(&mut self, r: &RawReply, key: u64) {
        self.stats.total += 1;
        let index = r.index.filter(|_| r.ident == self.ident);
        let row = index.and_then(|i| u32::try_from(i).ok());
        let row = row.filter(|i| self.rows.contains(i)).map(HitlistRow);
        let Some((row, &target)) = row.and_then(|row| Some((row, self.hitlist.targets().lookup(row)?))) else {
            self.stats.foreign += 1;
            return;
        };
        if target != r.src {
            self.stats.unprobed_source += 1;
            return;
        }
        if r.at > self.deadline {
            self.stats.late += 1;
            return;
        }
        if self.candidates.push(row.0 - self.rows.start, r.at, key, r.site) {
            self.stats.kept += 1;
        } else {
            self.stats.duplicates += 1;
        }
    }

    /// The kept observations, one per index with a candidate, and the
    /// pass's counters. Which candidate is kept may change as later ones
    /// turn out to have arrived first; the counts stand as they are.
    pub(crate) fn finish(self) -> (Vec<CleanReply>, CleaningStats) {
        let kept = self.candidates.finish().into_iter().map(|c| CleanReply {
            site: c.value,
            at: c.at,
            row: HitlistRow(self.rows.start + c.slot),
        });
        (kept.collect(), self.stats)
    }
}

/// Runs the cleaning pipeline over a materialized reply stream in arrival
/// order: a fold of `Cleaner::push` keyed by position, so of the
/// candidates for one index the first to arrive is kept, ties in `at` going
/// to the one listed first — the sequential reading of §4, and the
/// reference the incremental paths are tested against.
#[cfg(test)]
pub(crate) fn clean(
    replies: &[RawReply],
    hitlist: &Hitlist,
    ident: u16,
    start: SimTime,
    cutoff: SimDuration,
) -> (Vec<CleanReply>, CleaningStats) {
    let mut cleaner = Cleaner::new(hitlist, 0..hitlist.len(), ident, start, cutoff);
    for (key, r) in (0u64..).zip(replies) {
        cleaner.push(r, key);
    }
    cleaner.finish()
}

impl CleaningStats {
    /// Sanity: every reply is accounted for in exactly one bucket.
    pub fn is_consistent(&self) -> bool {
        self.total == self.duplicates + self.foreign + self.unprobed_source + self.late + self.kept
    }

    /// Accumulates another pass's counters into this one.
    ///
    /// Used by the sharded scan path: each shard cleans its own slice of
    /// the central stream, and because a reply can only ever compete with
    /// replies for the same hitlist index (which all live in one shard),
    /// the per-shard counters sum exactly to the serial pass's counters.
    /// Field-wise addition is commutative and associative, so merge order
    /// does not matter.
    pub fn merge(&mut self, other: &CleaningStats) {
        self.total += other.total;
        self.duplicates += other.duplicates;
        self.foreign += other.foreign;
        self.unprobed_source += other.unprobed_source;
        self.late += other.late;
        self.kept += other.kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CatchmentMap, RttTable};
    use vp_bgp::SiteId;
    use vp_hitlist::HitlistConfig;
    use vp_net::Ipv4Addr;
    use vp_topology::{Internet, TopologyConfig};

    fn setup() -> (Internet, Hitlist) {
        let w = Internet::generate(TopologyConfig::tiny(71));
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        (w, hl)
    }

    fn reply(hl: &Hitlist, index: u64, at: u64, ident: u16) -> RawReply {
        RawReply {
            site: SiteId(0),
            at: SimTime(at),
            src: hl.targets()[vp_hitlist::HitlistRow(vp_net::conv::sat_u32(index))],
            ident,
            index: Some(index),
        }
    }

    #[test]
    fn valid_replies_pass() {
        let (_, hl) = setup();
        let replies = vec![reply(&hl, 0, 100, 7), reply(&hl, 1, 200, 7)];
        let (kept, stats) = clean(&replies, &hl, 7, SimTime::ZERO, SimDuration::from_mins(15));
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.kept, 2);
        assert!(stats.is_consistent());
    }

    #[test]
    fn duplicates_keep_first() {
        let (_, hl) = setup();
        let replies = vec![
            reply(&hl, 5, 100, 7),
            reply(&hl, 5, 150, 7),
            reply(&hl, 5, 160, 7),
        ];
        let (kept, stats) = clean(&replies, &hl, 7, SimTime::ZERO, SimDuration::from_mins(15));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].at, SimTime(100));
        assert_eq!(stats.duplicates, 2);
        assert!(stats.is_consistent());
    }

    #[test]
    fn foreign_ident_and_payload_dropped() {
        let (_, hl) = setup();
        let mut r1 = reply(&hl, 0, 100, 9); // wrong round ident
        let mut r2 = reply(&hl, 1, 100, 7);
        r2.index = None; // no/foreign payload
        r1.ident = 9;
        let (kept, stats) = clean(
            &[r1, r2],
            &hl,
            7,
            SimTime::ZERO,
            SimDuration::from_mins(15),
        );
        assert!(kept.is_empty());
        assert_eq!(stats.foreign, 2);
        assert!(stats.is_consistent());
    }

    #[test]
    fn out_of_bounds_index_dropped() {
        let (_, hl) = setup();
        let r = RawReply {
            site: SiteId(0),
            at: SimTime(1),
            src: Ipv4Addr(1),
            ident: 7,
            index: Some(hl.len() as u64 + 5),
        };
        let (kept, stats) = clean(&[r], &hl, 7, SimTime::ZERO, SimDuration::from_mins(15));
        assert!(kept.is_empty());
        assert_eq!(stats.foreign, 1);
    }

    /// A shard's cleaner holds slots for its own rows only: it keeps their
    /// replies under their hitlist rows and counts a reply naming another
    /// shard's row as foreign, on either side of its range.
    #[test]
    fn a_range_cleaner_keys_its_rows_and_refuses_the_rest() {
        let (_, hl) = setup();
        let mut cleaner = Cleaner::new(&hl, 4..8, 7, SimTime::ZERO, SimDuration::from_mins(15));
        for (key, index) in (0u64..).zip([3, 4, 7, 7, 8, 0]) {
            cleaner.push(&reply(&hl, index, 100 - key, 7), key);
        }
        let (kept, stats) = cleaner.finish();
        let rows: Vec<(u32, SimTime)> = kept.iter().map(|r| (r.row.0, r.at)).collect();
        assert_eq!(rows, [(4, SimTime(99)), (7, SimTime(97))]);
        assert_eq!((stats.kept, stats.duplicates, stats.foreign), (2, 1, 3));
        assert!(stats.is_consistent());
    }

    #[test]
    fn aliased_sources_dropped() {
        let (_, hl) = setup();
        let mut r = reply(&hl, 3, 100, 7);
        // Reply from a different address in the same block.
        r.src = Ipv4Addr(r.src.0 ^ 0x0f);
        let (kept, stats) = clean(&[r], &hl, 7, SimTime::ZERO, SimDuration::from_mins(15));
        assert!(kept.is_empty());
        assert_eq!(stats.unprobed_source, 1);
    }

    #[test]
    fn late_replies_dropped() {
        let (_, hl) = setup();
        let cutoff = SimDuration::from_mins(15);
        let on_time = reply(&hl, 0, cutoff.as_nanos(), 7); // exactly at cutoff: kept
        let late = reply(&hl, 1, cutoff.as_nanos() + 1, 7);
        let (kept, stats) = clean(&[on_time, late], &hl, 7, SimTime::ZERO, cutoff);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.late, 1);
        assert!(stats.is_consistent());
    }

    /// One generated reply: `((target, instant), (site, fault, copies))`.
    type Spec = ((u64, usize), (u8, u8, usize));

    /// A reply multiset from generated specs over a handful of targets (so
    /// they collide) and instants (so they tie; the last is past a cutoff
    /// of 50), each reply arriving in 1–3 identical copies, each copy with
    /// its own key. Keys are distinct and uncorrelated with generation
    /// order.
    fn multiset(hl: &Hitlist, specs: &[Spec], key_seed: u64) -> Vec<(RawReply, u64)> {
        let mut replies = Vec::new();
        for &((index, at), (site, fault, copies)) in specs {
            let mut r = RawReply {
                site: SiteId(site),
                at: SimTime([0, 10, 10, 20, 50, 51][at]),
                src: hl.targets()[vp_hitlist::HitlistRow(vp_net::conv::sat_u32(index))],
                ident: 7,
                index: Some(index),
            };
            match fault {
                0 => r.ident = 9,
                1 => r.index = None,
                2 => r.index = Some(hl.len() as u64 + index),
                3 => r.src = Ipv4Addr(r.src.0 ^ 0x0f),
                _ => {}
            }
            for _ in 0..copies {
                let i = replies.len() as u64;
                replies.push((r.clone(), vp_net::mix(key_seed, i) << 8 | i));
            }
        }
        replies
    }

    /// What a cleaning pass produces, as the scan consumes it.
    fn tables(hl: &Hitlist, (kept, stats): (Vec<CleanReply>, CleaningStats)) -> (CatchmentMap, RttTable, CleaningStats) {
        let block = |r: &CleanReply| hl.targets()[r.row].block();
        let map = CatchmentMap::from_replies("m", &kept, hl);
        let rtts = RttTable::from_pairs(kept.iter().map(|r| (block(r), r.at.since(SimTime::ZERO))));
        (map, rtts, stats)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The cleaner is order-free: a multiset of replies — ties in
        /// arrival time, duplicate copies, late, foreign-ident,
        /// foreign-payload, out-of-range and unprobed-source replies — fed
        /// in any order, each with its key, cleans to the same counters,
        /// catchment map and RTT table as the sequential keep-first pass
        /// over the same replies in `(at, key)` order.
        #[test]
        fn cleaning_is_order_free(
            specs in proptest::collection::vec(((0u64..6, 0usize..6), (0u8..4, 0u8..8, 1usize..4)), 1..40),
            key_seed in proptest::prelude::any::<u64>(),
            shuffles in proptest::collection::vec(proptest::prelude::any::<u64>(), 4..5),
        ) {
            let (_, hl) = setup();
            let cutoff = SimDuration(50);
            let mut replies = multiset(&hl, &specs, key_seed);
            replies.sort_by_key(|(r, key)| (r.at, *key));
            let in_order: Vec<RawReply> = replies.iter().map(|(r, _)| r.clone()).collect();
            let want = tables(&hl, clean(&in_order, &hl, 7, SimTime::ZERO, cutoff));
            proptest::prop_assert!(want.2.is_consistent());

            let reversed: Vec<_> = replies.iter().rev().cloned().collect();
            let shuffled = shuffles.iter().map(|&seed| {
                let mut order = replies.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, vp_net::conv::sat_usize(vp_net::mix(seed, i as u64) % (i as u64 + 1)));
                }
                order
            });
            for order in std::iter::once(reversed).chain(shuffled) {
                let mut cleaner = Cleaner::new(&hl, 0..hl.len(), 7, SimTime::ZERO, cutoff);
                for (r, key) in &order {
                    cleaner.push(r, *key);
                }
                proptest::prop_assert_eq!(tables(&hl, cleaner.finish()), want.clone(), "{:?}", order);
            }
        }
    }

    #[test]
    fn cutoff_is_relative_to_start() {
        let (_, hl) = setup();
        let start = SimTime::ZERO + SimDuration::from_hours(2);
        let r = reply(&hl, 0, (start + SimDuration::from_mins(10)).0, 7);
        let (kept, _) = clean(&[r], &hl, 7, start, SimDuration::from_mins(15));
        assert_eq!(kept.len(), 1);
    }
}
