//! Data cleaning: §4's pipeline over the raw central reply stream.
//!
//! "We remove from our dataset the duplicate results, replies from
//! IP-addresses that we did not send a request to, and late replies (15
//! minutes after the start of the measurement). Duplicates ... account for
//! approximately 2% of all replies."

use serde::Serialize;
use vp_hitlist::Hitlist;
use vp_net::{BitSet, SimDuration, SimTime};

use crate::collector::RawReply;

/// Counters over one cleaning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CleaningStats {
    /// Replies entering the pipeline.
    pub total: u64,
    /// Dropped: a reply for this hitlist index was already accepted.
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
    /// Hitlist index (identifies the observed block).
    pub index: u64,
}

/// The §4 cleaning pass as an incremental fold: the central point feeds
/// it one reply at a time, in arrival order, as the collector forwards
/// them — so a scan never holds its raw reply stream, only the kept
/// observations.
///
/// A reply is kept iff its payload decodes to a hitlist index within
/// bounds, its ICMP identifier matches this round's `ident`, its source is
/// exactly the probed target for that index, it arrived within `cutoff` of
/// `start`, and it is the first accepted reply for its index.
pub struct Cleaner<'h> {
    hitlist: &'h Hitlist,
    ident: u16,
    deadline: SimTime,
    /// Duplicate filter, one bit per hitlist index: a bit is set iff an
    /// earlier reply for that index was accepted (keep-first).
    seen: BitSet,
    kept: Vec<CleanReply>,
    stats: CleaningStats,
}

impl<'h> Cleaner<'h> {
    pub fn new(hitlist: &'h Hitlist, ident: u16, start: SimTime, cutoff: SimDuration) -> Self {
        Cleaner {
            hitlist,
            ident,
            deadline: start + cutoff,
            seen: BitSet::new(hitlist.len()),
            kept: Vec::new(),
            stats: CleaningStats::default(),
        }
    }

    /// Classifies the next reply of the central stream.
    pub fn push(&mut self, r: &RawReply) {
        self.stats.total += 1;
        let Some(index) = r.index.filter(|_| r.ident == self.ident) else {
            self.stats.foreign += 1;
            return;
        };
        if index >= self.hitlist.len() as u64 {
            self.stats.foreign += 1;
            return;
        }
        let slot = vp_net::conv::sat_usize(index);
        if self.hitlist.entry(slot).target != r.src {
            self.stats.unprobed_source += 1;
            return;
        }
        if r.at > self.deadline {
            self.stats.late += 1;
            return;
        }
        if self.seen.get(slot) {
            self.stats.duplicates += 1;
            return;
        }
        self.seen.set(slot);
        self.stats.kept += 1;
        self.kept.push(CleanReply {
            site: r.site,
            at: r.at,
            index,
        });
    }

    /// The kept observations, in arrival order, and the pass's counters.
    pub fn finish(self) -> (Vec<CleanReply>, CleaningStats) {
        (self.kept, self.stats)
    }
}

/// Runs the cleaning pipeline over a materialized reply stream: a fold of
/// [`Cleaner::push`] over `replies`.
pub fn clean(
    replies: &[RawReply],
    hitlist: &Hitlist,
    ident: u16,
    start: SimTime,
    cutoff: SimDuration,
) -> (Vec<CleanReply>, CleaningStats) {
    let mut cleaner = Cleaner::new(hitlist, ident, start, cutoff);
    for r in replies {
        cleaner.push(r);
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
            src: hl.entry(vp_net::conv::sat_usize(index)).target,
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

    #[test]
    fn cutoff_is_relative_to_start() {
        let (_, hl) = setup();
        let start = SimTime::ZERO + SimDuration::from_hours(2);
        let r = reply(&hl, 0, (start + SimDuration::from_mins(10)).0, 7);
        let (kept, _) = clean(&[r], &hl, 7, start, SimDuration::from_mins(15));
        assert_eq!(kept.len(), 1);
    }
}
