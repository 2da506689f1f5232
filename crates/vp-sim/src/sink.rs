//! What leaves the engine: the [`CaptureSink`] every run hands its
//! arrivals to, and [`Earliest`], the reduction both collectors apply to
//! them.

use vp_bgp::SiteId;
use vp_net::{conv, BitSet, SimTime};
use vp_packet::Ipv4Packet;

use crate::engine::ServiceHandle;

/// Receives every arrival a run does not consume itself, as a call instead
/// of a log: a packet a site collector captures, tagged with site and
/// arrival time — the paper's "forwards traffic after tagging it with its
/// site" (§3.1) — and a packet an ordinary host's application receives
/// (an Atlas VP reading its DNS answer). Each is handed over exactly once,
/// in transmission order; `(at, key)` is its place in arrival order.
pub trait CaptureSink {
    fn capture(&mut self, service: ServiceHandle, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet);
    fn deliver(&mut self, at: SimTime, key: u64, packet: &Ipv4Packet);
}

/// A value pushed into [`Earliest`] with its slot and its place in arrival
/// order. 24 bytes for a one-byte value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival<T> {
    pub at: SimTime,
    pub key: u64,
    pub slot: u32,
    pub value: T,
}

/// Keeps, for each slot of `0..len`, the value pushed with the least
/// `(at, key)`: the first to arrive, in the [`CaptureSink`] order. Pushes
/// may come in any order — each verdict depends on which values arrived,
/// never on the order they are pushed in — so a collector reduces as the
/// engine hands over, with no sort of its stream.
pub struct Earliest<T> {
    /// One bit per slot: set once a value for it is in `kept`.
    seen: BitSet,
    /// The first value pushed for each slot seen.
    kept: Vec<Arrival<T>>,
    /// Every later value: it replaces the one `kept` holds for its slot
    /// only if it arrived before it.
    later: Vec<Arrival<T>>,
}

impl<T: Copy> Earliest<T> {
    pub fn new(len: usize) -> Self {
        Earliest {
            seen: BitSet::new(len),
            kept: Vec::new(),
            later: Vec::new(),
        }
    }

    /// Offers `value` for `slot`, arriving at `(at, key)`. Returns whether
    /// it is the first value pushed for `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is not below the `len` this was made with.
    pub fn push(&mut self, slot: u32, at: SimTime, key: u64, value: T) -> bool {
        let arrival = Arrival { at, key, slot, value };
        let first = !self.seen.get(conv::index(slot));
        if first {
            self.seen.set(conv::index(slot));
            self.kept.push(arrival);
        } else {
            self.later.push(arrival);
        }
        first
    }

    /// The earliest arrival of every slot pushed to, in the order the
    /// slots were first pushed. Each kept arrival a later one arrived
    /// before is swapped for the earliest of those.
    pub fn finish(mut self) -> Vec<Arrival<T>> {
        if self.later.is_empty() {
            return self.kept;
        }
        // The earliest later arrival per slot, and a bit for each slot
        // that has one.
        self.later.sort_unstable_by_key(|c| (c.slot, c.at, c.key));
        self.later.dedup_by_key(|c| c.slot);
        let mut contested = BitSet::new(self.seen.len());
        for c in &self.later {
            contested.set(conv::index(c.slot));
        }
        for kept in &mut self.kept {
            if !contested.get(conv::index(kept.slot)) {
                continue;
            }
            let found = self.later.binary_search_by_key(&kept.slot, |c| c.slot);
            let earliest = found.ok().and_then(|i| self.later.get(i));
            if let Some(&earliest) = earliest.filter(|c| (c.at, c.key) < (kept.at, kept.key)) {
                *kept = earliest;
            }
        }
        self.kept
    }
}
