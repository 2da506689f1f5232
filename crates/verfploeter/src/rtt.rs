//! Columnar RTT table: block → round-trip time, in fixed-point `u32`
//! nanoseconds.
//!
//! The scan pipeline's RTTs are probe-to-reply intervals that survive the
//! §4 cleaning cutoff (15 minutes by default, but every kept reply in
//! practice returns within seconds), so a `u32` nanosecond column — max
//! ~4.29 s — represents each kept RTT **exactly**; storage drops from the
//! tree's per-entry nodes to 8 bytes of payload per block across the two
//! contiguous columns of a [`BlockColumn`]. Exactness is asserted in debug
//! builds at insertion: the fixed-point representation is a storage
//! optimization, never a rounding step, so [`RttTable::get`] returns
//! bit-identical [`SimDuration`]s to the historical
//! `BTreeMap<Block24, SimDuration>`.

use vp_net::{conv, Block24, BlockColumn, SimDuration};

/// Block → RTT in nanoseconds, in ascending block order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RttTable(BlockColumn<u32>);

/// Packs an RTT into the fixed-point column representation.
///
/// Saturates at ~4.29 s in release builds; debug builds assert the value is
/// representable (cleaning admits nothing close to the limit — the probe
/// cutoff would have to exceed `u32::MAX` nanoseconds for a kept reply to
/// saturate).
fn pack_ns(rtt: SimDuration) -> u32 {
    debug_assert!(
        rtt.as_nanos() <= u64::from(u32::MAX),
        "RTT {} ns exceeds the u32 fixed-point range",
        rtt.as_nanos()
    );
    conv::sat_u32(rtt.as_nanos())
}

fn unpack_ns(ns: u32) -> SimDuration {
    SimDuration::from_nanos(u64::from(ns))
}

impl RttTable {
    /// Builds a table from `(block, rtt)` pairs. Input order is arbitrary;
    /// later pairs win on duplicate blocks, matching map-insert semantics.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Block24, SimDuration)>) -> RttTable {
        RttTable(BlockColumn::from_pairs(
            pairs.into_iter().map(|(b, r)| (b, pack_ns(r))),
        ))
    }

    /// Number of blocks with a recorded RTT.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The RTT recorded for `block`, if any.
    pub fn get(&self, block: Block24) -> Option<SimDuration> {
        self.0.get(block).map(unpack_ns)
    }

    /// Iterates `(block, rtt)` in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (Block24, SimDuration)> + '_ {
        self.0.iter().map(|(b, ns)| (b, unpack_ns(ns)))
    }

    /// Iterates RTT values in ascending block order.
    pub fn values(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.0.values().iter().copied().map(unpack_ns)
    }

    /// Absorbs another table's entries (disjoint union of per-shard
    /// tables; `other` wins where both map a block): [`BlockColumn::merge`].
    pub fn merge(&mut self, other: &RttTable) {
        self.0.merge(&other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(u32, u64)]) -> RttTable {
        RttTable::from_pairs(
            rows.iter()
                .map(|&(b, ms)| (Block24(b), SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn lookup_and_order() {
        let t = table(&[(5, 20), (1, 10), (3, 30)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(Block24(3)), Some(SimDuration::from_millis(30)));
        assert_eq!(t.get(Block24(4)), None);
        let order: Vec<u32> = t.iter().map(|(b, _)| b.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
        let values: Vec<u64> = t.values().map(|r| r.as_nanos()).collect();
        assert_eq!(values, vec![10_000_000, 30_000_000, 20_000_000]);
    }

    #[test]
    fn fixed_point_is_exact_for_kept_rtts() {
        // Sub-nanosecond-resolution values across the whole representable
        // range round-trip exactly.
        for ns in [0u64, 1, 999, 1_000_000, 123_456_789, u64::from(u32::MAX)] {
            let t = RttTable::from_pairs([(Block24(1), SimDuration::from_nanos(ns))]);
            assert_eq!(t.get(Block24(1)), Some(SimDuration::from_nanos(ns)));
        }
    }

    #[test]
    fn last_pair_wins_on_duplicates() {
        let t = table(&[(7, 10), (7, 25)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(Block24(7)), Some(SimDuration::from_millis(25)));
    }

    #[test]
    fn merge_matches_map_semantics() {
        let mut a = table(&[(1, 10), (5, 50)]);
        a.merge(&table(&[(3, 30)])); // interleave
        a.merge(&table(&[(9, 90)])); // append fast path
        a.merge(&RttTable::default());
        let got: Vec<(u32, u64)> = a.iter().map(|(b, r)| (b.0, r.as_nanos())).collect();
        assert_eq!(
            got,
            vec![
                (1, 10_000_000),
                (3, 30_000_000),
                (5, 50_000_000),
                (9, 90_000_000)
            ]
        );
    }

    #[test]
    fn empty_table() {
        let t = RttTable::default();
        assert!(t.is_empty());
        assert_eq!(t.get(Block24(0)), None);
        assert_eq!(t.values().count(), 0);
    }
}
