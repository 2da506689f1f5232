//! Merge-algebra proptests for the observability types: every `merge` in
//! vp-obs must be associative and commutative with an empty identity, the
//! contract that makes per-shard registries fold bit-identically for any
//! shard count and any merge grouping.

use proptest::prelude::*;
use vp_obs::{Event, EventLog, Histogram, Registry, RollingWindow};

const BOUNDS: &[u64] = &[10, 100, 1_000, 10_000];

/// A small generated registry: counters, gauges, and histograms over a
/// closed set of names/labels so that merges collide on keys.
fn registry_strategy() -> impl Strategy<Value = Registry> {
    let entry = (
        0usize..4,                       // name index
        0usize..3,                       // label index
        0usize..3,                       // kind selector
        0u64..100_000,                   // magnitude
    );
    prop::collection::vec(entry, 0..12).prop_map(|entries| {
        let names = ["scan.probes", "sim.replies", "clean.kept", "rtt.ns"];
        let labels: [&[(&str, &str)]; 3] = [&[], &[("site", "LAX")], &[("site", "MIA")]];
        let mut r = Registry::new();
        for (n, l, kind, v) in entries {
            match kind {
                0 => r.counter_add(names[n], labels[l], v),
                1 => r.gauge_add("gauge.depth", labels[l], v as i64 - 50_000),
                _ => r.histogram_observe("hist.ns", labels[l], BOUNDS, v),
            }
        }
        r
    })
}

fn event_log_strategy() -> impl Strategy<Value = EventLog> {
    let event = (0u64..1_000_000, 0usize..3);
    (prop::collection::vec(event, 0..5), 0u64..10).prop_map(|(events, dropped)| {
        let names = ["engine.undeliverable", "scan.shard", "clean"];
        let mut events: Vec<Event> = events
            .into_iter()
            .map(|(at, n)| Event {
                at_nanos: at,
                name: names[n].to_owned(),
                detail: String::new(),
            })
            .collect();
        events.sort();
        EventLog { events, dropped }
    })
}

// Merge algebra for the metrics registry and its histogram buckets.
// merge-tested(Registry::merge)
// merge-tested(Histogram::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Commutativity and associativity of `Registry::merge`, compared via
    /// the canonical JSON exposition (the same comparison the sharded-scan
    /// equivalence tests use).
    #[test]
    fn registry_merge_is_associative_and_commutative(
        a in registry_strategy(),
        b in registry_strategy(),
        c in registry_strategy(),
    ) {
        // a + b == b + a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.to_canonical_json(), ba.to_canonical_json());

        // (a + b) + c == a + (b + c)
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.to_canonical_json(), a_bc.to_canonical_json());
    }

    /// The empty registry is a two-sided identity.
    #[test]
    fn registry_merge_empty_identity(a in registry_strategy()) {
        let mut left = Registry::new();
        left.merge(&a);
        prop_assert_eq!(left.to_canonical_json(), a.to_canonical_json());
        let mut right = a.clone();
        right.merge(&Registry::new());
        prop_assert_eq!(right.to_canonical_json(), a.to_canonical_json());
    }

    /// `Histogram::merge` directly: bucket-wise addition with min/max/sum
    /// folding, independent of order and grouping.
    #[test]
    fn histogram_merge_algebra(
        xs in prop::collection::vec(0u64..50_000, 0..20),
        ys in prop::collection::vec(0u64..50_000, 0..20),
        zs in prop::collection::vec(0u64..50_000, 0..20),
    ) {
        let hist = |vals: &[u64]| {
            let mut h = Histogram::new(BOUNDS.to_vec());
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (hist(&xs), hist(&ys), hist(&zs));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Identity, and merged aggregates equal observing the union.
        let mut id = Histogram::new(BOUNDS.to_vec());
        id.merge(&a);
        prop_assert_eq!(&id, &a);
        let mut union: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        union.sort_unstable();
        prop_assert_eq!(ab_c.count(), union.len() as u64);
        prop_assert_eq!(ab_c.min(), union.first().copied().unwrap_or(0));
        prop_assert_eq!(ab_c.max(), union.last().copied().unwrap_or(0));
    }
}

// Merge algebra for event logs (sorted events + drop counts).
// merge-tested(EventLog::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_summary_merge_is_associative_and_commutative(
        a in event_log_strategy(),
        b in event_log_strategy(),
        c in event_log_strategy(),
    ) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut id = EventLog::default();
        id.merge(&a);
        prop_assert_eq!(&id, &a);
    }
}

/// A small generated rolling window over a closed round range so merges
/// collide on keys and truncation actually happens.
fn window_strategy(width: usize) -> impl Strategy<Value = RollingWindow> {
    prop::collection::vec((0u64..12, 1u64..1000), 0..10).prop_map(move |samples| {
        let mut w = RollingWindow::new(width);
        for (round, value) in samples {
            w.push(round, value);
        }
        w
    })
}

// Merge algebra for the rolling round windows the streaming monitor uses.
// merge-tested(RollingWindow::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rolling_window_merge_is_associative_and_commutative(
        a in window_strategy(4),
        b in window_strategy(4),
        c in window_strategy(4),
    ) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    #[test]
    fn rolling_window_merge_empty_identity(a in window_strategy(4)) {
        let mut left = RollingWindow::new(4);
        left.merge(&a);
        prop_assert_eq!(&left, &a);
        let mut right = a.clone();
        right.merge(&RollingWindow::new(4));
        prop_assert_eq!(&right, &a);
    }

    /// Splitting a round stream at any point and merging the two segment
    /// windows equals pushing the whole stream through one window — the
    /// windowed-split fold the streaming monitor relies on.
    #[test]
    fn rolling_window_split_fold_matches_whole(
        samples in prop::collection::vec((0u64..16, 1u64..1000), 0..14),
        cut in 0usize..14,
    ) {
        let mut whole = RollingWindow::new(5);
        for &(round, value) in &samples {
            whole.push(round, value);
        }
        let cut = cut.min(samples.len());
        let mut left = RollingWindow::new(5);
        for &(round, value) in &samples[..cut] {
            left.push(round, value);
        }
        let mut right = RollingWindow::new(5);
        for &(round, value) in &samples[cut..] {
            right.push(round, value);
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        prop_assert!(whole.len() <= whole.width());
    }
}
