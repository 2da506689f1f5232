//! Trace data: the [`Clock`] seam, trace levels, and the detached,
//! mergeable [`TraceSummary`] of span aggregates and events.
//!
//! Nothing in this module reads or holds a clock. Sim-time reaches a
//! summary as a value — the caller passes the instants it already holds to
//! [`TraceSummary::record_span`] and stamps each [`Event`] itself — which
//! is what keeps summaries, and the reports built from them, bit-identical
//! across runs. The one clock-driven recorder is
//! [`crate::FlightRecorder`]; wall-backed [`Clock`] impls live in
//! binaries, the only code that may read a wall clock (DESIGN.md §8).

use std::collections::BTreeMap;

/// A monotone nanosecond clock. Implementations decide *which*
/// nanoseconds; the wall-backed ones live in binaries only.
pub trait Clock {
    fn now_nanos(&self) -> u64;
}

/// How much an observed run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing.
    Off,
    /// Record span aggregates only.
    Summary,
    /// Record span aggregates plus a bounded ring buffer of events.
    Full,
}

impl TraceLevel {
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "summary" => Some(TraceLevel::Summary),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Full => "full",
        }
    }
}

/// A point-in-time observation kept in the event ring at `Full` level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    pub at_nanos: u64,
    pub name: String,
    pub detail: String,
}

/// Aggregate over all closed spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_nanos: u64,
    pub max_nanos: u64,
}

impl SpanAgg {
    fn fold(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// Span aggregates and events of one observed run: plain data that
/// crosses shard-thread boundaries, merges, and lands in run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub spans: BTreeMap<String, SpanAgg>,
    pub events: Vec<Event>,
    pub dropped_events: u64,
}

impl TraceSummary {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty() && self.dropped_events == 0
    }

    /// Folds one closed interval into `name`'s aggregate. Names are
    /// `&'static str` so their cardinality is bounded by the source text.
    pub fn record_span(&mut self, name: &'static str, start_nanos: u64, end_nanos: u64) {
        let dur = end_nanos.saturating_sub(start_nanos);
        self.spans.entry(name.to_owned()).or_default().fold(&SpanAgg {
            count: 1,
            total_nanos: dur,
            max_nanos: dur,
        });
    }

    /// Folds `other` in: span aggregates sum field-wise (max for max),
    /// events take the sorted multiset union. Sorting makes the result
    /// independent of merge order, so the contract is the same as
    /// `Registry::merge`: associative, commutative, empty identity.
    pub fn merge(&mut self, other: &TraceSummary) {
        for (name, agg) in &other.spans {
            self.spans.entry(name.clone()).or_default().fold(agg);
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort();
        self.dropped_events += other.dropped_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_count_total_max() {
        let mut sum = TraceSummary::default();
        sum.record_span("work", 100, 150);
        sum.record_span("work", 200, 230);
        let agg = sum.spans.get("work").copied().unwrap_or_default();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_nanos, 80);
        assert_eq!(agg.max_nanos, 50);
        // An interval that ends before it starts has no width.
        sum.record_span("backwards", 9, 3);
        assert_eq!(sum.spans["backwards"].total_nanos, 0);
    }

    #[test]
    fn summary_merge_sorts_events() {
        let event = |at_nanos, name: &str| Event {
            at_nanos,
            name: name.to_owned(),
            detail: String::new(),
        };
        let mut a = TraceSummary {
            events: vec![event(10, "b")],
            ..TraceSummary::default()
        };
        let b = TraceSummary {
            events: vec![event(5, "a")],
            ..TraceSummary::default()
        };
        a.merge(&b);
        assert_eq!(a.events[0].at_nanos, 5);
        assert_eq!(a.events[1].at_nanos, 10);
    }
}
