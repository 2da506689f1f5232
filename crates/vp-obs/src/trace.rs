//! Structured tracing over an injected clock.
//!
//! Nothing in this module reads wall time. Time enters only through the
//! [`Clock`] trait: library code uses [`SimClock`] (a shared sim-time cell
//! the engine advances as it dispatches events), while wall-clock impls are
//! confined by lint rule d4 to binaries and `vp-bench`. That split is what
//! keeps traces — and the reports built from them — bit-identical across
//! runs and shard counts.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::metrics::json_string;

/// A monotone nanosecond clock. Implementations decide *which* nanoseconds:
/// simulated ([`SimClock`]) or wall time (binaries only — rule d4).
pub trait Clock {
    fn now_nanos(&self) -> u64;
}

/// A shared simulated-time cell. The owner (the sim engine's event loop)
/// advances it with [`SimClock::set`]; clones observe the same instant.
#[derive(Debug, Clone, Default)]
pub struct SimClock(Rc<Cell<u64>>);

impl SimClock {
    pub fn new() -> SimClock {
        SimClock::default()
    }

    pub fn set(&self, nanos: u64) {
        self.0.set(nanos);
    }
}

impl Clock for SimClock {
    fn now_nanos(&self) -> u64 {
        self.0.get()
    }
}

/// How much a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing; spans and events are no-ops.
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

/// A point-in-time observation kept in the ring buffer at `Full` level.
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
    fn record(&mut self, dur: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(dur);
        self.max_nanos = self.max_nanos.max(dur);
    }

    fn fold(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

struct TracerInner {
    clock: Box<dyn Clock>,
    level: TraceLevel,
    capacity: usize,
    events: VecDeque<Event>,
    dropped_events: u64,
    spans: BTreeMap<String, SpanAgg>,
}

/// A cloneable tracing handle. All clones share one ring buffer and span
/// table; the handle is single-threaded by design (each shard engine owns
/// its own tracer, and summaries — not tracers — cross threads).
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TracerInner>>,
}

impl Tracer {
    pub fn new(clock: Box<dyn Clock>, level: TraceLevel, capacity: usize) -> Tracer {
        Tracer {
            inner: Rc::new(RefCell::new(TracerInner {
                clock,
                level,
                capacity: capacity.max(1),
                events: VecDeque::new(),
                dropped_events: 0,
                spans: BTreeMap::new(),
            })),
        }
    }

    /// A tracer that records nothing (identity for every operation).
    pub fn disabled() -> Tracer {
        Tracer::new(Box::new(SimClock::new()), TraceLevel::Off, 1)
    }

    pub fn level(&self) -> TraceLevel {
        self.inner.borrow().level
    }

    /// True when event recording is on; callers use this to skip building
    /// detail strings that would be thrown away.
    pub fn is_full(&self) -> bool {
        self.level() == TraceLevel::Full
    }

    /// Records an event at the clock's current instant (`Full` only).
    /// The ring buffer evicts the oldest event once full.
    pub fn event(&self, name: &str, detail: String) {
        let mut inner = self.inner.borrow_mut();
        if inner.level != TraceLevel::Full {
            return;
        }
        let at_nanos = inner.clock.now_nanos();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped_events += 1;
        }
        inner.events.push_back(Event {
            at_nanos,
            name: name.to_owned(),
            detail,
        });
    }

    /// Opens a span closed by the guard's `Drop` (or explicitly via
    /// [`Span::end`]); duration feeds the per-name aggregate.
    pub fn span(&self, name: &str) -> Span {
        let inner = self.inner.borrow();
        if inner.level == TraceLevel::Off {
            return Span {
                tracer: None,
                name: String::new(),
                start: 0,
            };
        }
        let start = inner.clock.now_nanos();
        drop(inner);
        Span {
            tracer: Some(self.clone()),
            name: name.to_owned(),
            start,
        }
    }

    /// Records an already-measured span directly — used where start/end
    /// are known sim-times rather than clock reads (e.g. the engine's
    /// whole-run span from first to last dispatched event).
    pub fn record_span(&self, name: &str, start_nanos: u64, end_nanos: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.level == TraceLevel::Off {
            return;
        }
        let dur = end_nanos.saturating_sub(start_nanos);
        inner.spans.entry(name.to_owned()).or_default().record(dur);
    }

    /// Snapshots and clears the recorded state.
    pub fn drain(&self) -> TraceSummary {
        let mut inner = self.inner.borrow_mut();
        TraceSummary {
            spans: std::mem::take(&mut inner.spans),
            events: std::mem::take(&mut inner.events).into(),
            dropped_events: std::mem::replace(&mut inner.dropped_events, 0),
        }
    }

    pub fn summary(&self) -> TraceSummary {
        let inner = self.inner.borrow();
        TraceSummary {
            spans: inner.spans.clone(),
            events: inner.events.iter().cloned().collect(),
            dropped_events: inner.dropped_events,
        }
    }
}

/// RAII span guard; duration is recorded when it drops.
pub struct Span {
    tracer: Option<Tracer>,
    name: String,
    start: u64,
}

impl Span {
    /// Closes the span now. Equivalent to dropping the guard; either way
    /// the interval is recorded exactly once — the `Drop` that runs after
    /// an explicit `end` finds the tracer handle already taken and does
    /// nothing.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        let mut inner = tracer.inner.borrow_mut();
        if inner.level == TraceLevel::Off {
            return;
        }
        let end = inner.clock.now_nanos();
        let dur = end.saturating_sub(self.start);
        inner
            .spans
            .entry(std::mem::take(&mut self.name))
            .or_default()
            .record(dur);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A detached, mergeable snapshot of a tracer's state — this is what
/// crosses shard-thread boundaries and lands in run reports.
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

    /// Canonical JSON: `{"spans":{...},"events":[...],"dropped_events":n}`
    /// with spans in name order and events in (time, name, detail) order.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"spans\":{");
        for (i, (name, agg)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_nanos\":{},\"max_nanos\":{}}}",
                json_string(name),
                agg.count,
                agg.total_nanos,
                agg.max_nanos
            );
        }
        out.push_str("},\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_nanos\":{},\"name\":{},\"detail\":{}}}",
                ev.at_nanos,
                json_string(&ev.name),
                json_string(&ev.detail)
            );
        }
        let _ = write!(out, "],\"dropped_events\":{}}}", self.dropped_events);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_shared() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.set(42);
        assert_eq!(c2.now_nanos(), 42);
    }

    #[test]
    fn spans_aggregate_count_total_max() {
        let clock = SimClock::new();
        let t = Tracer::new(Box::new(clock.clone()), TraceLevel::Summary, 8);
        clock.set(100);
        let s = t.span("work");
        clock.set(150);
        s.end();
        clock.set(200);
        let s = t.span("work");
        clock.set(230);
        drop(s);
        let sum = t.summary();
        let agg = sum.spans.get("work").copied().unwrap_or_default();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_nanos, 80);
        assert_eq!(agg.max_nanos, 50);
    }

    /// The RAII guard records exactly once whether it is ended explicitly
    /// or dropped, and nested guards record in drop order (inner first),
    /// each at its own clock reading.
    #[test]
    fn span_guard_records_once_in_drop_order() {
        let clock = SimClock::new();
        let t = Tracer::new(Box::new(clock.clone()), TraceLevel::Summary, 8);
        clock.set(10);
        let outer = t.span("outer");
        clock.set(20);
        {
            let _inner = t.span("inner");
            clock.set(35);
            // `_inner` drops here, at t=35.
        }
        clock.set(50);
        outer.end();
        // An explicit end must not be followed by a second record from the
        // guard's Drop: each span has exactly one interval.
        let sum = t.summary();
        let outer_agg = sum.spans.get("outer").copied().unwrap_or_default();
        let inner_agg = sum.spans.get("inner").copied().unwrap_or_default();
        assert_eq!(outer_agg.count, 1, "outer recorded more than once");
        assert_eq!(outer_agg.total_nanos, 40);
        assert_eq!(inner_agg.count, 1, "inner recorded more than once");
        assert_eq!(inner_agg.total_nanos, 15);
    }

    #[test]
    fn off_level_records_nothing() {
        let t = Tracer::new(Box::new(SimClock::new()), TraceLevel::Off, 8);
        t.event("e", String::new());
        t.span("s").end();
        t.record_span("r", 0, 10);
        assert!(t.summary().is_empty());
        assert!(!t.is_full());
    }

    #[test]
    fn summary_level_skips_events() {
        let t = Tracer::new(Box::new(SimClock::new()), TraceLevel::Summary, 8);
        t.event("e", String::new());
        assert!(t.summary().events.is_empty());
    }

    #[test]
    fn ring_buffer_bounds_events() {
        let clock = SimClock::new();
        let t = Tracer::new(Box::new(clock.clone()), TraceLevel::Full, 2);
        for i in 0..5u64 {
            clock.set(i);
            t.event("e", format!("{i}"));
        }
        let sum = t.summary();
        assert_eq!(sum.events.len(), 2);
        assert_eq!(sum.dropped_events, 3);
        assert_eq!(sum.events[0].detail, "3");
        assert_eq!(sum.events[1].detail, "4");
    }

    #[test]
    fn drain_resets_state() {
        let t = Tracer::new(Box::new(SimClock::new()), TraceLevel::Full, 8);
        t.event("e", String::new());
        t.record_span("s", 0, 5);
        let first = t.drain();
        assert!(!first.is_empty());
        assert!(t.summary().is_empty());
    }

    #[test]
    fn summary_merge_sorts_events() {
        let mut a = TraceSummary {
            events: vec![Event {
                at_nanos: 10,
                name: "b".into(),
                detail: String::new(),
            }],
            ..TraceSummary::default()
        };
        let b = TraceSummary {
            events: vec![Event {
                at_nanos: 5,
                name: "a".into(),
                detail: String::new(),
            }],
            ..TraceSummary::default()
        };
        a.merge(&b);
        assert_eq!(a.events[0].at_nanos, 5);
        let json = a.to_canonical_json();
        assert!(json.starts_with("{\"spans\":{}"), "{json}");
    }
}
