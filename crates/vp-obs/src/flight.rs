//! The flight recorder: a bounded ring of wall-time span *intervals* for
//! phase and shard attribution (DESIGN.md §9), and the workspace's one
//! clock-driven recorder.
//!
//! The recorder keeps the individual intervals — `(name, phase, shard,
//! start_ns, end_ns)` — so a profile can answer *where the time went*:
//! self vs total time per phase, per-shard imbalance, barrier wait. It
//! reads time only through the injected [`Clock`] trait, which a *binary*
//! attaches as a [`WallChannel`] (clippy's wall-clock ban keeps wall-backed
//! clocks out of library code). Host timing is explicitly OUTSIDE the
//! determinism contract: two runs, or two shard counts, legitimately
//! differ.
//!
//! A [`FlightTimeline`] is the detached, mergeable snapshot ([`merge`]
//! obeys the usual algebra: associative, commutative, empty identity,
//! canonical shard-id order), and [`FlightDoc`] renders the canonical
//! `vp-obs-flight/v2` JSON document plus a chrome://tracing
//! `trace_event` export loadable in Perfetto.
//!
//! [`merge`]: FlightTimeline::merge

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use crate::metrics::json_string;
use crate::trace::Clock;

/// One recorded interval. `shard: None` marks orchestrator-level work;
/// `Some(k)` attributes the interval to shard `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSpan {
    /// Borrowed from the source text wherever this workspace records it;
    /// owned only when parsed back from a `vp-obs-flight/v2` document.
    pub name: Cow<'static, str>,
    /// Coarse pipeline stage (`"probe"`, `"sim"`, `"clean"`, `"map"`,
    /// `"exec"`, …); the profile report groups by it.
    pub phase: Cow<'static, str>,
    pub shard: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sort key component: orchestrator spans (`shard: None`) first, then
/// shards in ascending id order.
fn shard_rank(shard: Option<u32>) -> u64 {
    match shard {
        None => 0,
        Some(k) => u64::from(k) + 1,
    }
}

impl FlightSpan {
    /// An interval between two known marks. Names are `&'static str`, so
    /// their cardinality is bounded by the source text.
    pub fn new(
        name: &'static str,
        phase: &'static str,
        shard: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> FlightSpan {
        FlightSpan {
            name: Cow::Borrowed(name),
            phase: Cow::Borrowed(phase),
            shard,
            start_ns,
            end_ns,
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Canonical ordering: shard rank, then start ascending, then *wider
    /// first* on equal starts (so containment nesting is a stack walk),
    /// then name/phase as deterministic tie-breaks.
    fn key(&self) -> (u64, u64, u64, &str, &str) {
        (
            shard_rank(self.shard),
            self.start_ns,
            u64::MAX - self.end_ns,
            &self.name,
            &self.phase,
        )
    }

    fn to_json(&self) -> String {
        let shard = match self.shard {
            Some(k) => k.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"name\":{},\"phase\":{},\"shard\":{shard},\"start_ns\":{},\"end_ns\":{}}}",
            json_string(&self.name),
            json_string(&self.phase),
            self.start_ns,
            self.end_ns
        )
    }
}

struct RecorderInner {
    clock: Box<dyn Clock>,
    capacity: usize,
    spans: VecDeque<FlightSpan>,
    dropped: u64,
}

/// A cloneable flight-recorder handle over a bounded interval ring.
///
/// Handles are single-threaded (`Rc`-based) by design — each shard worker
/// owns its own recorder and drains to a detached (Send)
/// [`FlightTimeline`] before anything crosses the shard boundary
/// (DESIGN.md §14).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<RecorderInner>>,
}

impl FlightRecorder {
    pub fn new(clock: Box<dyn Clock>, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Rc::new(RefCell::new(RecorderInner {
                clock,
                capacity: capacity.max(1),
                spans: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    fn push(&self, span: FlightSpan) {
        let mut inner = self.inner.borrow_mut();
        if inner.spans.len() == inner.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(span);
    }

    /// Records an already-measured interval directly — used where start
    /// and end are known marks rather than clock reads.
    pub fn record_interval(
        &self,
        name: &'static str,
        phase: &'static str,
        shard: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.push(FlightSpan::new(name, phase, shard, start_ns, end_ns));
    }

    /// Opens a clock-stamped interval, closed and recorded when the guard
    /// drops.
    pub fn span(
        &self,
        name: &'static str,
        phase: &'static str,
        shard: Option<u32>,
    ) -> FlightGuard {
        FlightGuard {
            recorder: self.clone(),
            span: FlightSpan::new(name, phase, shard, self.now_nanos(), 0),
        }
    }

    /// The recorder's clock, for callers that measure an interval
    /// themselves before handing it to [`FlightRecorder::record_interval`].
    pub fn now_nanos(&self) -> u64 {
        self.inner.borrow().clock.now_nanos()
    }

    /// Snapshots the ring as a canonical [`FlightTimeline`] and clears the
    /// recorder — a second drain with no recording in between yields the
    /// empty timeline.
    pub fn drain(&self) -> FlightTimeline {
        let mut inner = self.inner.borrow_mut();
        let spans: Vec<FlightSpan> = std::mem::take(&mut inner.spans).into();
        let dropped = std::mem::replace(&mut inner.dropped, 0);
        FlightTimeline::from_spans(spans, dropped)
    }
}

/// RAII interval guard returned by [`FlightRecorder::span`]: `drop` it
/// where the interval ends.
pub struct FlightGuard {
    recorder: FlightRecorder,
    /// The open interval; its end is stamped at drop.
    span: FlightSpan,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.span.end_ns = self.recorder.now_nanos();
        self.recorder.push(self.span.clone());
    }
}

/// A detached, mergeable snapshot of recorded intervals — this is what
/// crosses shard-thread boundaries and lands in `vp-obs-flight/v2`
/// documents. Spans are kept in canonical order (shard rank, start,
/// wider-first, name, phase), so equal timelines have equal bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightTimeline {
    pub spans: Vec<FlightSpan>,
    /// Intervals lost to ring overflow before the snapshot.
    pub dropped: u64,
}

impl FlightTimeline {
    /// Builds a timeline from raw spans, imposing the canonical order.
    pub fn from_spans(mut spans: Vec<FlightSpan>, dropped: u64) -> FlightTimeline {
        spans.sort_by(|a, b| a.key().cmp(&b.key()));
        FlightTimeline { spans, dropped }
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.dropped == 0
    }

    /// Folds `other` in: the span multiset union re-sorted into canonical
    /// order (so per-shard timelines merge back into shard-id order
    /// regardless of fold order), dropped counts summed. Associative,
    /// commutative, empty identity — the same contract as
    /// `Registry::merge`.
    pub fn merge(&mut self, other: &FlightTimeline) {
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by(|a, b| a.key().cmp(&b.key()));
        self.dropped += other.dropped;
    }

    /// Canonical JSON: `{"spans":[...],"dropped":n}` in canonical span
    /// order. Byte-identical for equal timelines.
    fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span.to_json());
        }
        let _ = write!(out, "],\"dropped\":{}}}", self.dropped);
        out
    }
}

/// A thread-shareable wall-clock handle a *binary* attaches to carry the
/// optional wall-time flight channel through a scan. Library code never
/// constructs a wall-backed clock; it only forwards this
/// handle, so everything the library records on the wall channel is
/// explicitly outside the determinism contract.
#[derive(Clone)]
pub struct WallChannel {
    clock: Arc<dyn Clock + Send + Sync>,
}

impl WallChannel {
    pub fn new(clock: Arc<dyn Clock + Send + Sync>) -> WallChannel {
        WallChannel { clock }
    }
}

/// Forwarding impl so a `WallChannel` can drive a [`FlightRecorder`] or
/// the executor's shard timing directly. This is not a wall-time *read*
/// — the backing clock was built by a binary; this file never touches
/// `Instant`/`SystemTime`.
impl Clock for WallChannel {
    fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }
}

impl std::fmt::Debug for WallChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallChannel")
    }
}

/// The canonical `vp-obs-flight/v2` document: one wall-time timeline
/// (outside the determinism contract) and a source label naming the run
/// that produced it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDoc {
    /// E.g. `"bench_scan/15000"` or an experiment name.
    pub source: String,
    pub wall: FlightTimeline,
}

impl FlightDoc {
    /// Canonical JSON document, schema-tagged `vp-obs-flight/v2` and
    /// validated by `vp_monitor::schema`.
    pub fn to_canonical_json(&self) -> String {
        format!(
            "{{\"schema\":\"vp-obs-flight/v2\",\"source\":{},\"wall\":{}}}",
            json_string(&self.source),
            self.wall.to_canonical_json()
        )
    }

    /// chrome://tracing `trace_event` JSON (the "X" complete-event form),
    /// loadable in Perfetto. `tid` 0 is orchestrator work and `tid` k+1
    /// shard k; `ts` and `dur` are microseconds with the sub-microsecond
    /// remainder kept as three deterministic decimal digits.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.wall.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}}}",
                json_string(&span.name),
                json_string(&span.phase),
                shard_rank(span.shard),
                micros(span.start_ns),
                micros(span.duration_ns())
            );
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds rendered as a microsecond decimal (`1234.567`) without any
/// float round-trip, so the export is byte-deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A settable test clock: clones share one cell.
    #[derive(Clone, Default)]
    struct CellClock(Rc<Cell<u64>>);

    impl Clock for CellClock {
        fn now_nanos(&self) -> u64 {
            self.0.get()
        }
    }

    fn span(name: &'static str, shard: Option<u32>, start: u64, end: u64) -> FlightSpan {
        FlightSpan::new(name, "p", shard, start, end)
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let rec = FlightRecorder::new(Box::new(CellClock::default()), 2);
        rec.record_interval("a", "p", None, 0, 1);
        rec.record_interval("b", "p", None, 1, 2);
        rec.record_interval("c", "p", None, 2, 3);
        let tl = rec.drain();
        assert_eq!(tl.dropped, 1);
        let names: Vec<&str> = tl.spans.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["b", "c"], "oldest interval must be the one dropped");
    }

    #[test]
    fn drain_is_idempotent() {
        let rec = FlightRecorder::new(Box::new(CellClock::default()), 4);
        rec.record_interval("a", "p", Some(0), 0, 5);
        let first = rec.drain();
        assert_eq!(first.spans.len(), 1);
        let second = rec.drain();
        assert!(second.is_empty(), "second drain must be empty: {second:?}");
    }

    #[test]
    fn guard_records_once_when_it_drops() {
        let clock = CellClock::default();
        let rec = FlightRecorder::new(Box::new(clock.clone()), 8);
        clock.0.set(10);
        let g = rec.span("ended", "p", Some(3));
        clock.0.set(25);
        drop(g);
        clock.0.set(30);
        {
            let _g = rec.span("dropped", "p", None);
            clock.0.set(42);
        }
        let tl = rec.drain();
        assert_eq!(tl.spans.len(), 2);
        // Canonical order: shard None first, then shard 3.
        assert_eq!(tl.spans[0].name, "dropped");
        assert_eq!((tl.spans[0].start_ns, tl.spans[0].end_ns), (30, 42));
        assert_eq!(tl.spans[1].name, "ended");
        assert_eq!((tl.spans[1].start_ns, tl.spans[1].end_ns), (10, 25));
        assert_eq!(tl.spans[1].shard, Some(3));
    }

    /// The fold is associative, commutative, has the empty timeline as
    /// identity, and lands per-shard timelines back in shard-id order
    /// whatever the fold order was.
    // merge-tested(FlightTimeline::merge)
    #[test]
    fn flight_timeline_merge_is_associative_commutative_with_identity() {
        let a = FlightTimeline::from_spans(vec![span("a", Some(2), 5, 9)], 1);
        let b = FlightTimeline::from_spans(vec![span("b", None, 0, 20)], 0);
        let c = FlightTimeline::from_spans(
            vec![span("c", Some(0), 3, 4), span("c2", Some(1), 3, 4)],
            2,
        );

        let fold = |parts: &[&FlightTimeline]| {
            let mut out = FlightTimeline::default();
            for p in parts {
                out.merge(p);
            }
            out
        };
        let abc = fold(&[&a, &b, &c]);
        assert_eq!(abc, fold(&[&c, &b, &a]), "commutativity");
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(abc, a_bc, "associativity");
        let mut with_id = abc.clone();
        with_id.merge(&FlightTimeline::default());
        assert_eq!(abc, with_id, "empty identity");
        assert_eq!(abc.dropped, 3);

        // Shard-id order regardless of merge order.
        let shards: Vec<Option<u32>> = abc.spans.iter().map(|s| s.shard).collect();
        assert_eq!(shards, [None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn canonical_json_is_stable_and_escapes() {
        let tl = FlightTimeline::from_spans(vec![span("a\"b", None, 1, 2)], 0);
        assert_eq!(
            tl.to_canonical_json(),
            "{\"spans\":[{\"name\":\"a\\\"b\",\"phase\":\"p\",\"shard\":null,\
             \"start_ns\":1,\"end_ns\":2}],\"dropped\":0}"
        );
        assert!(FlightTimeline::default().is_empty());
    }

    #[test]
    fn flight_doc_renders_the_wall_channel() {
        let doc = FlightDoc {
            source: "test".to_owned(),
            wall: FlightTimeline::from_spans(
                vec![span("round", None, 0, 10_500), span("compute", Some(1), 2, 7)],
                0,
            ),
        };
        let json = doc.to_canonical_json();
        assert!(json.starts_with("{\"schema\":\"vp-obs-flight/v2\",\"source\":\"test\""));
        assert!(json.contains("\"wall\":{\"spans\":["));

        let chrome = doc.to_chrome_trace();
        // Structural spot-checks; the full JSON-parse test lives in
        // vp-monitor (this crate is dependency-free).
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":10.500"));
        assert!(chrome.contains("\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0.002,\"dur\":0.005"));
        assert!(chrome.ends_with("]}"));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test clock ticks atomically behind the Sync bound of a wall channel"
    )]
    fn wall_channel_forwards_its_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct TickClock(AtomicU64);
        impl Clock for TickClock {
            fn now_nanos(&self) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed)
            }
        }
        let wall = WallChannel::new(Arc::new(TickClock(AtomicU64::new(0))));
        assert_eq!(wall.now_nanos(), 0);
        assert_eq!(format!("{wall:?}"), "WallChannel");
        let rec = FlightRecorder::new(Box::new(wall.clone()), 4);
        drop(rec.span("w", "p", None));
        let tl = rec.drain();
        assert_eq!(tl.spans.len(), 1);
        assert_eq!((tl.spans[0].start_ns, tl.spans[0].end_ns), (1, 2));
    }
}
