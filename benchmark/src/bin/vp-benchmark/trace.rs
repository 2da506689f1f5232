//! The harness's span recorder.
//!
//! Spans are recorded from the harness's own files, around calls into the
//! system's public entry points; nothing under `crates/` is instrumented.
//! They are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde_json::{json, Value};
use vp_obs::Clock;

use crate::host::WallClock;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one round share this identifier.
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; closing takes it back.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    clock: Arc<WallClock>,
    enabled: bool,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`]: the
    /// end-to-end metrics are measured with tracing off.
    pub fn new(clock: Arc<WallClock>) -> Tracer {
        Tracer {
            clock,
            enabled: false,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.clock.now_nanos();
        let id = self.push(name, now, now, self.stack.last().copied());
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.clock.now_nanos();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// Records an interval measured elsewhere on the same clock (the
    /// scan's wall flight channel) as a child of `parent`. Returns its
    /// index so further intervals can nest under it.
    pub fn add(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Open) -> Open {
        if !self.enabled {
            return Open(None);
        }
        Open(Some(self.push(name, start_ns, end_ns, parent.0)))
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            round: self.round,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the time its direct children cover
/// (each child clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            out[p] = out[p].saturating_sub(covered);
        }
    }
    out
}

/// Per span name, the per-round sums of `(duration, self time)` in
/// nanoseconds: what a layer cost in each traced round.
pub fn per_round(spans: &[Span]) -> BTreeMap<String, BTreeMap<u32, (u64, u64)>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out
            .entry(s.name.clone())
            .or_default()
            .entry(s.round)
            .or_default();
        e.0 += s.duration_ns();
        e.1 += self_ns;
    }
    out
}

/// The largest share of any parent span that its children overrun it by —
/// zero when every child lies inside its parent, which is what makes
/// "children plus self time account for the span" hold exactly.
pub fn worst_overrun(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter_map(|s| {
            let parent = &spans[s.parent?];
            let outside =
                parent.start_ns.saturating_sub(s.start_ns) + s.end_ns.saturating_sub(parent.end_ns);
            Some(outside as f64 / parent.duration_ns().max(1) as f64)
        })
        .fold(0.0, f64::max)
}

/// The trace document written to `out/trace-<workload>.json`.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
                "parent": s.parent,
                "round": s.round,
            })
        })
        .collect();
    json!({"schema": "vp-benchmark-trace/v1", "workload": workload, "spans": rows})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, round: u32) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            round,
        }
    }

    /// round[0,100] ⊃ scan[10,90] ⊃ {walk[10,40], dispatch[40,85]}; drop[90,95].
    fn fixture() -> Vec<Span> {
        vec![
            span("round", 0, 100, None, 1),
            span("scan", 10, 90, Some(0), 1),
            span("walk", 10, 40, Some(1), 1),
            span("dispatch", 40, 85, Some(1), 1),
            span("drop", 90, 95, Some(0), 1),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = fixture();
        assert_eq!(self_times(&spans), vec![15, 5, 30, 45, 5]);
        // Children plus self account for every parent exactly.
        let selfs = self_times(&spans);
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(children + selfs[i], s.duration_ns(), "{}", s.name);
        }
        assert_eq!(worst_overrun(&spans), 0.0);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, None, 0), span("c", 5, 15, Some(0), 0)];
        assert_eq!(self_times(&spans), vec![5, 10]);
        assert_eq!(worst_overrun(&spans), 0.5);
    }

    #[test]
    fn per_round_sums_by_name_and_round() {
        let mut spans = fixture();
        spans.push(span("round", 100, 160, None, 2));
        spans.push(span("walk", 100, 120, Some(5), 2));
        spans.push(span("walk", 120, 130, Some(5), 2));
        let by = per_round(&spans);
        assert_eq!(by["walk"][&1], (30, 30));
        assert_eq!(by["walk"][&2], (30, 30));
        assert_eq!(by["round"][&2], (60, 30));
    }

    #[test]
    fn tracer_nests_by_open_order_and_is_silent_when_off() {
        let mut t = Tracer::new(Arc::new(WallClock::start()));
        let off = t.open("ignored");
        t.close(off);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.next_round();
        let a = t.open("a");
        let b = t.open("b");
        let folded = t.add("folded", 1, 2, b);
        t.add("leaf", 1, 2, folded);
        t.close(b);
        t.close(a);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(1), Some(2))
        );
        assert!(s.iter().all(|x| x.round == 1));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
    }
}
