//! The `vp-monitor profile` attribution engine: turns a `vp-obs-flight/v2`
//! document into a text report answering *where the time went*.
//!
//! From the wall timeline: self/total time per phase (self = a span's
//! duration minus its direct children's, by interval containment),
//! per-shard compute imbalance in permille, a slowest-shard critical-path
//! estimate, and the top-N widest spans. Wall time is host timing and
//! varies run to run — the report labels it so.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;
use vp_obs::{FlightDoc, FlightSpan, FlightTimeline};

/// Parses a `vp-obs-flight/v2` JSON document back into a [`FlightDoc`].
/// `ctx` names the source (a path, usually) for error messages.
pub fn parse_flight_doc(doc: &Value, ctx: &str) -> Result<FlightDoc, String> {
    let tag = doc.get("schema").and_then(Value::as_str);
    if tag != Some("vp-obs-flight/v2") {
        return Err(format!("{ctx}: not a vp-obs-flight/v2 document (tag {tag:?})"));
    }
    let source = doc
        .get("source")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing source"))?
        .to_owned();
    let wall = parse_timeline(
        doc.get("wall")
            .ok_or_else(|| format!("{ctx}: missing wall timeline"))?,
        &format!("{ctx}: wall"),
    )?;
    Ok(FlightDoc { source, wall })
}

fn parse_timeline(value: &Value, ctx: &str) -> Result<FlightTimeline, String> {
    let dropped = value
        .get("dropped")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing dropped count"))?;
    let raw = value
        .get("spans")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing spans array"))?;
    let mut spans = Vec::with_capacity(raw.len());
    for (i, sp) in raw.iter().enumerate() {
        let field = |key: &str| {
            sp.get(key)
                .and_then(Value::as_str)
                .map(|s| std::borrow::Cow::Owned(s.to_owned()))
                .ok_or_else(|| format!("{ctx}: span {i} missing {key}"))
        };
        let num = |key: &str| {
            sp.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{ctx}: span {i} missing {key}"))
        };
        let shard = match sp.get("shard") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: span {i} shard not an integer"))?;
                Some(
                    u32::try_from(n)
                        .map_err(|_| format!("{ctx}: span {i} shard {n} out of range"))?,
                )
            }
        };
        spans.push(FlightSpan {
            name: field("name")?,
            phase: field("phase")?,
            shard,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
        });
    }
    Ok(FlightTimeline::from_spans(spans, dropped))
}

/// Aggregated self/total time for one phase of a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub phase: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The attribution of one timeline: phase rows, shard compute totals, and
/// the derived imbalance / critical-path numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelProfile {
    pub spans: usize,
    pub dropped: u64,
    /// Duration of the timeline's root span (the widest interval over all
    /// orchestrator spans; usually `scan.round`).
    pub root_ns: u64,
    pub phases: Vec<PhaseRow>,
    /// Compute nanoseconds attributed to each shard, in shard-id order.
    pub shards: Vec<(u32, u64)>,
    /// `(max - min) * 1000 / max` over shard compute times; `None` with no
    /// shard-attributed spans.
    pub imbalance_permille: Option<u64>,
    /// Estimated wall time had every shard run as slow as the slowest:
    /// root − Σ compute + shards · max(compute): compute overlaps in real
    /// time.
    pub critical_path_ns: Option<u64>,
    /// The widest spans, duration-descending.
    pub widest: Vec<FlightSpan>,
}

/// Spans sorted canonically nest by containment under a stack walk: a
/// span's *self* time is its duration minus its direct children's.
fn contains(outer: &FlightSpan, inner: &FlightSpan) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
}

/// Computes the attribution for one timeline. `top_n` bounds the widest-
/// span list.
pub fn profile_channel(tl: &FlightTimeline, top_n: usize) -> ChannelProfile {
    // Group by shard key (None first, then ascending ids); within a group
    // the canonical order (start asc, wider first) makes nesting a stack
    // walk. Self time = duration − Σ direct children.
    let mut phases: BTreeMap<&str, PhaseRow> = BTreeMap::new();
    let mut shards: BTreeMap<u32, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    let mut stack: Vec<(usize, u64)> = Vec::new(); // (span index, children total)
    let mut self_ns = vec![0u64; tl.spans.len()];

    let flush = |stack: &mut Vec<(usize, u64)>, self_ns: &mut Vec<u64>, upto: Option<&FlightSpan>, spans: &[FlightSpan]| {
        while let Some(&(top_idx, children)) = stack.last() {
            let Some(top) = spans.get(top_idx) else { break };
            if let Some(next) = upto {
                if next.shard == top.shard && contains(top, next) {
                    break;
                }
            }
            stack.pop();
            if let Some(slot) = self_ns.get_mut(top_idx) {
                *slot = top.duration_ns().saturating_sub(children);
            }
            if let Some((_, parent_children)) = stack.last_mut() {
                *parent_children += top.duration_ns();
            }
        }
    };

    for (i, span) in tl.spans.iter().enumerate() {
        // Close finished spans (and all spans when the shard changes).
        flush(&mut stack, &mut self_ns, Some(span), &tl.spans);
        stack.push((i, 0));
    }
    flush(&mut stack, &mut self_ns, None, &tl.spans);

    for (span, &span_self) in tl.spans.iter().zip(self_ns.iter()) {
        let dur = span.duration_ns();
        match span.shard {
            None => root_ns = root_ns.max(dur),
            Some(k) => {
                // Shard compute: prefer the executor's explicit compute
                // spans; otherwise any shard-attributed span counts.
                if span.name == "shard.compute" {
                    *shards.entry(k).or_insert(0) += dur;
                }
            }
        }
        let row = phases
            .entry(&span.phase)
            .or_insert_with(|| PhaseRow {
                phase: span.phase.to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
        row.count += 1;
        row.total_ns = row.total_ns.saturating_add(dur);
        row.self_ns = row.self_ns.saturating_add(span_self);
    }
    // No explicit executor spans: fall back to summing every shard's spans'
    // *self* time, which tiles each shard's busy time without double count.
    if shards.is_empty() {
        for (span, &span_self) in tl.spans.iter().zip(self_ns.iter()) {
            if let Some(k) = span.shard {
                *shards.entry(k).or_insert(0) += span_self;
            }
        }
    }

    let shards: Vec<(u32, u64)> = shards.into_iter().collect();
    let imbalance_permille = if shards.is_empty() {
        None
    } else {
        let max = shards.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let min = shards.iter().map(|&(_, v)| v).min().unwrap_or(0);
        Some((max - min) * 1000 / max.max(1))
    };
    let critical_path_ns = if shards.is_empty() {
        None
    } else {
        let total: u64 = shards.iter().map(|&(_, v)| v).sum();
        let max = shards.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let serialized = max.saturating_mul(shards.len() as u64);
        Some(root_ns.saturating_sub(total).saturating_add(serialized))
    };

    let mut widest: Vec<FlightSpan> = tl.spans.clone();
    widest.sort_by_key(|s| Reverse(s.duration_ns()));
    widest.truncate(top_n);

    ChannelProfile {
        spans: tl.spans.len(),
        dropped: tl.dropped,
        root_ns,
        phases: phases.into_values().collect(),
        shards,
        imbalance_permille,
        critical_path_ns,
        widest,
    }
}

fn ms(ns: u64) -> String {
    format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

/// Renders the attribution report for a flight document.
pub fn render_report(doc: &FlightDoc, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flight profile: {}", doc.source);
    let tl = &doc.wall;
    let p = profile_channel(tl, top_n);
    let _ = writeln!(out, "== wall channel (host timing, outside the determinism contract) ==");
    if tl.spans.is_empty() {
        let _ = writeln!(out, "  (empty)");
        return out;
    }
    let _ = writeln!(
        out,
        "  spans {}  dropped {}  root {}",
        p.spans,
        p.dropped,
        ms(p.root_ns)
    );
    let _ = writeln!(out, "  phase           count     total        self");
    for row in &p.phases {
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>11} {:>11}",
            row.phase,
            row.count,
            ms(row.total_ns),
            ms(row.self_ns)
        );
    }
    if !p.shards.is_empty() {
        let _ = writeln!(out, "  shard compute:");
        for (k, v) in &p.shards {
            let _ = writeln!(out, "    shard {k:>3}  {:>11}", ms(*v));
        }
        if let Some(imb) = p.imbalance_permille {
            let _ = writeln!(out, "  imbalance {imb} permille (max-min over max)");
        }
        if let Some(cp) = p.critical_path_ns {
            let _ = writeln!(out, "  critical path (slowest-shard estimate) {}", ms(cp));
        }
    }
    let _ = writeln!(out, "  widest spans:");
    for sp in &p.widest {
        let shard = match sp.shard {
            None => "-".to_owned(),
            Some(k) => k.to_string(),
        };
        let _ = writeln!(
            out,
            "    {:<22} phase {:<7} shard {:>3}  {:>11}",
            sp.name,
            sp.phase,
            shard,
            ms(sp.duration_ns())
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round [0,100] over walk+build [0,60] (equal intervals), dispatch
    /// [60,100] and zero-width tail marks.
    fn round_timeline() -> FlightTimeline {
        FlightTimeline::from_spans(
            vec![
                FlightSpan::new("scan.round", "round", None, 0, 100),
                FlightSpan::new("scan.schedule_walk", "probe", None, 0, 60),
                FlightSpan::new("scan.probe_build", "probe", None, 0, 60),
                FlightSpan::new("scan.sim_dispatch", "sim", None, 60, 100),
                FlightSpan::new("scan.cleaning", "clean", None, 100, 100),
                FlightSpan::new("scan.catchment_build", "map", None, 100, 100),
            ],
            0,
        )
    }

    #[test]
    fn phase_self_times_sum_to_root_total() {
        let p = profile_channel(&round_timeline(), 3);
        assert_eq!(p.root_ns, 100);
        let self_sum: u64 = p.phases.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, p.root_ns, "self times must tile the round");
        // Equal sibling intervals nest one inside the other (canonical
        // order breaks the tie): probe self = inner 60 + outer 0.
        let probe = p.phases.iter().find(|r| r.phase == "probe").unwrap_or_else(|| panic!("no probe row"));
        assert_eq!(probe.total_ns, 120);
        assert_eq!(probe.self_ns, 60);
        let round = p.phases.iter().find(|r| r.phase == "round").unwrap_or_else(|| panic!("no round row"));
        assert_eq!(round.self_ns, 0, "round is fully covered by its children");
        assert_eq!(p.shards, Vec::new());
        assert_eq!(p.imbalance_permille, None);
    }

    #[test]
    fn shard_compute_drives_imbalance_and_critical_path() {
        let tl = FlightTimeline::from_spans(
            vec![
                FlightSpan::new("scan.round", "round", None, 0, 100),
                FlightSpan::new("shard.compute", "exec", Some(0), 10, 50),
                FlightSpan::new("shard.compute", "exec", Some(1), 10, 30),
                FlightSpan::new("shard.barrier_wait", "exec", Some(1), 30, 50),
            ],
            0,
        );
        let p = profile_channel(&tl, 5);
        assert_eq!(p.shards, vec![(0, 40), (1, 20)]);
        assert_eq!(p.imbalance_permille, Some(500));
        // root 100 − Σcompute 60 + 2·max 80 = 120.
        assert_eq!(p.critical_path_ns, Some(120));
        assert_eq!(p.widest[0].name, "scan.round");
        assert_eq!(p.widest.len(), 4);
    }

    #[test]
    fn shard_attribution_falls_back_to_self_times() {
        let tl = FlightTimeline::from_spans(
            vec![
                FlightSpan::new("scan.probe_build", "probe", Some(0), 0, 30),
                FlightSpan::new("scan.sim_dispatch", "sim", Some(0), 30, 90),
                FlightSpan::new("scan.probe_build", "probe", Some(1), 0, 40),
            ],
            0,
        );
        let p = profile_channel(&tl, 2);
        assert_eq!(p.shards, vec![(0, 90), (1, 40)]);
        assert_eq!(p.widest.len(), 2, "top-N truncates");
    }

    #[test]
    fn parse_round_trips_canonical_json() {
        let doc = FlightDoc {
            source: "unit".to_owned(),
            wall: FlightTimeline::from_spans(vec![FlightSpan::new("w", "exec", Some(3), 5, 9)], 2),
        };
        let value: Value = serde_json::from_str(&doc.to_canonical_json())
            .unwrap_or_else(|e| panic!("canonical json must parse: {e}"));
        let back = parse_flight_doc(&value, "t").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, doc);
        // And the parsed document re-serializes to the same bytes.
        assert_eq!(back.to_canonical_json(), doc.to_canonical_json());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        let parse = |text: &str| {
            let value: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}"));
            parse_flight_doc(&value, "t")
        };
        assert!(parse(r#"{"schema":"nope/v1"}"#).is_err());
        let empty = r#"{"spans":[],"dropped":0}"#;
        let retired = format!(r#"{{"schema":"vp-obs-flight/v1","source":"x","channels":{{"sim":{empty},"wall":{empty}}}}}"#);
        assert!(parse(&retired).unwrap_err().contains("not a vp-obs-flight/v2"));
        assert!(parse(r#"{"schema":"vp-obs-flight/v2","source":"x"}"#)
            .unwrap_err()
            .contains("wall"));
        assert!(parse(r#"{"schema":"vp-obs-flight/v2","source":"x","wall":{"spans":[{"name":"a"}],"dropped":0}}"#).is_err());
    }

    #[test]
    fn report_mentions_the_wall_channel_and_the_round() {
        let mut doc = FlightDoc {
            source: "unit".to_owned(),
            wall: round_timeline(),
        };
        let text = render_report(&doc, 4);
        assert!(text.contains("flight profile: unit"), "{text}");
        assert!(text.contains("== wall channel"), "{text}");
        assert!(text.contains("scan.round"), "{text}");
        doc.wall = FlightTimeline::default();
        assert!(render_report(&doc, 4).contains("(empty)"));
    }
}
