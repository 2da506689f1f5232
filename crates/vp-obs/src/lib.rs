//! # vp-obs — deterministic observability
//!
//! Metrics, tracing, and phase profiling for the Verfploeter reproduction,
//! built on two rules that keep the pipeline's determinism contract intact
//! (DESIGN.md §9):
//!
//! 1. **Merge algebra.** [`Registry::merge`], [`Histogram::merge`], and
//!    [`TraceSummary::merge`] are associative and commutative with empty
//!    identities — the same contract as `SimStats`/`CatchmentMap` — so the
//!    K per-shard registries of `run_scan_sharded(K)` fold to a result
//!    byte-identical to the serial scan's, for every K.
//! 2. **Injected clocks.** Time reaches a [`Tracer`] only through the
//!    [`Clock`] trait. Library code injects [`SimClock`] (simulated time);
//!    wall-clock impls are restricted by lint rule d4 to binaries and
//!    `vp-bench`, where they can only affect stdout and bench artifacts,
//!    never results.
//!
//! The crate is dependency-free and bottom-of-graph: exposition is
//! hand-rolled canonical JSON ([`Registry::to_canonical_json`]) and
//! Prometheus text ([`Registry::to_prometheus_text`]).

#![deny(unused_must_use)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod metrics;
pub mod trace;
pub mod window;

pub use flight::{FlightDoc, FlightGuard, FlightRecorder, FlightSpan, FlightTimeline, WallChannel};
pub use metrics::{Counter, Gauge, Histogram, Metric, MetricKey, Registry};
pub use trace::{Clock, Event, SimClock, Span, SpanAgg, TraceLevel, TraceSummary, Tracer};
pub use window::RollingWindow;
