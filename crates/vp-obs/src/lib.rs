//! # vp-obs — deterministic observability
//!
//! Metrics, trace summaries, and phase profiling for the Verfploeter
//! reproduction, built on two rules that keep the pipeline's determinism
//! contract intact (DESIGN.md §9):
//!
//! 1. **Merge algebra.** [`Registry::merge`], [`Histogram::merge`], and
//!    [`TraceSummary::merge`] are associative and commutative with empty
//!    identities — the same contract as `SimStats`/`CatchmentMap` — so the
//!    K per-shard registries of `run_scan_sharded(K)` fold to a result
//!    byte-identical to the serial scan's, for every K.
//! 2. **One recorder, injected clock.** [`FlightRecorder`] is the only
//!    recorder driven by a [`Clock`], and only binaries and `vp-bench`
//!    may implement one over wall time (DESIGN.md §8; it reaches library
//!    code as a forwarded [`WallChannel`]), where it can only affect
//!    stdout, bench artifacts and the wall flight channel, never results. Sim-time enters as plain values: [`TraceSummary`] and the
//!    sim flight channel are built from instants the caller already holds.
//!
//! The crate is dependency-free and bottom-of-graph: exposition is
//! hand-rolled canonical JSON ([`Registry::to_canonical_json`]) and
//! Prometheus text ([`Registry::to_prometheus_text`]).

#![deny(unused_must_use)]
#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod flight;
pub mod metrics;
pub mod trace;
pub mod window;

pub use flight::{FlightDoc, FlightGuard, FlightRecorder, FlightSpan, FlightTimeline, WallChannel};
pub use metrics::{Counter, Gauge, Histogram, Metric, MetricKey, Registry};
pub use trace::{Clock, Event, SpanAgg, TraceLevel, TraceSummary};
pub use window::RollingWindow;
