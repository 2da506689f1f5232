//! # vp-obs — deterministic observability
//!
//! Metrics, event logs and wall-time phase profiling for the Verfploeter
//! reproduction, built on two rules that keep the pipeline's determinism
//! contract intact (DESIGN.md §9):
//!
//! 1. **Merge algebra.** [`Registry::merge`], [`Histogram::merge`] and
//!    [`EventLog::merge`] are associative and commutative with empty
//!    identities — the same contract as `SimStats`/`CatchmentMap` — so the
//!    K per-shard registries of a `run_scan_sharded_on` round fold to a
//!    result byte-identical to the serial scan's, for every K.
//! 2. **One recorder, injected clock.** [`FlightRecorder`] is the only
//!    recorder driven by a [`Clock`], and only binaries may implement one
//!    over wall time (DESIGN.md §8; it reaches library code as a
//!    forwarded [`WallChannel`]), where it can only affect stdout and the
//!    flight timeline, never results. Sim-time enters as plain values:
//!    each [`Event`] is stamped by its caller.
//!
//! The crate is dependency-free and bottom-of-graph: exposition is
//! hand-rolled canonical JSON ([`Registry::to_canonical_json`]) and
//! Prometheus text ([`Registry::to_prometheus_text`]).

#![deny(unused_must_use)]
#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod flight;
mod metrics;
mod trace;
mod window;

pub use flight::{FlightDoc, FlightRecorder, FlightSpan, FlightTimeline, WallChannel};
pub use metrics::{Histogram, Registry};
pub use trace::{Clock, Event, EventLog, TraceLevel};
pub use window::RollingWindow;
