//! # vp-monitor — the consumer side of the observability pipeline
//!
//! PR 3's `vp-obs` layer made every experiment *emit* artifacts: metric
//! registries, sim-time phase spans, and `vp-obs-report/v1` run reports.
//! This crate closes the loop by *watching* them. It is the reproduction
//! of the paper's headline operational claim (§4.4/Fig. 9): Verfploeter is
//! cheap enough to re-run continuously, so catchment drift — routing
//! changes, site flips, load-share skew, coverage loss — becomes an alert
//! stream an operator can act on, not a post-hoc analysis.
//!
//! Five layers (DESIGN.md §10):
//!
//! 1. **Ingest** ([`ingest`]) — loads time-ordered sequences of catchment
//!    snapshots (the fig9 stability rounds are the canonical source, via
//!    `fig9_stability --snapshots <dir>`), the optional block→origin-AS
//!    sidecar, and `vp-obs-report/v1` documents for sim-time scan
//!    durations.
//! 2. **Diff engine** ([`diff`]) — per-/24 catchment flips, per-AS flip
//!    aggregation, site load-share deltas, and coverage changes between
//!    consecutive rounds; window aggregates fold through
//!    [`diff::DriftSummary::merge`], which obeys the same merge algebra as
//!    `SimStats`/`Registry` (associative, commutative, empty identity —
//!    proven by a `merge-tested` proptest that `tests/lint_gate.rs` checks).
//! 3. **Alert evaluator** ([`alert`]) — deterministic threshold +
//!    hysteresis rules emitting canonical `vp-monitor-alert/v1` JSON.
//!    No wall clock anywhere: rounds are the only notion of time, so the
//!    same input sequence always yields byte-identical alert documents.
//! 4. **Streaming tracker** ([`stream`]) — [`stream::DriftTracker`] folds
//!    rounds one at a time and is proven by proptest to match the batch
//!    pipeline byte-for-byte; it backs `vp-monitor watch --follow` and
//!    the `vp-daemon` status/scrape surfaces (`vp-daemon-status/v1` plus
//!    Prometheus text), with rolling signal windows in O(window) memory.
//! 5. **Flight-recorder profiler** ([`profile`]) — parses
//!    `vp-obs-flight/v1` documents from the scan engine's flight recorder
//!    and renders the attribution report (`vp-monitor profile`): per-phase
//!    self/total times, per-shard compute imbalance in permille, and a
//!    slowest-shard critical-path estimate.
//!
//! The `vp-monitor` binary exposes all of it: `diff`, `watch`, `validate`,
//! `profile`. Speed is gated elsewhere: the repo benchmark
//! (`benchmark/run.sh --compare`) is the one perf ledger.

#![deny(unused_must_use)]
#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod alert;
pub mod diff;
pub mod ingest;
pub mod pipeline;
pub mod profile;
pub mod schema;
pub mod stream;

pub use alert::{Alert, AlertConfig, Evaluator};
pub use diff::{diff_rounds, DriftSummary, Origins, RoundDiff};
pub use ingest::{load_obs_report, load_rounds_dir, ObsReportDoc, ScanSummary};
pub use pipeline::{run_diff_pipeline, DiffOutput};
pub use profile::{parse_flight_doc, profile_channel, render_report, ChannelProfile, PhaseRow};
pub use stream::{build_scrape, build_status_doc, DaemonMeta, DriftTracker, StreamStep};
