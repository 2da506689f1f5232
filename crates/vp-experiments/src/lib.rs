//! Experiment harness for the Verfploeter reproduction.
//!
//! Every table and figure of the paper's evaluation has a regenerator here
//! (see DESIGN.md's experiment index). Each experiment is a library
//! function taking a shared [`Lab`] — which lazily builds and caches the
//! expensive artifacts (worlds, hitlists, scans, the 96-round stability
//! dataset) — and returning the rendered report; the `run_all` binary runs
//! the ones named on its command line (all of them by default) in one
//! process so the cache is shared.
//!
//! Absolute numbers differ from the paper (the substrate is a generated
//! world, not the 2017 Internet); the *shapes* are the reproduction
//! targets: who wins, by what rough factor, where the crossovers fall.

#![forbid(unsafe_code)]
// Library code never unwraps (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod ablations;
pub mod context;
pub mod daemon;
pub mod experiments;
pub mod monitor;
pub mod obs;

pub use context::{bench_scenario_scaled, Lab, Scale};
pub use daemon::{Daemon, DaemonArgs, DaemonConfig};
