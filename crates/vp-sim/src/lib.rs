//! Discrete-event network simulator for anycast measurement.
//!
//! This is the "Internet" the measurement tools run against. Applications
//! (the Verfploeter prober, the Atlas baseline) inject real byte-level
//! [`vp_packet`] packets at simulated times; the engine delivers them
//! according to the world's unicast reachability and — for destinations
//! inside the prefix of the one anycast service it is built for — the BGP
//! catchment of the *sender*, exactly the mechanism the paper exploits ("the catchment is
//! identified by the anycast site that receives the reply", §3.1).
//!
//! The engine injects the measurement artifacts the paper's data-cleaning
//! step confronts (§4): duplicate replies ("in some cases up to thousands
//! of times", ~2% of replies), replies from a different address than
//! probed, late replies, unsolicited traffic, packet loss, and blocks that
//! churn between responsive and unresponsive across rounds (the
//! to-NR/from-NR series of Fig. 9).
//!
//! Module map:
//! * `faults` — fault-injection configuration (smoltcp-style knobs).
//! * `latency` — distance-based propagation delay.
//! * [`draws`] — the keyed draws (domain tags, packet and event keys)
//!   every stochastic outcome derives from: the public spec of a run.
//! * `oracle` — catchment oracles: converged ([`StaticOracle`]) or with
//!   per-round flips ([`FlippingOracle`]).
//! * `engine` — the run loop (every arrival resolved at transmission),
//!   host behaviours.
//! * `sink` — the [`CaptureSink`] a run hands its arrivals to, and
//!   [`Earliest`], the least-`(at, key)`-per-slot reduction over them.
//! * `exec` — the blessed OS-thread shard executor; the one module
//!   allowed to spawn threads (DESIGN.md §14).
//! * `scenario` — assembled worlds: the two-site B-Root deployment and
//!   the nine-site Tangled testbed of Table 3.

#![deny(unused_must_use)]
#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A hot crate: no narrowing casts (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

pub mod draws;
mod engine;
mod exec;
mod faults;
mod latency;
mod oracle;
mod scenario;
mod sink;

pub use engine::{EngineObs, NetworkSim, SimStats, TimedProbe};
pub use exec::ShardExecutor;
pub use faults::FaultConfig;
pub use latency::LatencyModel;
pub use oracle::{CatchmentOracle, FlippingOracle, StaticOracle};
pub use scenario::Scenario;
pub use sink::{CaptureSink, Earliest};
