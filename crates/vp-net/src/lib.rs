//! Network primitives shared by every crate in the Verfploeter reproduction.
//!
//! This crate is deliberately dependency-light: it defines the vocabulary
//! types the rest of the workspace speaks in.
//!
//! * [`addr`] — IPv4 addresses, `/24` blocks ([`Block24`]) and CIDR prefixes
//!   ([`Prefix`]). Verfploeter probes one representative address per `/24`
//!   (the smallest prefix routable in BGP), so the `/24` block is the unit of
//!   observation throughout the system.
//! * [`asn`] — Autonomous System numbers ([`Asn`]).
//! * [`bitset`] — a packed bitset over dense ids ([`BitSet`]), the boolean
//!   column type of the columnar scan core.
//! * [`mod@column`] — the sorted block column with a parallel value column
//!   ([`BlockColumn`]) and its merge-join ([`Joined`]): the one table
//!   behind the catchment map and the RTT table.
//! * [`hash`] — the one keyed hash ([`mix`], [`fn@unit`]) behind every
//!   deterministic stochastic draw in the workspace.
//! * [`perm`] — pseudorandom probe-order permutations (Feistel cycle-walking
//!   and a full-period LCG for the ablation bench). The paper sends probes in
//!   pseudorandom order "to spread traffic, limiting traffic to any given
//!   network" (§3.1); these types make that order deterministic and testable.
//! * [`pacing`] — a token bucket that enforces the paper's probing rate
//!   (~6–10k probes/second) against simulated time.
//! * [`time`] — the simulated-time scale ([`SimTime`], [`SimDuration`]) used
//!   by the discrete-event simulator and everything driven by it.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod addr;
pub mod asn;
pub mod bitset;
pub mod column;
pub mod conv;
pub mod error;
pub mod hash;
pub mod pacing;
pub mod perm;
pub mod time;

pub use addr::{Block24, Ipv4Addr, Prefix};
pub use asn::Asn;
pub use bitset::BitSet;
pub use column::{BlockColumn, Joined};
pub use error::NetError;
pub use hash::{mix, unit};
pub use pacing::TokenBucket;
pub use perm::{FeistelPermutation, LcgPermutation, ProbeOrder};
pub use time::{SimDuration, SimTime};
