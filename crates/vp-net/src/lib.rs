//! Network primitives shared by every crate in the Verfploeter reproduction.
//!
//! This crate is deliberately dependency-light: it defines the vocabulary
//! types the rest of the workspace speaks in.
//!
//! * `addr` — IPv4 addresses, `/24` blocks ([`Block24`]) and CIDR prefixes
//!   ([`Prefix`]). Verfploeter probes one representative address per `/24`
//!   (the smallest prefix routable in BGP), so the `/24` block is the unit of
//!   observation throughout the system.
//! * `asn` — Autonomous System numbers ([`Asn`]).
//! * `bitset` — a packed bitset over dense ids ([`BitSet`]), the boolean
//!   column type of the columnar scan core.
//! * `column` — the sorted block column with a parallel value column
//!   ([`BlockColumn`]) and its merge-join ([`Joined`]): the one table
//!   behind the catchment map, the RTT table and the monitor's origins.
//! * `idvec` — dense tables keyed by typed ids ([`IdVec`], [`Id`]): the
//!   per-AS, per-PoP and hitlist-row tables, whose one indexing panic
//!   names the id.
//! * `hash` — the one keyed hash ([`mix`], [`fn@unit`]) behind every
//!   deterministic stochastic draw in the workspace.
//! * `perm` — pseudorandom probe-order permutations (Feistel cycle-walking
//!   and a full-period LCG for the ablation bench). The paper sends probes in
//!   pseudorandom order "to spread traffic, limiting traffic to any given
//!   network" (§3.1); these types make that order deterministic and testable.
//! * `time` — the simulated-time scale ([`SimTime`], [`SimDuration`]) used
//!   by the discrete-event simulator and everything driven by it.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod addr;
mod asn;
mod bitset;
mod column;
pub mod conv;
mod error;
mod hash;
mod idvec;
mod perm;
mod time;

pub use addr::{Block24, Ipv4Addr, Prefix};
pub use asn::Asn;
pub use bitset::BitSet;
pub use column::{BlockColumn, Joined};
pub use error::NetError;
pub use hash::{mix, unit};
pub use idvec::{Id, IdVec};
pub use perm::{FeistelPermutation, LcgPermutation, ProbeOrder};
pub use time::{SimDuration, SimTime};
