//! Synthetic Internet generator.
//!
//! The paper measures the real Internet; this crate generates the stand-in
//! the simulator measures instead. A generated [`Internet`] contains:
//!
//! * an **AS graph** with Gao–Rexford relationships (providers, customers,
//!   peers) in three tiers — a fully meshed tier-1 clique, regional transit
//!   ASes, and stub ASes — each AS placed in a country drawn from the
//!   internet-user weights of [`vp_geo::world`];
//! * **points of presence** (PoPs): large ASes are present in many places,
//!   each inter-AS adjacency is anchored at a concrete PoP pair, and blocks
//!   are homed on PoPs — the raw material for hot-potato routing and the
//!   intra-AS catchment splits of Figs. 7 and 8;
//! * **announced prefixes** with a heavy-tailed per-AS count and a realistic
//!   length mix (/8 … /24); each block carries the origin AS of its
//!   announcing prefix (the Route Views stand-in is a column of the block
//!   table, not a second structure);
//! * **populated /24 blocks** with per-block responsiveness (≈55% of blocks
//!   answer pings, matching the ISI hitlist response rates the paper cites),
//!   daily DNS load weights (heavy-tailed, with country-level resolver
//!   concentration), and geolocation entries (a sliver is deliberately
//!   unlocatable, reproducing Table 4's "no location" row).
//!
//! Everything is deterministic in the [`TopologyConfig::seed`].

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod blocks;
pub mod config;
pub mod graph;
pub mod internet;
pub mod prefixes;
pub mod sites;

pub use blocks::BlockInfo;
pub use config::TopologyConfig;
pub use graph::{AsNode, AsTier, Pop, PopId};
pub use internet::Internet;
pub use prefixes::PrefixInfo;
pub use prefixes::ANYCAST_REGION;
pub use sites::{broot_specs, pick_host_ases, tangled_specs, SitePlacement};
