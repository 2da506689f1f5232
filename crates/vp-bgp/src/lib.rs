//! BGP policy-routing simulator for anycast catchments.
//!
//! The paper stresses that it "does not model BGP routing to predict future
//! catchments, \[it\] measures actual deployment" (§3.1) — because it has the
//! real Internet to measure. This reproduction does not, so this crate
//! provides the routing system that *produces* the catchments the prober
//! then measures. The measurement pipeline never peeks at this crate's
//! internals; it only observes where reply packets arrive, exactly like the
//! real tool.
//!
//! The model is the standard Gao–Rexford abstraction used by BGP simulation
//! studies:
//!
//! * **Export rules** — routes learned from customers are exported to
//!   everyone; routes learned from peers or providers only to customers
//!   (valley-free routing).
//! * **Decision process** — prefer customer-learned over peer-learned over
//!   provider-learned (local-pref), then shortest AS path (where
//!   [`Site::prepend`] inflates the origin's path), then a deterministic
//!   per-AS policy tie-break. A configurable sliver of ASes "choose to
//!   ignore prepending" (§6.1, [`policy::ignores_prepending`]): they do not
//!   ignore path length, but tie-break among, and egress over, their slack
//!   routes too (exactly one hop longer than their best); a longer route
//!   is never heard.
//! * **Hot-potato egress** — when several neighbors offer equally good
//!   routes, each PoP of an AS exits via the neighbor session closest to
//!   it. This is what splits large ASes across catchments (Figs. 7, 8);
//!   [`policy::uses_slack_locally`] says which ASes also egress over slack.
//! * **Dynamics** — [`FlipModel`] perturbs the per-round choice
//!   among equal candidates for flip-prone ASes, reproducing the rare but
//!   persistent catchment instability of Fig. 9 / Table 7.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod announce;
mod dynamics;
pub mod policy;
mod routing;

pub use announce::{Announcement, Site, SiteId};
pub use dynamics::FlipModel;
pub use routing::{AsRoute, BgpSim, Candidate, RouteLevel, RouteObs, RoutingTable};
