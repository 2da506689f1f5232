//! The RIPE Atlas baseline.
//!
//! The paper compares Verfploeter against "the largest studies we know of
//! \[which\] use between 9000 and 10000 VPs, all the active VPs in RIPE
//! Atlas" (§3.1). This crate reproduces that baseline over the simulated
//! world: a panel of physical vantage points whose geographic placement
//! follows the documented Atlas bias ("as a European project ... Atlas'
//! deployment is by far heavier in Europe than in other parts of the
//! globe", §5.4), each querying the anycast service with a CHAOS TXT
//! `hostname.bind` query (§3.1) and reading the answering site from the
//! reply payload — the opposite information flow from Verfploeter, where
//! the reply's *arrival site* is the signal.
//!
//! * [`panel`] — VP placement ([`AtlasPanel`]): blocks sampled by the
//!   country table's `atlas_weight`, some VPs temporarily unavailable
//!   (Table 4 counts 455 of 9807).
//! * [`scan`] — running a measurement ([`run_scan`]) through the
//!   discrete-event simulator and decoding the results ([`AtlasResult`]).

#![forbid(unsafe_code)]
// Library code never unwraps (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod panel;
pub mod scan;

pub use panel::{AtlasConfig, AtlasPanel, AtlasVp};
pub use scan::{run_scan, AtlasResult, VpOutcome};
