//! # Verfploeter: broad and load-aware anycast mapping
//!
//! A reproduction of the measurement system of de Vries et al., *"Broad and
//! Load-Aware Anycast Mapping with Verfploeter"* (IMC 2017). Verfploeter
//! maps IP anycast catchments by inverting the usual measurement direction:
//! the anycast service itself pings millions of hitlist targets **from the
//! anycast prefix**; every ICMP Echo Reply is routed by BGP back to
//! whichever anycast site the replying network belongs to, so the reply's
//! *arrival site* is the catchment observation. Millions of ordinary
//! ping-responding hosts thereby act as passive vantage points — ~430× the
//! coverage of RIPE Atlas — and weighting the resulting catchment map with
//! historical DNS query logs yields calibrated per-site load predictions.
//!
//! ## Pipeline (one measurement)
//!
//! 1. [`prober`] — emit one ICMP Echo Request per hitlist entry, in
//!    pseudorandom order, paced by a token bucket (§3.1 of the paper).
//! 2. [`collector`] — capture replies concurrently at every site and
//!    forward them, tagged with their site, to a central point (§3.1):
//!    a capture sink the simulator calls per arrival.
//! 3. [`cleaning`] — drop duplicates, replies from addresses that were
//!    never probed, replies with foreign identifiers, and late replies
//!    (§4's data cleaning), incrementally as replies are forwarded.
//! 4. [`catchment`] — fold cleaned replies into a block → site map.
//!
//! [`scan::run_scan`] runs the whole pipeline against the discrete-event
//! simulator.
//!
//! ## Analyses (the paper's evaluation)
//!
//! * [`coverage`] — Verfploeter vs Atlas coverage accounting (Table 4) and
//!   geographic map data (Figs. 2–3).
//! * [`load`] — load-weighted catchments: mappability (Table 5), per-site
//!   load split and map data (Fig. 4).
//! * [`predict`] — predicted vs measured per-site load (Table 6), the
//!   prepending sweep (Fig. 5) and hourly prepending series (Fig. 6).
//! * [`stability`] — 24-hour stability classification (Fig. 9) and
//!   flip-heavy ASes (Table 7).
//! * [`divisions`] — catchment splits inside ASes and prefixes
//!   (Figs. 7–8).
//! * [`placement`] — §7's future-work extension: RTT-based suggestions for
//!   where a new anycast site would help.
//! * [`report`] — plain-text table rendering used by the experiment
//!   binaries.

#![deny(unused_must_use)]
#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A hot crate: no narrowing casts (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

pub mod catchment;
pub mod cleaning;
pub mod collector;
pub mod coverage;
pub mod divisions;
pub mod load;
pub mod placement;
pub mod predict;
pub mod prober;
pub mod report;
pub mod rtt;
pub mod scan;
pub mod stability;

pub use catchment::CatchmentMap;
pub use rtt::RttTable;
pub use cleaning::{clean, Cleaner, CleaningStats};
pub use collector::{parse_capture, RawReply};
pub use prober::{ProbeConfig, Prober};
pub use scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanObs, ScanResult};
