//! DNS load substrate: the query logs that calibrate catchments.
//!
//! The paper weights Verfploeter's block-level catchment map with
//! "historical data from [B-Root's] unicast deployment" — a DITL day of
//! query logs — to predict per-site load (§3.2, §5.4). It considers three
//! load notions (queries, good replies, all replies), computes load "over
//! one day ... using hourly bins", and contrasts B-Root's globally spread
//! load with the regionally concentrated load of the `.nl` ccTLD
//! (Fig. 4b).
//!
//! This crate generates the equivalent logs over a synthetic world:
//!
//! * [`QueryLog`] — per-block daily query volumes (the world's heavy-tailed
//!   load weights), modulated by a longitude-aware diurnal curve into
//!   hourly bins, with deterministic per-hour noise; per-block good-reply
//!   and answered-reply fractions model junk queries (most root traffic
//!   since 1992) and response rate limiting.
//! * [`QueryLog::regional`] — a `.nl`-style service whose load concentrates
//!   in one country and its neighbors.
//! * [`QueryLog::with_date`] — day-keyed drift, so an "April" log differs
//!   from a "May" log the way Table 6's two collection dates do.
//! * [`rssac`] — RSSAC-002-style per-site daily reporting, the artifact
//!   §3.2 says every root operator already produces.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod log;
pub mod rssac;

pub use log::{LoadModel, QueryLog};
pub use rssac::{DailyMetrics, Rssac002Report};
