//! Geolocation substrate for the Verfploeter reproduction.
//!
//! The paper geolocates every responding /24 with MaxMind ("accuracy of this
//! geolocation is considered reasonable at the country level", §4) and draws
//! its coverage and load maps in two-degree geographic bins (Figs. 2–4).
//! This crate supplies the synthetic equivalent:
//!
//! * [`world`] — a country table with internet-user weights (where blocks
//!   live), RIPE Atlas deployment weights (strongly Europe-skewed, the
//!   documented bias the paper leans on), and geographic extents to sample
//!   concrete coordinates from.
//! * [`db`] — [`GeoDb`], the MaxMind stand-in: a `/24 → (country, lat, lon)`
//!   database built by the topology generator. A configurable sliver of
//!   blocks is deliberately absent, reproducing Table 4's "no location" row.
//! * [`bins`] — [`GeoBin`] two-degree binning and [`BinnedMap`]
//!   accumulation, the data structure behind every map figure.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod bins;
pub mod db;
pub mod dist;
pub mod world;

pub use bins::{BinnedMap, GeoBin};
pub use db::{GeoDb, GeoLoc};
pub use dist::{distance_km, MAX_DISTANCE_KM};
pub use world::{countries, Continent, Country, CountryId};
