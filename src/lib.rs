//! Umbrella crate for the Verfploeter reproduction workspace.
//!
//! This crate exists to host the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`); the actual functionality
//! lives in the `crates/` members. It re-exports the public crates so
//! examples can use a single dependency root.

#![forbid(unsafe_code)]

pub use vp_atlas as atlas;
pub use vp_bgp as bgp;
pub use vp_dns as dns;
pub use vp_geo as geo;
pub use vp_hitlist as hitlist;
pub use vp_net as net;
pub use vp_packet as packet;
pub use vp_sim as sim;
pub use vp_topology as topology;
pub use verfploeter as vp;
