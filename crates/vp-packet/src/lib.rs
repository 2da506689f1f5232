//! Wire formats used by the Verfploeter reproduction.
//!
//! Verfploeter's probes and the measurement traffic of the Atlas baseline
//! are real byte-level packets inside the simulator: the prober emits
//! IPv4+ICMP Echo Requests, passive VPs reply with Echo Replies, the Atlas
//! baseline sends DNS CHAOS `hostname.bind` TXT queries over UDP, and the
//! per-site collectors parse what arrives. Running the actual encoders and
//! decoders (rather than passing structs around) means the data-cleaning
//! pipeline confronts the same artifacts the paper cleans: duplicated
//! replies, replies from unexpected sources, foreign identifiers.
//!
//! Design follows the smoltcp school: each format has a checked parser that
//! never panics on untrusted bytes (returning [`PacketError`]) and an
//! emitter that always produces a valid packet, checksums included. Parsing
//! borrows nothing — messages own their payload via [`bytes::Bytes`] so they
//! can cross the collector's channels.

#![forbid(unsafe_code)]
// Library code never panics (DESIGN.md §8).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod checksum;
mod dns;
mod error;
mod icmp;
mod ipv4;
mod udp;

pub use checksum::internet_checksum;
pub use dns::{DnsFlags, DnsMessage, DnsName, DnsQuestion, DnsRecord};
pub use error::PacketError;
pub use icmp::{encode_batch_with_replies, IcmpMessage};
pub use ipv4::{Ipv4Packet, Protocol};
pub use udp::UdpDatagram;
