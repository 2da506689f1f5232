//! The keyed draws: how every stochastic outcome of a run is derived.
//!
//! Public by path: the test-only reference simulator shares these draws with the engine.
//!
//! Every fault decision hashes `(round seed ^ tag, key)`, where the key is
//! a pure function of the packet and its instant, so outcomes never depend
//! on the order events are processed in — identical whether one engine or
//! K sharded engines run the scan (DESIGN.md §7). These values are the
//! spec: the engine and any model of it derive the same draws from them.

use vp_net::{mix, SimTime};
use vp_packet::Ipv4Packet;

/// Whether a transmission is lost, keyed by its [`event_key`].
pub const TAG_LOSS: u64 = 0x1055_0001;
/// Whether a probe from the service spawns backscatter, by its [`event_key`].
pub const TAG_UNSOLICITED: u64 = 0xbac0_0002;
/// Which block backscatters, and its reply's ident and seq.
pub const TAG_UNSOLICITED_PICK: u64 = 0xbac0_0003;
/// A transmission's latency jitter, by its [`event_key`].
pub const TAG_JITTER: u64 = 0x1177_0004;
/// Whether a reply is sourced from an alias, keyed by the reception.
pub const TAG_ALIAS: u64 = 0xa11a_0005;
/// The alias's last octet.
pub const TAG_ALIAS_OCTET: u64 = 0xa11a_0006;
/// Whether a reply leaves `late_delay` late, keyed by the reception.
pub const TAG_LATE: u64 = 0x1a7e_0007;
/// Whether a host duplicates its reply, keyed by the reception.
pub const TAG_DUPLICATE: u64 = 0xd0b1_0008;
/// How many duplicates it sends.
pub const TAG_DUPLICATE_COUNT: u64 = 0xd0b1_0009;
/// Whether a block is down for a churn round, keyed by
/// `block << 24 | churn round`.
pub const TAG_CHURN: u64 = 0xc4;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over a packet's payload: the content half of [`packet_key`],
/// and a chain of one multiply per byte that nothing can shorten.
pub fn payload_fnv(payload: &[u8]) -> u64 {
    payload.iter().fold(FNV_OFFSET, |h, &byte| fnv_step(h, byte))
}

/// Stable identity hash of a packet's full content (addresses, protocol,
/// header fields, payload bytes): `fnv`, the payload's [`payload_fnv`] —
/// passed in because the engine hashes a stage of payloads four at a
/// time — finished with the header. Every draw keys on this, mixed with
/// the instant (and a copy index), never on how many draws some shared
/// generator has already served.
pub fn packet_key(packet: &Ipv4Packet, fnv: u64) -> u64 {
    debug_assert_eq!(fnv, payload_fnv(&packet.payload), "a staged payload hash diverges from the scalar one");
    let mut h = fnv;
    h ^= (packet.src.0 as u64) << 32 | packet.dst.0 as u64;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (packet.protocol.number() as u64) << 24
        | (packet.ttl as u64) << 16
        | packet.ident as u64;
    mix(0x9ac4_e700_0000_0000, h)
}

/// The identity of one transmission of the packet keyed `pk` at `at`:
/// `copy` tells a reply's duplicate copies apart, so each gets its own
/// loss and jitter. With `copy` 0 it is also the key of a reception at
/// `at`, which the responder's draws use.
pub fn event_key(pk: u64, at: SimTime, copy: u32) -> u64 {
    mix(pk, at.as_nanos() ^ ((copy as u64) << 48))
}
