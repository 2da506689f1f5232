//! IPv4 packets: a 20-byte header (no options) plus an owned payload.

use bytes::{Bytes, BytesMut};
use vp_net::Ipv4Addr;

use crate::checksum;
use crate::error::PacketError;

/// IPv4 header length used by this implementation (no options).
pub const HEADER_LEN: usize = 20;

/// Default TTL for emitted packets (matches common OS defaults).
pub const DEFAULT_TTL: u8 = 64;

/// The transport protocols the simulator carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Icmp,
    Udp,
    /// Anything else, preserved numerically so packets survive a round trip.
    Other(u8),
}

impl Protocol {
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    pub const fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// A parsed (or to-be-emitted) IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: Protocol,
    pub ttl: u8,
    /// Identification field; the prober varies this per measurement round.
    pub ident: u16,
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Builds a packet with default TTL and zero identification.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: Protocol, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: DEFAULT_TTL,
            ident: 0,
            payload,
        }
    }

    /// Serializes to wire bytes with a correct header checksum.
    pub fn emit(&self) -> Bytes {
        let total_len = HEADER_LEN + self.payload.len();
        assert!(total_len <= u16::MAX as usize, "payload too large for IPv4");
        let mut header = [0u8; HEADER_LEN];
        header[0] = 0x45; // version 4, IHL 5
        header[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        header[4..6].copy_from_slice(&self.ident.to_be_bytes());
        header[6] = 0x40; // flags: DF, fragment offset 0
        header[8] = self.ttl;
        header[9] = self.protocol.number();
        header[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        header[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let ck = checksum::internet_checksum(&header);
        header[10..12].copy_from_slice(&ck.to_be_bytes());
        let mut buf = BytesMut::with_capacity(total_len);
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    /// Parses wire bytes, validating version, header length, total length
    /// and the header checksum.
    pub fn parse(data: &[u8]) -> Result<Ipv4Packet, PacketError> {
        let Some((header, rest)) = data.split_first_chunk::<HEADER_LEN>() else {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        };
        let version = header[0] >> 4;
        if version != 4 {
            return Err(PacketError::BadVersion(version));
        }
        let ihl = usize::from(header[0] & 0x0f) * 4;
        let Some(options_len) = ihl.checked_sub(HEADER_LEN) else {
            return Err(PacketError::BadHeaderLen(header[0] & 0x0f));
        };
        let Some((options, body)) = rest.split_at_checked(options_len) else {
            return Err(PacketError::Truncated {
                needed: ihl,
                got: data.len(),
            });
        };
        if checksum::internet_checksum_parts(&[header, options]) != 0 {
            let got = u16::from_be_bytes([header[10], header[11]]);
            return Err(PacketError::BadChecksum { expected: 0, got });
        }
        let total_len = usize::from(u16::from_be_bytes([header[2], header[3]]));
        let Some(payload) = total_len.checked_sub(ihl).and_then(|n| body.get(..n)) else {
            return Err(PacketError::BadTotalLen {
                field: total_len,
                buffer: data.len(),
            });
        };
        Ok(Ipv4Packet {
            src: Ipv4Addr(u32::from_be_bytes([
                header[12], header[13], header[14], header[15],
            ])),
            dst: Ipv4Addr(u32::from_be_bytes([
                header[16], header[17], header[18], header[19],
            ])),
            protocol: Protocol::from_number(header[9]),
            ttl: header[8],
            ident: u16::from_be_bytes([header[4], header[5]]),
            payload: Bytes::copy_from_slice(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(198, 51, 100, 2),
            protocol: Protocol::Icmp,
            ttl: 61,
            ident: 0xabcd,
            payload: Bytes::from_static(b"hello"),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let p = sample();
        let wire = p.emit();
        assert_eq!(wire.len(), HEADER_LEN + 5);
        let q = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parse_rejects_truncated() {
        let wire = sample().emit();
        let e = Ipv4Packet::parse(&wire[..10]).unwrap_err();
        assert!(matches!(e, PacketError::Truncated { .. }));
    }

    #[test]
    fn parse_rejects_bad_version() {
        let mut wire = BytesMut::from(&sample().emit()[..]);
        wire[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::parse(&wire).unwrap_err(),
            PacketError::BadVersion(6)
        ));
    }

    #[test]
    fn parse_rejects_corrupted_header() {
        let mut wire = BytesMut::from(&sample().emit()[..]);
        wire[8] ^= 0x01; // flip a TTL bit; checksum now wrong
        assert!(matches!(
            Ipv4Packet::parse(&wire).unwrap_err(),
            PacketError::BadChecksum { .. }
        ));
    }

    #[test]
    fn parse_rejects_bad_total_len() {
        let mut wire = BytesMut::from(&sample().emit()[..]);
        // Claim a longer packet than the buffer and fix the checksum.
        wire[2..4].copy_from_slice(&1000u16.to_be_bytes());
        wire[10..12].copy_from_slice(&[0, 0]);
        let ck = checksum::internet_checksum(&wire[..HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::parse(&wire).unwrap_err(),
            PacketError::BadTotalLen { .. }
        ));
    }

    #[test]
    fn parse_ignores_trailing_padding() {
        // Ethernet-style padding after total_len must not end up in payload.
        let p = sample();
        let mut wire = BytesMut::from(&p.emit()[..]);
        wire.extend_from_slice(&[0u8; 14]);
        let q = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
        assert_eq!(Protocol::Icmp.number(), 1);
        assert_eq!(Protocol::Udp.number(), 17);
    }

    #[test]
    fn empty_payload_ok() {
        let mut p = sample();
        p.payload = Bytes::new();
        let q = Ipv4Packet::parse(&p.emit()).unwrap();
        assert!(q.payload.is_empty());
    }
}
