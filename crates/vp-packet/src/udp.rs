//! UDP datagrams (carrier for the DNS substrate).

use bytes::{BufMut, Bytes, BytesMut};
use vp_net::Ipv4Addr;

use crate::checksum;
use crate::error::PacketError;

const HEADER_LEN: usize = 8;

/// A UDP datagram with an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
}

impl UdpDatagram {
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Serializes with the UDP checksum computed over the IPv4 pseudo-header
    /// (hence the address arguments).
    #[expect(
        clippy::indexing_slicing,
        reason = "buf begins with the 8 fixed header bytes written just above."
    )]
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = HEADER_LEN + self.payload.len();
        assert!(len <= u16::MAX as usize, "payload too large for UDP");
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len as u16);
        buf.put_u16(0); // checksum placeholder
        buf.extend_from_slice(&self.payload);
        let pseudo = pseudo_header(src, dst, len as u16);
        let mut ck = checksum::internet_checksum_parts(&[&pseudo, &buf]);
        if ck == 0 {
            ck = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        buf[6..8].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }

    /// Parses and validates length and (unless zero) checksum.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is inside the HEADER_LEN prefix or the validated len range; chunk reads come from chunks_exact(2)."
    )]
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, PacketError> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < HEADER_LEN || len > data.len() {
            return Err(PacketError::BadTotalLen {
                field: len,
                buffer: data.len(),
            });
        }
        let wire_ck = u16::from_be_bytes([data[6], data[7]]);
        if wire_ck != 0 {
            let pseudo = pseudo_header(src, dst, len as u16);
            let mut total = 0u32;
            for part in [&pseudo[..], &data[..len]] {
                let mut chunks = part.chunks_exact(2);
                for w in &mut chunks {
                    total += u32::from(u16::from_be_bytes([w[0], w[1]]));
                }
                if let [last] = chunks.remainder() {
                    total += u32::from(u16::from_be_bytes([*last, 0]));
                }
            }
            let mut folded = total;
            while folded >> 16 != 0 {
                folded = (folded & 0xffff) + (folded >> 16);
            }
            if folded as u16 != 0xffff {
                return Err(PacketError::BadChecksum {
                    expected: 0,
                    got: wire_ck,
                });
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: Bytes::copy_from_slice(&data[HEADER_LEN..len]),
        })
    }
}

fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, udp_len: u16) -> [u8; 12] {
    let mut p = [0u8; 12];
    p[0..4].copy_from_slice(&src.0.to_be_bytes());
    p[4..8].copy_from_slice(&dst.0.to_be_bytes());
    p[9] = 17; // protocol
    p[10..12].copy_from_slice(&udp_len.to_be_bytes());
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(5353, 53, Bytes::from_static(b"query"));
        let wire = d.emit(SRC, DST);
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST).unwrap(), d);
    }

    #[test]
    fn checksum_binds_addresses() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"x"));
        let wire = d.emit(SRC, DST);
        // Same bytes, different pseudo-header => checksum failure.
        let other = Ipv4Addr::new(10, 0, 0, 99);
        assert!(matches!(
            UdpDatagram::parse(&wire, SRC, other).unwrap_err(),
            PacketError::BadChecksum { .. }
        ));
    }

    #[test]
    fn zero_checksum_skips_validation() {
        let d = UdpDatagram::new(1000, 2000, Bytes::from_static(b"nocheck"));
        let mut wire = BytesMut::from(&d.emit(SRC, DST)[..]);
        wire[6..8].copy_from_slice(&[0, 0]);
        let parsed = UdpDatagram::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed.payload, d.payload);
    }

    #[test]
    fn rejects_truncated_and_bad_len() {
        assert!(matches!(
            UdpDatagram::parse(&[0; 4], SRC, DST).unwrap_err(),
            PacketError::Truncated { .. }
        ));
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abc"));
        let mut wire = BytesMut::from(&d.emit(SRC, DST)[..]);
        wire[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            UdpDatagram::parse(&wire, SRC, DST).unwrap_err(),
            PacketError::BadTotalLen { .. }
        ));
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(7, 8, Bytes::new());
        let wire = d.emit(SRC, DST);
        assert_eq!(wire.len(), 8);
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST).unwrap(), d);
    }
}
