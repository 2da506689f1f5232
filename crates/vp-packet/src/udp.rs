//! UDP datagrams (carrier for the DNS substrate).

use bytes::{Bytes, BytesMut};
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
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = HEADER_LEN + self.payload.len();
        assert!(len <= u16::MAX as usize, "payload too large for UDP");
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        header[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        let pseudo = pseudo_header(src, dst, len as u16);
        let mut ck = checksum::internet_checksum_parts(&[&pseudo, &header, &self.payload]);
        if ck == 0 {
            ck = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        header[6..8].copy_from_slice(&ck.to_be_bytes());
        let mut buf = BytesMut::with_capacity(len);
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&self.payload);
        buf.freeze()
    }

    /// Parses and validates length and (unless zero) checksum.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, PacketError> {
        let Some((header, body)) = data.split_first_chunk::<HEADER_LEN>() else {
            return Err(PacketError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        };
        let len = u16::from_be_bytes([header[4], header[5]]);
        let payload = usize::from(len)
            .checked_sub(HEADER_LEN)
            .and_then(|n| body.get(..n));
        let Some(payload) = payload else {
            return Err(PacketError::BadTotalLen {
                field: usize::from(len),
                buffer: data.len(),
            });
        };
        let wire_ck = u16::from_be_bytes([header[6], header[7]]);
        let pseudo = pseudo_header(src, dst, len);
        if wire_ck != 0 && checksum::internet_checksum_parts(&[&pseudo, header, payload]) != 0 {
            return Err(PacketError::BadChecksum {
                expected: 0,
                got: wire_ck,
            });
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([header[0], header[1]]),
            dst_port: u16::from_be_bytes([header[2], header[3]]),
            payload: Bytes::copy_from_slice(payload),
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
