//! IPv4 addresses, `/24` blocks and CIDR prefixes.
//!
//! The reproduction works entirely in IPv4 (as the paper does). Addresses are
//! a thin newtype over `u32` in host byte order so they are cheap to hash,
//! sort and range over; conversion to dotted-quad form is provided for
//! display and parsing.

use std::fmt;
use std::str::FromStr;

use crate::error::NetError;

/// An IPv4 address, stored in host byte order.
///
/// A deliberate local type rather than `std::net::Ipv4Addr`: the simulator
/// indexes and iterates over address space constantly and wants a transparent
/// `u32` with arithmetic, not an octet array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub u32);
serde_json::impl_serialize! { Ipv4Addr(transparent) }

impl Ipv4Addr {
    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The `/24` block this address belongs to.
    pub const fn block(self) -> Block24 {
        Block24(self.0 >> 8)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Addr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts
                .next()
                .ok_or_else(|| NetError::AddrParse(s.to_owned()))?;
            *slot = part
                .parse::<u8>()
                .map_err(|_| NetError::AddrParse(s.to_owned()))?;
        }
        if parts.next().is_some() {
            return Err(NetError::AddrParse(s.to_owned()));
        }
        Ok(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

impl From<Ipv4Addr> for u32 {
    fn from(a: Ipv4Addr) -> u32 {
        a.0
    }
}

/// A `/24` network block — the unit of observation in Verfploeter.
///
/// Identified by the upper 24 bits of its network address, so blocks form a
/// dense `0..2^24` index space; the topology generator exploits this to store
/// per-block attribute tables as flat vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block24(pub u32);
serde_json::impl_serialize! { Block24(transparent) }

impl Block24 {
    /// The block containing `addr`.
    pub const fn containing(addr: Ipv4Addr) -> Self {
        addr.block()
    }

    /// The network address (`x.y.z.0`).
    pub const fn network(self) -> Ipv4Addr {
        Ipv4Addr(self.0 << 8)
    }

    /// An address inside this block at the given final octet.
    pub const fn addr(self, host: u8) -> Ipv4Addr {
        Ipv4Addr((self.0 << 8) | host as u32)
    }

    /// The block as a `/24` [`Prefix`].
    pub const fn prefix(self) -> Prefix {
        Prefix {
            addr: Ipv4Addr(self.0 << 8),
            len: 24,
        }
    }

    /// True if `addr` falls inside this block.
    pub const fn contains(self, addr: Ipv4Addr) -> bool {
        addr.0 >> 8 == self.0
    }
}

impl fmt::Display for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

impl fmt::Debug for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An IPv4 CIDR prefix with canonical (zeroed) host bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Prefix {
    /// Builds a prefix, zeroing any host bits in `addr`.
    ///
    /// Returns an error for lengths above 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, NetError> {
        if len > 32 {
            return Err(NetError::PrefixLen(len));
        }
        Ok(Prefix {
            addr: Ipv4Addr(addr.0 & Self::mask(len)),
            len,
        })
    }

    /// The network mask for a prefix length, as a host-order word.
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The canonical network address.
    pub const fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub const fn prefix_len(self) -> u8 {
        self.len
    }

    /// True if `ip` falls inside this prefix.
    pub const fn contains(self, ip: Ipv4Addr) -> bool {
        ip.0 & Self::mask(self.len) == self.addr.0
    }

    /// True if `other` is fully contained in (or equal to) this prefix.
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Number of `/24` blocks this prefix spans (1 for /24 and longer).
    pub const fn block_count(self) -> u32 {
        if self.len >= 24 {
            1
        } else {
            1 << (24 - self.len)
        }
    }

    /// Iterates the `/24` blocks covered by this prefix, in address order.
    ///
    /// Prefixes longer than `/24` yield their (single) containing block.
    pub fn blocks(self) -> impl Iterator<Item = Block24> {
        let first = self.addr.0 >> 8;
        (first..first + self.block_count()).map(Block24)
    }

    /// Splits the prefix into its two halves, or `None` for a `/32`.
    pub fn halves(self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix {
            addr: self.addr,
            len,
        };
        let hi = Prefix {
            addr: Ipv4Addr(self.addr.0 | (1 << (32 - len))),
            len,
        };
        Some((lo, hi))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| NetError::PrefixParse(s.to_owned()))?;
        let addr: Ipv4Addr = addr.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| NetError::PrefixParse(s.to_owned()))?;
        Prefix::new(addr, len)
    }
}

impl From<Block24> for Prefix {
    fn from(b: Block24) -> Self {
        b.prefix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip_display_parse() {
        let a = Ipv4Addr::new(192, 0, 2, 17);
        assert_eq!(a.to_string(), "192.0.2.17");
        assert_eq!("192.0.2.17".parse::<Ipv4Addr>().unwrap(), a);
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert!("300.0.0.1".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("a.b.c.d".parse::<Ipv4Addr>().is_err());
        assert!("".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn addr_octets_match_value() {
        let a = Ipv4Addr::new(10, 20, 30, 40);
        assert_eq!(a.octets(), [10, 20, 30, 40]);
        assert_eq!(a.0, 0x0a14_1e28);
    }

    #[test]
    fn block_of_addr() {
        let a = Ipv4Addr::new(198, 51, 100, 77);
        let b = a.block();
        assert_eq!(b.network(), Ipv4Addr::new(198, 51, 100, 0));
        assert!(b.contains(a));
        assert!(!b.contains(Ipv4Addr::new(198, 51, 101, 77)));
        assert_eq!(b.addr(77), a);
    }

    #[test]
    fn block_addr_and_display() {
        let b = Block24(0xc0_0002); // 192.0.2.0/24
        assert_eq!(b.addr(1), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(b.to_string(), "192.0.2.0/24");
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(p.addr(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_rejects_bad_len() {
        assert!(Prefix::new(Ipv4Addr(0), 33).is_err());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(10, 255, 1, 1)));
        assert!(!p.contains(Ipv4Addr::new(11, 0, 0, 0)));
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Addr(u32::MAX)));
    }

    #[test]
    fn prefix_covers() {
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p16: Prefix = "10.5.0.0/16".parse().unwrap();
        assert!(p8.covers(p16));
        assert!(!p16.covers(p8));
        assert!(p8.covers(p8));
        let other: Prefix = "11.0.0.0/16".parse().unwrap();
        assert!(!p8.covers(other));
    }

    #[test]
    fn prefix_block_count_and_iter() {
        let p: Prefix = "10.0.0.0/22".parse().unwrap();
        assert_eq!(p.block_count(), 4);
        let blocks: Vec<_> = p.blocks().collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(blocks[3].network(), Ipv4Addr::new(10, 0, 3, 0));

        let p24: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(p24.block_count(), 1);
        let p32: Prefix = "10.0.0.5/32".parse().unwrap();
        assert_eq!(p32.block_count(), 1);
    }

    #[test]
    fn prefix_halves() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (lo, hi) = p.halves().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        let p32: Prefix = "10.0.0.1/32".parse().unwrap();
        assert!(p32.halves().is_none());
    }

    #[test]
    fn prefix_parse_errors() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn mask_values() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(8), 0xff00_0000);
        assert_eq!(Prefix::mask(24), 0xffff_ff00);
        assert_eq!(Prefix::mask(32), u32::MAX);
    }
}
