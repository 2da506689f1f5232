//! DNS messages, sufficient for anycast catchment measurement.
//!
//! The RIPE Atlas baseline identifies the responding anycast site the
//! traditional way (§3.1 of the paper): a TXT query for `hostname.bind` in
//! the CHAOS class, optionally with the EDNS0 NSID option (RFC 5001). This
//! module implements the subset of RFC 1035 needed for that and for the DNS
//! load substrate: names (with compression-pointer parsing), questions, and
//! A / TXT / OPT resource records.

use bytes::{BufMut, Bytes, BytesMut};
use vp_net::Ipv4Addr;

use crate::error::PacketError;

const MAX_NAME_LEN: usize = 255;
const MAX_LABEL_LEN: usize = 63;
/// Parser limit on compression-pointer hops (loop defense).
const MAX_POINTER_HOPS: usize = 32;

/// A DNS domain name, stored as its label sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnsName {
    labels: Vec<String>,
}

impl DnsName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DnsName::default()
    }

    /// Parses a presentation-format name like `"hostname.bind"`.
    ///
    /// Empty string and `"."` mean the root. Labels are validated for
    /// length; content is taken as-is (no IDNA).
    pub fn from_str(s: &str) -> Result<Self, PacketError> {
        if s.is_empty() || s == "." {
            return Ok(DnsName::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        let mut labels = Vec::new();
        let mut total = 1; // trailing root byte
        for label in trimmed.split('.') {
            if label.is_empty() {
                return Err(PacketError::BadDnsName("empty label"));
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(PacketError::BadDnsName("label longer than 63 octets"));
            }
            total += label.len() + 1;
            labels.push(label.to_ascii_lowercase());
        }
        if total > MAX_NAME_LEN {
            return Err(PacketError::BadDnsName("name longer than 255 octets"));
        }
        Ok(DnsName { labels })
    }

    /// The labels of this name, top label last.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Wire-format encoding (uncompressed).
    fn emit(&self, buf: &mut BytesMut) {
        for label in &self.labels {
            buf.put_u8(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
        }
        buf.put_u8(0);
    }

    /// Parses a wire-format name starting at `pos`, following compression
    /// pointers. Returns the name and the offset just past it in the
    /// *uncompressed* stream (i.e. past the first pointer or the root byte).
    fn parse(data: &[u8], pos: usize) -> Result<(DnsName, usize), PacketError> {
        let mut labels = Vec::new();
        let mut cursor = pos;
        let mut end_of_encoding: Option<usize> = None;
        let mut hops = 0usize;
        let mut total = 1usize;
        loop {
            let len_byte = *data
                .get(cursor)
                .ok_or(PacketError::BadDnsName("name runs past buffer"))?;
            match len_byte {
                0 => {
                    let end = end_of_encoding.unwrap_or(cursor + 1);
                    return Ok((DnsName { labels }, end));
                }
                l if l & 0xc0 == 0xc0 => {
                    let second = *data
                        .get(cursor + 1)
                        .ok_or(PacketError::BadDnsName("pointer runs past buffer"))?;
                    if end_of_encoding.is_none() {
                        end_of_encoding = Some(cursor + 2);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(PacketError::BadDnsName("compression pointer loop"));
                    }
                    cursor = (((l & 0x3f) as usize) << 8) | second as usize;
                }
                l if (l as usize) <= MAX_LABEL_LEN => {
                    let start = cursor + 1;
                    let stop = start + l as usize;
                    let bytes = data
                        .get(start..stop)
                        .ok_or(PacketError::BadDnsName("label runs past buffer"))?;
                    total += l as usize + 1;
                    if total > MAX_NAME_LEN {
                        return Err(PacketError::BadDnsName("name longer than 255 octets"));
                    }
                    labels.push(String::from_utf8_lossy(bytes).to_ascii_lowercase());
                    cursor = stop;
                }
                _ => return Err(PacketError::BadDnsName("reserved label type")),
            }
        }
    }
}

impl std::fmt::Display for DnsName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        write!(f, "{}", self.labels.join("."))
    }
}

/// DNS record/query types this substrate models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsType {
    A,
    Ns,
    Txt,
    Opt,
    Other(u16),
}

impl DnsType {
    pub const fn number(self) -> u16 {
        match self {
            DnsType::A => 1,
            DnsType::Ns => 2,
            DnsType::Txt => 16,
            DnsType::Opt => 41,
            DnsType::Other(n) => n,
        }
    }
    pub const fn from_number(n: u16) -> Self {
        match n {
            1 => DnsType::A,
            2 => DnsType::Ns,
            16 => DnsType::Txt,
            41 => DnsType::Opt,
            other => DnsType::Other(other),
        }
    }
}

/// DNS classes; CHAOS is what `hostname.bind` queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsClass {
    In,
    Chaos,
    Other(u16),
}

impl DnsClass {
    pub const fn number(self) -> u16 {
        match self {
            DnsClass::In => 1,
            DnsClass::Chaos => 3,
            DnsClass::Other(n) => n,
        }
    }
    pub const fn from_number(n: u16) -> Self {
        match n {
            1 => DnsClass::In,
            3 => DnsClass::Chaos,
            other => DnsClass::Other(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1 plus REFUSED).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Other(u8),
}

impl Rcode {
    pub const fn number(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(n) => n,
        }
    }
    pub const fn from_number(n: u8) -> Self {
        match n {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flags (the subset the substrate uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DnsFlags {
    pub response: bool,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub rcode: Rcode,
}

impl Default for Rcode {
    fn default() -> Self {
        Rcode::NoError
    }
}

impl DnsFlags {
    fn emit(self) -> u16 {
        let mut w = 0u16;
        if self.response {
            w |= 1 << 15;
        }
        if self.authoritative {
            w |= 1 << 10;
        }
        if self.truncated {
            w |= 1 << 9;
        }
        if self.recursion_desired {
            w |= 1 << 8;
        }
        if self.recursion_available {
            w |= 1 << 7;
        }
        w |= self.rcode.number() as u16 & 0x0f;
        w
    }

    fn parse(w: u16) -> Self {
        DnsFlags {
            response: w & (1 << 15) != 0,
            authoritative: w & (1 << 10) != 0,
            truncated: w & (1 << 9) != 0,
            recursion_desired: w & (1 << 8) != 0,
            recursion_available: w & (1 << 7) != 0,
            rcode: Rcode::from_number((w & 0x0f) as u8),
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    pub name: DnsName,
    pub qtype: DnsType,
    pub qclass: DnsClass,
}

/// EDNS0 NSID option code (RFC 5001).
pub const EDNS_OPT_NSID: u16 = 3;

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsRecord {
    /// An address record.
    A { name: DnsName, ttl: u32, addr: Ipv4Addr },
    /// A TXT record (each string at most 255 bytes on the wire).
    Txt {
        name: DnsName,
        class: DnsClass,
        ttl: u32,
        strings: Vec<String>,
    },
    /// An EDNS0 OPT pseudo-record carrying options such as NSID.
    Opt {
        udp_payload_size: u16,
        options: Vec<(u16, Bytes)>,
    },
    /// Anything else, kept opaque.
    Other {
        name: DnsName,
        rtype: u16,
        class: u16,
        ttl: u32,
        rdata: Bytes,
    },
}

impl DnsRecord {
    /// The NSID payload if this is an OPT record carrying one.
    pub fn nsid(&self) -> Option<&Bytes> {
        match self {
            DnsRecord::Opt { options, .. } => options
                .iter()
                .find(|(code, _)| *code == EDNS_OPT_NSID)
                .map(|(_, data)| data),
            _ => None,
        }
    }

    fn emit(&self, buf: &mut BytesMut) {
        match self {
            DnsRecord::A { name, ttl, addr } => {
                name.emit(buf);
                buf.put_u16(DnsType::A.number());
                buf.put_u16(DnsClass::In.number());
                buf.put_u32(*ttl);
                buf.put_u16(4);
                buf.put_u32(addr.0);
            }
            DnsRecord::Txt {
                name,
                class,
                ttl,
                strings,
            } => {
                name.emit(buf);
                buf.put_u16(DnsType::Txt.number());
                buf.put_u16(class.number());
                buf.put_u32(*ttl);
                let rdlen: usize = strings.iter().map(|s| 1 + s.len().min(255)).sum();
                buf.put_u16(rdlen as u16);
                for s in strings {
                    let b = &s.as_bytes()[..s.len().min(255)]; // vp-lint: allow(g1): the slice end is min'ed with s.len(), always in bounds.
                    buf.put_u8(b.len() as u8);
                    buf.extend_from_slice(b);
                }
            }
            DnsRecord::Opt {
                udp_payload_size,
                options,
            } => {
                DnsName::root().emit(buf);
                buf.put_u16(DnsType::Opt.number());
                buf.put_u16(*udp_payload_size);
                buf.put_u32(0); // extended rcode/version/flags
                let rdlen: usize = options.iter().map(|(_, d)| 4 + d.len()).sum();
                buf.put_u16(rdlen as u16);
                for (code, data) in options {
                    buf.put_u16(*code);
                    buf.put_u16(data.len() as u16);
                    buf.extend_from_slice(data);
                }
            }
            DnsRecord::Other {
                name,
                rtype,
                class,
                ttl,
                rdata,
            } => {
                name.emit(buf);
                buf.put_u16(*rtype);
                buf.put_u16(*class);
                buf.put_u32(*ttl);
                buf.put_u16(rdata.len() as u16);
                buf.extend_from_slice(rdata);
            }
        }
    }

    fn parse(data: &[u8], pos: usize) -> Result<(DnsRecord, usize), PacketError> {
        let (name, mut cursor) = DnsName::parse(data, pos)?;
        let fixed = data
            .get(cursor..cursor + 10)
            .ok_or(PacketError::BadDns("record header runs past buffer"))?;
        let rtype = u16::from_be_bytes([fixed[0], fixed[1]]); // vp-lint: allow(g1): fixed is a get-checked 10-byte slice.
        let class = u16::from_be_bytes([fixed[2], fixed[3]]); // vp-lint: allow(g1): fixed is a get-checked 10-byte slice.
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]); // vp-lint: allow(g1): fixed is a get-checked 10-byte slice.
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize; // vp-lint: allow(g1): fixed is a get-checked 10-byte slice.
        cursor += 10;
        let rdata = data
            .get(cursor..cursor + rdlen)
            .ok_or(PacketError::BadDns("rdata runs past buffer"))?;
        let end = cursor + rdlen;
        let record = match DnsType::from_number(rtype) {
            DnsType::A if class == DnsClass::In.number() => {
                if rdlen != 4 {
                    return Err(PacketError::BadDns("A record rdata must be 4 bytes"));
                }
                DnsRecord::A {
                    name,
                    ttl,
                    addr: Ipv4Addr(u32::from_be_bytes([rdata[0], rdata[1], rdata[2], rdata[3]])), // vp-lint: allow(g1): rdata is a get-checked slice and rdlen == 4 was just verified.
                }
            }
            DnsType::Txt => {
                let mut strings = Vec::new();
                let mut p = 0usize;
                while p < rdlen {
                    let l = rdata[p] as usize; // vp-lint: allow(g1): the loop guard keeps p below rdlen, the length of rdata.
                    let s = rdata
                        .get(p + 1..p + 1 + l)
                        .ok_or(PacketError::BadDns("TXT string runs past rdata"))?;
                    strings.push(String::from_utf8_lossy(s).into_owned());
                    p += 1 + l;
                }
                DnsRecord::Txt {
                    name,
                    class: DnsClass::from_number(class),
                    ttl,
                    strings,
                }
            }
            DnsType::Opt => {
                let mut options = Vec::new();
                let mut p = 0usize;
                while p < rdlen {
                    let hdr = rdata
                        .get(p..p + 4)
                        .ok_or(PacketError::BadDns("OPT option header truncated"))?;
                    let code = u16::from_be_bytes([hdr[0], hdr[1]]); // vp-lint: allow(g1): hdr is a get-checked 4-byte slice.
                    let olen = u16::from_be_bytes([hdr[2], hdr[3]]) as usize; // vp-lint: allow(g1): hdr is a get-checked 4-byte slice.
                    let odata = rdata
                        .get(p + 4..p + 4 + olen)
                        .ok_or(PacketError::BadDns("OPT option data truncated"))?;
                    options.push((code, Bytes::copy_from_slice(odata)));
                    p += 4 + olen;
                }
                DnsRecord::Opt {
                    udp_payload_size: class,
                    options,
                }
            }
            _ => DnsRecord::Other {
                name,
                rtype,
                class,
                ttl,
                rdata: Bytes::copy_from_slice(rdata),
            },
        };
        Ok((record, end))
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnsMessage {
    pub id: u16,
    pub flags: DnsFlags,
    pub questions: Vec<DnsQuestion>,
    pub answers: Vec<DnsRecord>,
    pub additionals: Vec<DnsRecord>,
}

impl DnsMessage {
    /// Builds the classic anycast site-identification query:
    /// `hostname.bind TXT CH`, optionally requesting NSID via EDNS0.
    pub fn hostname_bind_query(id: u16, with_nsid: bool) -> DnsMessage {
        let mut msg = DnsMessage {
            id,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion {
                // vp-lint: allow(h2): parsing a static, well-formed name literal.
                name: DnsName::from_str("hostname.bind").expect("static name is valid"),
                qtype: DnsType::Txt,
                qclass: DnsClass::Chaos,
            }],
            answers: Vec::new(),
            additionals: Vec::new(),
        };
        if with_nsid {
            msg.additionals.push(DnsRecord::Opt {
                udp_payload_size: 4096,
                options: vec![(EDNS_OPT_NSID, Bytes::new())],
            });
        }
        msg
    }

    /// Builds the server's response to a `hostname.bind` query, identifying
    /// the answering site by name (e.g. `"lax1a.b.root-servers.org"`).
    pub fn hostname_bind_response(query: &DnsMessage, site_hostname: &str) -> DnsMessage {
        let name = query
            .questions
            .first()
            .map(|q| q.name.clone())
            .unwrap_or_default();
        let wants_nsid = query.additionals.iter().any(|r| r.nsid().is_some());
        let mut msg = DnsMessage {
            id: query.id,
            flags: DnsFlags {
                response: true,
                authoritative: true,
                ..DnsFlags::default()
            },
            questions: query.questions.clone(),
            answers: vec![DnsRecord::Txt {
                name,
                class: DnsClass::Chaos,
                ttl: 0,
                strings: vec![site_hostname.to_owned()],
            }],
            additionals: Vec::new(),
        };
        if wants_nsid {
            msg.additionals.push(DnsRecord::Opt {
                udp_payload_size: 4096,
                options: vec![(
                    EDNS_OPT_NSID,
                    Bytes::copy_from_slice(site_hostname.as_bytes()),
                )],
            });
        }
        msg
    }

    /// The first TXT answer string, if any — how a measurement client reads
    /// the site identity out of a `hostname.bind` response.
    pub fn first_txt(&self) -> Option<&str> {
        self.answers.iter().find_map(|r| match r {
            DnsRecord::Txt { strings, .. } => strings.first().map(String::as_str),
            _ => None,
        })
    }

    /// Serializes to wire format (no name compression on output).
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(self.id);
        buf.put_u16(self.flags.emit());
        buf.put_u16(self.questions.len() as u16);
        buf.put_u16(self.answers.len() as u16);
        buf.put_u16(0); // authority records: unused by this substrate
        buf.put_u16(self.additionals.len() as u16);
        for q in &self.questions {
            q.name.emit(&mut buf);
            buf.put_u16(q.qtype.number());
            buf.put_u16(q.qclass.number());
        }
        for r in &self.answers {
            r.emit(&mut buf);
        }
        for r in &self.additionals {
            r.emit(&mut buf);
        }
        buf.freeze()
    }

    /// Parses a wire-format message (handles compression pointers).
    pub fn parse(data: &[u8]) -> Result<DnsMessage, PacketError> {
        if data.len() < 12 {
            return Err(PacketError::Truncated {
                needed: 12,
                got: data.len(),
            });
        }
        // Total header reads: the length check above guarantees 12 bytes,
        // and `get` keeps the reads panic-free even if it did not.
        let be16 = |i: usize| -> u16 {
            match (data.get(2 * i), data.get(2 * i + 1)) {
                (Some(&hi), Some(&lo)) => u16::from_be_bytes([hi, lo]),
                _ => 0,
            }
        };
        let id = be16(0);
        let flags = DnsFlags::parse(be16(1));
        let qd = be16(2) as usize;
        let an = be16(3) as usize;
        let ns = be16(4) as usize;
        let ar = be16(5) as usize;
        let mut cursor = 12usize;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let (name, next) = DnsName::parse(data, cursor)?;
            let fixed = data
                .get(next..next + 4)
                .ok_or(PacketError::BadDns("question runs past buffer"))?;
            questions.push(DnsQuestion {
                name,
                qtype: DnsType::from_number(u16::from_be_bytes([fixed[0], fixed[1]])), // vp-lint: allow(g1): `fixed` is a get-checked 4-byte slice.
                qclass: DnsClass::from_number(u16::from_be_bytes([fixed[2], fixed[3]])), // vp-lint: allow(g1): `fixed` is a get-checked 4-byte slice.
            });
            cursor = next + 4;
        }
        let parse_section = |count: usize, cursor: &mut usize| {
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                let (r, next) = DnsRecord::parse(data, *cursor)?;
                records.push(r);
                *cursor = next;
            }
            Ok::<_, PacketError>(records)
        };
        let answers = parse_section(an, &mut cursor)?;
        let _authority = parse_section(ns, &mut cursor)?;
        let additionals = parse_section(ar, &mut cursor)?;
        Ok(DnsMessage {
            id,
            flags,
            questions,
            answers,
            additionals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parse_display() {
        let n = DnsName::from_str("Hostname.BIND").unwrap();
        assert_eq!(n.to_string(), "hostname.bind");
        assert_eq!(n.labels().len(), 2);
        assert!(DnsName::from_str(".").unwrap().is_root());
        assert!(DnsName::from_str("").unwrap().is_root());
        assert_eq!(DnsName::from_str("example.org.").unwrap().to_string(), "example.org");
    }

    #[test]
    fn name_rejects_bad_labels() {
        let long = "a".repeat(64);
        assert!(DnsName::from_str(&long).is_err());
        assert!(DnsName::from_str("a..b").is_err());
        let too_long = vec!["abcdefgh"; 32].join(".");
        assert!(DnsName::from_str(&too_long).is_err());
    }

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::hostname_bind_query(0x77aa, false);
        let parsed = DnsMessage::parse(&q.emit()).unwrap();
        assert_eq!(parsed, q);
        assert_eq!(parsed.questions[0].qclass, DnsClass::Chaos);
        assert_eq!(parsed.questions[0].qtype, DnsType::Txt);
    }

    #[test]
    fn query_with_nsid_roundtrip() {
        let q = DnsMessage::hostname_bind_query(1, true);
        let parsed = DnsMessage::parse(&q.emit()).unwrap();
        assert_eq!(parsed, q);
        assert!(parsed.additionals[0].nsid().is_some());
    }

    #[test]
    fn response_roundtrip_and_txt_extraction() {
        let q = DnsMessage::hostname_bind_query(0xbeef, true);
        let r = DnsMessage::hostname_bind_response(&q, "mia1b.b.root-servers.org");
        let parsed = DnsMessage::parse(&r.emit()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.first_txt(), Some("mia1b.b.root-servers.org"));
        assert_eq!(parsed.id, 0xbeef);
        assert!(parsed.flags.response);
        // NSID echoed because the query asked for it.
        let nsid = parsed.additionals[0].nsid().unwrap();
        assert_eq!(&nsid[..], b"mia1b.b.root-servers.org");
    }

    #[test]
    fn response_without_nsid_when_not_requested() {
        let q = DnsMessage::hostname_bind_query(2, false);
        let r = DnsMessage::hostname_bind_response(&q, "site");
        assert!(r.additionals.is_empty());
    }

    #[test]
    fn a_record_roundtrip() {
        let msg = DnsMessage {
            id: 5,
            flags: DnsFlags {
                response: true,
                rcode: Rcode::NoError,
                ..DnsFlags::default()
            },
            questions: vec![],
            answers: vec![DnsRecord::A {
                name: DnsName::from_str("example.org").unwrap(),
                ttl: 3600,
                addr: Ipv4Addr::new(93, 184, 216, 34),
            }],
            additionals: vec![],
        };
        assert_eq!(DnsMessage::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn compression_pointer_parsing() {
        // Hand-build a response where the answer name is a pointer to the
        // question name (offset 12).
        let q = DnsMessage {
            id: 9,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion {
                name: DnsName::from_str("a.example").unwrap(),
                qtype: DnsType::A,
                qclass: DnsClass::In,
            }],
            answers: vec![],
            additionals: vec![],
        };
        let mut wire = BytesMut::from(&q.emit()[..]);
        // ancount = 1
        wire[6..8].copy_from_slice(&1u16.to_be_bytes());
        // answer: pointer to offset 12, type A, class IN, ttl 1, rdlen 4, addr
        wire.extend_from_slice(&[0xc0, 12]);
        wire.extend_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&1u32.to_be_bytes());
        wire.extend_from_slice(&4u16.to_be_bytes());
        wire.extend_from_slice(&[10, 0, 0, 1]);
        let parsed = DnsMessage::parse(&wire).unwrap();
        match &parsed.answers[0] {
            DnsRecord::A { name, addr, .. } => {
                assert_eq!(name.to_string(), "a.example");
                assert_eq!(*addr, Ipv4Addr::new(10, 0, 0, 1));
            }
            other => panic!("expected A record, got {other:?}"),
        }
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // A name that is a pointer to itself.
        let mut wire = vec![0u8; 12];
        wire[4..6].copy_from_slice(&1u16.to_be_bytes()); // qdcount 1
        wire.extend_from_slice(&[0xc0, 12]); // pointer to offset 12 (itself)
        wire.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            DnsMessage::parse(&wire).unwrap_err(),
            PacketError::BadDnsName("compression pointer loop")
        ));
    }

    #[test]
    fn truncated_messages_rejected() {
        assert!(DnsMessage::parse(&[0; 5]).is_err());
        let q = DnsMessage::hostname_bind_query(1, false).emit();
        assert!(DnsMessage::parse(&q[..q.len() - 3]).is_err());
    }

    #[test]
    fn unknown_record_preserved() {
        let msg = DnsMessage {
            id: 1,
            flags: DnsFlags::default(),
            questions: vec![],
            answers: vec![DnsRecord::Other {
                name: DnsName::from_str("x.y").unwrap(),
                rtype: 99,
                class: 1,
                ttl: 60,
                rdata: Bytes::from_static(&[1, 2, 3]),
            }],
            additionals: vec![],
        };
        assert_eq!(DnsMessage::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn rcode_numbers_roundtrip() {
        for n in 0..=15u8 {
            assert_eq!(Rcode::from_number(n).number(), n);
        }
    }
}
