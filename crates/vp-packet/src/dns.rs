//! DNS messages, sufficient for anycast catchment measurement.
//!
//! The RIPE Atlas baseline identifies the responding anycast site the
//! traditional way (§3.1 of the paper): a TXT query for `hostname.bind` in
//! the CHAOS class, optionally with the EDNS0 NSID option (RFC 5001). This
//! module implements the subset of RFC 1035 needed for that and for the DNS
//! load substrate: names (with compression-pointer parsing), questions, and
//! TXT / OPT resource records. Types, classes and response codes are the
//! wire numbers themselves; every other record is carried opaquely, so
//! `parse` is total over well-formed input and `emit` gives it back.

use std::str::FromStr;

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::PacketError;

const MAX_NAME_LEN: usize = 255;
const MAX_LABEL_LEN: usize = 63;
/// Parser limit on compression-pointer hops (loop defense).
const MAX_POINTER_HOPS: usize = 32;

/// The TXT record/query type.
pub const TYPE_TXT: u16 = 16;
/// The EDNS0 OPT pseudo-record type.
pub const TYPE_OPT: u16 = 41;
/// The CHAOS class, which `hostname.bind` queries use.
pub const CLASS_CHAOS: u16 = 3;
/// EDNS0 NSID option code (RFC 5001).
pub const EDNS_OPT_NSID: u16 = 3;

/// Big-endian reads that fail, never panic, past the end of `data`.
fn be16(data: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*data.get(at)?, *data.get(at + 1)?]))
}

fn be32(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from(be16(data, at)?) << 16 | u32::from(be16(data, at + 2)?))
}

/// A DNS domain name, stored as its label sequence; the default is the
/// root name (zero labels).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnsName {
    labels: Vec<String>,
}

impl FromStr for DnsName {
    type Err = PacketError;

    /// Parses a presentation-format name like `"hostname.bind"`.
    ///
    /// Empty string and `"."` mean the root. Labels are validated for
    /// length; content is taken as-is (no IDNA).
    fn from_str(s: &str) -> Result<Self, PacketError> {
        if s.is_empty() || s == "." {
            return Ok(DnsName::default());
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
}

impl DnsName {
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

/// Header flags (the subset the substrate sets or reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DnsFlags {
    pub response: bool,
    pub authoritative: bool,
    /// Response code (RFC 1035 §4.1.1), four bits on the wire; 0 is
    /// NOERROR.
    pub rcode: u8,
}

impl DnsFlags {
    fn emit(self) -> u16 {
        u16::from(self.response) << 15
            | u16::from(self.authoritative) << 10
            | u16::from(self.rcode & 0x0f)
    }

    fn parse(w: u16) -> Self {
        DnsFlags {
            response: w & (1 << 15) != 0,
            authoritative: w & (1 << 10) != 0,
            rcode: (w & 0x0f) as u8,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    pub name: DnsName,
    pub qtype: u16,
    pub qclass: u16,
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsRecord {
    /// A TXT record (each string at most 255 bytes on the wire).
    Txt {
        name: DnsName,
        class: u16,
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
            DnsRecord::Txt {
                name,
                class,
                ttl,
                strings,
            } => {
                name.emit(buf);
                buf.put_u16(TYPE_TXT);
                buf.put_u16(*class);
                buf.put_u32(*ttl);
                let rdlen: usize = strings.iter().map(|s| 1 + s.len().min(255)).sum();
                buf.put_u16(rdlen as u16);
                for s in strings {
                    let b = s.as_bytes();
                    let b = b.get(..255).unwrap_or(b);
                    buf.put_u8(b.len() as u8);
                    buf.extend_from_slice(b);
                }
            }
            DnsRecord::Opt {
                udp_payload_size,
                options,
            } => {
                DnsName::default().emit(buf);
                buf.put_u16(TYPE_OPT);
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
        let (name, cursor) = DnsName::parse(data, pos)?;
        let short = || PacketError::BadDns("record header runs past buffer");
        let rtype = be16(data, cursor).ok_or_else(short)?;
        let class = be16(data, cursor + 2).ok_or_else(short)?;
        let ttl = be32(data, cursor + 4).ok_or_else(short)?;
        let rdlen = usize::from(be16(data, cursor + 8).ok_or_else(short)?);
        let end = cursor + 10 + rdlen;
        let rdata = data
            .get(cursor + 10..end)
            .ok_or(PacketError::BadDns("rdata runs past buffer"))?;
        let record = match rtype {
            TYPE_TXT => {
                let mut strings = Vec::new();
                let mut p = 0usize;
                while let Some(&l) = rdata.get(p) {
                    let s = rdata
                        .get(p + 1..p + 1 + usize::from(l))
                        .ok_or(PacketError::BadDns("TXT string runs past rdata"))?;
                    strings.push(String::from_utf8_lossy(s).into_owned());
                    p += 1 + usize::from(l);
                }
                DnsRecord::Txt {
                    name,
                    class,
                    ttl,
                    strings,
                }
            }
            TYPE_OPT => {
                let mut options = Vec::new();
                let mut p = 0usize;
                while p < rdlen {
                    let (code, olen) = be16(rdata, p)
                        .zip(be16(rdata, p + 2))
                        .ok_or(PacketError::BadDns("OPT option header truncated"))?;
                    let odata = rdata
                        .get(p + 4..p + 4 + usize::from(olen))
                        .ok_or(PacketError::BadDns("OPT option data truncated"))?;
                    options.push((code, Bytes::copy_from_slice(odata)));
                    p += 4 + usize::from(olen);
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
    #[expect(clippy::expect_used, reason = "parsing a static, well-formed name literal.")]
    pub fn hostname_bind_query(id: u16, with_nsid: bool) -> DnsMessage {
        let mut msg = DnsMessage {
            id,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion {
                name: DnsName::from_str("hostname.bind").expect("static name is valid"),
                qtype: TYPE_TXT,
                qclass: CLASS_CHAOS,
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
                class: CLASS_CHAOS,
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
            buf.put_u16(q.qtype);
            buf.put_u16(q.qclass);
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
        // The length check above guarantees the six header words.
        let word = |i: usize| be16(data, 2 * i).unwrap_or(0);
        let id = word(0);
        let flags = DnsFlags::parse(word(1));
        let (qd, an, ns, ar) = (word(2), word(3), word(4), word(5));
        let mut cursor = 12usize;
        let mut questions = Vec::with_capacity(usize::from(qd));
        for _ in 0..qd {
            let (name, next) = DnsName::parse(data, cursor)?;
            let (qtype, qclass) = be16(data, next)
                .zip(be16(data, next + 2))
                .ok_or(PacketError::BadDns("question runs past buffer"))?;
            questions.push(DnsQuestion {
                name,
                qtype,
                qclass,
            });
            cursor = next + 4;
        }
        let parse_section = |count: u16, cursor: &mut usize| {
            let mut records = Vec::with_capacity(usize::from(count));
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
    fn name_parse_normalizes() {
        let n = DnsName::from_str("Hostname.BIND").unwrap();
        assert_eq!(n.labels, ["hostname", "bind"]);
        assert_eq!(DnsName::from_str(".").unwrap(), DnsName::default());
        assert_eq!(DnsName::from_str("").unwrap(), DnsName::default());
        assert_eq!(DnsName::from_str("example.org.").unwrap().labels, ["example", "org"]);
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
        assert_eq!(parsed.questions[0].qclass, CLASS_CHAOS);
        assert_eq!(parsed.questions[0].qtype, TYPE_TXT);
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
    fn compression_pointer_parsing() {
        // Hand-build a response where the answer name is a pointer to the
        // question name (offset 12).
        let q = DnsMessage {
            id: 9,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion {
                name: DnsName::from_str("a.example").unwrap(),
                qtype: TYPE_TXT,
                qclass: CLASS_CHAOS,
            }],
            answers: vec![],
            additionals: vec![],
        };
        let mut wire = BytesMut::from(&q.emit()[..]);
        // ancount = 1
        wire[6..8].copy_from_slice(&1u16.to_be_bytes());
        // answer: pointer to offset 12, type TXT, class CH, ttl 1, rdlen 3, "hi"
        wire.extend_from_slice(&[0xc0, 12]);
        wire.extend_from_slice(&TYPE_TXT.to_be_bytes());
        wire.extend_from_slice(&CLASS_CHAOS.to_be_bytes());
        wire.extend_from_slice(&1u32.to_be_bytes());
        wire.extend_from_slice(&3u16.to_be_bytes());
        wire.extend_from_slice(&[2, b'h', b'i']);
        let parsed = DnsMessage::parse(&wire).unwrap();
        match &parsed.answers[0] {
            DnsRecord::Txt { name, ttl, .. } => {
                assert_eq!(name.labels, ["a", "example"]);
                assert_eq!(*ttl, 1);
            }
            other => panic!("expected TXT record, got {other:?}"),
        }
        assert_eq!(parsed.first_txt(), Some("hi"));
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

    /// Numbers the substrate gives no name — here an A record in class IN
    /// and every four-bit rcode — survive a round trip as themselves.
    #[test]
    fn unnamed_numbers_roundtrip() {
        for rcode in 0..=15u8 {
            let msg = DnsMessage {
                id: 5,
                flags: DnsFlags {
                    response: true,
                    rcode,
                    ..DnsFlags::default()
                },
                questions: vec![],
                answers: vec![DnsRecord::Other {
                    name: DnsName::from_str("example.org").unwrap(),
                    rtype: 1,
                    class: 1,
                    ttl: 3600,
                    rdata: Bytes::from_static(&[93, 184, 216, 34]),
                }],
                additionals: vec![],
            };
            assert_eq!(DnsMessage::parse(&msg.emit()).unwrap(), msg);
        }
    }
}
