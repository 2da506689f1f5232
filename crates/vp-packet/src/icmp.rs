//! ICMP echo messages — the probe currency of Verfploeter.
//!
//! The prober sends Echo Requests whose identifier encodes the measurement
//! round ("a unique identifier in the ICMP header was used in every
//! measurement round to ensure data set separation", §4.2) and whose
//! sequence number indexes the hitlist entry. Replies echo both back, which
//! is how the collector pairs replies with probes and drops foreign traffic.

use bytes::{Bytes, BytesMut};

use crate::checksum;
use crate::error::PacketError;

const ECHO_REPLY: u8 = 0;
const DEST_UNREACHABLE: u8 = 3;
const ECHO_REQUEST: u8 = 8;
const MIN_LEN: usize = 8;

/// The ICMP messages the simulator models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    EchoRequest {
        ident: u16,
        seq: u16,
        payload: Bytes,
    },
    EchoReply {
        ident: u16,
        seq: u16,
        payload: Bytes,
    },
    /// Destination unreachable, carrying the offending header bytes.
    DestUnreachable { code: u8, original: Bytes },
}

impl IcmpMessage {
    /// Convenience constructor for a probe.
    pub fn echo_request(ident: u16, seq: u16, payload: Bytes) -> Self {
        IcmpMessage::EchoRequest {
            ident,
            seq,
            payload,
        }
    }

    /// The reply a well-behaved host sends to this message, if any.
    pub fn reply(&self) -> Option<IcmpMessage> {
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => Some(IcmpMessage::EchoReply {
                ident: *ident,
                seq: *seq,
                payload: payload.clone(),
            }),
            _ => None,
        }
    }

    /// The echo identifier, if this is an echo message.
    pub fn ident(&self) -> Option<u16> {
        match self {
            IcmpMessage::EchoRequest { ident, .. } | IcmpMessage::EchoReply { ident, .. } => {
                Some(*ident)
            }
            IcmpMessage::DestUnreachable { .. } => None,
        }
    }

    /// The echo sequence number, if this is an echo message.
    pub fn seq(&self) -> Option<u16> {
        match self {
            IcmpMessage::EchoRequest { seq, .. } | IcmpMessage::EchoReply { seq, .. } => Some(*seq),
            IcmpMessage::DestUnreachable { .. } => None,
        }
    }

    /// Serializes to wire bytes with a correct ICMP checksum.
    pub fn emit(&self) -> Bytes {
        let (ty, code, a, b, body): (u8, u8, u16, u16, &Bytes) = match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => (ECHO_REQUEST, 0, *ident, *seq, payload),
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => (ECHO_REPLY, 0, *ident, *seq, payload),
            IcmpMessage::DestUnreachable { code, original } => {
                (DEST_UNREACHABLE, *code, 0, 0, original)
            }
        };
        let mut header = [ty, code, 0, 0, 0, 0, 0, 0];
        header[4..6].copy_from_slice(&a.to_be_bytes());
        header[6..8].copy_from_slice(&b.to_be_bytes());
        let ck = checksum::internet_checksum_parts(&[&header, body]);
        header[2..4].copy_from_slice(&ck.to_be_bytes());
        let mut out = BytesMut::with_capacity(MIN_LEN + body.len());
        out.extend_from_slice(&header);
        out.extend_from_slice(body);
        out.freeze()
    }

    /// Parses wire bytes, validating length, checksum and message type.
    /// Zero-copy: the returned message's body is a refcounted view of
    /// `data`'s backing buffer — no allocation per parse.
    pub fn parse(data: &Bytes) -> Result<IcmpMessage, PacketError> {
        let [ty, code, _, _, a, b, c, d] = checked_header(data)?;
        let (a, b) = (u16::from_be_bytes([a, b]), u16::from_be_bytes([c, d]));
        let body = data.slice(MIN_LEN..data.len());
        match ty {
            ECHO_REQUEST => Ok(IcmpMessage::EchoRequest {
                ident: a,
                seq: b,
                payload: body,
            }),
            ECHO_REPLY => Ok(IcmpMessage::EchoReply {
                ident: a,
                seq: b,
                payload: body,
            }),
            DEST_UNREACHABLE => Ok(IcmpMessage::DestUnreachable {
                code,
                original: body,
            }),
            other => Err(PacketError::UnknownIcmpType(other)),
        }
    }

    /// Whether `wire` is what [`IcmpMessage::parse`] reads as an Echo
    /// Request — the same length, checksum and type checks, without
    /// building the message (no refcounted view of the payload is taken).
    pub fn is_echo_request(wire: &[u8]) -> bool {
        matches!(checked_header(wire), Ok([ECHO_REQUEST, ..]))
    }

    /// The identifier and payload of what [`IcmpMessage::parse`] reads as
    /// an Echo Reply, borrowed from `wire`; `None` for anything else,
    /// malformed or not.
    pub fn echo_reply_view(wire: &[u8]) -> Option<(u16, &[u8])> {
        let Ok([ECHO_REPLY, _, _, _, a, b, _, _]) = checked_header(wire) else {
            return None;
        };
        Some((u16::from_be_bytes([a, b]), wire.get(MIN_LEN..)?))
    }
}

/// The fixed header of a message long enough to have one and whose
/// checksum verifies: the checks every reader of wire bytes starts with.
fn checked_header(wire: &[u8]) -> Result<[u8; MIN_LEN], PacketError> {
    let Some(header) = wire.first_chunk::<MIN_LEN>() else {
        return Err(PacketError::Truncated {
            needed: MIN_LEN,
            got: wire.len(),
        });
    };
    if !checksum::verify(wire) {
        let [_, _, hi, lo, ..] = *header;
        let got = u16::from_be_bytes([hi, lo]);
        return Err(PacketError::BadChecksum { expected: 0, got });
    }
    Ok(*header)
}

/// Encodes a batch of echo requests, one per item — all tagged `ident`,
/// all carrying `payload_len`-byte payloads — plus each request's **echo
/// reply**, into two shared buffers, handing both wire images of an
/// item's message to `emit(item, request, reply)` as zero-copy views.
///
/// For each item, `fill(item, &mut seq, payload)` sets the sequence
/// number and the payload bytes in place (the payload starts zeroed).
/// Each request image is byte-identical to
/// `IcmpMessage::echo_request(ident, seq, payload).emit()` and each reply
/// image to that message run through [`IcmpMessage::reply`] and
/// [`IcmpMessage::emit`] (the equivalence tests pin both) — by
/// construction: a request is the header template plus what `fill` wrote,
/// its checksum one RFC 1071 sum over those words
/// (`checksum::partial_sum` / `checksum::finish`); its reply is the
/// same words with a zero type, so the reply's sum is the request's minus
/// the type word. Two buffer allocations per batch instead of one (plus a
/// copy) per message; simulated responders then answer probes by handing
/// back the precomputed image instead of serializing a fresh reply per
/// probe (the allocation witness counts this).
pub fn encode_batch_with_replies<T, F, E>(
    ident: u16,
    payload_len: usize,
    items: &[T],
    mut fill: F,
    mut emit: E,
) where
    F: FnMut(&T, &mut u16, &mut [u8]),
    E: FnMut(&T, Bytes, Bytes),
{
    const REQ_WORD0: u32 = (ECHO_REQUEST as u32) << 8;
    let msg_len = MIN_LEN + payload_len;
    let mut requests = BytesMut::zeroed(items.len() * msg_len);
    let mut replies = BytesMut::zeroed(items.len() * msg_len);
    let messages = requests.chunks_exact_mut(msg_len).zip(replies.chunks_exact_mut(msg_len));
    for (item, (request, reply)) in items.iter().zip(messages) {
        let (header, payload) = request.split_at_mut(MIN_LEN);
        let mut seq = 0u16;
        fill(item, &mut seq, payload);
        let ([ident_hi, ident_lo], [seq_hi, seq_lo]) = (ident.to_be_bytes(), seq.to_be_bytes());
        header.copy_from_slice(&[ECHO_REQUEST, 0, 0, 0, ident_hi, ident_lo, seq_hi, seq_lo]);
        // The checksum field is still zero, so this is the sum it covers.
        let sum = checksum::partial_sum(request);
        reply.copy_from_slice(request);
        if let Some(ty) = reply.first_mut() {
            *ty = ECHO_REPLY;
        }
        for (image, sum) in [(request, sum), (reply, sum - REQ_WORD0)] {
            if let Some(field) = image.get_mut(2..4) {
                field.copy_from_slice(&checksum::finish(sum).to_be_bytes());
            }
        }
    }
    let requests = requests.freeze();
    let replies = replies.freeze();
    for (i, item) in items.iter().enumerate() {
        emit(
            item,
            requests.slice(i * msg_len..(i + 1) * msg_len),
            replies.slice(i * msg_len..(i + 1) * msg_len),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn request_roundtrip() {
        let m = IcmpMessage::echo_request(0x1234, 7, Bytes::from_static(b"verfploeter"));
        let wire = m.emit();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), m);
    }

    #[test]
    fn reply_roundtrip() {
        let m = IcmpMessage::EchoReply {
            ident: 9,
            seq: 65535,
            payload: Bytes::new(),
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn unreachable_roundtrip() {
        let m = IcmpMessage::DestUnreachable {
            code: 1,
            original: Bytes::from_static(&[1, 2, 3, 4]),
        };
        assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m);
        assert_eq!(m.ident(), None);
        assert_eq!(m.seq(), None);
    }

    #[test]
    fn reply_mirrors_request_fields() {
        let req = IcmpMessage::echo_request(42, 1000, Bytes::from_static(b"x"));
        let rep = req.reply().unwrap();
        assert_eq!(rep.ident(), Some(42));
        assert_eq!(rep.seq(), Some(1000));
        match rep {
            IcmpMessage::EchoReply { payload, .. } => assert_eq!(&payload[..], b"x"),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn replies_do_not_reply() {
        let rep = IcmpMessage::EchoReply {
            ident: 1,
            seq: 2,
            payload: Bytes::new(),
        };
        assert!(rep.reply().is_none());
    }

    #[test]
    fn parse_rejects_corruption() {
        let mut wire = BytesMut::from(&IcmpMessage::echo_request(1, 2, Bytes::new()).emit()[..]);
        wire[4] ^= 0xff;
        assert!(matches!(
            IcmpMessage::parse(&wire.freeze()).unwrap_err(),
            PacketError::BadChecksum { .. }
        ));
    }

    #[test]
    fn parse_rejects_short() {
        assert!(matches!(
            IcmpMessage::parse(&Bytes::from_static(&[8, 0, 0])).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn parse_shares_the_wire_buffer() {
        // The body is a view into the wire image, not a copy of it.
        let wire = IcmpMessage::echo_request(0x1234, 7, Bytes::from_static(b"verfploeter")).emit();
        match IcmpMessage::parse(&wire).unwrap() {
            IcmpMessage::EchoRequest { payload, .. } => {
                assert_eq!(payload.as_ptr(), wire[MIN_LEN..].as_ptr());
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    /// A tiny deterministic generator for the equivalence tests below
    /// (tests are exempt from the d2 entropy rule, but a seeded LCG keeps
    /// failures reproducible anyway).
    struct Lcg(u64);

    impl Lcg {
        fn next_u16(&mut self) -> u16 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) as u16
        }
        fn next_u8(&mut self) -> u8 {
            self.next_u16() as u8
        }
    }

    #[test]
    fn encode_batch_identical_consecutive_probes() {
        // Consecutive identical messages: nothing carries over from one
        // message to the next.
        let mut wires = Vec::new();
        encode_batch_with_replies(7, 4, &[(); 3], |_, seq, p| {
            *seq = 42;
            p.copy_from_slice(b"same");
        }, |_, request, reply| wires.push((request, reply)));
        let reference = IcmpMessage::echo_request(7, 42, Bytes::from_static(b"same"));
        let reference_reply = reference.reply().unwrap().emit();
        for (request, reply) in &wires {
            assert_eq!(&request[..], &reference.emit()[..]);
            assert_eq!(&reply[..], &reference_reply[..]);
        }
    }

    #[test]
    fn encode_batch_messages_parse_and_verify() {
        let mut wires = Vec::new();
        encode_batch_with_replies(0xbeef, 12, &[0u16, 1, 2, 3, 4], |&i, seq, p| {
            *seq = i;
            p[..4].copy_from_slice(b"VPLT");
            p[4..].copy_from_slice(&u64::from(i).to_be_bytes());
        }, |_, request, reply| wires.push((request, reply)));
        for (i, (request, reply)) in wires.iter().enumerate() {
            for wire in [request, reply] {
                let parsed = IcmpMessage::parse(wire).unwrap();
                assert_eq!(parsed.ident(), Some(0xbeef));
                assert_eq!(parsed.seq(), Some(i as u16));
            }
        }
    }

    #[test]
    fn encode_batch_with_replies_matches_reference_encoders() {
        // Random probes across several payload lengths (including odd
        // tails and empty payloads): every batched request must match the
        // single-message encoder and every batched reply must match that
        // request's parsed message run through reply() + emit() — the §7
        // bit-equivalence contract of the precomputed-reply fast path.
        let mut rng = Lcg(0x5245_504c);
        for payload_len in [0usize, 1, 4, 7, 12, 13, 64, 65] {
            for count in [1usize, 2, 3, 17] {
                let mut seqs = Vec::with_capacity(count);
                let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(count);
                for _ in 0..count {
                    seqs.push(rng.next_u16());
                    payloads.push((0..payload_len).map(|_| rng.next_u8()).collect());
                }
                let ident = rng.next_u16();
                check_batch(ident, &seqs, &payloads);
            }
        }
        // The one's-complement corners: a reply that is zero in every
        // word (its checksum is 0xffff, the request's 0xf7ff), the same
        // with an odd tail, and messages whose words sum to exactly
        // 0xffff — as a request (0x0800 + 0xf7ff) and as a reply.
        check_batch(0, &[0], &[vec![0; 12]]);
        check_batch(0, &[0, 0], &[vec![0; 13], vec![0; 13]]);
        check_batch(0xf7ff, &[0], &[vec![]]);
        check_batch(0xf000, &[0x0fff], &[vec![0; 5]]);
        check_batch(0, &[0], &[vec![0xff, 0xff, 0, 0]]);
    }

    /// One batch of same-length payloads against the single-message
    /// encoders, request and reply, and the reply against the parser.
    fn check_batch(ident: u16, seqs: &[u16], payloads: &[Vec<u8>]) {
        let (count, payload_len) = (seqs.len(), payloads[0].len());
        let mut batched: Vec<(Bytes, Bytes)> = Vec::with_capacity(count);
        let messages: Vec<(u16, &[u8])> = seqs
            .iter()
            .zip(payloads)
            .map(|(&seq, p)| (seq, &p[..]))
            .collect();
        encode_batch_with_replies(
            ident,
            payload_len,
            &messages,
            |&(s, p), seq, payload| {
                *seq = s;
                payload.copy_from_slice(p);
            },
            |_, request, reply| batched.push((request, reply)),
        );
        assert_eq!(batched.len(), count);
        for i in 0..count {
            let label = format!("ident={ident:#x} payload_len={payload_len} count={count} message {i}");
            let single = IcmpMessage::echo_request(ident, seqs[i], Bytes::copy_from_slice(&payloads[i]));
            assert_eq!(&batched[i].0[..], &single.emit()[..], "request: {label}");
            let reference_reply = single.reply().expect("requests reply").emit();
            assert_eq!(&batched[i].1[..], &reference_reply[..], "reply: {label}");
            // And the image round-trips through the parser as the
            // reply message it claims to be.
            match IcmpMessage::parse(&batched[i].1).unwrap() {
                IcmpMessage::EchoReply { ident: id, seq, payload } => {
                    assert_eq!(id, ident);
                    assert_eq!(seq, seqs[i]);
                    assert_eq!(&payload[..], &payloads[i][..]);
                }
                other => panic!("expected reply image, parsed {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_unknown_type() {
        // Type 13 (timestamp) with a valid checksum.
        let mut buf = BytesMut::new();
        buf.put_u8(13);
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u32(0);
        let ck = checksum::internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IcmpMessage::parse(&buf.freeze()).unwrap_err(),
            PacketError::UnknownIcmpType(13)
        ));
    }
}
