//! Property-based tests: every packet format must roundtrip through its
//! wire encoding, and parsers must never panic on arbitrary bytes.

use bytes::Bytes;
use proptest::prelude::*;
use vp_net::Ipv4Addr;
use vp_packet::{
    dns, DnsFlags, DnsMessage, DnsName, DnsQuestion, DnsRecord, IcmpMessage, Ipv4Packet, Protocol,
    UdpDatagram,
};

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9-]{1,20}"
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    prop::collection::vec(arb_label(), 0..5).prop_map(|labels| {
        let s = labels.join(".");
        s.parse::<DnsName>().unwrap()
    })
}

proptest! {
    #[test]
    fn ipv4_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        payload in arb_payload(200),
    ) {
        let p = Ipv4Packet {
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
            protocol: Protocol::from_number(proto),
            ttl,
            ident,
            payload,
        };
        prop_assert_eq!(Ipv4Packet::parse(&p.emit()).unwrap(), p);
    }

    #[test]
    fn ipv4_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Packet::parse(&bytes);
    }

    #[test]
    fn icmp_echo_roundtrip(ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(100)) {
        let m = IcmpMessage::echo_request(ident, seq, payload);
        prop_assert_eq!(IcmpMessage::parse(&m.emit()).unwrap(), m.clone());
        let r = m.reply().unwrap();
        prop_assert_eq!(IcmpMessage::parse(&r.emit()).unwrap(), r);
    }

    #[test]
    fn icmp_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = IcmpMessage::parse(&Bytes::from(bytes));
    }

    /// The borrowing readers are `parse` without the message: on byte
    /// soup (random bytes, some with their checksum made right so the type
    /// check is reached) and on valid messages of all three kinds, each
    /// agrees with what `parse` returns.
    #[test]
    fn icmp_views_agree_with_parse(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        fix_checksum in any::<bool>(),
        (ident, seq, code) in (any::<u16>(), any::<u16>(), any::<u8>()),
        payload in arb_payload(40),
    ) {
        let mut soup = bytes;
        if let (true, Some(field)) = (fix_checksum, soup.get_mut(2..4)) {
            field.copy_from_slice(&[0, 0]);
            let ck = vp_packet::checksum::internet_checksum(&soup);
            soup[2..4].copy_from_slice(&ck.to_be_bytes());
        }
        let request = IcmpMessage::echo_request(ident, seq, payload.clone());
        let unreachable = IcmpMessage::DestUnreachable { code, original: payload };
        let reply = request.reply().unwrap();
        for wire in [Bytes::from(soup), request.emit(), reply.emit(), unreachable.emit()] {
            let parsed = IcmpMessage::parse(&wire).ok();
            let is_request = matches!(parsed, Some(IcmpMessage::EchoRequest { .. }));
            prop_assert_eq!(IcmpMessage::is_echo_request(&wire), is_request, "{:?}", &wire);
            let view = match &parsed {
                Some(IcmpMessage::EchoReply { ident, payload, .. }) => Some((*ident, &payload[..])),
                _ => None,
            };
            prop_assert_eq!(IcmpMessage::echo_reply_view(&wire), view, "{:?}", &wire);
        }
    }

    #[test]
    fn icmp_single_bitflip_detected(
        ident in any::<u16>(),
        seq in any::<u16>(),
        byte in 0usize..8,
        bit in 0u8..8,
    ) {
        let m = IcmpMessage::echo_request(ident, seq, Bytes::new());
        let mut wire = m.emit().to_vec();
        wire[byte] ^= 1 << bit;
        // Either the checksum catches it, or (for flips inside the checksum
        // field itself producing the complementary encoding 0x0000/0xffff)
        // the parse may succeed but then must differ from the original —
        // EXCEPT that one's-complement has two zero representations, so a
        // flip within the checksum bytes can alias. All other bytes must
        // never parse back to the identical message silently... a flip in
        // type/ident/seq either fails the checksum or changes the message.
        if let Ok(parsed) = IcmpMessage::parse(&Bytes::from(wire)) {
            prop_assert!(byte == 2 || byte == 3 || parsed != m);
        }
    }

    #[test]
    fn udp_roundtrip(
        sp in any::<u16>(),
        dp in any::<u16>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        payload in arb_payload(200),
    ) {
        let d = UdpDatagram::new(sp, dp, payload);
        let wire = d.emit(Ipv4Addr(src), Ipv4Addr(dst));
        prop_assert_eq!(UdpDatagram::parse(&wire, Ipv4Addr(src), Ipv4Addr(dst)).unwrap(), d);
    }

    #[test]
    fn udp_parse_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let _ = UdpDatagram::parse(&bytes, Ipv4Addr(src), Ipv4Addr(dst));
    }

    #[test]
    fn dns_message_roundtrip(
        id in any::<u16>(),
        response in any::<bool>(),
        authoritative in any::<bool>(),
        rcode in 0u8..16,
        qname in arb_name(),
        txt in "[ -~]{0,80}",
        ttl in any::<u32>(),
        nsid in prop::collection::vec(any::<u8>(), 0..24),
        (rtype, class) in (any::<u16>(), any::<u16>()),
        rdata in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        // TXT and OPT are parsed structurally; any other type number
        // must come back as the opaque record it went in as.
        let rtype = if [dns::TYPE_TXT, dns::TYPE_OPT].contains(&rtype) { 1 } else { rtype };
        let msg = DnsMessage {
            id,
            flags: DnsFlags {
                response,
                authoritative,
                rcode,
            },
            questions: vec![DnsQuestion {
                name: qname.clone(),
                qtype: dns::TYPE_TXT,
                qclass: dns::CLASS_CHAOS,
            }],
            answers: vec![
                DnsRecord::Txt {
                    name: qname.clone(),
                    class: dns::CLASS_CHAOS,
                    ttl,
                    strings: vec![txt],
                },
                DnsRecord::Other { name: qname, rtype, class, ttl, rdata: rdata.into() },
            ],
            additionals: vec![DnsRecord::Opt {
                udp_payload_size: 4096,
                options: vec![(dns::EDNS_OPT_NSID, nsid.into())],
            }],
        };
        prop_assert_eq!(DnsMessage::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn dns_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = DnsMessage::parse(&bytes);
    }

    /// A full probe packet (IPv4 over ICMP) roundtrips through both layers,
    /// exactly as the simulator transmits it.
    #[test]
    fn nested_probe_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ident in any::<u16>(),
        seq in any::<u16>(),
    ) {
        let icmp = IcmpMessage::echo_request(ident, seq, Bytes::from_static(b"vp"));
        let ip = Ipv4Packet::new(Ipv4Addr(src), Ipv4Addr(dst), Protocol::Icmp, icmp.emit());
        let wire = ip.emit();
        let outer = Ipv4Packet::parse(&wire).unwrap();
        prop_assert_eq!(outer.protocol, Protocol::Icmp);
        let inner = IcmpMessage::parse(&outer.payload).unwrap();
        prop_assert_eq!(inner, icmp);
    }
}
