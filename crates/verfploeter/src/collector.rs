//! Reply collection: per-site capture, central aggregation.
//!
//! §3.1: "We must capture traffic for the measurement address ... These
//! captures must happen concurrently at all anycast sites" and "we copy
//! all responses to a central site for analysis ... with a custom program
//! that forwards traffic after tagging it with its site." This module is
//! that custom program, as a view rather than a copy: the simulator hands
//! every site arrival, tagged with site and time, to a
//! [`vp_sim::CaptureSink`]; the sink here parses it into a [`RawReply`]
//! and forwards it straight into the central §4 [`Cleaner`]. Arrivals come
//! in transmission order, each with its identity key; §4 cleaning is a
//! per-target reduction that keeps the least `(at, key)`
//! ([`vp_sim::Earliest`]), so it needs no time order — no per-site log, no
//! merge, no re-sort.

use vp_bgp::SiteId;
use vp_net::{Ipv4Addr, SimTime};
use vp_packet::{IcmpMessage, Ipv4Packet};
use vp_sim::CaptureSink;

use crate::cleaning::Cleaner;

/// A reply as it arrives at the central analysis point: parsed, tagged with
/// the capturing site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawReply {
    pub site: SiteId,
    pub at: SimTime,
    pub src: Ipv4Addr,
    /// ICMP identifier of the reply.
    pub ident: u16,
    /// Decoded hitlist index from the payload, if the payload was ours.
    pub index: Option<u64>,
}

/// Parses one site capture into a [`RawReply`]; non-ICMP or non-echo-reply
/// traffic is discarded here (the capture filter on the measurement
/// address).
pub(crate) fn parse_capture(site: SiteId, at: SimTime, packet: &Ipv4Packet) -> Option<RawReply> {
    if packet.protocol != vp_packet::Protocol::Icmp {
        return None;
    }
    let (ident, payload) = IcmpMessage::echo_reply_view(&packet.payload)?;
    Some(RawReply {
        site,
        at,
        src: packet.src,
        ident,
        index: crate::prober::Prober::decode_payload(payload),
    })
}

/// The central point as the engine's capture sink: each site arrival is
/// parsed once, as it is handed over, and cleaned incrementally.
impl CaptureSink for Cleaner<'_> {
    fn capture(&mut self, site: SiteId, at: SimTime, key: u64, packet: &Ipv4Packet) {
        if let Some(reply) = parse_capture(site, at, packet) {
            self.push(&reply, key);
        }
    }

    /// A scan's probes go to hosts, whose answers come back to the sites:
    /// nothing it sends leaves an application anything to read.
    fn deliver(&mut self, _at: SimTime, _key: u64, _packet: &Ipv4Packet) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vp_packet::Protocol;

    fn reply_packet(src: u32, ident: u16, index: u64) -> Ipv4Packet {
        let icmp = IcmpMessage::EchoReply {
            ident,
            seq: 0,
            payload: crate::prober::Prober::encode_payload(index),
        };
        Ipv4Packet::new(
            Ipv4Addr(src),
            Ipv4Addr::new(240, 0, 0, 1),
            Protocol::Icmp,
            icmp.emit(),
        )
    }

    #[test]
    fn parse_extracts_fields() {
        let r = parse_capture(SiteId(2), SimTime(55), &reply_packet(0x01020304, 9, 42)).unwrap();
        assert_eq!(r.site, SiteId(2));
        assert_eq!(r.at, SimTime(55));
        assert_eq!(r.src, Ipv4Addr(0x01020304));
        assert_eq!(r.ident, 9);
        assert_eq!(r.index, Some(42));
    }

    #[test]
    fn parse_drops_requests_and_non_icmp() {
        let req = IcmpMessage::echo_request(1, 2, Bytes::new());
        let packet = Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Icmp, req.emit());
        assert!(parse_capture(SiteId(0), SimTime(0), &packet).is_none());
        let udp = Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Udp, Bytes::new());
        assert!(parse_capture(SiteId(0), SimTime(0), &udp).is_none());
    }

    #[test]
    fn foreign_payload_has_no_index() {
        let icmp = IcmpMessage::EchoReply {
            ident: 1,
            seq: 2,
            payload: Bytes::from_static(b"something else"),
        };
        let packet = Ipv4Packet::new(Ipv4Addr(1), Ipv4Addr(2), Protocol::Icmp, icmp.emit());
        let r = parse_capture(SiteId(0), SimTime(0), &packet).unwrap();
        assert_eq!(r.index, None);
    }

    /// The sink is `parse_capture` then `Cleaner::push`: captures from
    /// several sites, keyed by arrival position, clean exactly like the
    /// materialized stream of their parsed replies — and traffic the
    /// capture filter drops never reaches the cleaner's counters.
    #[test]
    fn sink_forwards_parsed_captures_to_the_cleaner() {
        use vp_hitlist::{Hitlist, HitlistConfig};
        use vp_net::SimDuration;
        use vp_topology::{Internet, TopologyConfig};

        let w = Internet::generate(TopologyConfig::tiny(71));
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        let target = |i: usize| hl.targets().as_slice()[i].0;
        let captures = [
            (SiteId(0), SimTime(10), reply_packet(target(1), 7, 1)),
            (SiteId(1), SimTime(20), reply_packet(target(2), 7, 2)),
            (SiteId(0), SimTime(30), reply_packet(target(1), 7, 1)), // duplicate
            (SiteId(2), SimTime(40), reply_packet(target(3), 8, 3)), // foreign ident
        ];
        let request = Ipv4Packet::new(
            Ipv4Addr(1),
            Ipv4Addr(2),
            Protocol::Icmp,
            IcmpMessage::echo_request(7, 0, Bytes::new()).emit(),
        );

        let cutoff = SimDuration::from_mins(15);
        let mut sink = Cleaner::new(&hl, 0..hl.len(), 7, SimTime::ZERO, cutoff);
        for (key, (site, at, packet)) in (0u64..).zip(&captures) {
            sink.capture(*site, *at, key, packet);
        }
        sink.capture(SiteId(0), SimTime(50), 4, &request);
        let (kept, stats) = sink.finish();

        let replies: Vec<RawReply> = captures
            .iter()
            .filter_map(|(site, at, packet)| parse_capture(*site, *at, packet))
            .collect();
        assert_eq!(replies.len(), captures.len());
        let (want_kept, want_stats) = crate::cleaning::clean(&replies, &hl, 7, SimTime::ZERO, cutoff);
        assert_eq!(kept, want_kept);
        assert_eq!(stats, want_stats);
        assert_eq!((stats.total, stats.kept, stats.duplicates, stats.foreign), (4, 2, 1, 1));
        assert_eq!(kept[0].site, SiteId(0));
        assert_eq!(kept[1].site, SiteId(1));
    }
}
