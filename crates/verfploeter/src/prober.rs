//! The prober: one paced ICMP Echo Request per hitlist entry.
//!
//! §3.1: probes are sent "from a designated measurement address that must
//! be in the anycast service IP prefix", "in a pseudorandom order", and
//! "relatively slowly (about 6k queries per second)" — 10k/s for the
//! Tangled rounds (§4.2) — with "a single request per destination IP
//! address, with no immediate retransmissions" and "a unique identifier in
//! the ICMP header ... in every measurement round".
//!
//! Each probe's payload carries a magic tag and the hitlist index, so the
//! central pipeline can pair replies with probes even when the replier
//! answers from a different address.

use bytes::{BufMut, Bytes, BytesMut};
use vp_hitlist::Hitlist;
use vp_net::{FeistelPermutation, Ipv4Addr, ProbeOrder, SimTime, TokenBucket};
use vp_packet::{IcmpMessage, Ipv4Packet, Protocol};

/// Magic prefix identifying Verfploeter probe payloads.
pub const PAYLOAD_MAGIC: &[u8; 4] = b"VPLT";

/// Probes encoded per [`Prober::build_probes_with_replies`] batch: large enough to
/// amortize the batch's two wire-buffer allocations to noise, small enough
/// that a batch of 20-byte requests and replies stays comfortably in L1.
/// The engine drains a batch in eight stages of 128
/// ([`vp_sim::NetworkSim::run_with`]).
pub const PROBE_BATCH: usize = 1024;

/// Probing parameters for one measurement round.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Probe rate in packets per second.
    pub rate_per_sec: f64,
    /// ICMP identifier of this round (data-set separation).
    pub ident: u16,
    /// Seed of the pseudorandom probe order.
    pub order_seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            rate_per_sec: 10_000.0,
            ident: 1,
            order_seed: 0x0bde,
        }
    }
}

/// The probe schedule as an iterator of `(hitlist index, send time)`:
/// every index exactly once, in Feistel-permuted order, paced by a token
/// bucket — send times are non-decreasing, which keeps the engine's
/// parked arrivals to one delay window. O(1) memory: the
/// schedule is a pure function of `(n, order_seed, rate, start)`. Built
/// by [`Prober::schedule`].
#[derive(Debug)]
pub struct Schedule {
    perm: FeistelPermutation,
    bucket: TokenBucket,
    next: u64,
    n: u64,
    t: SimTime,
}

impl Iterator for Schedule {
    type Item = (u64, SimTime);

    fn next(&mut self) -> Option<(u64, SimTime)> {
        if self.next == self.n {
            return None;
        }
        let index = self.perm.permute(self.next);
        self.next += 1;
        // Advance to the next admission slot.
        self.t = self.bucket.next_available(self.t);
        let admitted = self.bucket.try_acquire(self.t);
        debug_assert!(admitted, "token bucket must admit at next_available");
        Some((index, self.t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = vp_net::conv::sat_usize(self.n - self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Schedule {}

/// The prober: turns a hitlist into a paced, permuted probe schedule.
#[derive(Debug)]
pub struct Prober {
    config: ProbeConfig,
}

impl Prober {
    pub fn new(config: ProbeConfig) -> Self {
        assert!(config.rate_per_sec > 0.0, "rate must be positive");
        Prober { config }
    }

    /// Encodes the probe payload for a hitlist index.
    pub fn encode_payload(index: u64) -> Bytes {
        let mut b = BytesMut::with_capacity(12);
        b.extend_from_slice(PAYLOAD_MAGIC);
        b.put_u64(index);
        b.freeze()
    }

    /// Decodes a probe/reply payload back to the hitlist index.
    pub fn decode_payload(payload: &[u8]) -> Option<u64> {
        if payload.len() != 12 || payload.get(..4)? != PAYLOAD_MAGIC {
            return None;
        }
        Some(u64::from_be_bytes(payload.get(4..12)?.try_into().ok()?))
    }

    /// The probe schedule over `n` hitlist entries starting at `start`,
    /// **without materializing any packet** (see [`Schedule`]).
    pub fn schedule(&self, n: u64, start: SimTime) -> Schedule {
        Schedule {
            perm: FeistelPermutation::new(n, self.config.order_seed),
            bucket: TokenBucket::new(self.config.rate_per_sec, 1.0),
            next: 0,
            n,
            t: start,
        }
    }

    /// Materializes the probe packet for one hitlist index: an ICMP Echo
    /// Request from `source` carrying the round ident and the index-tagged
    /// payload.
    pub fn build_probe(&self, hitlist: &Hitlist, index: u64, source: Ipv4Addr) -> Ipv4Packet {
        let entry = hitlist.entry(vp_net::conv::sat_usize(index));
        let icmp = IcmpMessage::echo_request(
            self.config.ident,
            vp_net::conv::sat_u16(index & 0xffff),
            Self::encode_payload(index),
        );
        let mut packet = Ipv4Packet::new(source, entry.target, Protocol::Icmp, icmp.emit());
        packet.ident = self.config.ident;
        packet
    }

    /// Materializes the probes for a slice of hitlist indices into `out` —
    /// wire-identical to calling [`Prober::build_probe`] per index (the
    /// equivalence suite pins this), but with the hot-loop cost profile:
    /// the whole batch's ICMP images live in **one shared buffer**
    /// ([`vp_packet::icmp::encode_batch_with_replies`]), each packet
    /// payload a zero-copy view of it, and one checksum sum per probe
    /// serving its request and its reply. Steady-state heap allocations
    /// per probe: zero (the batch buffers and the reservations amortize
    /// across the batch; the allocation-witness test counts this).
    ///
    /// Alongside each probe comes its precomputed **echo reply** wire
    /// image: `out[i]`'s lands in `reply_images[i]`, byte-identical to
    /// what the simulated responder's parse → reply → emit chain would
    /// serialize. Handing the image to the engine with the probe lets
    /// responders answer without allocating per reply — the last
    /// per-probe allocation the witness test retired.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i < indices.len()` by encode_batch_with_replies's contract, and payloads are exactly the 12 declared bytes."
    )]
    pub fn build_probes_with_replies(
        &self,
        hitlist: &Hitlist,
        indices: &[u64],
        source: Ipv4Addr,
        out: &mut Vec<Ipv4Packet>,
        reply_images: &mut Vec<Bytes>,
    ) {
        out.clear();
        out.reserve(indices.len());
        reply_images.clear();
        reply_images.reserve(indices.len());
        vp_packet::icmp::encode_batch_with_replies(
            self.config.ident,
            12,
            indices.len(),
            |i, seq, payload| {
                let index = indices[i];
                *seq = vp_net::conv::sat_u16(index & 0xffff);
                payload[..4].copy_from_slice(PAYLOAD_MAGIC);
                payload[4..].copy_from_slice(&index.to_be_bytes());
            },
            |i, wire, reply| {
                let index = indices[i];
                let entry = hitlist.entry(vp_net::conv::sat_usize(index));
                let mut packet = Ipv4Packet::new(source, entry.target, Protocol::Icmp, wire);
                packet.ident = self.config.ident;
                out.push(packet);
                reply_images.push(reply);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vp_hitlist::HitlistConfig;
    use vp_topology::{Internet, TopologyConfig};

    fn hitlist() -> (Internet, Hitlist) {
        let w = Internet::generate(TopologyConfig::tiny(61));
        let hl = Hitlist::from_internet(&w, &HitlistConfig::default());
        (w, hl)
    }

    #[test]
    fn payload_roundtrip() {
        for index in [0u64, 1, 65535, 1 << 40] {
            let p = Prober::encode_payload(index);
            assert_eq!(Prober::decode_payload(&p), Some(index));
        }
        assert_eq!(Prober::decode_payload(b"nope"), None);
        assert_eq!(Prober::decode_payload(&[]), None);
        assert_eq!(Prober::decode_payload(&[0u8; 12]), None);
    }

    /// The whole round as `(index, send time, packet)` rows.
    fn round(prober: &Prober, hl: &Hitlist) -> Vec<(u64, SimTime, Ipv4Packet)> {
        let source = Ipv4Addr::new(240, 0, 0, 1);
        prober
            .schedule(hl.len() as u64, SimTime::ZERO)
            .map(|(index, at)| (index, at, prober.build_probe(hl, index, source)))
            .collect()
    }

    #[test]
    fn schedule_covers_every_target_once() {
        let (_, hl) = hitlist();
        let prober = Prober::new(ProbeConfig::default());
        let schedule = prober.schedule(hl.len() as u64, SimTime::ZERO);
        assert_eq!(schedule.size_hint(), (hl.len(), Some(hl.len())));
        let probes = round(&prober, &hl);
        assert_eq!(probes.len(), hl.len());
        let indexes: BTreeSet<u64> = probes.iter().map(|p| p.0).collect();
        assert_eq!(indexes.len(), hl.len());
        for (index, _, packet) in &probes {
            assert_eq!(packet.dst, hl.entry(vp_net::conv::sat_usize(*index)).target);
        }
    }

    #[test]
    fn schedule_is_paced_at_rate() {
        let (_, hl) = hitlist();
        let cfg = ProbeConfig {
            rate_per_sec: 1000.0,
            ..ProbeConfig::default()
        };
        let prober = Prober::new(cfg);
        let probes = round(&prober, &hl);
        let last = probes.last().unwrap().1;
        let expected_secs = hl.len() as f64 / 1000.0;
        let actual = last.as_secs_f64();
        assert!(
            (actual - expected_secs).abs() / expected_secs < 0.02,
            "round took {actual:.2}s, expected ~{expected_secs:.2}s"
        );
        // Monotone non-decreasing send times.
        for w in probes.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn order_is_permuted_not_sequential() {
        let (_, hl) = hitlist();
        let prober = Prober::new(ProbeConfig::default());
        let probes = round(&prober, &hl);
        let sequential = probes.windows(2).filter(|w| w[1].0 == w[0].0 + 1).count();
        assert!(
            (sequential as f64) < probes.len() as f64 * 0.01,
            "{sequential} sequential pairs"
        );
    }

    #[test]
    fn probes_carry_round_ident_and_payload() {
        let (_, hl) = hitlist();
        let cfg = ProbeConfig {
            ident: 0x77,
            ..ProbeConfig::default()
        };
        let prober = Prober::new(cfg);
        let probes = round(&prober, &hl);
        for (index, _, packet) in probes.iter().take(20) {
            let msg = vp_packet::IcmpMessage::parse(&packet.payload).unwrap();
            assert_eq!(msg.ident(), Some(0x77));
            match msg {
                vp_packet::IcmpMessage::EchoRequest { payload, .. } => {
                    assert_eq!(Prober::decode_payload(&payload), Some(*index));
                }
                other => panic!("expected request, got {other:?}"),
            }
        }
    }

    #[test]
    fn batched_build_is_bit_identical_to_single_build() {
        // The §7 contract rides on this: the batched path must produce
        // the exact packets (bytes and struct fields) of the reference
        // single-probe encoder, in schedule order.
        let (_, hl) = hitlist();
        let cfg = ProbeConfig {
            ident: 0x4242,
            ..ProbeConfig::default()
        };
        let prober = Prober::new(cfg);
        let source = Ipv4Addr::new(240, 0, 0, 1);
        let indices: Vec<u64> = prober
            .schedule(hl.len() as u64, SimTime::ZERO)
            .map(|(index, _)| index)
            .collect();
        let mut batched = Vec::new();
        for chunk in indices.chunks(97) {
            let (mut out, mut images) = (Vec::new(), Vec::new());
            prober.build_probes_with_replies(&hl, chunk, source, &mut out, &mut images);
            batched.extend(out);
        }
        assert_eq!(batched.len(), indices.len());
        for (i, index) in indices.iter().enumerate() {
            let single = prober.build_probe(&hl, *index, source);
            assert_eq!(batched[i], single, "probe {i} (hitlist index {index})");
            assert_eq!(&batched[i].payload[..], &single.payload[..]);
        }
    }

    #[test]
    fn reply_images_match_responder_serialization() {
        // The precomputed reply image must be byte-identical to what a
        // responder would serialize from the received probe: parse the
        // probe, form the reply, emit it. This is the bit-equivalence
        // the engine's precomputed-reply fast path rides on.
        let (_, hl) = hitlist();
        let prober = Prober::new(ProbeConfig {
            ident: 0x77aa,
            ..ProbeConfig::default()
        });
        let source = Ipv4Addr::new(240, 0, 0, 1);
        let indices: Vec<u64> = (0..hl.len() as u64).collect();
        for chunk in indices.chunks(113) {
            let mut packets = Vec::new();
            let mut images = Vec::new();
            prober.build_probes_with_replies(&hl, chunk, source, &mut packets, &mut images);
            assert_eq!(packets.len(), chunk.len());
            assert_eq!(images.len(), chunk.len());
            for (packet, image) in packets.iter().zip(&images) {
                let parsed = vp_packet::IcmpMessage::parse(&packet.payload).unwrap();
                let responder = parsed.reply().expect("probes are echo requests").emit();
                assert_eq!(&image[..], &responder[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        Prober::new(ProbeConfig {
            rate_per_sec: 0.0,
            ..ProbeConfig::default()
        });
    }
}
