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

use std::num::{NonZeroU32, NonZeroU64};

use bytes::Bytes;
use vp_net::{FeistelPermutation, Ipv4Addr, SimDuration, SimTime};
use vp_packet::{Ipv4Packet, Protocol};

/// Magic prefix identifying Verfploeter probe payloads.
pub(crate) const PAYLOAD_MAGIC: &[u8; 4] = b"VPLT";

/// Probe payload length: the magic prefix and a big-endian hitlist index.
const PAYLOAD_LEN: usize = 12;

/// Probes encoded per `Prober::build_probes_with_replies` batch: large enough to
/// amortize the batch's two wire-buffer allocations to noise, small enough
/// that a batch of 20-byte requests and replies stays comfortably in L1.
/// The engine drains a batch in eight stages of 128
/// ([`vp_sim::NetworkSim::run_with`]).
pub const PROBE_BATCH: usize = 1024;

/// Probing parameters for one measurement round.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Probe rate in packets per second.
    pub rate_per_sec: NonZeroU32,
    /// ICMP identifier of this round (data-set separation).
    pub ident: u16,
    /// Seed of the pseudorandom probe order.
    pub order_seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            rate_per_sec: const {
                match NonZeroU32::new(10_000) {
                    Some(rate) => rate,
                    None => panic!("10 000 is not zero"),
                }
            },
            ident: 1,
            order_seed: 0x0bde,
        }
    }
}

/// The probe schedule as an iterator of `(hitlist index, send time)`:
/// the rows it covers exactly once each, **in row order**, each at the
/// send time of its place in the Feistel-permuted walk paced by
/// [`ProbeConfig::rate_per_sec`] — walk position `p` leaves at
/// `start + ⌈p·10⁹/rate⌉` ns, exact at every rate. The permutation
/// decides when a probe leaves, not when the simulator handles it: the
/// engine is order-free in its source (DESIGN.md §7), and rows in order
/// read the hitlist and the world sequentially. Built by
/// [`Prober::schedule`].
#[derive(Debug)]
pub(crate) struct Schedule {
    perm: FeistelPermutation,
    rows: std::ops::Range<usize>,
    rate: NonZeroU64,
    start: SimTime,
}

impl Iterator for Schedule {
    type Item = (u64, SimTime);

    fn next(&mut self) -> Option<(u64, SimTime)> {
        const NANOS_PER_SEC: u64 = 1_000_000_000;
        let row = self.rows.next()? as u64;
        // A position is below 2^32 (a hitlist row is a u32), so the
        // product stays below 2^62.
        let position = self.perm.invert(row);
        let at = self.start + SimDuration((position * NANOS_PER_SEC).div_ceil(self.rate.get()));
        Some((row, at))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Schedule {}

/// The prober: turns a hitlist into a paced, permuted probe schedule.
#[derive(Debug)]
pub(crate) struct Prober {
    config: ProbeConfig,
}

impl Prober {
    pub(crate) fn new(config: ProbeConfig) -> Self {
        Prober { config }
    }

    /// Decodes a probe/reply payload back to the hitlist index.
    pub(crate) fn decode_payload(payload: &[u8]) -> Option<u64> {
        if payload.len() != PAYLOAD_LEN || payload.get(..4)? != PAYLOAD_MAGIC {
            return None;
        }
        Some(u64::from_be_bytes(payload.get(4..12)?.try_into().ok()?))
    }

    /// The schedule of hitlist rows `rows` of an `n`-row round starting
    /// at `start`: the whole round's schedule with every other row left
    /// out, **without materializing any packet** (see `Schedule`). Each
    /// row finds its walk position with [`FeistelPermutation::invert`] as
    /// it is pulled, so a schedule holds no per-row state.
    pub(crate) fn schedule(
        &self,
        n: usize,
        rows: std::ops::Range<usize>,
        start: SimTime,
    ) -> Schedule {
        Schedule {
            perm: FeistelPermutation::new(n as u64, self.config.order_seed),
            rows,
            rate: self.config.rate_per_sec.into(),
            start,
        }
    }

    /// Materializes the probes for a slice of `(hitlist index, target)`
    /// pairs into `out` — wire-identical to the tests' `build_probe`
    /// per pair (the equivalence suite pins this), but with the hot-loop
    /// cost profile:
    /// the whole batch's ICMP images live in **one shared buffer**
    /// ([`vp_packet::encode_batch_with_replies`]), each packet
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
    pub(crate) fn build_probes_with_replies(
        &self,
        probes: &[(u64, Ipv4Addr)],
        source: Ipv4Addr,
        out: &mut Vec<Ipv4Packet>,
        reply_images: &mut Vec<Bytes>,
    ) {
        out.clear();
        out.reserve(probes.len());
        reply_images.clear();
        reply_images.reserve(probes.len());
        vp_packet::encode_batch_with_replies(
            self.config.ident,
            PAYLOAD_LEN,
            probes,
            |&(index, _), seq, bytes| {
                *seq = vp_net::conv::sat_u16(index & 0xffff);
                bytes.copy_from_slice(&payload(index));
            },
            |&(_, target), wire, reply| {
                let mut packet = Ipv4Packet::new(source, target, Protocol::Icmp, wire);
                packet.ident = self.config.ident;
                out.push(packet);
                reply_images.push(reply);
            },
        );
    }
}

/// The probe payload for a hitlist index: the magic tag, then the index.
fn payload(index: u64) -> [u8; PAYLOAD_LEN] {
    let mut bytes = [0; PAYLOAD_LEN];
    bytes[..4].copy_from_slice(PAYLOAD_MAGIC);
    bytes[4..].copy_from_slice(&index.to_be_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vp_hitlist::{Hitlist, HitlistConfig};
    use vp_topology::{Internet, TopologyConfig};

    impl Prober {
        /// Encodes the probe payload for a hitlist index.
        pub(crate) fn encode_payload(index: u64) -> Bytes {
            Bytes::copy_from_slice(&payload(index))
        }

        /// Materializes the probe packet for one hitlist index and its
        /// target: an ICMP Echo Request from `source` carrying the round ident
        /// and the index-tagged payload: the reference the batch encoder is
        /// tested against.
        pub(crate) fn build_probe(
            &self,
            index: u64,
            target: Ipv4Addr,
            source: Ipv4Addr,
        ) -> Ipv4Packet {
            let icmp = vp_packet::IcmpMessage::echo_request(
                self.config.ident,
                vp_net::conv::sat_u16(index & 0xffff),
                Self::encode_payload(index),
            );
            let mut packet = Ipv4Packet::new(source, target, Protocol::Icmp, icmp.emit());
            packet.ident = self.config.ident;
            packet
        }
    }

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
            .schedule(hl.len(), 0..hl.len(), SimTime::ZERO)
            .map(|(index, at)| {
                let target = hl.targets()[vp_hitlist::HitlistRow(vp_net::conv::sat_u32(index))];
                (index, at, prober.build_probe(index, target, source))
            })
            .collect()
    }

    #[test]
    fn schedule_covers_every_target_once() {
        let (_, hl) = hitlist();
        let prober = Prober::new(ProbeConfig::default());
        let schedule = prober.schedule(hl.len(), 0..hl.len(), SimTime::ZERO);
        assert_eq!(schedule.size_hint(), (hl.len(), Some(hl.len())));
        let probes = round(&prober, &hl);
        assert_eq!(probes.len(), hl.len());
        let indexes: BTreeSet<u64> = probes.iter().map(|p| p.0).collect();
        assert_eq!(indexes.len(), hl.len());
        for (index, _, packet) in &probes {
            assert_eq!(
                packet.dst,
                hl.targets()[vp_hitlist::HitlistRow(vp_net::conv::sat_u32(*index))]
            );
        }
    }

    /// When walk position `p` leaves at `rate`: `start + ⌈p·10⁹/rate⌉`.
    fn paced(start: SimTime, rate: u32, p: u64) -> SimTime {
        start + SimDuration((p * 1_000_000_000).div_ceil(u64::from(rate)))
    }

    #[test]
    fn schedule_is_paced_at_rate() {
        // Row r leaves at exactly the instant of its walk position,
        // start + ⌈invert(r)·10⁹/rate⌉ ns, and the send times of the whole
        // round are exactly those of positions 0..n — also at rates whose
        // period is no whole number of nanoseconds (6 000/s is the paper's
        // B-Root rate, §3.1).
        let (_, hl) = hitlist();
        let n = hl.len();
        let start = SimTime::ZERO + SimDuration::from_secs(900) + SimDuration(7);
        let perm = FeistelPermutation::new(n as u64, ProbeConfig::default().order_seed);
        for rate in [10_000u32, 1_000, 6_000, 7_777, 3] {
            let prober = Prober::new(ProbeConfig {
                rate_per_sec: NonZeroU32::new(rate).unwrap(),
                ..ProbeConfig::default()
            });
            let schedule: Vec<(u64, SimTime)> = prober.schedule(n, 0..n, start).collect();
            for (r, &(index, at)) in (0u64..).zip(&schedule) {
                assert_eq!(index, r, "rows come in row order");
                assert_eq!(at, paced(start, rate, perm.invert(r)), "row {r} at {rate}/s");
            }
            let mut sends: Vec<SimTime> = schedule.iter().map(|&(_, at)| at).collect();
            sends.sort();
            let walk: Vec<SimTime> = (0..n as u64).map(|p| paced(start, rate, p)).collect();
            assert_eq!(sends, walk, "send times at {rate}/s");
        }
    }

    #[test]
    fn order_is_permuted_not_sequential() {
        // Probes *leave* in walk order, which is no run of neighbouring
        // rows: sorted by send time, few consecutive probes target
        // consecutive rows.
        let (_, hl) = hitlist();
        let prober = Prober::new(ProbeConfig::default());
        let mut probes = round(&prober, &hl);
        probes.sort_by_key(|p| p.1);
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
        let probes: Vec<(u64, Ipv4Addr)> = prober
            .schedule(hl.len(), 0..hl.len(), SimTime::ZERO)
            .map(|(index, _)| (index, hl.targets()[vp_hitlist::HitlistRow(vp_net::conv::sat_u32(index))]))
            .collect();
        let mut batched = Vec::new();
        for chunk in probes.chunks(97) {
            let (mut out, mut images) = (Vec::new(), Vec::new());
            prober.build_probes_with_replies(chunk, source, &mut out, &mut images);
            batched.extend(out);
        }
        assert_eq!(batched.len(), probes.len());
        for (i, &(index, target)) in probes.iter().enumerate() {
            let single = prober.build_probe(index, target, source);
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
        let probes: Vec<(u64, Ipv4Addr)> =
            (0..).zip(hl.targets().iter().copied()).collect();
        for chunk in probes.chunks(113) {
            let mut packets = Vec::new();
            let mut images = Vec::new();
            prober.build_probes_with_replies(chunk, source, &mut packets, &mut images);
            assert_eq!(packets.len(), chunk.len());
            assert_eq!(images.len(), chunk.len());
            for (packet, image) in packets.iter().zip(&images) {
                let parsed = vp_packet::IcmpMessage::parse(&packet.payload).unwrap();
                let responder = parsed.reply().expect("probes are echo requests").emit();
                assert_eq!(&image[..], &responder[..]);
            }
        }
    }
}
