//! A reference delivery simulator that shares no code with
//! `vp_sim::engine`: a binary heap of events ordered by `(at, id)` and a
//! `step` loop, the textbook discrete-event shape. It reads the world, the
//! announcement and the oracle directly — every anycast route asks
//! `site_of_pop(pop, epoch(at))`, with no route column, staging, row
//! hints or resolve-at-transmission — and draws every stochastic outcome
//! through `vp_sim::draws`, the public spec of a run. What it computes is
//! what a `NetworkSim::run_with` over the same source must show.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bytes::Bytes;
use vp_bgp::{Announcement, SiteId};
use vp_net::{mix, unit, Ipv4Addr, SimTime};
use vp_packet::{DnsMessage, IcmpMessage, Ipv4Packet, Protocol, UdpDatagram};
use vp_sim::draws::{
    event_key, packet_key, payload_fnv, TAG_ALIAS, TAG_ALIAS_OCTET, TAG_CHURN, TAG_DUPLICATE,
    TAG_DUPLICATE_COUNT, TAG_JITTER, TAG_LATE, TAG_LOSS, TAG_UNSOLICITED, TAG_UNSOLICITED_PICK,
};
use vp_sim::{CatchmentOracle, FaultConfig, LatencyModel, Scenario};
use vp_topology::BlockInfo;
use vp_topology::Internet;

/// Latitude and longitude.
type Coords = (f64, f64);

/// Where a packet is delivered.
enum Dest {
    Site(SiteId),
    /// The host of the block in this row of the world's table.
    Host(usize),
}

enum Event {
    /// `packet` leaves its sender. `copy` tells a reply's duplicate copies
    /// apart; a `probe` (from the source, not generated) may set off
    /// backscatter.
    Send { packet: Ipv4Packet, copy: u32, probe: bool },
    /// `packet`, whose content hashes to `pk` and whose transmission is
    /// keyed `key`, reaches `dest`.
    Arrive { packet: Ipv4Packet, pk: u64, key: u64, dest: Dest },
}

struct Entry {
    at: SimTime,
    id: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    /// Reversed, so the max-heap pops the least `(at, id)`.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The counters a run keeps, field for field those of `SimStats`.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub injected: u64,
    pub delivered_to_hosts: u64,
    pub delivered_to_sites: u64,
    pub lost: u64,
    pub replies: u64,
    pub duplicates: u64,
    pub aliases: u64,
    pub unsolicited: u64,
    pub undeliverable: u64,
    pub per_site_captures: Vec<u64>,
}

/// Everything a run shows an observer, each list sorted.
#[derive(Debug, Default)]
pub(crate) struct Seen {
    /// Site captures: arrival instant, transmission key, site, packet.
    pub captures: Vec<(SimTime, u64, SiteId, Ipv4Packet)>,
    /// Packets handed to a host's application.
    pub handoffs: Vec<(SimTime, u64, Ipv4Packet)>,
    pub counters: Counters,
    /// Every arrival's instant: at a site or a host, answered or not.
    pub arrivals: Vec<SimTime>,
    /// Undeliverable packets, as sent: transmission instant in
    /// nanoseconds, and the destination.
    pub undeliverable: Vec<(u64, Ipv4Addr)>,
}

pub(crate) struct Reference<'a> {
    world: &'a Internet,
    ann: &'a Announcement,
    oracle: &'a dyn CatchmentOracle,
    faults: FaultConfig,
    seed: u64,
    serve_dns: bool,
    latency: LatencyModel,
    clock: SimTime,
    events: BinaryHeap<Entry>,
    next_id: u64,
    seen: Seen,
}

impl<'a> Reference<'a> {
    /// A simulator of `s`'s world and service, whose catchments `oracle`
    /// answers; `seed` keys the draws, `serve_dns` makes sites answer.
    pub(crate) fn new(
        s: &'a Scenario,
        oracle: &'a dyn CatchmentOracle,
        faults: FaultConfig,
        seed: u64,
        serve_dns: bool,
    ) -> Self {
        Reference {
            world: &s.world,
            ann: &s.announcement,
            oracle,
            faults,
            seed,
            serve_dns,
            latency: LatencyModel::default(),
            clock: SimTime::ZERO,
            events: BinaryHeap::new(),
            next_id: 0,
            seen: Seen::default(),
        }
    }

    /// Sends every `(at, packet)` of `source` and steps until nothing is
    /// left to happen.
    pub(crate) fn run(mut self, source: impl IntoIterator<Item = (SimTime, Ipv4Packet)>) -> Seen {
        for (at, packet) in source {
            self.seen.counters.injected += 1;
            self.schedule(at, Event::Send { packet, copy: 0, probe: true });
        }
        while self.step() {}
        let mut seen = self.seen;
        seen.captures.sort_by_cached_key(|(at, key, site, p)| (*at, *key, site.0, p.emit()));
        seen.handoffs.sort_by_cached_key(|(at, key, p)| (*at, *key, p.emit()));
        seen.arrivals.sort();
        seen
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.events.push(Entry { at, id: self.next_id, event });
        self.next_id += 1;
    }

    /// Handles the earliest pending event; `false` once there is none.
    fn step(&mut self) -> bool {
        let Some(Entry { at, event, .. }) = self.events.pop() else {
            return false;
        };
        assert!(at >= self.clock, "event at {at} before the clock at {}", self.clock);
        self.clock = at;
        match event {
            Event::Send { packet, copy, probe } => self.send(at, packet, copy, probe),
            Event::Arrive { packet, pk, key, dest } => self.arrive(at, packet, pk, key, dest),
        }
        true
    }

    fn draw(&self, tag: u64, key: u64) -> f64 {
        unit(mix(self.seed ^ tag, key))
    }

    fn send(&mut self, at: SimTime, packet: Ipv4Packet, copy: u32, probe: bool) {
        let pk = packet_key(&packet, payload_fnv(&packet.payload));
        let key = event_key(pk, at, copy);
        let f = &self.faults;
        if f.loss > 0.0 && self.draw(TAG_LOSS, key) < f.loss {
            self.seen.counters.lost += 1;
            return;
        }
        let from_service = self.ann.prefix.contains(packet.src);
        if probe && from_service && f.unsolicited_prob > 0.0 && self.draw(TAG_UNSOLICITED, key) < f.unsolicited_prob {
            self.backscatter(at, packet.src, key);
        }
        let Some((dest, from, to)) = self.place(&packet, at) else {
            self.seen.counters.undeliverable += 1;
            self.seen.undeliverable.push((at.as_nanos(), packet.dst));
            return;
        };
        let arrives = at + self.latency.delay(from, to, mix(self.seed ^ TAG_JITTER, key));
        self.schedule(arrives, Event::Arrive { packet, pk, key, dest });
    }

    /// Where `packet`, sent at `at`, is delivered, and the coordinates it
    /// leaves from and arrives at; `None` if it has nowhere to go.
    fn place(&self, packet: &Ipv4Packet, at: SimTime) -> Option<(Dest, Coords, Coords)> {
        let dest = if self.ann.prefix.contains(packet.dst) {
            // Anycast: the sender's block's catchment in this epoch.
            if self.ann.prefix.contains(packet.src) {
                return None;
            }
            let sender = self.row_of(packet.src)?;
            let pop = self.world.blocks[sender].pop;
            Dest::Site(self.oracle.site_of_pop(pop, self.oracle.epoch(at))?)
        } else {
            // Unicast: only a block's representative address is a host.
            let row = self.row_of(packet.dst)?;
            if self.world.blocks[row].representative() != packet.dst {
                return None;
            }
            Dest::Host(row)
        };
        let to = match dest {
            Dest::Site(site) => self.site_coords(site)?,
            Dest::Host(row) => self.row_coords(row),
        };
        // The service sends from its first site; an address in no block
        // from the origin of the coordinates.
        let from = if self.ann.prefix.contains(packet.src) {
            self.site_coords(SiteId(0))?
        } else {
            self.row_of(packet.src).map_or((0.0, 0.0), |row| self.row_coords(row))
        };
        Some((dest, from, to))
    }

    fn row_of(&self, addr: Ipv4Addr) -> Option<usize> {
        self.world.block_id(addr.block()).map(|row| row as usize)
    }

    fn row_coords(&self, row: usize) -> Coords {
        self.world.geodb.coords_of_row(row).unwrap_or_default()
    }

    fn site_coords(&self, site: SiteId) -> Option<Coords> {
        let pop = self.world.graph.pops.lookup(self.ann.sites.get(site.index())?.pop)?;
        Some((pop.lat, pop.lon))
    }

    /// A block picked by the triggering transmission `trigger` sends an
    /// Echo Reply nobody asked for to `toward`.
    fn backscatter(&mut self, at: SimTime, toward: Ipv4Addr, trigger: u64) {
        let h = mix(self.seed ^ TAG_UNSOLICITED_PICK, trigger);
        let Some(pick) = h.checked_rem(self.world.blocks.len() as u64) else {
            return;
        };
        let from = self.world.blocks[pick as usize].representative();
        self.seen.counters.unsolicited += 1;
        let reply = IcmpMessage::EchoReply {
            ident: (mix(h, 1) & 0xffff) as u16,
            seq: (mix(h, 2) & 0xffff) as u16,
            payload: Bytes::new(),
        };
        let packet = Ipv4Packet::new(from, toward, Protocol::Icmp, reply.emit());
        self.schedule(at, Event::Send { packet, copy: 0, probe: false });
    }

    fn arrive(&mut self, at: SimTime, packet: Ipv4Packet, pk: u64, key: u64, dest: Dest) {
        self.seen.arrivals.push(at);
        match dest {
            Dest::Site(site) => {
                let c = &mut self.seen.counters;
                c.delivered_to_sites += 1;
                if c.per_site_captures.len() <= site.index() {
                    c.per_site_captures.resize(site.index() + 1, 0);
                }
                c.per_site_captures[site.index()] += 1;
                if self.serve_dns {
                    if let Some(answer) = self.site_answer(site, &packet) {
                        self.schedule(at, Event::Send { packet: answer, copy: 0, probe: false });
                    }
                }
                self.seen.captures.push((at, key, site, packet));
            }
            Dest::Host(row) => {
                self.seen.counters.delivered_to_hosts += 1;
                let icmp = (packet.protocol == Protocol::Icmp).then(|| IcmpMessage::parse(&packet.payload));
                match icmp {
                    Some(Ok(request @ IcmpMessage::EchoRequest { .. })) => self.respond(row, at, pk, &packet, &request),
                    _ => self.seen.handoffs.push((at, key, packet)),
                }
            }
        }
    }

    /// What a serving site sends back for `packet`: an Echo Reply to a
    /// ping, the site's name to a `hostname.bind` query.
    fn site_answer(&self, site: SiteId, packet: &Ipv4Packet) -> Option<Ipv4Packet> {
        let payload = match packet.protocol {
            Protocol::Icmp => IcmpMessage::parse(&packet.payload).ok()?.reply()?.emit(),
            Protocol::Udp => {
                let udp = UdpDatagram::parse(&packet.payload, packet.src, packet.dst).ok()?;
                if udp.dst_port != 53 {
                    return None;
                }
                let query = DnsMessage::parse(&udp.payload).ok()?;
                let name = format!("{}.svc0.example", self.ann.sites.get(site.index())?.name.to_ascii_lowercase());
                let response = DnsMessage::hostname_bind_response(&query, &name).emit();
                UdpDatagram::new(udp.dst_port, udp.src_port, response).emit(packet.dst, packet.src)
            }
            Protocol::Other(_) => return None,
        };
        Some(Ipv4Packet::new(packet.dst, packet.src, packet.protocol, payload))
    }

    /// Whether `b` answers at `at`: responsive, and not down for the
    /// churn round `at` falls in.
    fn up(&self, b: &BlockInfo, at: SimTime) -> bool {
        let f = &self.faults;
        let round = at.as_nanos() / f.churn_round.as_nanos();
        b.responsive
            && (f.churn_down_prob <= 0.0
                || self.draw(TAG_CHURN, (b.block.0 as u64) << 24 | round) >= f.churn_down_prob)
    }

    /// The host of block `row` answers `request`, which reached it at
    /// `at`: from its own address or an alias, on time or late, once or
    /// with duplicate copies — each decided by the reception's key.
    fn respond(&mut self, row: usize, at: SimTime, pk: u64, packet: &Ipv4Packet, request: &IcmpMessage) {
        let b = &self.world.blocks[row];
        if !self.up(b, at) {
            return;
        }
        let Some(reply) = request.reply() else {
            return;
        };
        let hk = event_key(pk, at, 0);
        let f = &self.faults;
        let host = b.representative();
        let src = if f.alias_prob > 0.0 && self.draw(TAG_ALIAS, hk) < f.alias_prob {
            self.seen.counters.aliases += 1;
            let octet = 1 + (mix(self.seed ^ TAG_ALIAS_OCTET, hk) % 254) as u8;
            let octet = if b.block.addr(octet) == host { octet.wrapping_add(1).max(1) } else { octet };
            b.block.addr(octet)
        } else {
            host
        };
        let late = f.late_prob > 0.0 && self.draw(TAG_LATE, hk) < f.late_prob;
        let when = if late { at + f.late_delay } else { at };
        let copies = if f.duplicate_prob > 0.0 && self.draw(TAG_DUPLICATE, hk) < f.duplicate_prob {
            let u = self.draw(TAG_DUPLICATE_COUNT, hk).max(1e-6);
            (u.powf(-0.7) as u32).clamp(1, f.max_duplicates)
        } else {
            0
        };
        self.seen.counters.replies += 1;
        self.seen.counters.duplicates += u64::from(copies);
        let out = Ipv4Packet::new(src, packet.src, Protocol::Icmp, reply.emit());
        for copy in 0..=copies {
            self.schedule(when, Event::Send { packet: out.clone(), copy, probe: false });
        }
    }
}
