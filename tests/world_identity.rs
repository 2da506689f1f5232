//! World identity: `Internet::generate` is pinned byte for byte on worlds
//! larger than the `results/` goldens cover.
//!
//! The golden tree is built on the default 3 000-AS world (448 transit
//! ASes). These two worlds have 8 000 ASes, ~1 200 of them transit, so
//! the transit peer mesh, the provider-over-peer dedup and the session
//! PoP anchoring all run at a density the goldens never reach.

use verfploeter_suite::topology::{AsTier, Internet, TopologyConfig};

/// 64-bit FNV-1a, spelled out so the pin depends on nothing it checks.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Every relation list, PoP, session anchor and block row of two seeds,
/// hashed whole. The constants were recorded before the AS graph's
/// materialize step was rewritten for speed; a session anchored at a
/// different PoP pair, a relation in a different order or a moved RNG
/// draw changes them.
#[test]
fn generated_worlds_are_pinned_byte_for_byte() {
    for (seed, want) in [(1, 0x1fdc_dbdf_4caa_e940_u64), (2, 0xe94e_ffe2_18d9_fc45)] {
        let w = Internet::generate(TopologyConfig {
            seed,
            num_ases: 8_000,
            max_blocks: 200_000,
            ..TopologyConfig::default()
        });
        let g = &w.graph;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for node in g.ases.iter() {
            let tier = match node.tier {
                AsTier::Tier1 => 1,
                AsTier::Transit => 2,
                AsTier::Stub => 3,
            };
            h.u32(tier);
            h.u32(u32::from(node.country.0));
            for list in [&node.providers, &node.customers, &node.peers] {
                h.u32(list.len() as u32);
                list.iter().for_each(|a| h.u32(a.0));
            }
            node.pops.iter().for_each(|p| h.u32(p.0));
            for n in g.neighbors(node.asn) {
                h.u32(g.session_pop(node.asn, n).map_or(u32::MAX, |p| p.0));
            }
        }
        for pop in g.pops.iter() {
            h.u32(pop.asn.0);
            h.u32(u32::from(pop.country.0));
            h.f64(pop.lat);
            h.f64(pop.lon);
        }
        for (row, b) in w.blocks.iter().enumerate() {
            h.u32(b.block.0);
            h.u32(b.origin.0);
            h.u32(w.prefix_idx(b));
            h.u32(b.pop.0);
            h.bytes(&[
                u8::from(b.responsive),
                u8::from(b.sends_queries),
                b.rep_octet,
            ]);
            h.f64(b.daily_queries);
            let (lat, lon) = w.geodb.coords_of_row(row).unwrap();
            h.f64(lat);
            h.f64(lon);
        }
        assert_eq!(h.0, want, "seed {seed}: {:#018x}", h.0);
    }
}
