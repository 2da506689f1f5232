//! Output digests: FNV-1a over a round's results, so that two commits (or
//! two rounds) compare exactly. A simulator speed-up must leave every
//! simulated statistic identical; the digest is how that is checked.

use verfploeter::scan::ScanResult;
use verfploeter::CatchmentMap;
use vp_monitor::stream::DriftTracker;

/// 64-bit FNV-1a. Order-sensitive by construction: swapping two inputs
/// changes the digest, so a reordered table is a different output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Fnv {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a catchment map: its length, then every (block, site) pair in
/// the map's own iteration order.
pub fn catchment_digest(map: &CatchmentMap) -> u64 {
    map.iter()
        .fold(Fnv::new().u64(map.len() as u64), |h, (block, site)| {
            h.u64(u64::from(block.0)).u64(u64::from(site.0))
        })
        .finish()
}

/// Digest of everything a scan round reports from simulated time:
/// catchment pairs, RTT pairs, cleaning counters and simulator counters.
pub fn scan_digest(r: &ScanResult) -> u64 {
    let mut h = Fnv::new().u64(catchment_digest(&r.catchments));
    h = h.u64(r.rtts.len() as u64);
    for (block, rtt) in r.rtts.iter() {
        h = h.u64(u64::from(block.0)).u64(rtt.as_nanos());
    }
    let c = &r.cleaning;
    for x in [
        c.total,
        c.duplicates,
        c.foreign,
        c.unprobed_source,
        c.late,
        c.kept,
    ] {
        h = h.u64(x);
    }
    let s = &r.sim_stats;
    for x in [
        s.injected,
        s.delivered_to_hosts,
        s.delivered_to_sites,
        s.lost,
        s.replies,
        s.duplicates,
        s.aliases,
        s.unsolicited,
        s.undeliverable,
    ] {
        h = h.u64(x);
    }
    for x in &s.per_site_captures {
        h = h.u64(*x);
    }
    h.u64(r.probes_sent).u64(r.last_probe.as_nanos()).finish()
}

/// Digest of a tracker's drift and alert documents, byte for byte as they
/// would be published under `source`.
pub fn docs_digest(tracker: &DriftTracker, source: &str) -> u64 {
    [tracker.drift_doc(source), tracker.alert_doc(source)]
        .iter()
        .fold(Fnv::new(), |h, doc| {
            let text = serde_json::to_string_pretty(doc).expect("serialize a document");
            h.bytes(text.as_bytes())
        })
        .finish()
}

pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let ab = Fnv::new().u64(1).u64(2).finish();
        let ba = Fnv::new().u64(2).u64(1).finish();
        assert_ne!(ab, ba);
        assert_eq!(ab, Fnv::new().u64(1).u64(2).finish());
        // Known FNV-1a vector: "a" → af63dc4c8601ec8c.
        assert_eq!(hex(Fnv::new().bytes(b"a").finish()), "af63dc4c8601ec8c");
    }
}
