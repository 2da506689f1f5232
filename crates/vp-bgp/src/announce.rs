//! Anycast announcements: the same prefix originated from several sites.

use vp_net::{Asn, Ipv4Addr, Prefix};
use vp_topology::{PopId, SitePlacement, ANYCAST_REGION};

/// Identifier of an anycast site within one deployment (dense, small).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u8);
serde_json::impl_serialize! { SiteId(transparent) }

impl SiteId {
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// One anycast site: where the service announces from.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    pub id: SiteId,
    /// Paper-style tag ("LAX", "MIA", "CDG", ...).
    pub name: String,
    /// The AS hosting this site (the "Upstream" column of Table 3).
    pub host_asn: Asn,
    /// The PoP of the host AS where the service machines sit.
    pub pop: PopId,
    /// Times the origin prepends its own ASN (0 = no prepending).
    pub prepend: u8,
    /// Withdrawn sites stay in the table but do not announce.
    pub enabled: bool,
}

/// An anycast deployment: one prefix, many origins.
#[derive(Debug, Clone, PartialEq)]
pub struct Announcement {
    /// The service prefix (a /24, as anycast operators announce).
    pub prefix: Prefix,
    pub sites: Vec<Site>,
}

impl Announcement {
    /// Builds a deployment from placed sites, announcing the `n`-th /24 of
    /// the reserved anycast region.
    ///
    /// # Panics
    /// Panics on more than 250 sites or duplicate host ASes.
    #[expect(clippy::expect_used, reason = "/24 is always a valid prefix length.")]
    pub fn from_placements(placements: &[SitePlacement], region_slot: u8) -> Announcement {
        assert!(placements.len() <= 250, "too many sites");
        let mut sites = Vec::with_capacity(placements.len());
        for (i, p) in placements.iter().enumerate() {
            assert!(
                !sites.iter().any(|s: &Site| s.host_asn == p.host_asn),
                "duplicate host AS {} for site {}",
                p.host_asn,
                p.name
            );
            sites.push(Site {
                id: SiteId(i as u8),
                name: p.name.clone(),
                host_asn: p.host_asn,
                pop: p.pop,
                prepend: 0,
                enabled: true,
            });
        }
        let base = ANYCAST_REGION.0 + ((region_slot as u32) << 8);
        Announcement {
            prefix: Prefix::new(Ipv4Addr(base), 24).expect("static /24"),
            sites,
        }
    }

    /// The measurement source address used by the prober (first host in the
    /// service prefix, which is inside the anycast /24 as §3.1 requires).
    pub fn measurement_addr(&self) -> Ipv4Addr {
        Ipv4Addr(self.prefix.addr().0 | 1)
    }

    /// The enabled sites.
    pub fn active_sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter().filter(|s| s.enabled)
    }

    /// Looks a site up by name.
    pub fn site_by_name(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Sets the prepend count for a named site. Panics on unknown name.
    #[expect(
        clippy::panic,
        reason = "documented contract — scenario builders address sites by the fixed testbed names, and a typo must fail loudly, not route silently."
    )]
    pub fn set_prepend(&mut self, name: &str, prepend: u8) -> &mut Self {
        let site = self
            .sites
            .iter_mut()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no site named {name:?}"));
        site.prepend = prepend;
        self
    }

    /// Enables/disables a named site. Panics on unknown name.
    #[expect(
        clippy::panic,
        reason = "documented contract — scenario builders address sites by the fixed testbed names, and a typo must fail loudly, not route silently."
    )]
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> &mut Self {
        let site = self
            .sites
            .iter_mut()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no site named {name:?}"));
        site.enabled = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_topology::{pick_host_ases, tangled_specs, Internet, TopologyConfig};

    fn deployment() -> Announcement {
        let world = Internet::generate(TopologyConfig::tiny(31));
        let placements = pick_host_ases(&world, &tangled_specs());
        Announcement::from_placements(&placements, 0)
    }

    #[test]
    fn prefix_is_in_reserved_region() {
        let a = deployment();
        assert_eq!(a.prefix.prefix_len(), 24);
        assert!(a.prefix.addr().0 >= ANYCAST_REGION.0);
        assert!(a.prefix.contains(a.measurement_addr()));
    }

    #[test]
    fn sites_have_dense_ids_and_names() {
        let a = deployment();
        for (i, s) in a.sites.iter().enumerate() {
            assert_eq!(s.id, SiteId(i as u8));
            assert!(s.enabled);
            assert_eq!(s.prepend, 0);
        }
        assert!(a.site_by_name("SYD").is_some());
        assert!(a.site_by_name("XXX").is_none());
    }

    #[test]
    fn prepend_and_enable_toggles() {
        let mut a = deployment();
        a.set_prepend("MIA", 3).set_enabled("HND", false);
        assert_eq!(a.site_by_name("MIA").unwrap().prepend, 3);
        assert!(!a.site_by_name("HND").unwrap().enabled);
        assert_eq!(a.active_sites().count(), a.sites.len() - 1);
        a.set_prepend("MIA", 0);
        assert_eq!(a.site_by_name("MIA").unwrap().prepend, 0);
        // enablement survives clearing prepends
        assert!(!a.site_by_name("HND").unwrap().enabled);
    }

    #[test]
    fn distinct_slots_give_distinct_prefixes() {
        let world = Internet::generate(TopologyConfig::tiny(32));
        let placements = pick_host_ases(&world, &[("A", "US"), ("B", "DE")]);
        let a = Announcement::from_placements(&placements, 0);
        let b = Announcement::from_placements(&placements, 1);
        assert_ne!(a.prefix, b.prefix);
    }

    #[test]
    #[should_panic(expected = "no site named")]
    fn unknown_site_name_panics() {
        deployment().set_prepend("NOPE", 1);
    }
}
