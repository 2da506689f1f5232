//! The synthetic world: countries, continents and their weights.
//!
//! Weights are coarse, hand-set approximations of 2017 conditions chosen to
//! reproduce the paper's qualitative geography:
//!
//! * `user_weight` — relative share of the world's responsive /24 blocks
//!   (roughly proportional to internet users; China/US/EU heavy, with the
//!   long tail compressed into representative countries).
//! * `atlas_weight` — relative share of RIPE Atlas probes. Deliberately and
//!   heavily Europe-skewed ("Atlas' deployment is by far heavier in Europe
//!   than in other parts of the globe", §5.4), and nearly zero in China —
//!   the paper notes Atlas is "almost absent in China" (§5.1).
//! * `resolver_concentration` — how strongly DNS load from this country is
//!   funneled through few resolver blocks (§5.4 observes load concentrates
//!   in hotspots; India's NAT-heavy deployment is the extreme case).

use rand::Rng;

/// Continent grouping used in reports. `Ord` follows declaration order so
/// continents can key ordered maps in report code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    Europe,
    NorthAmerica,
    SouthAmerica,
    Asia,
    Africa,
    Oceania,
}

impl Continent {
    /// Short tag used in table output.
    pub const fn tag(self) -> &'static str {
        match self {
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::SouthAmerica => "SA",
            Continent::Asia => "AS",
            Continent::Africa => "AF",
            Continent::Oceania => "OC",
        }
    }
}

/// Index into [`countries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryId(pub u16);

impl CountryId {
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The country record for this id.
    #[expect(
        clippy::indexing_slicing,
        reason = "CountryId values are minted from COUNTRIES positions by the generator, so the table lookup is in bounds by construction."
    )]
    pub fn get(self) -> &'static Country {
        &COUNTRIES[self.index()]
    }
}

/// A country in the synthetic world.
#[derive(Debug, Clone)]
pub struct Country {
    /// ISO-ish two letter code.
    pub code: &'static str,
    pub name: &'static str,
    pub continent: Continent,
    /// Center of the country's populated area.
    pub lat: f64,
    pub lon: f64,
    /// Half-extent of the populated area, degrees.
    pub lat_spread: f64,
    pub lon_spread: f64,
    /// Relative share of responsive /24 blocks.
    pub user_weight: f64,
    /// Relative share of RIPE Atlas probes.
    pub atlas_weight: f64,
    /// 0..1; higher = DNS load funneled through fewer blocks.
    pub resolver_concentration: f64,
}

impl Country {
    /// Samples a coordinate inside the country's populated extent.
    pub fn sample_location<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let lat = self.lat + rng.gen_range(-self.lat_spread..=self.lat_spread);
        let lon = self.lon + rng.gen_range(-self.lon_spread..=self.lon_spread);
        (lat.clamp(-89.9, 89.9), wrap_lon(lon))
    }
}

fn wrap_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

macro_rules! country {
    ($code:literal, $name:literal, $cont:ident, $lat:literal, $lon:literal,
     $lat_s:literal, $lon_s:literal, $users:literal, $atlas:literal, $conc:literal) => {
        Country {
            code: $code,
            name: $name,
            continent: Continent::$cont,
            lat: $lat,
            lon: $lon,
            lat_spread: $lat_s,
            lon_spread: $lon_s,
            user_weight: $users,
            atlas_weight: $atlas,
            resolver_concentration: $conc,
        }
    };
}

/// The country table. Order is stable; [`CountryId`] indexes into it.
/// One country per line: rustfmt would stack the long rows' fields.
#[rustfmt::skip]
static COUNTRIES: &[Country] = &[
    // -- Europe: modest user share, enormous Atlas share --
    country!("NL", "Netherlands", Europe, 52.2, 5.3, 1.2, 2.2, 1.6, 14.0, 0.5),
    country!("DE", "Germany", Europe, 51.0, 10.0, 2.8, 4.0, 6.0, 16.0, 0.5),
    country!("FR", "France", Europe, 46.6, 2.4, 3.5, 4.0, 4.5, 10.0, 0.5),
    country!("GB", "United Kingdom", Europe, 53.0, -1.5, 3.0, 2.5, 5.0, 10.0, 0.5),
    country!("ES", "Spain", Europe, 40.0, -3.5, 3.0, 4.5, 3.0, 4.0, 0.5),
    country!("IT", "Italy", Europe, 42.8, 12.5, 3.5, 3.5, 3.5, 4.5, 0.5),
    country!("PL", "Poland", Europe, 52.0, 19.0, 2.5, 4.0, 2.5, 3.0, 0.5),
    country!("SE", "Sweden", Europe, 59.3, 15.0, 3.5, 3.0, 1.2, 3.5, 0.5),
    country!("CZ", "Czechia", Europe, 49.8, 15.5, 1.2, 3.0, 1.0, 3.0, 0.5),
    country!("RO", "Romania", Europe, 45.9, 25.0, 2.0, 3.5, 1.4, 2.0, 0.5),
    country!("DK", "Denmark", Europe, 55.9, 10.0, 1.2, 2.2, 0.8, 2.2, 0.5),
    country!("UA", "Ukraine", Europe, 49.0, 32.0, 3.0, 5.5, 1.8, 1.5, 0.5),
    country!("RU", "Russia", Europe, 55.7, 44.0, 5.0, 18.0, 6.5, 2.5, 0.55),
    country!("TR", "Turkey", Europe, 39.5, 33.0, 2.5, 7.0, 2.8, 0.8, 0.6),
    // -- North America: large user share, reasonable Atlas --
    country!("US", "United States", NorthAmerica, 39.5, -97.5, 8.0, 22.0, 14.0, 9.0, 0.5),
    country!("CA", "Canada", NorthAmerica, 47.5, -92.0, 4.5, 22.0, 2.0, 1.6, 0.5),
    country!("MX", "Mexico", NorthAmerica, 23.5, -102.0, 5.5, 7.0, 2.4, 0.3, 0.6),
    // -- South America: sparse Atlas, AMPATH-connected east coast --
    country!("BR", "Brazil", SouthAmerica, -14.0, -51.0, 12.0, 10.0, 4.5, 0.7, 0.6),
    country!("AR", "Argentina", SouthAmerica, -34.5, -64.0, 8.0, 5.0, 1.5, 0.3, 0.6),
    country!("CL", "Chile", SouthAmerica, -33.0, -70.8, 10.0, 1.2, 0.8, 0.2, 0.6),
    country!("PE", "Peru", SouthAmerica, -9.5, -75.5, 5.5, 3.5, 0.7, 0.1, 0.6),
    country!("CO", "Colombia", SouthAmerica, 4.5, -73.5, 4.5, 4.0, 1.0, 0.15, 0.6),
    country!("VE", "Venezuela", SouthAmerica, 8.0, -66.0, 3.0, 4.5, 0.6, 0.05, 0.6),
    // -- Asia: huge user share, Atlas nearly absent in China/Korea --
    country!("CN", "China", Asia, 33.0, 108.0, 9.0, 15.0, 16.0, 0.15, 0.7),
    country!("KR", "South Korea", Asia, 36.5, 127.8, 1.8, 1.8, 3.0, 0.25, 0.8),
    country!("JP", "Japan", Asia, 36.0, 138.5, 4.5, 5.0, 4.5, 1.2, 0.6),
    country!("IN", "India", Asia, 21.5, 79.0, 9.0, 9.0, 7.0, 0.7, 0.85),
    country!("ID", "Indonesia", Asia, -3.0, 113.0, 4.5, 14.0, 2.8, 0.5, 0.7),
    country!("TH", "Thailand", Asia, 15.5, 101.0, 4.5, 3.0, 1.6, 0.2, 0.7),
    country!("VN", "Vietnam", Asia, 16.5, 106.5, 6.5, 2.0, 1.8, 0.15, 0.7),
    country!("SG", "Singapore", Asia, 1.35, 103.8, 0.25, 0.25, 0.6, 0.8, 0.5),
    country!("SA", "Saudi Arabia", Asia, 24.0, 45.0, 5.0, 7.0, 1.2, 0.15, 0.65),
    country!("AE", "UAE", Asia, 24.2, 54.5, 1.2, 2.0, 0.7, 0.3, 0.6),
    country!("IR", "Iran", Asia, 32.5, 53.5, 5.0, 7.0, 1.8, 0.25, 0.7),
    country!("PK", "Pakistan", Asia, 30.0, 70.0, 5.0, 5.0, 1.4, 0.1, 0.75),
    country!("BD", "Bangladesh", Asia, 23.8, 90.3, 2.2, 2.2, 1.0, 0.08, 0.75),
    country!("PH", "Philippines", Asia, 12.5, 122.0, 5.5, 4.0, 1.4, 0.15, 0.7),
    // -- Africa --
    country!("EG", "Egypt", Africa, 28.0, 30.5, 4.0, 4.0, 1.6, 0.15, 0.7),
    country!("ZA", "South Africa", Africa, -29.0, 25.0, 4.0, 5.5, 1.0, 0.5, 0.6),
    country!("NG", "Nigeria", Africa, 9.0, 8.0, 4.0, 4.5, 1.4, 0.1, 0.7),
    country!("KE", "Kenya", Africa, 0.3, 37.5, 2.5, 3.0, 0.6, 0.12, 0.7),
    country!("MA", "Morocco", Africa, 32.0, -6.5, 3.0, 3.5, 0.6, 0.1, 0.7),
    // -- Oceania --
    country!("AU", "Australia", Oceania, -28.0, 140.0, 8.0, 14.0, 1.6, 1.4, 0.5),
    country!("NZ", "New Zealand", Oceania, -41.5, 173.5, 4.0, 3.5, 0.4, 0.4, 0.5),
];

/// The full country table.
pub fn countries() -> &'static [Country] {
    COUNTRIES
}

/// Looks a country up by code.
pub fn country_by_code(code: &str) -> Option<(CountryId, &'static Country)> {
    COUNTRIES
        .iter()
        .enumerate()
        .find(|(_, c)| c.code == code)
        .map(|(i, c)| (CountryId(i as u16), c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table_is_nontrivial_and_indexed() {
        assert!(countries().len() >= 40);
        let (id, c) = country_by_code("NL").unwrap();
        assert_eq!(c.name, "Netherlands");
        assert_eq!(id.get().code, "NL");
        assert!(country_by_code("XX").is_none());
    }

    #[test]
    fn atlas_skew_is_european() {
        // The documented Atlas bias: Europe's share of Atlas weight must be
        // much higher than its share of user weight.
        let total_users: f64 = countries().iter().map(|c| c.user_weight).sum();
        let total_atlas: f64 = countries().iter().map(|c| c.atlas_weight).sum();
        let eu_users: f64 = countries()
            .iter()
            .filter(|c| c.continent == Continent::Europe)
            .map(|c| c.user_weight)
            .sum();
        let eu_atlas: f64 = countries()
            .iter()
            .filter(|c| c.continent == Continent::Europe)
            .map(|c| c.atlas_weight)
            .sum();
        let user_share = eu_users / total_users;
        let atlas_share = eu_atlas / total_atlas;
        assert!(
            atlas_share > 1.8 * user_share,
            "atlas EU share {atlas_share:.2} vs user share {user_share:.2}"
        );
        assert!(atlas_share > 0.55, "Atlas should be mostly European");
    }

    #[test]
    fn china_has_users_but_no_atlas() {
        let (_, cn) = country_by_code("CN").unwrap();
        let total_users: f64 = countries().iter().map(|c| c.user_weight).sum();
        let total_atlas: f64 = countries().iter().map(|c| c.atlas_weight).sum();
        assert!(cn.user_weight / total_users > 0.10);
        assert!(cn.atlas_weight / total_atlas < 0.01);
    }

    #[test]
    fn sampled_locations_are_valid_and_near_center() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for c in countries() {
            for _ in 0..50 {
                let (lat, lon) = c.sample_location(&mut rng);
                assert!((-90.0..=90.0).contains(&lat), "{}: lat {lat}", c.code);
                assert!((-180.0..=180.0).contains(&lon), "{}: lon {lon}", c.code);
                assert!((lat - c.lat).abs() <= c.lat_spread + 1e-9);
            }
        }
    }

    #[test]
    fn continent_tags_unique_per_variant() {
        let tags = [
            Continent::Europe.tag(),
            Continent::NorthAmerica.tag(),
            Continent::SouthAmerica.tag(),
            Continent::Asia.tag(),
            Continent::Africa.tag(),
            Continent::Oceania.tag(),
        ];
        let set: std::collections::BTreeSet<_> = tags.iter().collect();
        assert_eq!(set.len(), tags.len());
    }

    #[test]
    fn wrap_lon_wraps() {
        assert_eq!(super::wrap_lon(190.0), -170.0);
        assert_eq!(super::wrap_lon(-190.0), 170.0);
        assert_eq!(super::wrap_lon(45.0), 45.0);
    }
}
