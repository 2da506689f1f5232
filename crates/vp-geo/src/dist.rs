//! Great-circle distance, used for PoP placement and hot-potato IGP costs.

const EARTH_RADIUS_KM: f64 = 6371.0;

/// The most [`distance_km`] returns — half the circumference, antipode to
/// antipode. (Out-of-range coordinates can push the haversine term past
/// one; the distance is then NaN, not a larger number.)
pub const MAX_DISTANCE_KM: f64 = 2.0 * EARTH_RADIUS_KM * std::f64::consts::FRAC_PI_2;

/// Approximate great-circle distance between two coordinates, in km
/// (haversine on a spherical Earth of radius 6371 km).
pub fn distance_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (la1, lo1, la2, lo2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance() {
        assert!(distance_km(52.0, 5.0, 52.0, 5.0) < 1e-9);
    }

    #[test]
    fn known_distance_ams_lax() {
        // Amsterdam (52.3, 4.9) to Los Angeles (34.05, -118.25) ≈ 8960 km.
        let d = distance_km(52.3, 4.9, 34.05, -118.25);
        assert!((8800.0..9200.0).contains(&d), "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = distance_km(10.0, 20.0, -30.0, 140.0);
        let b = distance_km(-30.0, 140.0, 10.0, 20.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let d = distance_km(0.0, 0.0, 0.0, 180.0);
        assert!((d - 6371.0 * std::f64::consts::PI).abs() < 1.0);
        assert!(d <= MAX_DISTANCE_KM && MAX_DISTANCE_KM - d < 1.0);
    }
}
