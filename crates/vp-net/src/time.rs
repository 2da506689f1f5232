//! Simulated time.
//!
//! The whole reproduction runs against a discrete-event clock, not the wall
//! clock, so measurements are deterministic and a "24 hour" stability study
//! (Fig. 9) completes in seconds. Time is kept in nanoseconds in a `u64`,
//! which spans ~584 years of simulation — comfortably more than a DITL day.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration on the simulated clock, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    pub const fn from_mins(m: u64) -> Self {
        SimDuration::from_secs(m * 60)
    }
    pub const fn from_hours(h: u64) -> Self {
        SimDuration::from_secs(h * 3600)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// A duration from fractional seconds, saturating at the representable
    /// maximum and flooring negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Scalar multiplication, saturating.
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant on the simulated clock (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, zero if `earlier` is in the future.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
    }

    #[test]
    fn from_secs_f64_edges() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(f64::MAX).0, u64::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(t.as_secs(), 10);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_secs(10));
        // saturating: earlier.since(later) == 0
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
        assert_eq!(t - SimTime(5_000_000_000), SimDuration::from_secs(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
    }
}
