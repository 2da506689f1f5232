//! Trace data: the [`Clock`] seam, trace levels, and the detached,
//! mergeable [`EventLog`] of `Full`-level events.
//!
//! Nothing in this module reads or holds a clock. Sim-time reaches an
//! event as a value — the caller stamps each [`Event`] itself — which is
//! what keeps event logs, and the reports built from them, bit-identical
//! across runs. The one clock-driven recorder is
//! [`crate::FlightRecorder`]; wall-backed [`Clock`] impls live in
//! binaries, the only code that may read a wall clock (DESIGN.md §8).

/// A monotone nanosecond clock. Implementations decide *which*
/// nanoseconds; the wall-backed ones live in binaries only.
pub trait Clock {
    fn now_nanos(&self) -> u64;
}

/// How much an observed run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing.
    Off,
    /// Record the metrics registry.
    Summary,
    /// Record the registry plus each engine's bounded event ring.
    Full,
}

impl TraceLevel {
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "summary" => Some(TraceLevel::Summary),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Full => "full",
        }
    }

    /// Whether engines keep their event ring: the one thing a level
    /// decides below the command line.
    pub fn keeps_events(self) -> bool {
        self == TraceLevel::Full
    }
}

/// A point-in-time observation kept in the event ring at `Full` level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    pub at_nanos: u64,
    pub name: String,
    pub detail: String,
}

/// The events of one observed run and the count the rings evicted: plain
/// data that crosses shard-thread boundaries, merges, and lands in run
/// reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    pub events: Vec<Event>,
    pub dropped: u64,
}

impl EventLog {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Folds `other` in: events take the sorted multiset union, drop
    /// counts sum. Sorting makes the result independent of merge order,
    /// so the contract is the same as `Registry::merge`: associative,
    /// commutative, empty identity.
    pub fn merge(&mut self, other: &EventLog) {
        self.events.extend(other.events.iter().cloned());
        self.events.sort();
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_merge_sorts_events() {
        let event = |at_nanos, name: &str| Event {
            at_nanos,
            name: name.to_owned(),
            detail: String::new(),
        };
        let mut a = EventLog {
            events: vec![event(10, "b")],
            ..EventLog::default()
        };
        let b = EventLog {
            events: vec![event(5, "a")],
            dropped: 2,
        };
        a.merge(&b);
        assert_eq!(a.events[0].at_nanos, 5);
        assert_eq!(a.events[1].at_nanos, 10);
        assert_eq!(a.dropped, 2);
    }
}
