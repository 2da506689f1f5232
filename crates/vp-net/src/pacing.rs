//! Token-bucket pacing for the prober.
//!
//! The paper probes "relatively slowly (about 6k queries per second)" (§3.1)
//! — respectively 10k/s in the Tangled measurements (§4.2) — to avoid rate
//! limits and abuse complaints. [`TokenBucket`] enforces such a rate against
//! the simulated clock.

use crate::time::{SimDuration, SimTime};

/// A classic token bucket driven by [`SimTime`].
///
/// Tokens accrue continuously at `rate_per_sec` up to `capacity`; each
/// admitted event consumes one token. Fractional token state is kept exactly
/// (in nanoseconds of accrual) so long simulations do not drift.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    capacity: f64,
    tokens: f64,
    last: SimTime,
    /// The last [`admit`](Self::admit) from a drained state (the clock at
    /// the last refill), keyed on the exact token bits it started from.
    memo: Option<Step>,
}

/// One drained-state admission: from `from` token bits, the event is
/// admitted `wait` later and leaves `to` tokens.
#[derive(Debug, Clone, Copy)]
struct Step {
    from: u64,
    wait: SimDuration,
    to: f64,
}

impl TokenBucket {
    /// Creates a bucket that admits `rate_per_sec` events per second with
    /// burst capacity `capacity`, initially full.
    ///
    /// # Panics
    /// Panics if `rate_per_sec` is not finite and positive or if `capacity`
    /// is not at least 1.
    pub fn new(rate_per_sec: f64, capacity: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be positive, got {rate_per_sec}"
        );
        assert!(capacity >= 1.0, "capacity must be >= 1, got {capacity}");
        TokenBucket {
            rate_per_sec,
            capacity,
            tokens: capacity,
            last: SimTime::ZERO,
            memo: None,
        }
    }

    /// Admits one event at the earliest instant at or after `now` and
    /// returns that instant: `next_available`, then `try_acquire` there,
    /// bit for bit.
    ///
    /// From a drained state (`now` is the last refill, as it is when a
    /// pacer feeds back each admitted instant) the step depends on the
    /// token bits alone, so the last such step is memoised under them. At
    /// a rate whose period is a whole number of nanoseconds, such as
    /// 10 000/s, the step is a fixed point and admission costs a compare.
    /// At other rates the truncated wait can leave the token a hair short,
    /// and the event then goes uncharged, exactly as the two calls did.
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        let drained = now == self.last;
        let from = self.tokens.to_bits();
        if let Some(step) = self.memo.filter(|s| drained && s.from == from) {
            self.last = now + step.wait;
            self.tokens = step.to;
            return self.last;
        }
        let at = self.next_available(now);
        self.try_acquire(at);
        if drained {
            self.memo = Some(Step {
                from,
                wait: at.since(now),
                to: self.tokens,
            });
        }
        at
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last).as_secs_f64();
        self.last = SimTime(self.last.0.max(now.0));
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.capacity);
    }

    /// Tries to admit one event at `now`. Returns `true` and consumes a
    /// token if available.
    fn try_acquire(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// The earliest instant at or after `now` when one token will be
    /// available. Returns `now` itself if a token is available already.
    /// Does not consume a token.
    fn next_available(&mut self, now: SimTime) -> SimTime {
        self.refill(now);
        if self.tokens >= 1.0 {
            now
        } else {
            let deficit = 1.0 - self.tokens;
            let wait = SimDuration::from_secs_f64(deficit / self.rate_per_sec);
            // Guard against zero-length waits from float truncation, which
            // would make an event loop spin without advancing time.
            now + SimDuration(wait.0.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Rates at which a drained step is a fixed point (10 000/s, 1 000/s)
    /// and at which it is not: a period that is no whole number of
    /// nanoseconds truncates the wait, so the tokens wander (6 000/s,
    /// 7 777/s, 3/s).
    const RATES: [f64; 5] = [10_000.0, 1_000.0, 6_000.0, 7_777.0, 3.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `admit` is the two-call recurrence it replaces, bit for bit:
        /// the same instants and the same token bits after every event,
        /// whether the caller feeds back each admitted instant (the
        /// memoised path) or idles between events (the general one).
        #[test]
        fn admit_is_next_available_then_try_acquire(
            pick in 0usize..7,
            any_rate in 0.5f64..50_000.0,
            capacity in 1.0f64..4.0,
            start in 0u64..4_000_000_000,
            zero_start in any::<bool>(),
            gaps in prop::collection::vec(0u64..2_000_000, 0..8),
        ) {
            let rate = RATES.get(pick).copied().unwrap_or(any_rate);
            let capacity = if pick % 2 == 0 { 1.0 } else { capacity };
            let mut memoised = TokenBucket::new(rate, capacity);
            let mut reference = TokenBucket::new(rate, capacity);
            let mut t = SimTime(if zero_start { 0 } else { start });
            for i in 0..400 {
                // Mostly back to back, as `Schedule` paces; now and then
                // an idle gap that leaves the drained state.
                let gap = if i % 50 == 49 { gaps.get(i / 50).copied().unwrap_or(0) } else { 0 };
                let now = t + SimDuration(gap);
                let expected = reference.next_available(now);
                reference.try_acquire(expected);
                t = memoised.admit(now);
                prop_assert_eq!(t, expected, "event {} at rate {}", i, rate);
                prop_assert_eq!(memoised.tokens.to_bits(), reference.tokens.to_bits());
                prop_assert_eq!(memoised.last, reference.last);
            }
        }
    }

    #[test]
    fn admit_at_ten_thousand_per_second_steps_by_a_tenth_of_a_millisecond() {
        let mut b = TokenBucket::new(10_000.0, 1.0);
        let start = SimTime::ZERO + SimDuration::from_secs(7);
        let mut t = start;
        for i in 0..1000u64 {
            t = b.admit(t);
            assert_eq!(t, start + SimDuration(i * 100_000));
        }
        assert_eq!(b.memo.map(|s| s.from), Some(0.0f64.to_bits()));
    }

    #[test]
    fn starts_full_and_admits_burst() {
        let mut b = TokenBucket::new(10.0, 5.0);
        let t = SimTime::ZERO;
        for _ in 0..5 {
            assert!(b.try_acquire(t));
        }
        assert!(!b.try_acquire(t));
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(10.0, 1.0);
        let mut t = SimTime::ZERO;
        assert!(b.try_acquire(t));
        assert!(!b.try_acquire(t));
        // One token every 100ms.
        t += SimDuration::from_millis(100);
        assert!(b.try_acquire(t));
        assert!(!b.try_acquire(t));
    }

    #[test]
    fn capacity_caps_accrual() {
        let mut b = TokenBucket::new(100.0, 3.0);
        let t = SimTime::ZERO + SimDuration::from_secs(1000);
        assert_eq!(b.next_available(t), t);
        assert_eq!(b.tokens, 3.0);
        for _ in 0..3 {
            assert!(b.try_acquire(t));
        }
        assert!(!b.try_acquire(t));
    }

    #[test]
    fn next_available_schedules_wakeup() {
        let mut b = TokenBucket::new(1000.0, 1.0);
        let t = SimTime::ZERO;
        assert!(b.try_acquire(t));
        let next = b.next_available(t);
        assert!(next > t);
        // ~1ms at 1000/s.
        assert_eq!(next.since(t).as_millis(), 1);
        assert!(b.try_acquire(next));
    }

    #[test]
    fn next_available_is_now_when_token_free() {
        let mut b = TokenBucket::new(5.0, 2.0);
        let t = SimTime::ZERO + SimDuration::from_secs(3);
        assert_eq!(b.next_available(t), t);
    }

    #[test]
    fn long_run_rate_is_exact() {
        // Admit as fast as allowed for 10 simulated seconds at 6000/s and
        // check we admitted 6000/s worth (the paper's B-Root probing rate).
        let rate = 6000.0;
        let mut b = TokenBucket::new(rate, 1.0);
        let end = SimTime::ZERO + SimDuration::from_secs(10);
        let mut t = SimTime::ZERO;
        let mut admitted = 0u64;
        while t < end {
            if b.try_acquire(t) {
                admitted += 1;
            }
            t = b.next_available(t).max(t + SimDuration(1));
        }
        let expected = (rate * 10.0) as u64;
        let diff = admitted.abs_diff(expected);
        assert!(diff <= 2, "admitted {admitted}, expected ~{expected}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn tiny_capacity_rejected() {
        TokenBucket::new(1.0, 0.5);
    }

    #[test]
    fn time_moving_backwards_is_ignored() {
        let mut b = TokenBucket::new(10.0, 1.0);
        let t1 = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(b.try_acquire(t1));
        // An earlier timestamp must not mint tokens or underflow.
        let t0 = SimTime::ZERO;
        assert!(!b.try_acquire(t0));
        let t2 = t1 + SimDuration::from_millis(100);
        assert!(b.try_acquire(t2));
    }
}
