//! Bounded retries with deterministic decorrelated-jitter backoff.
//!
//! Every retrying subsystem — the fleet's panic containment
//! ([`crate::fleet::Fleet::with_retry_policy`]), which fault campaigns
//! run on, and the `etpnd` service's per-request envelope — shares this one policy type, so retry behaviour
//! is uniform and testable in a single place.
//!
//! The backoff schedule is *decorrelated jitter* (each delay is drawn
//! uniformly from `[base, 3 × previous]`, clamped to `cap`), which spreads
//! synchronized retry storms without the lockstep of plain exponential
//! backoff. The randomness is a seeded splitmix64 stream keyed by
//! `(policy seed, job token)`: the same job under the same policy always
//! sees the same delays, so retry timing is reproducible in tests and
//! flight recordings.

use std::time::Duration;

/// Advance a splitmix64 state and return the next draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded retry budget plus a deterministic backoff schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    max_retries: u64,
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl Default for RetryPolicy {
    /// One immediate retry — the fleet's historical default.
    fn default() -> Self {
        Self::immediate(1)
    }
}

impl RetryPolicy {
    /// `max_retries` retries with no delay between attempts. This is the
    /// right shape for CPU-bound in-process work (a fleet job that
    /// panicked will not stop panicking because we waited), and keeps
    /// batch tests fast.
    pub fn immediate(max_retries: u64) -> Self {
        Self {
            max_retries,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// `max_retries` retries spaced by decorrelated jitter: delay *n+1*
    /// is drawn uniformly from `[base, 3 × delay n]` and clamped to
    /// `cap`. `seed` keys the jitter stream; combine it with a per-job
    /// token via [`RetryPolicy::schedule`] so concurrent jobs decorrelate
    /// while staying individually deterministic.
    pub fn decorrelated(max_retries: u64, base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            max_retries,
            base,
            cap: cap.max(base),
            seed,
        }
    }

    /// The retry budget (attempts are `1 + max_retries`).
    pub fn max_retries(&self) -> u64 {
        self.max_retries
    }

    /// Override the retry budget, keeping the backoff shape.
    pub fn with_max_retries(mut self, max_retries: u64) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The deterministic delay schedule for the job identified by
    /// `token`. Yields exactly [`RetryPolicy::max_retries`] delays.
    pub fn schedule(&self, token: u64) -> Backoff {
        Backoff {
            state: self.seed ^ token.wrapping_mul(0xA24B_AED4_963E_E407),
            prev: self.base,
            base: self.base,
            cap: self.cap,
            remaining: self.max_retries,
        }
    }

    /// The delay before retry number `attempt` (1-based) of job `token`;
    /// `Duration::ZERO` past the budget.
    pub fn delay(&self, token: u64, attempt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        self.schedule(token)
            .nth(attempt as usize - 1)
            .unwrap_or(Duration::ZERO)
    }
}

/// The delay iterator produced by [`RetryPolicy::schedule`].
#[derive(Clone, Debug)]
pub struct Backoff {
    state: u64,
    prev: Duration,
    base: Duration,
    cap: Duration,
    remaining: u64,
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.cap.is_zero() {
            return Some(Duration::ZERO);
        }
        let base = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(base);
        let span = hi - base;
        let draw = if span == 0 {
            base
        } else {
            base + splitmix64(&mut self.state) % (span + 1)
        };
        let next = Duration::from_nanos(draw).min(self.cap);
        self.prev = next;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_policy_yields_zero_delays() {
        let p = RetryPolicy::immediate(3);
        let delays: Vec<Duration> = p.schedule(7).collect();
        assert_eq!(delays, vec![Duration::ZERO; 3]);
        assert_eq!(p.delay(7, 1), Duration::ZERO);
    }

    #[test]
    fn schedule_is_deterministic_per_token() {
        let p =
            RetryPolicy::decorrelated(8, Duration::from_millis(5), Duration::from_millis(500), 42);
        let a: Vec<Duration> = p.schedule(3).collect();
        let b: Vec<Duration> = p.schedule(3).collect();
        assert_eq!(a, b, "same token, same schedule");
        let c: Vec<Duration> = p.schedule(4).collect();
        assert_ne!(a, c, "different tokens decorrelate");
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn delays_respect_base_and_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let p = RetryPolicy::decorrelated(64, base, cap, 1);
        for (i, d) in p.schedule(0).enumerate() {
            assert!(d >= base, "delay {i} = {d:?} below base");
            assert!(d <= cap, "delay {i} = {d:?} above cap");
        }
    }

    #[test]
    fn budget_is_bounded() {
        let p = RetryPolicy::decorrelated(2, Duration::from_millis(1), Duration::from_millis(4), 9);
        assert_eq!(p.schedule(0).count(), 2);
        assert_eq!(p.with_max_retries(0).schedule(0).count(), 0);
        assert_eq!(p.delay(0, 3), Duration::ZERO, "past-budget delay is zero");
    }

    #[test]
    fn growth_is_decorrelated_not_lockstep() {
        // With a generous cap the schedule must actually vary: a broken
        // jitter source collapsing to a constant would re-synchronise
        // every retrying client.
        let p = RetryPolicy::decorrelated(16, Duration::from_millis(1), Duration::from_secs(10), 7);
        let delays: Vec<Duration> = p.schedule(1).collect();
        let distinct: std::collections::HashSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 4, "jitter degenerate: {delays:?}");
    }
}
