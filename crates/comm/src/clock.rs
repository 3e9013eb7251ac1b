//! One timeout code shape for both transports.
//!
//! The real-thread fabric ([`crate::fabric`]) and the virtual-time
//! runtime ([`crate::det`]) must agree on *when* things happen after a
//! fault: when the first retransmission fires, how the backoff grows,
//! and how long a sender keeps trying before its peer is declared dead.
//! Keeping those three shapes here — and nowhere else — is what lets the
//! discrete-event simulation schedule a failure-detection event at the
//! same (virtual) offset the threaded fabric would discover it at (wall
//! time), instead of each transport growing its own drift-prone copy.

use crate::fabric::RetryPolicy;
use std::time::{Duration, Instant};

/// Backoff before retransmission number `attempts` (1 = the first
/// retransmission): `base_timeout · 2^(attempts-1)`, capped at
/// `max_backoff`.
pub fn backoff_for(retry: RetryPolicy, attempts: u32) -> Duration {
    let exp = attempts.saturating_sub(1).min(16);
    std::cmp::min(
        retry.base_timeout * 2u32.saturating_pow(exp),
        retry.max_backoff,
    )
}

/// The polling granularity of a blocking receive loop: a quarter of the
/// base retransmission timeout, floored at 1 ms so tight policies do not
/// busy-spin.
pub fn tick_of(retry: &RetryPolicy) -> Duration {
    std::cmp::max(retry.base_timeout / 4, Duration::from_millis(1))
}

/// The span from a message's first transmission to the moment its
/// sender exhausts [`RetryPolicy::max_attempts`] — the sum of every
/// inter-attempt backoff, capped by the receive patience. The virtual
/// runtime schedules peer-failure events exactly this far after a
/// crash; the threaded fabric converges on the same bound through its
/// retransmission loop.
pub fn detection_budget(retry: &RetryPolicy) -> Duration {
    let mut total = retry.base_timeout;
    for attempts in 1..retry.max_attempts {
        if total >= retry.patience {
            break;
        }
        total += backoff_for(*retry, attempts);
    }
    total.min(retry.patience)
}

/// How long a tick-driven receive loop should block next: until the
/// earliest pending deadline (the next due retransmission, or the
/// patience expiry), never longer than one tick, and never zero (a
/// short floor keeps an already-due deadline from degenerating into a
/// busy spin).
pub fn next_wait(
    now: Instant,
    deadline: Instant,
    next_retry: Option<Instant>,
    tick: Duration,
) -> Duration {
    let mut until = deadline;
    if let Some(r) = next_retry {
        until = until.min(r);
    }
    until
        .saturating_duration_since(now)
        .min(tick)
        .max(Duration::from_micros(50))
}

/// Sleeps until `t` (no-op when already past).
pub fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            max_attempts: 8,
            patience: Duration::from_secs(1),
        };
        assert_eq!(backoff_for(retry, 1), Duration::from_millis(10));
        assert_eq!(backoff_for(retry, 2), Duration::from_millis(20));
        assert_eq!(backoff_for(retry, 3), Duration::from_millis(35));
        assert_eq!(backoff_for(retry, 30), Duration::from_millis(35));
    }

    #[test]
    fn detection_budget_sums_backoffs_capped_by_patience() {
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            max_attempts: 4,
            patience: Duration::from_secs(5),
        };
        // base + backoff(1) + backoff(2) + backoff(3) = 10+10+20+40.
        assert_eq!(detection_budget(&retry), Duration::from_millis(80));
        let impatient = RetryPolicy {
            patience: Duration::from_millis(25),
            ..retry
        };
        assert_eq!(detection_budget(&impatient), Duration::from_millis(25));
        // An unbounded attempt budget is bounded by the patience alone
        // (and the sum stops there, not after 2^32 terms).
        let unbounded = RetryPolicy {
            max_attempts: u32::MAX,
            ..retry
        };
        assert_eq!(detection_budget(&unbounded), Duration::from_secs(5));
    }

    #[test]
    fn next_wait_tracks_earliest_deadline_within_one_tick() {
        let now = Instant::now();
        let tick = Duration::from_millis(10);
        let far = now + Duration::from_secs(5);
        // Nothing due soon: one full tick.
        assert_eq!(next_wait(now, far, None, tick), tick);
        // A retransmission due in 3 ms trims the wait to it.
        let retry_at = now + Duration::from_millis(3);
        assert_eq!(
            next_wait(now, far, Some(retry_at), tick),
            Duration::from_millis(3)
        );
        // Already-due deadlines floor at a non-zero wait (no busy spin).
        assert_eq!(
            next_wait(now + Duration::from_millis(5), far, Some(retry_at), tick),
            Duration::from_micros(50)
        );
    }
}
