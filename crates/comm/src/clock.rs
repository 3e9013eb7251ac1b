//! One timeout code shape for both transports.
//!
//! The real-thread fabric ([`crate::fabric`]) and the virtual-time
//! runtime ([`crate::det`]) must agree on *when* things happen after a
//! fault: how the retransmission backoff grows
//! ([`crate::link::plan_send`] sums it into a delivery time for both),
//! and how long after a crash the survivors learn of it. Keeping those
//! shapes here — and nowhere else — is what makes a peer failure due at
//! the same offset on the event wheel (virtual time) and on threads
//! (wall time), instead of each transport growing its own drift-prone
//! copy.

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

/// The span from a message's first transmission to the moment its
/// sender exhausts [`RetryPolicy::max_attempts`] — the sum of every
/// inter-attempt backoff, capped by the receive patience. Both
/// transports make a crash known to the survivors exactly this far
/// after it: the virtual runtime as peer-failure events, the threaded
/// fabric as the `Down` frame's delivery time.
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
}
