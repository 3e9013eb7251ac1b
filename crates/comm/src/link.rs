//! The virtual cluster's link model: [`plan_send`] folds a packet's
//! fault verdicts into what sending it costs, and `LinkRecv` hands
//! arrivals over once each and in send order.
//!
//! The event wheel loses nothing on its own — it delivers what it is
//! given — so the only loss on a link is the one a [`ChaosSchedule`] (or
//! a flaky rack) injects, as a pure function of `(seed, src, dst, seq,
//! attempt)`: which transmission gets through, and how long the sender's
//! timers take to reach it, is known at send time. The send half is
//! therefore a function, not an ack / retransmit protocol.

use crate::chaos::{ChaosSchedule, Decision};
use crate::clock;
use crate::fabric::RetryPolicy;
use std::collections::BTreeMap;
use std::time::Duration;

/// What sending one packet over a faulty link amounts to.
#[derive(Clone, Copy, Debug)]
pub struct SendPlan {
    /// Transmissions lost before one got through: that many injected
    /// drops, and as many retransmissions.
    pub dropped: u32,
    /// The retransmit timers sat out before the surviving transmission
    /// leaves: `base_timeout` for the first loss, then
    /// [`clock::backoff_for`]. Zero when nothing was dropped.
    pub retry_wait: Duration,
    /// The surviving transmission's verdict (`drop` is false).
    pub verdict: Decision,
}

/// Walks the verdicts of packet `seq` on `src -> dst` attempt by attempt
/// until a transmission survives both `chaos` and `also_drops` (the
/// cluster's own loss model, asked per attempt: its flaky racks).
/// Terminates because neither drops a third transmission.
pub fn plan_send(
    chaos: &ChaosSchedule,
    retry: RetryPolicy,
    (src, dst, seq): (usize, usize, u64),
    also_drops: impl Fn(u32) -> bool,
) -> SendPlan {
    let mut dropped = 0;
    let mut retry_wait = Duration::ZERO;
    loop {
        let verdict = chaos.decide(src, dst, seq, dropped);
        if !(verdict.drop || also_drops(dropped)) {
            return SendPlan {
                dropped,
                retry_wait,
                verdict,
            };
        }
        retry_wait += match dropped {
            0 => retry.base_timeout,
            n => clock::backoff_for(retry, n),
        };
        dropped += 1;
    }
}

/// One directed link's receive state: sequenced arrivals in (1-based,
/// contiguous per link), each payload out exactly once and in send
/// order — MPI's non-overtaking rule, and what
/// [`crate::WorkerCtx::try_recv`] promises. `frontier` is the highest
/// number released; arrivals ahead of it wait in `parked` for the gap to
/// fill, so one structure answers "seen before?" and "deliverable yet?".
pub(crate) struct LinkRecv<T> {
    frontier: u64,
    parked: BTreeMap<u64, T>,
}

impl<T> Default for LinkRecv<T> {
    fn default() -> Self {
        Self {
            frontier: 0,
            parked: BTreeMap::new(),
        }
    }
}

impl<T> LinkRecv<T> {
    /// Takes arrival `seq`. A duplicate — released already, or parked —
    /// is dropped and reported as `false`. Otherwise `release` runs, in
    /// sequence order, on every item the arrival makes contiguous with
    /// the frontier (none while a gap remains).
    pub fn accept(&mut self, seq: u64, item: T, mut release: impl FnMut(T)) -> bool {
        if seq <= self.frontier || self.parked.contains_key(&seq) {
            return false;
        }
        if seq > self.frontier + 1 {
            self.parked.insert(seq, item);
            return true;
        }
        self.frontier = seq;
        release(item);
        while let Some(next) = self.parked.remove(&(self.frontier + 1)) {
            self.frontier += 1;
            release(next);
        }
        true
    }
}
