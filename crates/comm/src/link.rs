//! The receive half of the link protocol, written once for both
//! transports.

use std::collections::BTreeMap;

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
