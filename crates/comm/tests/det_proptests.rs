//! Property tests for the virtual-time event wheel (`comm::det`) and
//! the virtual link's ordering contract.
//!
//! The wheel is the root of the determinism contract: if events ever pop
//! out of `(time, seq)` order, if cancellation is inexact, or if the
//! clock runs backwards, every downstream byte-identity claim collapses.
//! So the wheel gets adversarial inputs, not just the runtime's. The
//! link gets the same treatment: whatever a fault schedule does to the
//! wire, a receiver sees each payload once, in send order.

use bytes::Bytes;
use flexgraph_comm::{
    ChaosSchedule, EventWheel, SimConfig, SimTask, TaskStep, VirtualCluster, WorkerCtx,
};
use proptest::prelude::*;

const TAG: u32 = 5;

/// Rank 0 sends `n` numbered payloads to rank 1 in one step; rank 1
/// records what it receives, in the order it receives it.
struct Stream {
    n: u8,
    got: Vec<u8>,
}

impl SimTask for Stream {
    fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
        if ctx.rank() == 0 {
            for i in 0..self.n {
                ctx.send(1, TAG, Bytes::from(vec![i])).expect("no crash");
            }
            return TaskStep::Done;
        }
        while self.got.len() < usize::from(self.n) {
            match ctx.try_recv(0, TAG) {
                Some(payload) => self.got.push(payload[0]),
                None => return TaskStep::Recv { from: 0, tag: TAG },
            }
        }
        TaskStep::Done
    }
}

/// An arbitrary schedule: event times (possibly far in the past relative
/// to earlier pops) plus a subset of indices to cancel before draining.
fn batch() -> impl Strategy<Value = (Vec<u64>, Vec<usize>)> {
    proptest::collection::vec(0u64..10_000, 1..200).prop_flat_map(|times| {
        let n = times.len();
        (
            Just(times),
            proptest::collection::vec(0..n, 0..n.div_ceil(2)),
        )
    })
}

proptest! {
    /// Whatever the insertion order, events pop sorted by time, and
    /// equal times pop in scheduling (seq) order.
    #[test]
    fn pops_in_time_then_seq_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut wheel = EventWheel::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(t, i);
        }
        let mut popped = Vec::new();
        while let Some((vt, _, idx)) = wheel.pop() {
            popped.push((vt, idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated: {:?}", w);
            if w[0].0 == w[1].0 {
                // Same instant: scheduling order (index order) breaks the tie.
                prop_assert!(w[0].1 < w[1].1, "tie-break order violated: {:?}", w);
            }
        }
    }

    /// Cancellation is exact: cancelled events never pop, everything
    /// else pops exactly once, and double-cancel / cancel-after-fire
    /// return nothing.
    #[test]
    fn cancellation_is_exact((times, cancels) in batch()) {
        let mut wheel = EventWheel::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| wheel.schedule(t, i)).collect();
        let mut cancelled = std::collections::HashSet::new();
        for &c in &cancels {
            let got = wheel.cancel(ids[c]);
            prop_assert_eq!(got.is_some(), cancelled.insert(c), "cancel must succeed exactly once");
        }
        prop_assert_eq!(wheel.len(), times.len() - cancelled.len());
        let mut popped = std::collections::HashSet::new();
        while let Some((_, id, idx)) = wheel.pop() {
            prop_assert!(!cancelled.contains(&idx), "cancelled event {} popped", idx);
            prop_assert!(popped.insert(idx), "event {} popped twice", idx);
            prop_assert!(wheel.cancel(id).is_none(), "cancel after fire must be inert");
        }
        prop_assert_eq!(popped.len(), times.len() - cancelled.len());
        prop_assert!(wheel.is_empty());
    }

    /// The virtual clock is monotone even when events are scheduled into
    /// the past mid-drain: such events are clamped to `now`.
    #[test]
    fn clock_never_runs_backwards(
        first in proptest::collection::vec(0u64..10_000, 1..50),
        late in proptest::collection::vec(0u64..10_000, 1..50),
    ) {
        let mut wheel = EventWheel::new();
        for (i, &t) in first.iter().enumerate() {
            wheel.schedule(t, i);
        }
        // Drain half, then schedule a batch that may point into the past.
        let mut last = 0u64;
        for _ in 0..first.len() / 2 {
            let (vt, _, _) = wheel.pop().unwrap();
            prop_assert!(vt >= last);
            last = vt;
        }
        for (i, &t) in late.iter().enumerate() {
            wheel.schedule(t, first.len() + i);
        }
        while let Some((vt, _, _)) = wheel.pop() {
            prop_assert!(vt >= last, "clock ran backwards: {} < {}", vt, last);
            last = vt;
        }
    }

    /// `n` sends on one `(link, tag)` under a random drop / reorder /
    /// jitter / duplicate schedule: received once each, in send order,
    /// and every injected duplicate is discarded at the receiver.
    #[test]
    fn a_link_delivers_once_and_in_send_order_under_any_schedule(
        (seed, n, every) in (0u64..1 << 32, 1u8..40, (0u64..4, 0u64..4)),
        (drop_prob, reorder_prob, window) in (0.0f64..0.6, 0.0f64..1.0, 0usize..5),
        (extra_delay_us, jitter_us) in (0.0f64..100.0, 0.0f64..2_000.0),
    ) {
        let chaos = ChaosSchedule {
            seed,
            drop_every: every.0,
            drop_prob,
            duplicate_every: every.1,
            reorder_prob,
            reorder_window: window,
            extra_delay_us,
            jitter_us,
            crash: None,
        };
        let mut tasks = [Stream { n, got: Vec::new() }, Stream { n, got: Vec::new() }];
        let mut cluster = VirtualCluster::new(2, SimConfig { chaos, ..SimConfig::default() });
        cluster.run(&mut tasks);
        prop_assert_eq!(&tasks[1].got, &(0..n).collect::<Vec<u8>>(), "{:?}", chaos);
        let stats = cluster.stats();
        prop_assert_eq!(stats.messages, u64::from(n));
        prop_assert_eq!(stats.redeliveries, stats.dups_injected, "{:?}", chaos);
    }
}
