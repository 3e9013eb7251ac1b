//! Seeded, deterministic chaos schedules for the virtual cluster — the
//! one fault injector.
//!
//! A [`ChaosSchedule`] decides, per packet, whether to drop it, duplicate
//! it, hold it back for reordering, or delay it. Every decision is a pure
//! function of the schedule's seed and the packet's coordinates
//! `(src, dst, seq, attempt)` — hashed through SplitMix64, never drawn
//! from shared mutable state — so a given seed reproduces the exact same
//! fault pattern on every run. That is what lets `tests/chaos.rs` demand
//! *bitwise* parity with the fault-free run and lets a failing seed be
//! replayed locally (`FLEXGRAPH_CHAOS_SEED=<n> cargo test --test chaos`).
//!
//! Liveness is guaranteed by construction: drop decisions only apply to a
//! packet's first two transmissions (`attempt <= 1`); from the third
//! attempt on, the packet always goes through, so
//! [`crate::link::plan_send`] — where the virtual cluster turns a
//! packet's verdicts into what sending it costs — stops after at most two
//! losses.

/// Where a simulated worker process dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Rank of the worker that crashes.
    pub rank: usize,
    /// 1-based index of the application send at which the worker dies:
    /// the `at_send`-th payload never leaves it, nor does anything after.
    pub at_send: u64,
}

/// A deterministic, seeded fault schedule applied at send time.
///
/// The zero value (`ChaosSchedule::default()`) injects nothing. A
/// schedule is fixed for a whole [`crate::VirtualCluster`] run
/// ([`crate::SimConfig::chaos`]), so it can never tear across a message
/// batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for every per-packet fault decision.
    pub seed: u64,
    /// Drop the first transmission of every n-th packet per link
    /// (0 disables).
    pub drop_every: u64,
    /// Probability in `[0, 1]` of dropping any transmission with
    /// `attempt <= 1`.
    pub drop_prob: f64,
    /// Duplicate every n-th packet per link on first transmission
    /// (0 disables).
    pub duplicate_every: u64,
    /// Probability in `[0, 1]` of holding a first transmission back so
    /// later sends overtake it (requires `reorder_window > 0`).
    pub reorder_prob: f64,
    /// Maximum packets held back per destination at once.
    pub reorder_window: usize,
    /// Fixed extra wire delay per transmission, in microseconds.
    pub extra_delay_us: f64,
    /// Additional uniformly-random delay in `[0, jitter_us)`.
    pub jitter_us: f64,
    /// Optional single-worker crash.
    pub crash: Option<CrashPoint>,
}

/// Per-transmission verdict computed by [`ChaosSchedule::decide`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Decision {
    /// The transmission is lost.
    pub drop: bool,
    /// A second copy follows it (first transmissions only).
    pub duplicate: bool,
    /// It is held back so later sends overtake it (first transmissions
    /// only).
    pub hold: bool,
    /// Extra wire delay, in microseconds.
    pub delay_us: f64,
}

impl ChaosSchedule {
    /// A mixed schedule exercising every fault class at once (no crash);
    /// used by the stress tests.
    pub fn stress(seed: u64) -> Self {
        Self {
            seed,
            drop_every: 11,
            drop_prob: 0.2,
            duplicate_every: 5,
            reorder_prob: 0.35,
            reorder_window: 4,
            extra_delay_us: 30.0,
            jitter_us: 120.0,
            crash: None,
        }
    }

    /// This schedule with the crash removed — what the recovery re-drive
    /// runs under, so the retried epoch still sees message-level chaos
    /// but the same worker does not die again.
    pub fn without_crash(mut self) -> Self {
        self.crash = None;
        self
    }

    /// Whether `rank`, `data_sends` application sends in, dies on its
    /// next one: the [`CrashPoint`] arming rule.
    pub fn crashes_at(&self, rank: usize, data_sends: u64) -> bool {
        self.crash
            .is_some_and(|c| c.rank == rank && data_sends + 1 >= c.at_send.max(1))
    }

    /// The fault verdict for transmission `attempt` (0 = first) of the
    /// packet `seq` on link `src -> dst`. Pure in all arguments.
    pub fn decide(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> Decision {
        let mut h = splitmix64(
            self.seed
                ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ seq.wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ (u64::from(attempt) << 56),
        );
        let drop_roll = frac(h);
        h = splitmix64(h);
        let hold_roll = frac(h);
        h = splitmix64(h);
        let jitter_roll = frac(h);
        // Liveness: never drop from the third transmission on.
        let drop = attempt <= 1
            && ((attempt == 0 && self.drop_every != 0 && seq.is_multiple_of(self.drop_every))
                || drop_roll < self.drop_prob);
        let duplicate = !drop
            && attempt == 0
            && self.duplicate_every != 0
            && seq.is_multiple_of(self.duplicate_every);
        let hold =
            !drop && attempt == 0 && self.reorder_window > 0 && hold_roll < self.reorder_prob;
        Decision {
            drop,
            duplicate,
            hold,
            delay_us: self.extra_delay_us + jitter_roll * self.jitter_us,
        }
    }
}

/// SplitMix64 finalizer: a strong 64-bit mix, the standard seeding hash.
/// Shared with [`crate::det`] so flaky-rack drops use the same generator
/// family as chaos verdicts.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Top 53 bits of `h` as a uniform f64 in `[0, 1)`.
fn frac(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = ChaosSchedule::stress(7);
        let b = ChaosSchedule::stress(7);
        let c = ChaosSchedule::stress(8);
        let mut diverged = false;
        for seq in 1..200u64 {
            let da = a.decide(0, 1, seq, 0);
            let db = b.decide(0, 1, seq, 0);
            assert_eq!(da.drop, db.drop);
            assert_eq!(da.duplicate, db.duplicate);
            assert_eq!(da.hold, db.hold);
            assert_eq!(da.delay_us.to_bits(), db.delay_us.to_bits());
            let dc = c.decide(0, 1, seq, 0);
            diverged |= da.drop != dc.drop || da.hold != dc.hold;
        }
        assert!(diverged, "different seeds produce different schedules");
    }

    #[test]
    fn drops_stop_after_second_attempt() {
        let s = ChaosSchedule {
            seed: 3,
            drop_every: 1,
            drop_prob: 1.0,
            ..Default::default()
        };
        for seq in 1..50u64 {
            assert!(s.decide(0, 1, seq, 0).drop);
            assert!(s.decide(0, 1, seq, 1).drop);
            for attempt in 2..6 {
                assert!(!s.decide(0, 1, seq, attempt).drop, "attempt {attempt}");
            }
        }
    }

    #[test]
    fn faults_are_exclusive_with_drop() {
        let s = ChaosSchedule {
            seed: 5,
            drop_prob: 0.5,
            duplicate_every: 1,
            reorder_prob: 1.0,
            reorder_window: 4,
            ..Default::default()
        };
        for seq in 1..100u64 {
            let d = s.decide(1, 0, seq, 0);
            if d.drop {
                assert!(!d.duplicate && !d.hold);
            }
        }
    }

    #[test]
    fn default_schedule_is_noop() {
        let s = ChaosSchedule::default();
        for seq in 1..50u64 {
            let d = s.decide(0, 1, seq, 0);
            assert!(!d.drop && !d.duplicate && !d.hold);
            assert_eq!(d.delay_us, 0.0);
        }
        assert_ne!(ChaosSchedule::stress(1), s);
    }

    #[test]
    fn jitter_is_bounded() {
        let s = ChaosSchedule {
            seed: 11,
            extra_delay_us: 10.0,
            jitter_us: 50.0,
            ..Default::default()
        };
        for seq in 1..200u64 {
            let d = s.decide(0, 1, seq, 0);
            assert!((10.0..60.0).contains(&d.delay_us), "delay {}", d.delay_us);
        }
    }
}
