//! The NAU programming abstraction (paper §3.2, Figure 4).
//!
//! NAU splits each GNN layer into three stages:
//!
//! 1. **NeighborSelection** — builds HDGs from a user-defined neighbor
//!    UDF (or declares that the input graph itself suffices, the DNFA
//!    case),
//! 2. **Aggregation** — bottom-up hierarchical aggregation over the HDGs
//!    with one UDF per level ([`crate::hybrid`]),
//! 3. **Update** — dense NN operations combining the old feature with
//!    the neighborhood representation.
//!
//! Unlike GAS-like abstractions, NeighborSelection does not have to run
//! every layer or epoch: PinSage caches HDGs for an epoch, MAGNN for the
//! whole training run. The stages are written against `models::Model`
//! (`selection` is stage 1 and owns that reuse decision, `forward`
//! records stages 2 and 3); this module holds their timing.

use std::time::Duration;

/// Wall-time spent in each NAU stage — the breakdown of the paper's
/// Table 4.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Time in NeighborSelection.
    pub selection: Duration,
    /// Time in Aggregation.
    pub aggregation: Duration,
    /// Time in Update.
    pub update: Duration,
}

impl StageTimes {
    /// Total across stages.
    pub fn total(&self) -> Duration {
        self.selection + self.aggregation + self.update
    }

    /// Accumulates another measurement.
    pub fn add(&mut self, other: &StageTimes) {
        self.selection += other.selection;
        self.aggregation += other.aggregation;
        self.update += other.update;
    }

    /// `(selection, aggregation, update)` shares of the total, in
    /// percent. All zeros for an empty measurement.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.selection.as_secs_f64() / t,
            100.0 * self.aggregation.as_secs_f64() / t,
            100.0 * self.update.as_secs_f64() / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn stage_times_shares_sum_to_100() {
        let t = StageTimes {
            selection: Duration::from_millis(300),
            aggregation: Duration::from_millis(500),
            update: Duration::from_millis(200),
        };
        let (s, a, u) = t.shares();
        assert!((s + a + u - 100.0).abs() < 1e-9);
        assert!((s - 30.0).abs() < 1e-9);
        assert_eq!(t.total(), Duration::from_millis(1000));
    }

    #[test]
    fn stage_times_accumulate() {
        let mut acc = StageTimes::default();
        let one = StageTimes {
            selection: Duration::from_millis(1),
            aggregation: Duration::from_millis(2),
            update: Duration::from_millis(3),
        };
        acc.add(&one);
        acc.add(&one);
        assert_eq!(acc.total(), Duration::from_millis(12));
    }

    #[test]
    fn empty_stage_times_have_zero_shares() {
        assert_eq!(StageTimes::default().shares(), (0.0, 0.0, 0.0));
    }
}
