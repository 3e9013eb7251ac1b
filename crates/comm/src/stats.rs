//! Communication cost model and accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// The classic alpha-beta wire model: a message of `b` bytes takes
/// `alpha_us + b / bytes_per_us` microseconds on the wire.
///
/// The default is calibrated to the paper's testbed NIC (3.25 GB/s ≈
/// 3,250 bytes/µs) with a LAN-grade 50 µs per-message latency, scaled so
/// that laptop-scale graphs still show a visible compute/communication
/// ratio. The threaded [`crate::Fabric`] only accounts it; the virtual
/// cluster prices deliveries with it through
/// [`crate::NetProfile::from_cost_model`].
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message fixed latency in microseconds.
    pub alpha_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha_us: 50.0,
            bytes_per_us: 3_250.0,
        }
    }
}

impl CostModel {
    /// Equal to [`CostModel::default`]: no model sleeps, so every one
    /// only accounts on threads.
    pub fn accounting_only() -> Self {
        Self::default()
    }

    /// Modeled wire microseconds for one message of `bytes` bytes.
    pub fn wire_us(&self, bytes: usize) -> f64 {
        self.alpha_us + bytes as f64 / self.bytes_per_us
    }
}

/// Fabric-wide traffic counters (lock-free; shared by all workers).
///
/// Each application payload counts once; barrier traffic does not
/// count, so epoch traffic numbers stay comparable to the paper's. The
/// fault path has no counters here: faults are injected only on the
/// virtual cluster, which counts them in [`crate::VirtualStats`].
#[derive(Default, Debug)]
pub struct CommStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    /// Modeled wire time, in nanoseconds for resolution.
    modeled_ns: AtomicU64,
}

impl CommStats {
    /// Records one sent message.
    pub fn record(&self, bytes: usize, wire_us: f64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.modeled_ns
            .fetch_add((wire_us * 1_000.0) as u64, Ordering::Relaxed);
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total modeled wire time in microseconds (summed over messages;
    /// messages in flight concurrently overlap in wall time).
    pub fn modeled_us(&self) -> f64 {
        self.modeled_ns.load(Ordering::Relaxed) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_is_affine_in_bytes() {
        let m = CostModel {
            alpha_us: 10.0,
            bytes_per_us: 100.0,
        };
        assert_eq!(m.wire_us(0), 10.0);
        assert_eq!(m.wire_us(1_000), 20.0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let s = CommStats::default();
        s.record(100, 5.0);
        s.record(300, 7.0);
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 400);
        assert!((s.modeled_us() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn default_model_matches_testbed_nic() {
        let m = CostModel::default();
        // 3.25 GB/s NIC: a 3.25 MB message ≈ 1000 µs + alpha.
        let us = m.wire_us(3_250_000);
        assert!((us - 1_050.0).abs() < 1.0);
    }
}
