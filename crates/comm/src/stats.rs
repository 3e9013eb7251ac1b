//! Communication cost model and accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// The classic alpha-beta wire model: a message of `b` bytes takes
/// `alpha_us + b / bytes_per_us` microseconds on the wire.
///
/// The default is calibrated to the paper's testbed NIC (3.25 GB/s ≈
/// 3,250 bytes/µs) with a LAN-grade 50 µs per-message latency, scaled so
/// that laptop-scale graphs still show a visible compute/communication
/// ratio.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message fixed latency in microseconds.
    pub alpha_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
    /// When true, [`crate::Fabric`] delays delivery by the modeled wire
    /// time; when false the model only accounts.
    pub simulate_delay: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha_us: 50.0,
            bytes_per_us: 3_250.0,
            simulate_delay: true,
        }
    }
}

impl CostModel {
    /// A model that only accounts and never sleeps (fast tests).
    pub fn accounting_only() -> Self {
        Self {
            simulate_delay: false,
            ..Self::default()
        }
    }

    /// Modeled wire microseconds for one message of `bytes` bytes.
    pub fn wire_us(&self, bytes: usize) -> f64 {
        self.alpha_us + bytes as f64 / self.bytes_per_us
    }
}

/// Fabric-wide traffic counters (lock-free; shared by all workers).
///
/// Application traffic (`messages`/`bytes`/`modeled_us`) counts each
/// logical payload exactly once, at first transmission — retransmits,
/// injected drops, and duplicates do not inflate it, so epoch traffic
/// numbers stay comparable between fault-free and chaos runs. The
/// fault path is accounted separately: `retries`, `drops_injected`,
/// `dups_injected`, `redeliveries`, and `control_messages` (barrier
/// traffic).
#[derive(Default, Debug)]
pub struct CommStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    /// Modeled wire time, in nanoseconds for resolution.
    modeled_ns: AtomicU64,
    retries: AtomicU64,
    drops_injected: AtomicU64,
    dups_injected: AtomicU64,
    redeliveries: AtomicU64,
    control_messages: AtomicU64,
}

impl CommStats {
    /// Records one sent message.
    pub fn record(&self, bytes: usize, wire_us: f64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.modeled_ns
            .fetch_add((wire_us * 1_000.0) as u64, Ordering::Relaxed);
    }

    /// Records one protocol-internal message (barrier traffic); kept out
    /// of the application counters.
    pub fn record_control(&self) {
        self.control_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retransmission of a dropped message.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one chaos-injected drop.
    pub fn record_drop_injected(&self) {
        self.drops_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one chaos-injected duplicate transmission.
    pub fn record_dup_injected(&self) {
        self.dups_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one receive-side discard of an already-seen sequence
    /// number (an injected duplicate).
    pub fn record_redelivery(&self) {
        self.redeliveries.fetch_add(1, Ordering::Relaxed);
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

    /// Total retransmissions.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total chaos-injected drops.
    pub fn drops_injected(&self) -> u64 {
        self.drops_injected.load(Ordering::Relaxed)
    }

    /// Total chaos-injected duplicates.
    pub fn dups_injected(&self) -> u64 {
        self.dups_injected.load(Ordering::Relaxed)
    }

    /// Total receive-side duplicate discards.
    pub fn redeliveries(&self) -> u64 {
        self.redeliveries.load(Ordering::Relaxed)
    }

    /// Total protocol-internal (barrier) messages.
    pub fn control_messages(&self) -> u64 {
        self.control_messages.load(Ordering::Relaxed)
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
            simulate_delay: false,
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
    fn fault_path_counters_are_separate_from_traffic() {
        let s = CommStats::default();
        s.record(64, 1.0);
        s.record_retry();
        s.record_retry();
        s.record_drop_injected();
        s.record_dup_injected();
        s.record_redelivery();
        s.record_control();
        assert_eq!(s.messages(), 1, "fault-path events are not messages");
        assert_eq!(s.bytes(), 64);
        assert_eq!(s.retries(), 2);
        assert_eq!(s.drops_injected(), 1);
        assert_eq!(s.dups_injected(), 1);
        assert_eq!(s.redeliveries(), 1);
        assert_eq!(s.control_messages(), 1);
    }

    #[test]
    fn default_model_matches_testbed_nic() {
        let m = CostModel::default();
        // 3.25 GB/s NIC: a 3.25 MB message ≈ 1000 µs + alpha.
        let us = m.wire_us(3_250_000);
        assert!((us - 1_050.0).abs() < 1.0);
    }
}
