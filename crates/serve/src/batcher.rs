//! The request queue and deterministic virtual-time micro-batcher.
//!
//! Online serving wants small batches under load (latency) and larger
//! batches under pressure (throughput). The classic policy — close a
//! batch when it reaches `max_batch` requests or when its oldest
//! request has waited `max_delay` — normally keys off a wall clock,
//! which makes batch composition a race. Here time is **virtual**: a
//! `u64` tick counter advanced by [`MicroBatcher::submit`] (one tick
//! per arrival) and [`MicroBatcher::tick`] (explicit idle time). Batch
//! composition is therefore a pure function of the submit/tick
//! sequence — byte-identical across runs and thread counts, the same
//! determinism rule the `obs` trace writer follows.

use crate::ServeError;
use std::collections::VecDeque;

/// Micro-batcher policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Maximum requests per batch; reaching it closes a batch
    /// immediately.
    pub max_batch: usize,
    /// Maximum virtual ticks the oldest queued request may wait before
    /// a (possibly short) batch is closed — the deadline half of the
    /// size-or-deadline policy.
    pub max_delay: u64,
    /// Queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`] (backpressure, not an OOM).
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: 64,
            queue_cap: 1024,
        }
    }
}

/// One queued inference request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Monotonic request id, assigned at submission.
    pub id: u64,
    /// The vertex whose embedding/prediction is requested.
    pub vertex: u32,
    /// Virtual tick at which the request entered the queue; latency is
    /// measured from here.
    pub submitted_vt: u64,
}

/// The deterministic size-or-deadline micro-batcher.
#[derive(Debug)]
pub struct MicroBatcher {
    cfg: BatcherConfig,
    queue: VecDeque<Request>,
    vt: u64,
    next_id: u64,
}

impl MicroBatcher {
    /// An empty batcher at virtual time zero.
    pub fn new(cfg: BatcherConfig) -> Self {
        Self {
            cfg,
            queue: VecDeque::new(),
            vt: 0,
            next_id: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.vt
    }

    /// Queued requests not yet batched.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Advances virtual time by `ticks` (idle time between arrivals —
    /// what makes deadlines fire without further submissions).
    pub fn tick(&mut self, ticks: u64) {
        self.vt += ticks;
    }

    /// Enqueues a request for `vertex`, advancing virtual time by one
    /// tick, and returns its request id. Rejects when the queue is at
    /// capacity.
    pub fn submit(&mut self, vertex: u32) -> Result<u64, ServeError> {
        if self.queue.len() >= self.cfg.queue_cap {
            return Err(ServeError::QueueFull {
                capacity: self.cfg.queue_cap,
            });
        }
        self.vt += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Request {
            id,
            vertex,
            submitted_vt: self.vt,
        });
        Ok(id)
    }

    /// Whether the size-or-deadline policy says a batch should close
    /// now.
    pub fn batch_ready(&self) -> bool {
        if self.queue.len() >= self.cfg.max_batch {
            return true;
        }
        match self.queue.front() {
            Some(r) => self.vt.saturating_sub(r.submitted_vt) >= self.cfg.max_delay,
            None => false,
        }
    }

    /// Closes and returns the next batch if the policy allows one —
    /// the oldest `min(depth, max_batch)` requests in FIFO order.
    pub fn poll(&mut self) -> Option<Vec<Request>> {
        if !self.batch_ready() {
            return None;
        }
        Some(self.drain_batch())
    }

    /// Closes a batch unconditionally (shutdown / test drains). Returns
    /// `None` when the queue is empty.
    pub fn flush(&mut self) -> Option<Vec<Request>> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.drain_batch())
        }
    }

    fn drain_batch(&mut self) -> Vec<Request> {
        let n = self.queue.len().min(self.cfg.max_batch);
        self.queue.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_delay: u64, queue_cap: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            max_delay,
            queue_cap,
        }
    }

    #[test]
    fn size_trigger_closes_full_batches() {
        let mut b = MicroBatcher::new(cfg(3, 100, 10));
        assert!(b.poll().is_none());
        b.submit(5).unwrap();
        b.submit(6).unwrap();
        assert!(b.poll().is_none(), "2 < max_batch and no deadline yet");
        b.submit(7).unwrap();
        let batch = b.poll().expect("size trigger");
        assert_eq!(
            batch.iter().map(|r| r.vertex).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn deadline_trigger_closes_short_batches() {
        let mut b = MicroBatcher::new(cfg(8, 10, 100));
        b.submit(1).unwrap();
        assert!(b.poll().is_none());
        b.tick(9);
        assert!(b.poll().is_none(), "age 9 < max_delay 10");
        b.tick(1);
        let batch = b.poll().expect("deadline trigger");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].vertex, 1);
    }

    #[test]
    fn queue_full_is_backpressure() {
        let mut b = MicroBatcher::new(cfg(100, 100, 2));
        b.submit(0).unwrap();
        b.submit(1).unwrap();
        assert_eq!(
            b.submit(2),
            Err(ServeError::QueueFull { capacity: 2 }),
            "third submission must shed"
        );
        // Draining makes room again.
        b.flush().unwrap();
        b.submit(2).unwrap();
    }

    #[test]
    fn batch_composition_is_a_pure_function_of_the_sequence() {
        // Replaying the same submit/tick/poll sequence twice must yield
        // identical batches — ids, vertices, and timestamps.
        let run = || {
            let mut b = MicroBatcher::new(cfg(4, 6, 64));
            let mut batches = Vec::new();
            for i in 0..23u32 {
                b.submit(i % 7).unwrap();
                if i % 5 == 4 {
                    b.tick(3);
                }
                if let Some(batch) = b.poll() {
                    batches.push(batch);
                }
            }
            b.tick(100);
            while let Some(batch) = b.poll() {
                batches.push(batch);
            }
            batches
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ids_are_monotonic_and_latency_measurable() {
        let mut b = MicroBatcher::new(BatcherConfig::default());
        let a = b.submit(3).unwrap();
        b.tick(7);
        let c = b.submit(4).unwrap();
        assert!(c > a);
        let batch = b.flush().unwrap();
        assert_eq!(b.now() - batch[0].submitted_vt, 8);
        assert_eq!(b.now() - batch[1].submitted_vt, 0);
    }
}
