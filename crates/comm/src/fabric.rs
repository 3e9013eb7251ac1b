//! The worker fabric: a reliable channel mesh with tagged directed
//! receive and message-based barriers.
//!
//! The paper's workers sit behind an MPI controller: a reliable,
//! non-overtaking transport. A crossbeam channel is one already — it
//! loses nothing and keeps each sender's order — so [`WorkerComm::send`]
//! puts the payload on the destination's channel once and accounts its
//! bytes and modeled wire time ([`CostModel`]). Nothing here injects a
//! fault, sequences a packet or sleeps: faults and wire delay are
//! modelled once, on the virtual cluster ([`crate::det`]).
//!
//! Barriers are message-based — an empty payload per peer on a reserved
//! tag. Every blocking receive is bounded by [`RetryPolicy::patience`]:
//! a worker that outwaits it (a peer panicked or hung) returns a
//! structured [`CommError`] and broadcasts an abort, so the whole fleet
//! unwinds instead of hanging.

use crate::stats::{CommStats, CostModel};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for the barrier protocol.
const BARRIER_TAG_BASE: u32 = 0xFFFF_0000;

/// A structured communication failure. Every blocking operation returns
/// one instead of hanging when a peer is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// This worker reached its scheduled [`crate::CrashPoint`] on the
    /// virtual cluster and must stop.
    Crashed,
    /// Peer `rank` crashed on the virtual cluster, or a directed receive
    /// from `rank` outlived the receive patience.
    PeerUnreachable {
        /// The unresponsive peer.
        rank: usize,
    },
    /// Peer `by` detected a failure and aborted the epoch.
    Aborted {
        /// Rank of the aborting peer.
        by: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Crashed => write!(f, "worker hit its scheduled crash point"),
            Self::PeerUnreachable { rank } => write!(f, "peer {rank} unreachable"),
            Self::Aborted { by } => write!(f, "epoch aborted by peer {by}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Retransmission and failure-detection timing. The virtual cluster
/// models a sender's timers with the first three (`link::plan_send`,
/// [`crate::clock::detection_budget`]); `patience` is the threaded
/// fabric's one real wait.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Time before the first retransmission of a dropped message; also
    /// the unit the exponential backoff doubles from.
    pub base_timeout: Duration,
    /// Cap on the backoff between retransmissions.
    pub max_backoff: Duration,
    /// Transmissions (including the first) before a peer is declared
    /// unreachable.
    pub max_attempts: u32,
    /// How long a blocking receive waits before declaring failure.
    pub patience: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_timeout: Duration::from_millis(25),
            max_backoff: Duration::from_millis(200),
            max_attempts: 8,
            patience: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Tight timeouts for tests: failures are detected in a few hundred
    /// milliseconds instead of seconds.
    pub fn snappy() -> Self {
        Self {
            base_timeout: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            max_attempts: 8,
            patience: Duration::from_secs(2),
        }
    }
}

/// A delivered message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Rank of the sender.
    pub from: usize,
    /// Application tag (phase / round discriminator).
    pub tag: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

/// One transmission on a channel.
enum Packet {
    Data(Message),
    /// The sender outwaited its patience and aborted the epoch.
    Abort {
        from: usize,
    },
}

/// Handle used to build a worker fleet and read fabric-wide stats.
pub struct Fabric {
    stats: Arc<CommStats>,
}

impl Fabric {
    /// Creates a fabric of `k` workers, returning per-worker endpoints.
    /// Of `retry`, only the receive patience applies here.
    pub fn with_retry(k: usize, model: CostModel, retry: RetryPolicy) -> (Self, Vec<WorkerComm>) {
        assert!(k >= 1, "need at least one worker");
        let stats = Arc::new(CommStats::default());
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..k).map(|_| unbounded::<Packet>()).unzip();
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| WorkerComm {
                rank,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
                stats: stats.clone(),
                model,
                patience: retry.patience,
                barrier_gen: 0,
                latched: None,
            })
            .collect();
        (Self { stats }, workers)
    }

    /// Fabric-wide traffic counters.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

/// One worker's endpoint into the fabric.
pub struct WorkerComm {
    rank: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Received-but-unclaimed messages, each sender's in send order,
    /// waiting for their `(from, tag)` to be asked for.
    pending: Vec<Message>,
    stats: Arc<CommStats>,
    model: CostModel,
    patience: Duration,
    barrier_gen: u64,
    /// A peer's abort, once one has arrived: every later call returns it.
    latched: Option<CommError>,
}

impl WorkerComm {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.senders.len()
    }

    /// Sends `payload` to worker `to` with application `tag`. `to`
    /// receives it once, after everything this worker sent it earlier;
    /// the sender never blocks.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is in the reserved barrier range (`>= 0xFFFF_0000`).
    pub fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        assert!(tag < BARRIER_TAG_BASE, "tags >= 0xFFFF_0000 are reserved");
        self.check()?;
        let bytes = payload.len();
        self.stats.record(bytes, self.model.wire_us(bytes));
        self.transmit(to, tag, payload);
        Ok(())
    }

    /// The latched abort, if a peer has sent one.
    fn check(&self) -> Result<(), CommError> {
        self.latched.clone().map_or(Ok(()), Err)
    }

    /// Best-effort: a finished or panicked peer has dropped its
    /// receiver, and what it misses surfaces through patience.
    fn transmit(&self, to: usize, tag: u32, payload: Bytes) {
        let from = self.rank;
        let _ = self.senders[to].send(Packet::Data(Message { from, tag, payload }));
    }

    /// Receives the next message carrying `tag` from `from` — the
    /// deterministic-order receive that keeps floating-point folds
    /// bitwise reproducible. Messages for other `(from, tag)` pairs are
    /// parked. The wait is bounded by the receive patience; outwaiting
    /// it aborts the fleet.
    pub fn recv_tag_from(&mut self, from: usize, tag: u32) -> Result<Message, CommError> {
        self.check()?;
        let deadline = Instant::now() + self.patience;
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|m| m.from == from && m.tag == tag)
            {
                // `remove`, not `swap_remove`: what stays keeps its order.
                return Ok(self.pending.remove(pos));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.receiver.recv_timeout(left) {
                Ok(Packet::Data(msg)) => self.pending.push(msg),
                Ok(Packet::Abort { from: by }) => {
                    return Err(self.latched.insert(CommError::Aborted { by }).clone());
                }
                Err(_) => {
                    for p in (0..self.num_workers()).filter(|&p| p != self.rank) {
                        let _ = self.senders[p].send(Packet::Abort { from: self.rank });
                    }
                    return Err(CommError::PeerUnreachable { rank: from });
                }
            }
        }
    }

    /// Blocks until every worker reaches the barrier, by exchanging
    /// empty messages on a reserved per-generation tag. Barrier traffic
    /// is not counted in the stats.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.check()?;
        self.barrier_gen += 1;
        let tag = BARRIER_TAG_BASE | (self.barrier_gen as u32 & 0xFFFF);
        let me = self.rank;
        let peers = (0..self.num_workers()).filter(move |&p| p != me);
        for p in peers.clone() {
            self.transmit(p, tag, Bytes::from_static(b""));
        }
        for p in peers {
            self.recv_tag_from(p, tag)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A patience a busy one-core box cannot run out.
    fn patient() -> RetryPolicy {
        RetryPolicy {
            patience: Duration::from_secs(600),
            ..RetryPolicy::snappy()
        }
    }

    fn spawn_workers<F, R>(k: usize, f: F) -> (Fabric, Vec<R>)
    where
        F: Fn(WorkerComm) -> R + Sync,
        R: Send,
    {
        let (fabric, workers) = Fabric::with_retry(k, CostModel::default(), patient());
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = workers.into_iter().map(|w| s.spawn(|| f(w))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (fabric, results)
    }

    #[test]
    fn point_to_point_delivery() {
        let (_fabric, results) = spawn_workers(2, |mut w| {
            if w.rank() == 0 {
                w.send(1, 7, Bytes::from_static(b"hello")).unwrap();
                w.barrier().unwrap();
                Vec::new()
            } else {
                let m = w.recv_tag_from(0, 7).unwrap();
                assert_eq!(m.from, 0);
                w.barrier().unwrap();
                m.payload.to_vec()
            }
        });
        assert_eq!(results[1], b"hello");
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let (_f, results) = spawn_workers(2, |mut w| {
            if w.rank() == 0 {
                w.send(1, 1, Bytes::from_static(b"first-tag")).unwrap();
                w.send(1, 2, Bytes::from_static(b"second-tag")).unwrap();
                w.barrier().unwrap();
                Vec::new()
            } else {
                // Ask for tag 2 first; tag 1's message must be parked and
                // still retrievable afterwards.
                let m2 = w.recv_tag_from(0, 2).unwrap();
                let m1 = w.recv_tag_from(0, 1).unwrap();
                w.barrier().unwrap();
                vec![m2.payload.to_vec(), m1.payload.to_vec()]
            }
        });
        assert_eq!(results[1][0], b"second-tag");
        assert_eq!(results[1][1], b"first-tag");
    }

    #[test]
    fn exchange_is_complete_and_attributed() {
        let k = 4;
        let (fabric, results) = spawn_workers(k, |mut w| {
            let rank = w.rank();
            let peers: Vec<usize> = (0..k).filter(|&p| p != rank).collect();
            for &p in &peers {
                w.send(p, 9, Bytes::copy_from_slice(&[rank as u8])).unwrap();
            }
            let got: Vec<Message> = peers
                .iter()
                .map(|&p| w.recv_tag_from(p, 9).unwrap())
                .collect();
            w.barrier().unwrap();
            got
        });
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(got.len(), k - 1);
            for m in got {
                assert_ne!(m.from, rank);
                assert_eq!(m.payload.as_ref(), &[m.from as u8]);
            }
        }
        // Application traffic only: barrier messages are not counted, so
        // the figure stays comparable to the paper's counts.
        assert_eq!(fabric.stats().messages(), (k * (k - 1)) as u64);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (_f, results) = spawn_workers(3, |mut w| {
            counter.fetch_add(1, Ordering::SeqCst);
            w.barrier().unwrap();
            // After the barrier everyone must observe all increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&c| c == 3));
    }

    #[test]
    fn recv_tag_from_orders_receives_by_rank() {
        let (_f, results) = spawn_workers(3, |mut w| {
            if w.rank() == 0 {
                let a = w.recv_tag_from(1, 6).unwrap();
                let b = w.recv_tag_from(2, 6).unwrap();
                w.barrier().unwrap();
                vec![a.from, b.from]
            } else {
                // Rank 2 sends "before" rank 1 (no coordination needed;
                // the directed receive imposes the order).
                w.send(0, 6, Bytes::copy_from_slice(&[w.rank() as u8]))
                    .unwrap();
                w.barrier().unwrap();
                Vec::new()
            }
        });
        assert_eq!(results[0], vec![1, 2]);
    }

    #[test]
    fn crashed_worker_is_detected_not_hung() {
        // Rank 0 is gone before it sends anything: its endpoint dropped,
        // as when its thread panics. Rank 1 gives up on it after its
        // patience and aborts the fleet; rank 2 learns of the abort.
        let impatient = RetryPolicy {
            patience: Duration::from_millis(10),
            ..patient()
        };
        let (_f, mut workers) = Fabric::with_retry(3, CostModel::default(), impatient);
        let mut w2 = workers.pop().unwrap();
        let mut w1 = workers.pop().unwrap();
        drop(workers);
        assert_eq!(
            w1.recv_tag_from(0, 1).unwrap_err(),
            CommError::PeerUnreachable { rank: 0 }
        );
        assert_eq!(w2.barrier(), Err(CommError::Aborted { by: 1 }));
        // The abort is latched: every later call returns it.
        let again = w2.send(1, 1, Bytes::from_static(b"x"));
        assert_eq!(again, Err(CommError::Aborted { by: 1 }));
    }

    #[test]
    fn stats_track_bytes() {
        let (fabric, _) = spawn_workers(2, |mut w| {
            if w.rank() == 0 {
                w.send(1, 0, Bytes::from(vec![0u8; 1024])).unwrap();
                w.barrier().unwrap();
            } else {
                let _ = w.recv_tag_from(0, 0).unwrap();
                w.barrier().unwrap();
            }
        });
        assert_eq!(fabric.stats().bytes(), 1024);
    }
}
