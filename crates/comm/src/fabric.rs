//! The worker fabric: sequenced channels, message-based barriers,
//! tagged receive, all-to-all — under a seeded [`ChaosSchedule`].
//!
//! # Delivery
//!
//! The paper's workers sit behind an MPI controller: a reliable,
//! non-overtaking transport. A crossbeam channel loses nothing, so the
//! only loss here is the one a [`ChaosSchedule`] injects — a pure
//! function of `(seed, src, dst, seq, attempt)`, never of shared mutable
//! counters. [`WorkerComm::send`] asks `link::plan_send` (the send half
//! shared with [`crate::det`]) how many transmissions the schedule loses
//! and how long a [`RetryPolicy`]'s retransmit timers take to get past
//! them, counts those drops and retries — a function of the seed — and
//! puts the payload on the channel once, stamped with the time it
//! becomes receivable. Duplicates and the reorder holdback stay physical
//! (two packets; a per-destination stash), and every arrival passes
//! through `link::LinkRecv` (the receive half, also shared), which
//! discards duplicates and parks early arrivals until the gap before
//! them fills: any schedule delivers every payload exactly once and in
//! send order (barrier traffic included: nothing overtakes a barrier).
//!
//! # Barriers and failure detection
//!
//! Barriers are message-based — an empty payload per peer on a reserved
//! tag. A worker that hits its schedule's [`CrashPoint`] stops, and each
//! peer finds a `Down` frame due one [`clock::detection_budget`] later —
//! the offset [`crate::det`] schedules its failure events at — which
//! latches [`CommError::PeerUnreachable`]. Independently of any
//! schedule, every blocking receive is bounded by
//! [`RetryPolicy::patience`]: a worker that outwaits it returns a
//! structured [`CommError`] instead of hanging and broadcasts an abort,
//! so the whole fleet unwinds and `dist::trainer` can re-drive the epoch
//! from its epoch-start checkpoint.
//!
//! A schedule installed with [`Fabric::set_chaos`] is published as an
//! immutable `Arc` and adopted by each worker only at barrier points (or
//! on its first fabric operation), so a schedule can never tear across a
//! message batch.

use crate::chaos::ChaosSchedule;
use crate::clock::{self, wait_until};
use crate::link::{self, LinkRecv};
use crate::stats::{CommStats, CostModel};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for the barrier protocol.
const BARRIER_TAG_BASE: u32 = 0xFFFF_0000;

/// A structured communication failure. Every blocking fabric operation
/// returns one instead of hanging when a peer is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// This worker reached its scheduled [`CrashPoint`] and must stop.
    Crashed,
    /// Peer `rank` crashed, or a directed receive from `rank` outlived
    /// the receive patience.
    PeerUnreachable {
        /// The unresponsive peer.
        rank: usize,
    },
    /// An any-source receive outlived the receive patience.
    RecvTimeout {
        /// The tag that never arrived.
        tag: u32,
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
            Self::RecvTimeout { tag } => write!(f, "no message with tag {tag} within patience"),
            Self::Aborted { by } => write!(f, "epoch aborted by peer {by}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Retransmission and failure-detection timing: what both transports
/// model a sender's timers with (`link::plan_send`,
/// [`clock::detection_budget`]). Only `patience` is a real wait.
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
    deliver_at: Instant,
}

/// Wire frames. Only `Data` is sequenced and chaos-injected.
#[derive(Clone, Debug)]
enum Frame {
    Data {
        seq: u64,
        msg: Message,
    },
    /// The sender hit its crash point; its peers know at `due`.
    Down {
        due: Instant,
    },
    Abort,
}

/// One transmission on the simulated wire.
struct Packet {
    from: usize,
    frame: Frame,
}

struct Shared {
    stats: CommStats,
    model: CostModel,
    retry: RetryPolicy,
    /// Published schedule; workers clone the `Arc` at barrier points.
    chaos: Mutex<Arc<ChaosSchedule>>,
}

/// Handle used to build a worker fleet, read fabric-wide stats, and
/// install chaos schedules.
pub struct Fabric {
    shared: Arc<Shared>,
}

impl Fabric {
    /// Creates a fabric of `k` workers with the default [`RetryPolicy`],
    /// returning per-worker endpoints.
    pub fn new(k: usize, model: CostModel) -> (Self, Vec<WorkerComm>) {
        Self::with_retry(k, model, RetryPolicy::default())
    }

    /// Creates a fabric of `k` workers with an explicit retry policy.
    pub fn with_retry(k: usize, model: CostModel, retry: RetryPolicy) -> (Self, Vec<WorkerComm>) {
        assert!(k >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            stats: CommStats::default(),
            model,
            retry,
            chaos: Mutex::new(Arc::new(ChaosSchedule::default())),
        });
        let mut senders = Vec::with_capacity(k);
        let mut receivers = Vec::with_capacity(k);
        for _ in 0..k {
            let (s, r) = unbounded::<Packet>();
            senders.push(s);
            receivers.push(r);
        }
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| WorkerComm {
                rank,
                k,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
                shared: shared.clone(),
                chaos: None,
                next_seq: vec![0; k],
                held: vec![Vec::new(); k],
                links: (0..k).map(|_| LinkRecv::default()).collect(),
                barrier_gen: 0,
                data_sends: 0,
                latched: None,
            })
            .collect();
        (Self { shared }, workers)
    }

    /// Fabric-wide traffic counters.
    pub fn stats(&self) -> &CommStats {
        &self.shared.stats
    }

    /// Publishes a chaos schedule. Workers adopt it at their next
    /// barrier (or first fabric operation), never mid-batch.
    pub fn set_chaos(&self, schedule: ChaosSchedule) {
        *self.shared.chaos.lock() = Arc::new(schedule);
    }
}

/// One worker's endpoint into the fabric.
pub struct WorkerComm {
    rank: usize,
    k: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Delivered-but-unclaimed messages, each link's in send order,
    /// waiting for their tag to be asked for.
    pending: Vec<Message>,
    shared: Arc<Shared>,
    /// This worker's adopted schedule; refreshed only at barriers.
    chaos: Option<Arc<ChaosSchedule>>,
    /// Next sequence number per destination (1-based; 0 = none sent).
    next_seq: Vec<u64>,
    /// Per-destination frames held back by the reorder fault.
    held: Vec<Vec<Frame>>,
    /// Receive half of the link from each source.
    links: Vec<LinkRecv<Message>>,
    barrier_gen: u64,
    /// Application (non-control) sends attempted, for [`CrashPoint`].
    data_sends: u64,
    /// What ended this worker's attempt, once something has: its own
    /// crash, a peer's, or a peer's abort. Every later call returns it.
    latched: Option<CommError>,
}

impl WorkerComm {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.k
    }

    /// Sends `payload` to worker `to` with application `tag`. Whatever
    /// the chaos schedule does to it, `to` receives it exactly once and
    /// in send order.
    ///
    /// The sender returns immediately (delivery is delayed by the cost
    /// model's wire time when `simulate_delay` is on, so payloads are
    /// genuinely "in flight" — the property pipeline processing overlaps
    /// against).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is in the reserved barrier range (`>= 0xFFFF_0000`).
    pub fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        assert!(tag < BARRIER_TAG_BASE, "tags >= 0xFFFF_0000 are reserved");
        self.send_inner(to, tag, payload, false)
    }

    fn send_inner(
        &mut self,
        to: usize,
        tag: u32,
        payload: Bytes,
        control: bool,
    ) -> Result<(), CommError> {
        let chaos = self.begin()?;
        if !control {
            if chaos.crashes_at(self.rank, self.data_sends) {
                let due = Instant::now() + clock::detection_budget(&self.shared.retry);
                self.broadcast(Frame::Down { due });
                return Err(self.latched.insert(CommError::Crashed).clone());
            }
            self.data_sends += 1;
        }
        self.next_seq[to] += 1;
        let seq = self.next_seq[to];
        let plan = link::plan_send(&chaos, self.shared.retry, (self.rank, to, seq), |_| false);
        let d = plan.verdict;
        let stats = &self.shared.stats;
        let model = self.shared.model;
        let wire_us = model.wire_us(payload.len());
        if control {
            stats.record_control();
        } else {
            stats.record(payload.len(), wire_us + d.delay_us);
        }
        for _ in 0..plan.dropped {
            stats.record_drop_injected();
            stats.record_retry();
        }
        // Receivable once the retransmit timers have got a transmission
        // through and it has crossed the wire: chaos delay always, wire
        // time only when the model simulates delay.
        let flight_us = d.delay_us + if model.simulate_delay { wire_us } else { 0.0 };
        let flight = plan.retry_wait + Duration::from_nanos((flight_us * 1_000.0) as u64);
        let msg = Message {
            from: self.rank,
            tag,
            payload,
            deliver_at: Instant::now() + flight,
        };
        let frame = Frame::Data { seq, msg };
        if d.hold && self.held[to].len() < chaos.reorder_window {
            self.held[to].push(frame);
            return Ok(());
        }
        let dup = d.duplicate.then(|| frame.clone());
        self.transmit(to, frame);
        if let Some(dp) = dup {
            stats.record_dup_injected();
            self.transmit(to, dp);
        }
        // A normal transmission releases anything held back for this
        // destination — the held frames now arrive *after* it.
        self.flush_held(to);
        Ok(())
    }

    /// Opens a fabric operation: the latched end of this worker's
    /// attempt if there is one, else its schedule — adopted here when
    /// this is the worker's first operation, whichever kind it is.
    fn begin(&mut self) -> Result<ChaosSchedule, CommError> {
        if let Some(e) = &self.latched {
            return Err(e.clone());
        }
        let published = &self.shared.chaos;
        Ok(**self.chaos.get_or_insert_with(|| published.lock().clone()))
    }

    /// Best-effort raw transmit: a crashed or finished peer may have
    /// dropped its receiver; that failure surfaces through timeouts.
    fn transmit(&self, to: usize, frame: Frame) {
        let from = self.rank;
        let _ = self.senders[to].send(Packet { from, frame });
    }

    fn flush_held(&mut self, to: usize) {
        while let Some(frame) = self.held[to].pop() {
            self.transmit(to, frame);
        }
    }

    fn flush_all_held(&mut self) {
        for p in 0..self.k {
            self.flush_held(p);
        }
    }

    /// Sends every peer an unsequenced `frame`.
    fn broadcast(&self, frame: Frame) {
        for p in (0..self.k).filter(|&p| p != self.rank) {
            self.transmit(p, frame.clone());
        }
    }

    /// Ingests one wire packet: releases what is now in order to
    /// `pending`, latches a peer's crash or abort.
    fn process_packet(&mut self, Packet { from, frame }: Packet) -> Result<(), CommError> {
        let end = match frame {
            Frame::Data { seq, msg } => {
                if !self.links[from].accept(seq, msg, |m| self.pending.push(m)) {
                    self.shared.stats.record_redelivery();
                }
                return Ok(());
            }
            Frame::Down { due } => {
                wait_until(due);
                CommError::PeerUnreachable { rank: from }
            }
            Frame::Abort => CommError::Aborted { by: from },
        };
        Err(self.latched.insert(end).clone())
    }

    /// Receives the next message carrying `tag` (from `from`, when
    /// given) — the oldest such message of each link first — blocking
    /// until its modeled delivery time. Messages with other tags are
    /// parked. The wait is the fabric's only one and is bounded by the
    /// receive patience; outwaiting it aborts the fleet.
    fn recv_match(&mut self, from: Option<usize>, tag: u32) -> Result<Message, CommError> {
        self.begin()?;
        // Entering a blocking wait: release anything held back by the
        // reorder fault so it cannot be withheld indefinitely.
        self.flush_all_held();
        let deadline = Instant::now() + self.shared.retry.patience;
        loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|m| m.tag == tag && from.is_none_or(|f| m.from == f))
            {
                // `remove`, not `swap_remove`: what stays keeps its order.
                let msg = self.pending.remove(pos);
                wait_until(msg.deliver_at);
                return Ok(msg);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.receiver.recv_timeout(left) {
                Ok(pkt) => self.process_packet(pkt)?,
                Err(_) => {
                    self.broadcast(Frame::Abort);
                    return Err(match from {
                        Some(rank) => CommError::PeerUnreachable { rank },
                        None => CommError::RecvTimeout { tag },
                    });
                }
            }
        }
    }

    /// Receives the next message carrying `tag` from any source.
    pub fn recv_tag(&mut self, tag: u32) -> Result<Message, CommError> {
        self.recv_match(None, tag)
    }

    /// Receives the next message carrying `tag` from a specific peer —
    /// the deterministic-order receive that keeps floating-point folds
    /// bitwise reproducible under reordering chaos.
    pub fn recv_tag_from(&mut self, from: usize, tag: u32) -> Result<Message, CommError> {
        self.recv_match(Some(from), tag)
    }

    /// Blocks until every worker reaches the barrier, by exchanging
    /// empty messages on a reserved per-generation tag. A missing peer
    /// turns into [`CommError::PeerUnreachable`] (its `Down` frame, or
    /// the receive patience), and a passed barrier is the adoption point
    /// for schedules published via [`Fabric::set_chaos`].
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.begin()?;
        self.barrier_gen += 1;
        let tag = BARRIER_TAG_BASE | (self.barrier_gen as u32 & 0xFFFF);
        for p in 0..self.k {
            if p != self.rank {
                self.send_inner(p, tag, Bytes::from_static(b""), true)?;
            }
        }
        for p in 0..self.k {
            if p != self.rank {
                self.recv_match(Some(p), tag)?;
            }
        }
        // Everyone is between batches: safe to adopt a new schedule.
        self.chaos = Some(self.shared.chaos.lock().clone());
        Ok(())
    }

    /// All-to-all exchange for one round: sends `outgoing[p]` to each
    /// other worker `p` (entries for `self.rank` are ignored), then
    /// receives exactly one message from every other worker. Returns
    /// `(from, payload)` pairs in arrival order.
    pub fn exchange(
        &mut self,
        tag: u32,
        outgoing: Vec<Bytes>,
    ) -> Result<Vec<(usize, Bytes)>, CommError> {
        assert_eq!(outgoing.len(), self.k, "one payload slot per worker");
        for (p, payload) in outgoing.into_iter().enumerate() {
            if p != self.rank {
                self.send(p, tag, payload)?;
            }
        }
        let mut seen = vec![false; self.k];
        let mut got = Vec::with_capacity(self.k.saturating_sub(1));
        while got.len() < self.k - 1 {
            let msg = self.recv_tag(tag)?;
            // The transport already dedups; this guards against a peer
            // legitimately sending the same tag twice in one round.
            if seen[msg.from] {
                continue;
            }
            seen[msg.from] = true;
            got.push((msg.from, msg.payload));
        }
        Ok(got)
    }
}

impl Drop for WorkerComm {
    /// What the reorder fault still holds back goes out with the worker:
    /// it may make no later send or blocking call to release it.
    fn drop(&mut self) {
        self.flush_all_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CostModel;

    /// The policy of every test here that checks *delivery* (drops,
    /// duplicates, reordering, barriers) rather than failure detection:
    /// `snappy()`'s short modeled retransmission timer, with a patience
    /// a busy one-core box cannot run out.
    fn patient() -> RetryPolicy {
        RetryPolicy {
            patience: Duration::from_secs(600),
            ..RetryPolicy::snappy()
        }
    }

    fn spawn_workers<F, R>(k: usize, model: CostModel, f: F) -> (Fabric, Vec<R>)
    where
        F: Fn(WorkerComm) -> R + Sync,
        R: Send,
    {
        spawn_with_chaos(k, model, patient(), ChaosSchedule::default(), f)
    }

    fn spawn_with_chaos<F, R>(
        k: usize,
        model: CostModel,
        retry: RetryPolicy,
        chaos: ChaosSchedule,
        f: F,
    ) -> (Fabric, Vec<R>)
    where
        F: Fn(WorkerComm) -> R + Sync,
        R: Send,
    {
        let (fabric, workers) = Fabric::with_retry(k, model, retry);
        fabric.set_chaos(chaos);
        let results = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = workers.into_iter().map(|w| s.spawn(|_| f(w))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        (fabric, results)
    }

    #[test]
    fn point_to_point_delivery() {
        let (_fabric, results) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 7, Bytes::from_static(b"hello")).unwrap();
                w.barrier().unwrap();
                Vec::new()
            } else {
                let m = w.recv_tag(7).unwrap();
                assert_eq!(m.from, 0);
                w.barrier().unwrap();
                m.payload.to_vec()
            }
        });
        assert_eq!(results[1], b"hello");
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let (_f, results) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 1, Bytes::from_static(b"first-tag")).unwrap();
                w.send(1, 2, Bytes::from_static(b"second-tag")).unwrap();
                w.barrier().unwrap();
                Vec::new()
            } else {
                // Ask for tag 2 first; tag 1's message must be parked and
                // still retrievable afterwards.
                let m2 = w.recv_tag(2).unwrap();
                let m1 = w.recv_tag(1).unwrap();
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
        let (fabric, results) = spawn_workers(k, CostModel::accounting_only(), |mut w| {
            let rank = w.rank() as u8;
            let out: Vec<Bytes> = (0..k).map(|_| Bytes::copy_from_slice(&[rank])).collect();
            let mut got = w.exchange(9, out).unwrap();
            got.sort_by_key(|(from, _)| *from);
            got
        });
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(got.len(), k - 1);
            for (from, payload) in got {
                assert_ne!(*from, rank);
                assert_eq!(payload.as_ref(), &[*from as u8]);
            }
        }
        // Application traffic only: barriers are accounted as control,
        // so the figure stays comparable to the paper's counts.
        assert_eq!(fabric.stats().messages(), (k * (k - 1)) as u64);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (_f, results) = spawn_workers(3, CostModel::accounting_only(), |mut w| {
            counter.fetch_add(1, Ordering::SeqCst);
            w.barrier().unwrap();
            // After the barrier everyone must observe all increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&c| c == 3));
    }

    #[test]
    fn modeled_delay_actually_delays() {
        let model = CostModel {
            alpha_us: 20_000.0,
            bytes_per_us: 1e9,
            simulate_delay: true,
        };
        // Counted from before either worker exists, so from before the
        // send: the floor holds however the two threads are scheduled.
        let t0 = Instant::now();
        let (_f, results) = spawn_workers(2, model, |mut w| {
            if w.rank() == 0 {
                w.send(1, 0, Bytes::from_static(b"x")).unwrap();
            } else {
                let _ = w.recv_tag(0).unwrap();
            }
            let took = t0.elapsed();
            w.barrier().unwrap();
            took
        });
        assert!(
            results[1] >= Duration::from_millis(15),
            "delivery waits for wire time, got {:?}",
            results[1]
        );

        // The sender must NOT block on the wire: with an hour of it
        // ahead, on one thread, `send` returns and the packet is already
        // on the peer's channel, receivable in an hour.
        let hour = CostModel {
            alpha_us: 3.6e9,
            ..model
        };
        let (_f, mut workers) = Fabric::with_retry(2, hour, patient());
        let w1 = workers.pop().unwrap();
        let mut w0 = workers.pop().unwrap();
        let t0 = Instant::now();
        w0.send(1, 0, Bytes::from_static(b"x")).unwrap();
        let Ok(Frame::Data { msg, .. }) = w1.receiver.try_recv().map(|pkt| pkt.frame) else {
            panic!("send is async: the packet is on the wire");
        };
        assert!(msg.deliver_at > t0 + Duration::from_secs(1800));
    }

    #[test]
    fn duplicate_chaos_is_deduplicated_by_transport() {
        // Every second packet of a link is duplicated: the entry
        // barrier's is the first, the exchange's the second, the exit
        // barrier's the third — so exactly the two payloads are.
        let chaos = ChaosSchedule {
            seed: 1,
            duplicate_every: 2,
            ..Default::default()
        };
        let model = CostModel::accounting_only();
        let (fabric, _) = spawn_with_chaos(2, model, patient(), chaos, |mut w| {
            w.barrier().unwrap();
            let out = vec![Bytes::from_static(b"p"); 2];
            let got = w.exchange(3, out).unwrap();
            assert_eq!(got.len(), 1, "duplicates must collapse");
            // The channel is FIFO: the peer's duplicate precedes its
            // barrier message, so once the barrier has passed the
            // duplicate has been ingested and counted.
            w.barrier().unwrap();
            assert!(w.pending.is_empty(), "duplicate discarded, not surfaced");
        });
        // Each logical message counted once; both duplicates recorded.
        assert_eq!(fabric.stats().messages(), 2);
        assert_eq!(fabric.stats().dups_injected(), 2);
        assert_eq!(fabric.stats().redeliveries(), 2);
    }

    #[test]
    fn dropped_messages_are_retransmitted() {
        // Drop the first transmission of EVERY packet: each arrives as
        // its first retransmission.
        let chaos = ChaosSchedule {
            seed: 3,
            drop_every: 1,
            ..Default::default()
        };
        let model = CostModel::accounting_only();
        let (fabric, results) = spawn_with_chaos(3, model, patient(), chaos, |mut w| {
            let rank = w.rank() as u8;
            let out: Vec<Bytes> = (0..3).map(|_| Bytes::copy_from_slice(&[rank])).collect();
            let mut got = w.exchange(4, out).unwrap();
            w.barrier().unwrap();
            got.sort_by_key(|(from, _)| *from);
            got.into_iter().map(|(_, p)| p[0]).collect::<Vec<u8>>()
        });
        for (rank, got) in results.iter().enumerate() {
            let want: Vec<u8> = (0..3u8).filter(|&p| p as usize != rank).collect();
            assert_eq!(*got, want);
        }
        // 6 payloads + 6 barrier messages, each dropped exactly once.
        assert_eq!(fabric.stats().drops_injected(), 12);
        assert_eq!(fabric.stats().retries(), 12, "one retransmission per drop");
        assert_eq!(fabric.stats().messages(), 6, "logical count unchanged");
    }

    #[test]
    fn reordered_messages_arrive_in_seq_order_per_link() {
        let chaos = ChaosSchedule {
            seed: 9,
            reorder_prob: 1.0,
            reorder_window: 3,
            ..Default::default()
        };
        let model = CostModel::accounting_only();
        let (_f, results) = spawn_with_chaos(2, model, patient(), chaos, |mut w| {
            if w.rank() == 0 {
                for i in 0..6u8 {
                    w.send(1, 11, Bytes::copy_from_slice(&[i])).unwrap();
                }
                w.barrier().unwrap();
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..6 {
                    got.push(w.recv_tag(11).unwrap().payload[0]);
                }
                w.barrier().unwrap();
                got
            }
        });
        // The holdback shuffles the wire; the link's receive half puts
        // it back: each payload once, in the order it was sent.
        assert_eq!(results[1], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn held_packet_outlives_its_sender() {
        let chaos = ChaosSchedule {
            seed: 9,
            reorder_prob: 1.0,
            reorder_window: 3,
            ..Default::default()
        };
        let (fabric, mut workers) = Fabric::with_retry(2, CostModel::accounting_only(), patient());
        fabric.set_chaos(chaos);
        let mut w1 = workers.pop().unwrap();
        let mut w0 = workers.pop().unwrap();
        // Held back, and no later send or blocking call releases it.
        w0.send(1, 11, Bytes::from_static(b"x")).unwrap();
        drop(w0);
        assert_eq!(w1.recv_tag(11).unwrap().payload.as_ref(), b"x");
    }

    #[test]
    fn recv_tag_from_orders_receives_by_rank() {
        let (_f, results) = spawn_workers(3, CostModel::accounting_only(), |mut w| {
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
        let chaos = ChaosSchedule {
            seed: 2,
            crash: Some(crate::chaos::CrashPoint {
                rank: 0,
                at_send: 1,
            }),
            ..Default::default()
        };
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            max_attempts: 4,
            ..patient()
        };
        let (fabric, workers) = Fabric::with_retry(2, CostModel::accounting_only(), retry);
        fabric.set_chaos(chaos);
        let t0 = Instant::now();
        let results: Vec<Result<(), CommError>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|mut w| {
                    s.spawn(move |_| -> Result<(), CommError> {
                        if w.rank() == 0 {
                            w.send(1, 1, Bytes::from_static(b"never"))?;
                            unreachable!("rank 0 crashes on its first send");
                        } else {
                            let _ = w.recv_tag(1)?;
                            Ok(())
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(results[0], Err(CommError::Crashed));
        assert_eq!(results[1], Err(CommError::PeerUnreachable { rank: 0 }));
        assert!(
            t0.elapsed() >= clock::detection_budget(&retry),
            "the death is known one detection budget after it, not {:?}",
            t0.elapsed()
        );

        // A peer that is merely silent is not waited for forever either:
        // the receive gives up after its patience and aborts the fleet.
        let impatient = RetryPolicy {
            patience: Duration::from_millis(10),
            ..retry
        };
        let (_f, mut workers) = Fabric::with_retry(2, CostModel::accounting_only(), impatient);
        let mut w1 = workers.pop().unwrap();
        let mut w0 = workers.pop().unwrap();
        assert_eq!(
            w1.recv_tag(1).unwrap_err(),
            CommError::RecvTimeout { tag: 1 }
        );
        assert_eq!(w0.barrier(), Err(CommError::Aborted { by: 1 }));
    }

    #[test]
    fn chaos_schedule_swaps_only_at_barriers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (fabric, workers) = Fabric::with_retry(2, CostModel::accounting_only(), patient());
        let installed = AtomicBool::new(false);
        let fabric_ref = &fabric;
        let installed_ref = &installed;
        crossbeam::thread::scope(|s| {
            let mut it = workers.into_iter();
            let mut w0 = it.next().unwrap();
            let mut w1 = it.next().unwrap();
            let h0 = s.spawn(move |_| {
                // First send adopts the (empty) schedule.
                w0.send(1, 1, Bytes::from_static(b"a")).unwrap();
                while !installed_ref.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // A schedule installed mid-batch must NOT apply yet.
                w0.send(1, 1, Bytes::from_static(b"b")).unwrap();
                w0.send(1, 1, Bytes::from_static(b"c")).unwrap();
                w0.barrier().unwrap();
                // After the barrier the new schedule applies.
                w0.send(1, 2, Bytes::from_static(b"d")).unwrap();
            });
            let h1 = s.spawn(move |_| {
                let _ = w1.recv_tag(1).unwrap();
                fabric_ref.set_chaos(ChaosSchedule {
                    seed: 0,
                    duplicate_every: 1,
                    ..Default::default()
                });
                installed_ref.store(true, Ordering::Release);
                let _ = w1.recv_tag(1).unwrap();
                let _ = w1.recv_tag(1).unwrap();
                w1.barrier().unwrap();
                let _ = w1.recv_tag(2).unwrap();
            });
            h0.join().unwrap();
            h1.join().unwrap();
        })
        .unwrap();
        // Only "d" (sent after the barrier) was duplicated; "b" and "c"
        // rode out the old schedule even though the new one was already
        // published.
        assert_eq!(fabric.stats().dups_injected(), 1);
    }

    #[test]
    fn stats_track_bytes() {
        let (fabric, _) = spawn_workers(2, CostModel::accounting_only(), |mut w| {
            if w.rank() == 0 {
                w.send(1, 0, Bytes::from(vec![0u8; 1024])).unwrap();
                w.barrier().unwrap();
            } else {
                let _ = w.recv_tag(0).unwrap();
                w.barrier().unwrap();
            }
        });
        assert_eq!(fabric.stats().bytes(), 1024);
    }
}
