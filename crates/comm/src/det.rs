//! Deterministic virtual-time discrete-event runtime.
//!
//! The threaded [`crate::fabric`] caps simulated cluster sizes at the
//! host's core count and runs no faults. This module
//! replaces OS threads with *cooperative state-machine tasks* driven by
//! a binary-heap event wheel keyed by `(virtual_time, tie_break_seq)`:
//! a thousand workers run comfortably on one core, every run of the same
//! seed replays the exact same event sequence byte for byte, and a whole
//! epoch at any scale finishes in the wall time of its compute — the
//! virtual wire costs nothing to "wait" on.
//!
//! Pieces:
//!
//! * [`EventWheel`] — the priority queue of pending events and a
//!   monotonic virtual clock,
//! * [`NetProfile`] — per-link latency/bandwidth models with rack
//!   topology, stragglers, and flaky racks,
//! * [`VirtualCluster`] — the scheduler + virtual fabric: it implements
//!   the familiar send / receive / barrier surface on scheduled delivery
//!   events, folds a seeded [`ChaosSchedule`] in as events (drops become
//!   modeled retransmission delays, duplicates a second delivery,
//!   crashes a cascade of peer-failure events), and appends a
//!   deterministic event log. Each wire arrival is priced on its own,
//!   so arrivals can overtake one another; the link's `link::LinkRecv`
//!   hands them over once each and in send order, an early one when its
//!   gap fills.
//!
//! Determinism contract: given the same tasks, profile, retry policy,
//! and chaos seed, the sequence of scheduler decisions — and therefore
//! the event log, every task's virtual timeline, and all delivered
//! bytes — is identical on every run, on any host, at any
//! `FLEXGRAPH_THREADS`. Nothing on this path reads a wall clock or
//! iterates a hash map.

use crate::chaos::{splitmix64, ChaosSchedule};
use crate::clock;
use crate::fabric::{CommError, RetryPolicy};
use crate::link::{self, LinkRecv};
use crate::worker::{SimTask, TaskStep, WorkerCtx};
use bytes::Bytes;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Write as _;

/// Virtual time, in nanoseconds since cluster start.
pub type Vt = u64;

/// A binary-heap event wheel keyed by `(virtual_time, tie_break_seq)`.
///
/// Events scheduled for the same instant pop in scheduling order (the
/// monotone tie-break sequence), so the wheel itself never introduces
/// nondeterminism. The clock never runs backwards: scheduling into the
/// past clamps to the time of the last popped event.
#[derive(Debug, Default)]
pub struct EventWheel<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    /// The time of the last popped event.
    now: Vt,
}

/// A scheduled event, ordered by `(at, seq)` alone: no two entries
/// share a `seq`, so the order is total without looking at the event.
#[derive(Debug)]
struct Entry<E> {
    at: Vt,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Vt, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> EventWheel<E> {
    /// An empty wheel at virtual time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Schedules `event` at virtual time `at` (clamped to the last popped
    /// time — the clock cannot run backwards).
    pub fn schedule(&mut self, at: Vt, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            at: at.max(self.now),
            seq,
            event,
        }));
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Vt, E)> {
        let Reverse(Entry { at, event, .. }) = self.heap.pop()?;
        debug_assert!(at >= self.now, "virtual clock ran backwards");
        self.now = at;
        Some((at, event))
    }
}

/// One directed link's wire model: `latency_us + bytes / bytes_per_us`
/// microseconds per message (the alpha-beta model, same shape as
/// [`crate::CostModel`]).
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Per-message fixed latency in microseconds.
    pub latency_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
}

impl LinkSpec {
    /// Modeled wire nanoseconds for one message of `bytes` bytes.
    pub fn wire_ns(&self, bytes: usize) -> u64 {
        ((self.latency_us + bytes as f64 / self.bytes_per_us) * 1_000.0) as u64
    }
}

/// A worker whose compute and/or NIC runs slower than the fleet.
#[derive(Clone, Copy, Debug)]
pub struct Straggler {
    /// The slow worker's rank.
    pub rank: usize,
    /// Compute-time multiplier (2.0 = half speed).
    pub compute_factor: f64,
    /// Wire-time multiplier on every link touching this worker.
    pub link_factor: f64,
}

/// A rack whose uplinks misbehave: extra delay on every crossing
/// message, plus seeded random first-transmission drops.
#[derive(Clone, Copy, Debug)]
pub struct FlakyRack {
    /// Index of the afflicted rack.
    pub rack: usize,
    /// Extra microseconds on every message entering or leaving the rack.
    pub extra_delay_us: f64,
    /// Probability of dropping a first or second transmission (never
    /// later ones — liveness is preserved, the cost is retransmission
    /// latency).
    pub drop_prob: f64,
}

/// The cluster's network and compute model: rack topology with distinct
/// intra-/inter-rack links, a deterministic compute-rate, stragglers,
/// and flaky racks.
#[derive(Clone, Debug)]
pub struct NetProfile {
    /// Seed for the profile's own fault randomness (flaky-rack drops),
    /// independent of any [`ChaosSchedule`] seed.
    pub seed: u64,
    /// Workers per rack; `0` means one flat rack (every link intra).
    pub rack_size: usize,
    /// Link model within a rack.
    pub intra: LinkSpec,
    /// Link model between racks.
    pub inter: LinkSpec,
    /// Nanoseconds of virtual compute per charged work unit.
    pub compute_ns_per_unit: f64,
    /// Slow workers.
    pub stragglers: Vec<Straggler>,
    /// Misbehaving racks.
    pub flaky_racks: Vec<FlakyRack>,
}

impl Default for NetProfile {
    /// A clean LAN matching [`crate::CostModel::default`]: 50 µs per
    /// message at 3.25 GB/s, uniform links, no stragglers.
    fn default() -> Self {
        Self {
            seed: 0,
            rack_size: 0,
            intra: LinkSpec {
                latency_us: 50.0,
                bytes_per_us: 3_250.0,
            },
            inter: LinkSpec {
                latency_us: 50.0,
                bytes_per_us: 3_250.0,
            },
            compute_ns_per_unit: 1.0,
            stragglers: Vec::new(),
            flaky_racks: Vec::new(),
        }
    }
}

impl NetProfile {
    /// A uniform profile with the same alpha-beta numbers as a
    /// [`crate::CostModel`] (virtual waiting is free, so the wire is
    /// always modeled).
    pub fn from_cost_model(m: &crate::CostModel) -> Self {
        let link = LinkSpec {
            latency_us: m.alpha_us,
            bytes_per_us: m.bytes_per_us,
        };
        Self {
            intra: link,
            inter: link,
            ..Self::default()
        }
    }

    /// The rack housing `rank`.
    pub fn rack_of(&self, rank: usize) -> usize {
        rank.checked_div(self.rack_size).unwrap_or(0)
    }

    fn flaky_of(&self, rank: usize) -> Option<&FlakyRack> {
        let rack = self.rack_of(rank);
        self.flaky_racks.iter().find(|f| f.rack == rack)
    }

    /// Wire nanoseconds for `bytes` from `src` to `dst`, including rack
    /// topology, straggler link factors, and flaky-rack delay.
    pub fn wire_ns(&self, src: usize, dst: usize, bytes: usize) -> u64 {
        let link = if self.rack_of(src) == self.rack_of(dst) {
            self.intra
        } else {
            self.inter
        };
        let mut ns = link.wire_ns(bytes) as f64;
        for s in &self.stragglers {
            if s.rank == src || s.rank == dst {
                ns *= s.link_factor;
            }
        }
        if src != dst && self.rack_of(src) != self.rack_of(dst) {
            for f in [self.flaky_of(src), self.flaky_of(dst)]
                .into_iter()
                .flatten()
            {
                ns += f.extra_delay_us * 1_000.0;
            }
        }
        ns as u64
    }

    /// The compute-time multiplier of `rank` (1.0 unless straggling).
    pub fn compute_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map_or(1.0, |s| s.compute_factor)
    }

    /// Seeded flaky-rack drop verdict for transmission `attempt` of
    /// packet `seq` on `src -> dst`. Pure in all arguments; never drops
    /// from the third transmission on (same liveness rule as
    /// [`ChaosSchedule`]).
    pub fn flaky_drop(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        if attempt > 1 || self.rack_of(src) == self.rack_of(dst) {
            return false;
        }
        let prob = [self.flaky_of(src), self.flaky_of(dst)]
            .into_iter()
            .flatten()
            .map(|f| f.drop_prob)
            .fold(0.0f64, f64::max);
        if prob <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                ^ (src as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (dst as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
                ^ seq.wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
                ^ (u64::from(attempt) << 48),
        );
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
    }
}

/// A message delivered through the virtual fabric.
#[derive(Clone, Debug)]
pub struct VMessage {
    /// Sender rank.
    pub from: usize,
    /// Application tag.
    pub tag: u32,
    /// Per-link sequence number.
    pub seq: u64,
    /// Virtual delivery time: the wire arrival, or that of the earlier
    /// message of the link it had to wait for.
    pub at: Vt,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Configuration of a virtual cluster.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Network and compute model.
    pub net: NetProfile,
    /// Retransmission/detection timing (its shapes are in
    /// [`crate::clock`]).
    pub retry: RetryPolicy,
    /// Seeded fault schedule, applied as events.
    pub chaos: ChaosSchedule,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    Runnable,
    Waiting { from: usize, tag: u32 },
    InBarrier,
    Finished,
}

enum NetEvent {
    Deliver { dst: usize, msg: VMessage },
    Failure { dst: usize, culprit: usize },
}

/// Deterministic traffic counters of one virtual cluster (the virtual
/// analogue of [`crate::CommStats`], without atomics — the scheduler is
/// single-threaded by construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtualStats {
    /// Application messages sent (logical sends; retransmits and
    /// duplicates never inflate this).
    pub messages: u64,
    /// Application payload bytes sent.
    pub bytes: u64,
    /// Modeled wire nanoseconds summed over messages.
    pub modeled_ns: u64,
    /// Retransmissions (collapsed into delivery-time delays).
    pub retries: u64,
    /// Injected drops (chaos schedule + flaky racks).
    pub drops_injected: u64,
    /// Injected duplicate transmissions.
    pub dups_injected: u64,
    /// Receive-side duplicate discards.
    pub redeliveries: u64,
}

/// The virtual cluster: scheduler, fabric, chaos, and event log in one.
///
/// Construct with [`VirtualCluster::new`], then [`VirtualCluster::run`]
/// a vector of tasks (one per worker) to completion. Afterwards the
/// per-task virtual completion times, traffic stats, and the event log
/// are available for harvesting.
pub struct VirtualCluster {
    k: usize,
    cfg: SimConfig,
    wheel: EventWheel<NetEvent>,
    /// Per-destination inboxes keyed by `(from, tag)`. Only ever keyed
    /// into (never iterated), so the map is deterministic.
    inbox: Vec<HashMap<(usize, u32), VecDeque<VMessage>>>,
    /// Each task's local virtual clock.
    local_vt: Vec<Vt>,
    /// Each task's accumulated pure-compute nanoseconds.
    compute_ns: Vec<u64>,
    state: Vec<TaskState>,
    runq: VecDeque<usize>,
    /// Next per-link sequence number, indexed `[src][dst]`.
    next_seq: Vec<Vec<u64>>,
    /// Receive half of every link, at `dst * k + src`.
    links: Vec<LinkRecv<VMessage>>,
    /// Latched failure per task (peer crash detection).
    failed: Vec<Option<CommError>>,
    data_sends: Vec<u64>,
    crashed: Vec<bool>,
    barrier_gen: u64,
    barrier_entered: usize,
    barrier_max_vt: Vt,
    /// Precomputed per-rank straggler factors.
    compute_mult: Vec<f64>,
    stats: VirtualStats,
    log: String,
}

/// FNV-1a over a byte string — the cheap digest used to compare event
/// logs without holding two copies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl VirtualCluster {
    /// A cluster of `k` workers at virtual time zero.
    pub fn new(k: usize, cfg: SimConfig) -> Self {
        assert!(k >= 1, "need at least one worker");
        let compute_mult = (0..k).map(|r| cfg.net.compute_factor(r)).collect();
        Self {
            k,
            cfg,
            wheel: EventWheel::new(),
            inbox: (0..k).map(|_| HashMap::new()).collect(),
            local_vt: vec![0; k],
            compute_ns: vec![0; k],
            state: vec![TaskState::Runnable; k],
            runq: VecDeque::new(),
            next_seq: (0..k).map(|_| vec![0; k]).collect(),
            links: (0..k * k).map(|_| LinkRecv::default()).collect(),
            failed: vec![None; k],
            data_sends: vec![0; k],
            crashed: vec![false; k],
            barrier_gen: 0,
            barrier_entered: 0,
            barrier_max_vt: 0,
            compute_mult,
            stats: VirtualStats::default(),
            log: String::new(),
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.k
    }

    /// Traffic counters.
    pub fn stats(&self) -> &VirtualStats {
        &self.stats
    }

    /// The slowest task's virtual completion time.
    pub fn epoch_vt(&self) -> Vt {
        self.local_vt.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all tasks' charged compute nanoseconds.
    pub fn total_compute_ns(&self) -> u64 {
        self.compute_ns.iter().sum()
    }

    /// Takes ownership of the event log (one `\n`-terminated line per
    /// scheduler decision; deterministic byte-for-byte across runs),
    /// leaving it empty.
    pub fn take_log(&mut self) -> String {
        std::mem::take(&mut self.log)
    }

    /// Drives every task to completion. Tasks are stepped in rank order
    /// among runnable ones; when none is runnable the wheel advances to
    /// the next event. Returns when all tasks report [`TaskStep::Done`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock: no runnable task, no pending event, and an
    /// unfinished task remains (a task waited on a message nobody will
    /// send — an application bug, not a fault).
    pub fn run<T: SimTask>(&mut self, tasks: &mut [T]) {
        assert_eq!(tasks.len(), self.k, "one task per worker");
        for r in 0..self.k {
            self.runq.push_back(r);
        }
        loop {
            while let Some(r) = self.runq.pop_front() {
                if self.state[r] == TaskState::Finished {
                    continue;
                }
                self.state[r] = TaskState::Runnable;
                let step = tasks[r].step(&mut TaskCtx {
                    rank: r,
                    cluster: self,
                });
                match step {
                    TaskStep::Recv { from, tag } => {
                        // The inbox was empty when the task polled and
                        // nothing ran since (single scheduler thread),
                        // so parking is race-free.
                        self.state[r] = TaskState::Waiting { from, tag };
                    }
                    TaskStep::Barrier => self.enter_barrier(r),
                    TaskStep::Done => {
                        self.state[r] = TaskState::Finished;
                        let vt = self.local_vt[r];
                        let ok = !self.crashed[r] && self.failed[r].is_none();
                        let _ = writeln!(self.log, "E {vt} {r} {}", if ok { "ok" } else { "err" });
                    }
                }
            }
            if self.state.iter().all(|s| *s == TaskState::Finished) {
                // Drain in-flight events (late duplicates, failure
                // notices) so the log and stats cover the whole epoch.
                while let Some((vt, ev)) = self.wheel.pop() {
                    self.dispatch(ev, vt);
                }
                return;
            }
            match self.wheel.pop() {
                Some((vt, ev)) => self.dispatch(ev, vt),
                None => {
                    let stuck: Vec<usize> = (0..self.k)
                        .filter(|&r| self.state[r] != TaskState::Finished)
                        .collect();
                    panic!("virtual cluster deadlocked; stuck tasks: {stuck:?}");
                }
            }
        }
    }

    fn enter_barrier(&mut self, r: usize) {
        self.state[r] = TaskState::InBarrier;
        self.barrier_entered += 1;
        self.barrier_max_vt = self.barrier_max_vt.max(self.local_vt[r]);
        if self.barrier_entered == self.k {
            // One intra-rack round trip to agree everyone arrived.
            let release = self.barrier_max_vt + 2 * self.cfg.net.intra.wire_ns(0);
            self.barrier_gen += 1;
            let _ = writeln!(self.log, "B {release} {}", self.barrier_gen);
            for p in 0..self.k {
                if self.state[p] == TaskState::InBarrier {
                    self.state[p] = TaskState::Runnable;
                    self.local_vt[p] = release;
                    self.runq.push_back(p);
                }
            }
            self.barrier_entered = 0;
            self.barrier_max_vt = 0;
        }
    }

    fn dispatch(&mut self, ev: NetEvent, vt: Vt) {
        match ev {
            NetEvent::Deliver { dst, msg } => {
                // The wire arrival is logged here; the inbox gets what
                // this arrival puts in send order, receivable from now.
                let (from, seq) = (msg.from, msg.seq);
                let fresh = self.links[dst * self.k + from].accept(seq, msg, |mut msg| {
                    if self.crashed[dst] {
                        return; // Delivered to a dead worker: lost.
                    }
                    msg.at = vt;
                    let (from, tag) = (msg.from, msg.tag);
                    self.inbox[dst]
                        .entry((from, tag))
                        .or_default()
                        .push_back(msg);
                    if self.state[dst] == (TaskState::Waiting { from, tag }) {
                        self.state[dst] = TaskState::Runnable;
                        self.local_vt[dst] = self.local_vt[dst].max(vt);
                        self.runq.push_back(dst);
                    }
                });
                if !fresh {
                    self.stats.redeliveries += 1;
                }
                let mark = if fresh { 'D' } else { 'X' };
                let _ = writeln!(self.log, "{mark} {vt} {from} {dst} {seq}");
            }
            NetEvent::Failure { dst, culprit } => {
                if self.state[dst] == TaskState::Finished || self.failed[dst].is_some() {
                    return;
                }
                let _ = writeln!(self.log, "F {vt} {dst} {culprit}");
                self.failed[dst] = Some(CommError::PeerUnreachable { rank: culprit });
                if matches!(
                    self.state[dst],
                    TaskState::Waiting { .. } | TaskState::InBarrier
                ) {
                    if self.state[dst] == TaskState::InBarrier {
                        self.barrier_entered -= 1;
                    }
                    self.state[dst] = TaskState::Runnable;
                    self.local_vt[dst] = self.local_vt[dst].max(vt);
                    self.runq.push_back(dst);
                }
            }
        }
    }

    /// Schedules one delivery per send: [`link::plan_send`] folds the
    /// chaos and flaky-rack verdicts into how many transmissions are
    /// lost and how long the retransmit timers take to get past them.
    fn send_from(&mut self, src: usize, to: usize, tag: u32, payload: Bytes) {
        self.next_seq[src][to] += 1;
        let seq = self.next_seq[src][to];
        let bytes = payload.len();
        let t0 = self.local_vt[src];
        let wire = self.cfg.net.wire_ns(src, to, bytes);

        let plan = link::plan_send(&self.cfg.chaos, self.cfg.retry, (src, to, seq), |attempt| {
            self.cfg.net.flaky_drop(src, to, seq, attempt)
        });
        self.stats.drops_injected += u64::from(plan.dropped);
        self.stats.retries += u64::from(plan.dropped);
        let xmit_at = t0 + plan.retry_wait.as_nanos() as u64;
        let decision = plan.verdict;
        let mut delay_ns = (decision.delay_us * 1_000.0) as u64;
        if decision.hold {
            // The reorder fault holds a first transmission back until
            // the next send flushes it; model that as two extra wire
            // latencies so later messages overtake it.
            delay_ns += 2 * self.cfg.net.wire_ns(src, to, 0);
        }
        let deliver_at = xmit_at + wire + delay_ns;

        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        self.stats.modeled_ns += wire + delay_ns;
        let sent = plan.dropped + 1;
        let _ = writeln!(self.log, "S {t0} {src} {to} {seq} {bytes} {sent}");

        let msg = VMessage {
            from: src,
            tag,
            seq,
            at: deliver_at,
            payload,
        };
        if decision.duplicate {
            self.stats.dups_injected += 1;
            let mut dup = msg.clone();
            dup.at += 1;
            self.wheel
                .schedule(dup.at, NetEvent::Deliver { dst: to, msg: dup });
        }
        self.wheel
            .schedule(deliver_at, NetEvent::Deliver { dst: to, msg });
    }

    /// Marks `rank` crashed and schedules the peer-failure cascade: every
    /// other unfinished worker learns of the death one detection budget
    /// later (see [`clock::detection_budget`]).
    fn crash(&mut self, rank: usize) {
        self.crashed[rank] = true;
        let vt = self.local_vt[rank];
        let _ = writeln!(self.log, "C {vt} {rank}");
        let detect = vt + clock::detection_budget(&self.cfg.retry).as_nanos() as u64;
        for p in 0..self.k {
            if p != rank {
                self.wheel.schedule(
                    detect,
                    NetEvent::Failure {
                        dst: p,
                        culprit: rank,
                    },
                );
            }
        }
    }
}

/// A task's window into the cluster while being stepped: the
/// [`WorkerCtx`] surface on scheduled events and the task's local
/// virtual clock.
pub struct TaskCtx<'a> {
    rank: usize,
    cluster: &'a mut VirtualCluster,
}

impl WorkerCtx for TaskCtx<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn num_workers(&self) -> usize {
        self.cluster.k
    }

    fn compute_factor(&self) -> f64 {
        self.cluster.compute_mult[self.rank]
    }

    /// Advances the local clock by `units` of modeled compute, scaled by
    /// the profile's rate and this worker's straggler factor.
    fn charge(&mut self, units: u64) -> u64 {
        let ns = (units as f64
            * self.cluster.cfg.net.compute_ns_per_unit
            * self.cluster.compute_mult[self.rank]) as u64;
        self.cluster.local_vt[self.rank] += ns;
        self.cluster.compute_ns[self.rank] += ns;
        ns
    }

    fn failed(&self) -> Option<CommError> {
        self.cluster.failed[self.rank].clone()
    }

    /// Chaos drops are collapsed into retransmission delays, so delivery
    /// is guaranteed unless a crash intervenes. Returns
    /// [`CommError::Crashed`] when this send hits the schedule's crash
    /// point, and the latched error after a peer failure.
    fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        let me = self.rank;
        if self.cluster.crashed[me] {
            return Err(CommError::Crashed);
        }
        if let Some(e) = &self.cluster.failed[me] {
            return Err(e.clone());
        }
        let sent = self.cluster.data_sends[me];
        if self.cluster.cfg.chaos.crashes_at(me, sent) {
            self.cluster.crash(me);
            return Err(CommError::Crashed);
        }
        self.cluster.data_sends[me] += 1;
        self.cluster.send_from(me, to, tag, payload);
        Ok(())
    }

    /// The oldest unconsumed payload of the link with this tag;
    /// consuming it advances the local clock to its delivery time.
    fn try_recv(&mut self, from: usize, tag: u32) -> Option<Bytes> {
        let me = self.rank;
        let q = self.cluster.inbox[me].get_mut(&(from, tag))?;
        let msg = q.pop_front()?;
        self.cluster.local_vt[me] = self.cluster.local_vt[me].max(msg.at);
        Some(msg.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashPoint;

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        w.schedule(30, "c");
        w.schedule(10, "a1");
        w.schedule(10, "a2");
        w.schedule(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
    }

    #[test]
    fn wheel_clock_never_runs_backwards() {
        let mut w = EventWheel::new();
        w.schedule(50, "late");
        assert_eq!(w.pop().unwrap().0, 50);
        // Scheduling into the past clamps to now.
        w.schedule(10, "past");
        assert_eq!(w.pop(), Some((50, "past")));
        assert_eq!(w.pop(), None);
    }

    /// Each worker sends one message to the next rank and receives one
    /// from the previous — a ring that exercises send, park, and wake.
    struct Ring {
        state: u8,
        /// The received payload byte: the sender's rank.
        got: Option<u8>,
    }

    impl SimTask for Ring {
        fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
            let k = ctx.num_workers();
            let me = ctx.rank();
            if ctx.failed().is_some() {
                return TaskStep::Done;
            }
            loop {
                match self.state {
                    0 => {
                        ctx.charge(1_000);
                        if ctx
                            .send((me + 1) % k, 7, Bytes::from(vec![me as u8]))
                            .is_err()
                        {
                            return TaskStep::Done;
                        }
                        self.state = 1;
                    }
                    1 => match ctx.try_recv((me + k - 1) % k, 7) {
                        Some(payload) => {
                            self.got = Some(payload[0]);
                            self.state = 2;
                        }
                        None => {
                            return TaskStep::Recv {
                                from: (me + k - 1) % k,
                                tag: 7,
                            }
                        }
                    },
                    _ => return TaskStep::Done,
                }
            }
        }
    }

    fn run_ring(k: usize, cfg: SimConfig) -> (VirtualCluster, Vec<Ring>) {
        let mut tasks: Vec<Ring> = (0..k)
            .map(|_| Ring {
                state: 0,
                got: None,
            })
            .collect();
        let mut cluster = VirtualCluster::new(k, cfg);
        cluster.run(&mut tasks);
        (cluster, tasks)
    }

    #[test]
    fn ring_delivers_and_logs_deterministically() {
        let cfg = SimConfig::default();
        let (mut a, tasks) = run_ring(5, cfg.clone());
        let from: Vec<Option<u8>> = tasks.iter().map(|t| t.got).collect();
        assert_eq!(from, [Some(4), Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(a.stats().messages, 5);
        let (mut b, _) = run_ring(5, cfg);
        assert_eq!(a.take_log(), b.take_log());
        // Wire latency (50 µs default) is visible in virtual time.
        assert!(a.epoch_vt() >= 50_000);
    }

    #[test]
    fn chaos_drops_delay_but_still_deliver() {
        let clean = run_ring(4, SimConfig::default()).0;
        let chaos = SimConfig {
            chaos: ChaosSchedule {
                seed: 3,
                drop_every: 1, // every first transmission dropped
                ..Default::default()
            },
            ..Default::default()
        };
        let faulty = run_ring(4, chaos).0;
        assert_eq!(faulty.stats().messages, clean.stats().messages);
        assert!(faulty.stats().drops_injected >= 4);
        assert!(faulty.stats().retries >= 4);
        assert!(
            faulty.epoch_vt() > clean.epoch_vt(),
            "retransmission backoff must cost virtual time"
        );
    }

    #[test]
    fn duplicates_are_discarded_once() {
        let cfg = SimConfig {
            chaos: ChaosSchedule {
                seed: 9,
                duplicate_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (cluster, tasks) = run_ring(3, cfg);
        let from: Vec<Option<u8>> = tasks.iter().map(|t| t.got).collect();
        assert_eq!(from, [Some(2), Some(0), Some(1)], "each payload once");
        assert_eq!(cluster.stats().dups_injected, 3);
        assert_eq!(cluster.stats().redeliveries, 3);
    }

    #[test]
    fn stragglers_stretch_the_epoch() {
        let base = run_ring(4, SimConfig::default()).0.epoch_vt();
        let slow = SimConfig {
            net: NetProfile {
                stragglers: vec![Straggler {
                    rank: 2,
                    compute_factor: 64.0,
                    link_factor: 8.0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let stretched = run_ring(4, slow).0.epoch_vt();
        assert!(
            stretched > base,
            "straggler must lengthen the epoch: {stretched} vs {base}"
        );
    }

    #[test]
    fn flaky_rack_drops_cost_retries_not_messages() {
        let cfg = SimConfig {
            net: NetProfile {
                rack_size: 2,
                seed: 11,
                flaky_racks: vec![FlakyRack {
                    rack: 1,
                    extra_delay_us: 100.0,
                    drop_prob: 1.0,
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        // Ring 0->1->2->3->0 with racks {0,1},{2,3}: links 1->2 and
        // 3->0 cross racks and hit the flaky rack both ways.
        let (cluster, tasks) = run_ring(4, cfg);
        assert!(tasks.iter().all(|t| t.got.is_some()));
        assert_eq!(cluster.stats().messages, 4);
        assert!(cluster.stats().drops_injected >= 2);
    }

    /// Tasks that meet at a barrier and finish on release; rank 0
    /// computes longer first.
    struct BarrierTask {
        state: u8,
    }

    impl SimTask for BarrierTask {
        fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
            match self.state {
                0 => {
                    if ctx.rank() == 0 {
                        ctx.charge(1_000_000);
                    }
                    self.state = 1;
                    TaskStep::Barrier
                }
                _ => TaskStep::Done,
            }
        }
    }

    #[test]
    fn barrier_releases_everyone_at_the_slowest_entry() {
        let mut tasks: Vec<BarrierTask> = (0..3).map(|_| BarrierTask { state: 0 }).collect();
        let mut cluster = VirtualCluster::new(3, SimConfig::default());
        cluster.run(&mut tasks);
        // Every task finishes at the release: one `E` line per task, all
        // at the same virtual time.
        let log = cluster.take_log();
        let ends: Vec<Vt> = log
            .lines()
            .filter_map(|l| l.strip_prefix("E "))
            .map(|l| l.split(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(ends.len(), 3);
        assert!(
            ends.iter().all(|&v| v == ends[0]),
            "common release: {ends:?}"
        );
        assert!(ends[0] >= 1_000_000, "slowest entry dominates");
        assert_eq!(cluster.epoch_vt(), ends[0]);
    }

    #[test]
    fn crash_cascades_peer_failures() {
        let cfg = SimConfig {
            chaos: ChaosSchedule {
                crash: Some(CrashPoint {
                    rank: 1,
                    at_send: 1,
                }),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut tasks: Vec<Ring> = (0..3)
            .map(|_| Ring {
                state: 0,
                got: None,
            })
            .collect();
        let mut cluster = VirtualCluster::new(3, cfg);
        cluster.run(&mut tasks);
        // Rank 1 crashed on its only send, so rank 2 never gets its
        // message and is unparked by the failure cascade instead.
        assert!(tasks[2].got.is_none());
        let log = cluster.take_log();
        assert!(log.contains("\nC "), "crash logged: {log}");
        assert!(log.contains("\nF "), "failure detection logged: {log}");
    }
}
