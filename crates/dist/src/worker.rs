//! The distributed worker (paper §5; the baselines of §7), written once.
//!
//! One worker's share of an epoch is a sans-IO step machine — a
//! [`SimTask`] over a [`WorkerCtx`] — in one of two shapes:
//!
//! * **FlexGraph**: entry barrier → one combined message per peer →
//!   local partial aggregation overlapped with the wire → rank-ordered
//!   fold of the arrivals → upper levels → Update. Unpipelined, the same
//!   machine ships raw rows and aggregates only after the last arrival.
//! * **Mini-batch** (Euler-like / DistDGL-like): round-count agreement,
//!   then per round request → serve → response → sparse aggregation.
//!
//! The threaded trainer ([`crate::trainer::distributed_epoch`]) and the
//! virtual runtime ([`crate::sim::virtual_epoch`]) both drive *this*
//! code, so their outputs and deterministic telemetry agree by
//! construction. Every receive is directed and rank-ordered: leaf folds
//! need that for bitwise reproducibility (f32 addition is not
//! associative); the table-filling receives do not — their tables are
//! keyed by vertex and folded in slot, then leaf order — but take the
//! same shape so a worker parks on exactly one `(from, tag)`.
//!
//! Each stage is recorded once, in the deterministic work units of
//! DESIGN.md §8, with the nanoseconds [`WorkerCtx::charge`] reports for
//! them (modeled or measured, depending on the driver).

use crate::pipeline::{
    encode_partials, encode_raw_rows, finalize_mean, fold_raw_rows, remote_edges_in, LeafSync,
    SlotLevel,
};
use crate::shard::Shard;
use crate::trainer::{DistConfig, DistMode};
use bytes::Bytes;
use flexgraph_comm::{
    decode_rows, decode_rows_with, encode_rows, CommError, SimTask, TaskStep, WorkerCtx,
};
use flexgraph_engine::hybrid::{aggregate_from_groups, aggregate_from_instances, Strategy};
use flexgraph_engine::AggrOp;
use flexgraph_graph::bfs::k_hop_closure;
use flexgraph_graph::{Graph, VertexId};
use flexgraph_obs::{PartitionRecord, Stage};
use flexgraph_tensor::fusion::segment_reduce_into;
use flexgraph_tensor::scatter::scatter_add;
use flexgraph_tensor::{Reduce, Tensor};
use std::collections::HashMap;

/// Tag of the leaf-level messages.
const LEAF_TAG: u32 = 1;
/// Tag of the mini-batch round-count agreement exchange.
const ROUNDS_TAG: u32 = 5;

/// Tag of a mini-batch round's requests; its responses use the next one.
fn request_tag(round: usize) -> u32 {
    10 + round as u32 * 2
}

/// One worker's epoch: the inputs it reads, the record it writes, and
/// the mode-specific step machine.
pub(crate) struct EpochTask<'a> {
    w: Worker<'a>,
    machine: Machine,
}

#[allow(clippy::large_enum_variant)]
enum Machine {
    Flex(FlexTask),
    Mini(MiniTask),
}

impl<'a> EpochTask<'a> {
    /// One fresh task per shard, in rank order.
    pub(crate) fn fleet(
        graph: &'a Graph,
        shards: &'a [Shard],
        syncs: &'a [LeafSync],
        cfg: &'a DistConfig,
        epoch_id: u64,
    ) -> Vec<Self> {
        let task = |(shard, sync): (&'a Shard, &'a LeafSync)| {
            let mut rec = PartitionRecord::new(epoch_id, shard.rank as u32);
            let machine = match cfg.mode {
                DistMode::FlexGraph { pipeline } => {
                    rec.pipelined = pipeline;
                    Machine::Flex(FlexTask::new(pipeline))
                }
                DistMode::EulerLike { batch_size } => {
                    Machine::Mini(MiniTask::new(batch_size, None))
                }
                DistMode::DistDglLike { batch_size, hops } => {
                    Machine::Mini(MiniTask::new(batch_size, Some(hops)))
                }
            };
            let w = Worker {
                graph,
                shard,
                sync,
                shards,
                syncs,
                cfg,
                rec,
                out: None,
            };
            Self { w, machine }
        };
        shards.iter().zip(syncs).map(task).collect()
    }

    /// The finished task's outcome (valid once a driver has run it).
    pub(crate) fn result(&self) -> &Result<Tensor, CommError> {
        self.w.out.as_ref().expect("task finished")
    }

    pub(crate) fn into_parts(self) -> (Result<Tensor, CommError>, PartitionRecord) {
        (self.w.out.expect("task finished"), self.w.rec)
    }
}

impl SimTask for EpochTask<'_> {
    fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
        // A latched failure aborts the attempt wherever the task was
        // parked (the wake after a latch fires only once — never re-park
        // past this point).
        if let Some(e) = ctx.failed() {
            self.w.out.get_or_insert(Err(e));
            return TaskStep::Done;
        }
        match &mut self.machine {
            Machine::Flex(t) => t.step(&mut self.w, ctx),
            Machine::Mini(t) => t.step(&mut self.w, ctx),
        }
    }
}

/// What both machines share: the epoch's read-only inputs, the worker's
/// telemetry record, and its outcome.
struct Worker<'a> {
    /// The replicated structure (DistDGL-like closure expansion).
    graph: &'a Graph,
    shard: &'a Shard,
    sync: &'a LeafSync,
    /// The whole set: a peer's list from this worker is in its plan.
    shards: &'a [Shard],
    syncs: &'a [LeafSync],
    cfg: &'a DistConfig,
    rec: PartitionRecord,
    out: Option<Result<Tensor, CommError>>,
}

impl Worker<'_> {
    fn fail(&mut self, e: CommError) -> TaskStep {
        self.out = Some(Err(e));
        TaskStep::Done
    }

    /// Adds one stage sample (`invocations += 1`).
    fn stage(&mut self, stage: Stage, work: u64, ns: u64) {
        let s = self.rec.stage_mut(stage);
        s.invocations += 1;
        s.work += work;
        s.wall_ns += ns;
    }

    /// Sends one accounted application message; `partial` marks
    /// sender-side partial aggregates (vs raw rows and request lists).
    fn send<C: WorkerCtx>(
        &mut self,
        ctx: &mut C,
        to: usize,
        tag: u32,
        payload: Bytes,
        partial: bool,
    ) -> Result<(), CommError> {
        let comm = &mut self.rec.comm;
        comm.messages += 1;
        comm.bytes += payload.len() as u64;
        if partial {
            comm.partial_msgs += 1;
        } else {
            comm.raw_msgs += 1;
        }
        ctx.send(to, tag, payload)
    }

    /// The local fold into fresh slots, one thread per slot range:
    /// `local leaves × d` work units of `LeafLocal`.
    fn local_fold<C: WorkerCtx>(&mut self, ctx: &mut C) -> Tensor {
        let (local, feats) = (&self.sync.local, &self.shard.feats);
        let mut slots = Tensor::zeros(self.sync.num_slots, feats.cols());
        segment_reduce_into(&mut slots, feats, local, Reduce::Sum);
        let work = (local.src().len() * feats.cols()) as u64;
        let ns = ctx.charge(work);
        self.stage(Stage::LeafLocal, work, ns);
        slots
    }

    /// The tail every mode shares: Mean finalization, the levels above
    /// the slots (`Upper`), the optional `Update`, and per-root cost
    /// attribution — `5 + (leaf_entries + instances + types) × d` units
    /// per root (the shape of the balancer's metric variables, §6),
    /// keyed by global vertex id and scaled by the worker's compute
    /// factor so measured-cost balancing sees straggler skew.
    fn finish<C: WorkerCtx>(
        &mut self,
        mut slots: Tensor,
        strategy: Strategy,
        ctx: &mut C,
    ) -> TaskStep {
        let (shard, sync, cfg) = (self.shard, self.sync, self.cfg);
        let hdg = &shard.hdg;
        let d = shard.feats.cols() as u64;
        if cfg.leaf_op == AggrOp::Mean {
            finalize_mean(&mut slots, &sync.slot_counts);
        }
        let upper = match sync.level {
            SlotLevel::Instances => aggregate_from_instances(hdg, &slots, &cfg.plan, strategy),
            SlotLevel::Groups => aggregate_from_groups(hdg, slots, &cfg.plan, strategy),
        };
        let work = (sync.num_slots + hdg.num_instances() + hdg.num_roots()) as u64 * d;
        let ns = ctx.charge(work);
        self.stage(Stage::Upper, work, ns);

        let out = match &cfg.update_weight {
            Some(w) => {
                let work = upper.rows() as u64 * upper.cols() as u64 * w.cols() as u64;
                let mut out = upper.matmul(w);
                out.relu_inplace();
                let ns = ctx.charge(work);
                self.stage(Stage::Update, work, ns);
                out
            }
            None => upper,
        };

        let factor = ctx.compute_factor();
        let types = hdg.num_types() as u64;
        // `shard.roots` ascends, so the map is built in one pass.
        self.rec
            .set_root_costs(shard.roots.iter().enumerate().map(|(r, &v)| {
                let segment = &sync.slot_counts[sync.root_slot_off[r]..sync.root_slot_off[r + 1]];
                let leaf_entries: u64 = segment.iter().map(|&c| c as u64).sum();
                let units = 5 + (leaf_entries + hdg.instances_of_root(r) as u64 + types) * d;
                (v, (units as f64 * factor) as u64)
            }));
        self.out = Some(Ok(out));
        TaskStep::Done
    }
}

#[derive(Clone, Copy)]
enum FlexState {
    Entry,
    Send,
    Fold { p: usize },
    Finish,
}

/// The FlexGraph worker (§5, "Pipeline processing"; §7.7 for the
/// unpipelined dataflow baseline).
struct FlexTask {
    pipeline: bool,
    state: FlexState,
    slots: Option<Tensor>,
    /// Receive table for raw rows → offset in `remote_flat`.
    /// Unpipelined, it is keyed by vertex and collects every peer's rows
    /// for the fold after the last arrival; pipelined, it is per-message
    /// scratch keyed by row on the sender.
    remote_off: Vec<u32>,
    remote_flat: Vec<f32>,
    fold_entries: u64,
    fold_ns: u64,
}

impl FlexTask {
    fn new(pipeline: bool) -> Self {
        Self {
            pipeline,
            state: FlexState::Entry,
            slots: None,
            remote_off: Vec::new(),
            remote_flat: Vec::new(),
            fold_entries: 0,
            fold_ns: 0,
        }
    }

    fn step<C: WorkerCtx>(&mut self, w: &mut Worker<'_>, ctx: &mut C) -> TaskStep {
        let (shard, sync) = (w.shard, w.sync);
        let k = ctx.num_workers();
        let me = ctx.rank();
        let d = shard.feats.cols();
        loop {
            match self.state {
                FlexState::Entry => {
                    self.state = FlexState::Send;
                    return TaskStep::Barrier;
                }
                FlexState::Send => {
                    // One batched message per peer (§5): per-slot
                    // partial sums where that compresses, deduplicated
                    // raw rows otherwise; the unpipelined baseline
                    // always ships raw rows. `LeafSend` work is bytes.
                    let mut sent_bytes = 0u64;
                    let mut send_ns = 0u64;
                    for p in (0..k).filter(|&p| p != me) {
                        let partial = self.pipeline && sync.partial_to[p];
                        let payload = if partial {
                            encode_partials(w.syncs, me, p, &shard.feats, d)
                        } else {
                            encode_raw_rows(sync, &shard.feats, &shard.roots, p, d)
                        };
                        let len = payload.len() as u64;
                        sent_bytes += len;
                        send_ns += ctx.charge(len);
                        if let Err(e) = w.send(ctx, p, LEAF_TAG, payload, partial) {
                            return w.fail(e);
                        }
                    }
                    w.stage(Stage::LeafSend, sent_bytes, send_ns);
                    if self.pipeline {
                        // The local fold overlaps the in-flight
                        // messages: it runs before any receive parks.
                        self.slots = Some(w.local_fold(ctx));
                    } else {
                        self.remote_off = vec![u32::MAX; shard.owner.len()];
                    }
                    self.state = FlexState::Fold { p: 0 };
                }
                FlexState::Fold { p } if p >= k => {
                    let d = d as u64;
                    if self.pipeline {
                        w.stage(Stage::LeafFold, self.fold_entries * d, self.fold_ns);
                    } else {
                        // Dataflow semantics: aggregate only after every
                        // remote row has arrived.
                        let mut slots = w.local_fold(ctx);
                        let edges = remote_edges_in(sync, w.shards, 0..sync.num_slots);
                        for &(i, leaf) in &edges {
                            let off = self.remote_off[leaf as usize] as usize;
                            debug_assert_ne!(off, u32::MAX as usize, "peer shipped every row");
                            let src = &self.remote_flat[off..off + d as usize];
                            for (o, &x) in slots.row_mut(i as usize).iter_mut().zip(src) {
                                *o += x;
                            }
                        }
                        let work = edges.len() as u64 * d;
                        let ns = ctx.charge(work);
                        w.stage(Stage::LeafFold, work, ns);
                        self.slots = Some(slots);
                    }
                    self.state = FlexState::Finish;
                }
                FlexState::Fold { p } if p == me => {
                    self.state = FlexState::Fold { p: p + 1 };
                }
                FlexState::Fold { p } => {
                    let Some(payload) = ctx.try_recv(p, LEAF_TAG) else {
                        return TaskStep::Recv {
                            from: p,
                            tag: LEAF_TAG,
                        };
                    };
                    if self.pipeline {
                        // Fold in rank order (streamed; no per-row
                        // allocation): `LeafFold` work is folded
                        // entries × d.
                        let slots = self.slots.as_mut().expect("local fold done");
                        let entries = if sync.partial_from[p] {
                            let mut rows = 0u64;
                            let dim = decode_rows_with(&payload, |i, row| {
                                rows += 1;
                                for (o, &x) in slots.row_mut(i as usize).iter_mut().zip(row) {
                                    *o += x;
                                }
                            });
                            debug_assert_eq!(dim, d);
                            rows
                        } else {
                            fold_raw_rows(
                                sync,
                                slots,
                                &payload,
                                &w.shards[p],
                                &mut self.remote_off,
                                &mut self.remote_flat,
                            );
                            sync.remote_by_owner[p].len() as u64
                        };
                        self.fold_entries += entries;
                        self.fold_ns += ctx.charge(entries * d as u64);
                    } else {
                        // Table fill only; the fold happens after the
                        // last arrival.
                        let dim = decode_rows_with(&payload, |v, row| {
                            self.remote_off[v as usize] = self.remote_flat.len() as u32;
                            self.remote_flat.extend_from_slice(row);
                        });
                        debug_assert_eq!(dim, d);
                    }
                    self.state = FlexState::Fold { p: p + 1 };
                }
                FlexState::Finish => {
                    let slots = self.slots.take().expect("leaf level complete");
                    return w.finish(slots, w.cfg.strategy, ctx);
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum MiniState {
    Entry,
    SyncSend,
    SyncRecv { p: usize },
    RoundStart { round: usize },
    ServeRecv { round: usize, p: usize },
    RespRecv { round: usize, p: usize },
    Finish,
}

/// The mini-batch worker: `hops = None` fetches only the leaf
/// dependencies of each batch (Euler-like); `hops = Some(h)` fetches the
/// batch's full h-hop closure as well (DistDGL-like). Nothing overlaps: each
/// round trips request → serve → response before it aggregates.
struct MiniTask {
    batch_size: usize,
    hops: Option<usize>,
    state: MiniState,
    rounds: usize,
    slots: Option<Tensor>,
    /// The current round's remote leaf edges, merged once at its start.
    edges: Vec<(u32, VertexId)>,
    responses: HashMap<u32, Vec<f32>>,
    served_bytes: u64,
    serve_ns: u64,
}

impl MiniTask {
    fn new(batch_size: usize, hops: Option<usize>) -> Self {
        Self {
            batch_size,
            hops,
            state: MiniState::Entry,
            rounds: 0,
            slots: None,
            edges: Vec::new(),
            responses: HashMap::new(),
            served_bytes: 0,
            serve_ns: 0,
        }
    }

    /// One batch's root range and the remote leaf edges in its slot
    /// range, in fold order.
    fn batch(&self, w: &Worker, round: usize) -> (std::ops::Range<usize>, Vec<(u32, VertexId)>) {
        let n_roots = w.shard.roots.len();
        let lo = (round * self.batch_size).min(n_roots);
        let hi = ((round + 1) * self.batch_size).min(n_roots);
        let slots = w.sync.root_slot_off[lo]..w.sync.root_slot_off[hi];
        (lo..hi, remote_edges_in(w.sync, w.shards, slots))
    }

    fn step<C: WorkerCtx>(&mut self, w: &mut Worker<'_>, ctx: &mut C) -> TaskStep {
        let (shard, sync) = (w.shard, w.sync);
        let k = ctx.num_workers();
        let me = ctx.rank();
        let d = shard.feats.cols();
        loop {
            match self.state {
                MiniState::Entry => {
                    self.state = MiniState::SyncSend;
                    return TaskStep::Barrier;
                }
                MiniState::SyncSend => {
                    // All workers must run the same number of rounds:
                    // agree on the maximum via a tiny all-to-all.
                    self.rounds = shard.roots.len().div_ceil(self.batch_size.max(1));
                    let payload = encode_rows(0, &[(self.rounds as u32, [].as_slice())]);
                    for p in (0..k).filter(|&p| p != me) {
                        if let Err(e) = ctx.send(p, ROUNDS_TAG, payload.clone()) {
                            return w.fail(e);
                        }
                    }
                    self.state = MiniState::SyncRecv { p: 0 };
                }
                MiniState::SyncRecv { p } if p >= k => {
                    // Local leaf edges need no fetch: aggregate up front.
                    self.slots = Some(w.local_fold(ctx));
                    self.state = MiniState::RoundStart { round: 0 };
                }
                MiniState::SyncRecv { p } if p == me => {
                    self.state = MiniState::SyncRecv { p: p + 1 };
                }
                MiniState::SyncRecv { p } => {
                    let Some(payload) = ctx.try_recv(p, ROUNDS_TAG) else {
                        return TaskStep::Recv {
                            from: p,
                            tag: ROUNDS_TAG,
                        };
                    };
                    let (_, rows) = decode_rows(payload);
                    self.rounds = self.rounds.max(rows[0].0 as usize);
                    self.state = MiniState::SyncRecv { p: p + 1 };
                }
                MiniState::RoundStart { round } if round >= self.rounds => {
                    self.state = MiniState::Finish;
                }
                MiniState::RoundStart { round } => {
                    self.responses.clear();
                    // Which remote vertices does this batch need?
                    let (roots, edges) = self.batch(w, round);
                    let mut needed: Vec<VertexId> = edges.iter().map(|&(_, v)| v).collect();
                    self.edges = edges;
                    if let Some(h) = self.hops {
                        // Full closure expansion — the DistDGL blow-up —
                        // on top of the leaf dependencies: selected
                        // leaves (importance walks) can lie outside the
                        // h-hop ball; direct neighbours never do.
                        let closure = k_hop_closure(w.graph, &shard.roots[roots.clone()], h);
                        let remote = |v: &VertexId| shard.owner[*v as usize] as usize != me;
                        needed.extend(closure.into_iter().filter(remote));
                    }
                    needed.sort_unstable();
                    needed.dedup();
                    ctx.charge((roots.len() + needed.len()) as u64);

                    let mut by_owner: Vec<Vec<(u32, &[f32])>> = vec![Vec::new(); k];
                    for v in needed {
                        by_owner[shard.owner[v as usize] as usize].push((v, &[]));
                    }
                    let req_tag = request_tag(round);
                    for (p, ids) in by_owner.iter().enumerate() {
                        if p == me {
                            continue;
                        }
                        if let Err(e) = w.send(ctx, p, req_tag, encode_rows(0, ids), false) {
                            return w.fail(e);
                        }
                    }
                    self.state = MiniState::ServeRecv { round, p: 0 };
                }
                MiniState::ServeRecv { round, p } if p >= k => {
                    // `Serve` work is response bytes, one sample a round.
                    w.stage(Stage::Serve, self.served_bytes, self.serve_ns);
                    self.served_bytes = 0;
                    self.serve_ns = 0;
                    self.state = MiniState::RespRecv { round, p: 0 };
                }
                MiniState::ServeRecv { round, p } if p == me => {
                    self.state = MiniState::ServeRecv { round, p: p + 1 };
                }
                MiniState::ServeRecv { round, p } => {
                    let req_tag = request_tag(round);
                    let Some(payload) = ctx.try_recv(p, req_tag) else {
                        return TaskStep::Recv {
                            from: p,
                            tag: req_tag,
                        };
                    };
                    let (_, ids) = decode_rows(payload);
                    let rows: Vec<(u32, &[f32])> = ids
                        .iter()
                        .map(|&(v, _)| (v, shard.feats.row(shard.row_of(v) as usize)))
                        .collect();
                    let payload = encode_rows(d, &rows);
                    let len = payload.len() as u64;
                    self.served_bytes += len;
                    self.serve_ns += ctx.charge(len);
                    if let Err(e) = w.send(ctx, p, req_tag + 1, payload, false) {
                        return w.fail(e);
                    }
                    self.state = MiniState::ServeRecv { round, p: p + 1 };
                }
                MiniState::RespRecv { round, p } if p >= k => {
                    // Sparse (materializing) aggregation of the batch's
                    // remote edges — the baseline execution shape: one
                    // message row per edge, then scatter.
                    let edges = &self.edges;
                    if !edges.is_empty() {
                        let mut messages = Tensor::zeros(edges.len(), d);
                        let mut dst = Vec::with_capacity(edges.len());
                        for (e, &(i, v)) in edges.iter().enumerate() {
                            let row = self
                                .responses
                                .get(&v)
                                .expect("the round fetched every leaf dependency");
                            messages.row_mut(e).copy_from_slice(row);
                            dst.push(i);
                        }
                        let partial = scatter_add(&messages, &dst, sync.num_slots);
                        self.slots
                            .as_mut()
                            .expect("slots ready")
                            .add_assign(&partial);
                        ctx.charge((edges.len() * d) as u64);
                    }
                    self.state = MiniState::RoundStart { round: round + 1 };
                }
                MiniState::RespRecv { round, p } if p == me => {
                    self.state = MiniState::RespRecv { round, p: p + 1 };
                }
                MiniState::RespRecv { round, p } => {
                    let resp_tag = request_tag(round) + 1;
                    let Some(payload) = ctx.try_recv(p, resp_tag) else {
                        return TaskStep::Recv {
                            from: p,
                            tag: resp_tag,
                        };
                    };
                    let (_, rows) = decode_rows(payload);
                    self.responses.extend(rows);
                    self.state = MiniState::RespRecv { round, p: p + 1 };
                }
                MiniState::Finish => {
                    let slots = self.slots.take().expect("rounds complete");
                    // The baseline has no hybrid executor: sparse ops.
                    return w.finish(slots, Strategy::Sa, ctx);
                }
            }
        }
    }
}
