//! The replicated serving tier (ISSUE 9): a [`Router`] front-end
//! driving a fleet of replica workers, with the versioned embedding
//! cache consistent-hash sharded across replicas by [`ShardMap`]. Driver
//! and replicas are [`SimTask`] step machines on the worker seam, run
//! on a [`VirtualCluster`]: no threads, no timers, and a run is a pure
//! function of its inputs.
//!
//! # Topology
//!
//! Rank 0 is the **driver**: it owns the router (admission, quotas,
//! micro-batching, trace windows), walks the op list, and never
//! crashes. Ranks `1..=R` are **replica workers**, each holding every
//! tenant's [`PinnedContext`], the full snapshot chain, and a
//! shard-local embedding cache. The driver closes batches via
//! [`Router::close_due`] — pinning the checkpoint version and the
//! per-request latency *at close time* — then, one batch at a time,
//! splits it by `ShardMap::owner_of(key_of(tenant, vertex))`, ships one
//! [`ServeFrame::Exec`] per involved replica and parks for the replies.
//!
//! # The no-lost-response guarantee
//!
//! Every admitted request receives **exactly one** response whose bytes
//! equal single-process [`crate::model::serve_one`] on the pinned
//! snapshot, for any [`ChaosSchedule`] — `tests/replica_chaos.rs`
//! proves it over seeds × {crash, delay, reorder}. The argument:
//!
//! * *At-least-once*: the driver keeps an `answered` map for the batch
//!   in flight and re-drives only unanswered requests. A replica crash
//!   latches [`CommError::PeerUnreachable`] on every survivor, each
//!   finishes, and [`run_tier`] removes exactly the named replica from
//!   the shard map and builds a **fresh** cluster of fresh replica
//!   tasks over the survivors (the PR 2 recovery idiom). The driver
//!   outlives the cluster: its first step on the new one replays the
//!   swap history, so the new replicas hold every version, and
//!   re-dispatches the batch in flight.
//! * *At-most-once*: within a cluster the transport hands each link's
//!   payloads over exactly once and in send order, so a `Swap` is
//!   installed before any `Exec` sent after it however the wire
//!   reorders or retransmits; across clusters nothing survives but the
//!   `answered` map, and the driver never re-sends an answered id.
//! * *Bitwise*: replicas run [`execute_pinned`] — the same code path a
//!   local [`crate::Server`] runs — against the pinned snapshot, and
//!   per-root independence (the PR 6 parity invariant) makes the bytes
//!   independent of sub-batch composition and cache state. Latencies
//!   are fixed at batch close, so they are invariant to replica count,
//!   fault schedule, and retransmission timing.
//!
//! A replica-side invariant violation (missing version, rejected
//! checkpoint) panics the caller: nothing can mistake it for a crash.
//!
//! # Version-pinned routing
//!
//! A rolling swap never mixes versions: the version rides in the
//! `Exec` frame, replicas execute against exactly that snapshot (they
//! keep the whole chain), and the driver asserts every `Rows` response
//! echoes it. A batch closed before a swap therefore computes on the
//! old version even if it executes after the swap lands — the
//! `Arc`-pinning contract of the single-process server.
//!
//! # What is (and is not) byte-stable
//!
//! The [`TierRun::transcript`] is byte-identical across
//! `FLEXGRAPH_THREADS`, replica counts, and chaos seeds for a fixed
//! workload. Cache-hit flags and window cache counters are **excluded**
//! from it: hit patterns are shard-local, so they legitimately vary with
//! replica count and crash timing — though not between two runs of one
//! configuration.

use crate::router::{ClosedBatch, Router, TenantId, TenantQuota};
use crate::server::{execute_pinned, PinnedContext, Server, ServerConfig};
use crate::{ModelSnapshot, ServeError, ServeFeats, ShardMap};
use bytes::Bytes;
use flexgraph_comm::{
    decode_serve_frame, ChaosSchedule, CommError, NetProfile, RetryPolicy, ServeFrame, SimConfig,
    SimTask, TaskStep, VirtualCluster, WorkerCtx,
};
use flexgraph_graph::Graph;
use flexgraph_obs::TenantServeRecord;
use flexgraph_tensor::{QuantConfig, Tensor};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Driver → replica control frames.
const TAG_CTRL: u32 = 0x5E01;
/// Replica → driver responses.
const TAG_RESP: u32 = 0x5E02;

/// One tenant of the tier: everything needed to build both the
/// driver-side [`Server`] and each replica's serving context.
#[derive(Clone)]
pub struct TierTenant {
    /// Tenant id.
    pub tenant: TenantId,
    /// The tenant's served graph.
    pub graph: Graph,
    /// The tenant's f32 feature matrix (quantized per `server.quant`).
    pub feats: Tensor,
    /// Server policy (batcher, model, cache, budget, quant).
    pub server: ServerConfig,
    /// Router-level quota/SLO policy.
    pub quota: TenantQuota,
    /// Seed of the initial model snapshot (version 1).
    pub init_seed: u64,
}

/// One step of a deterministic tier workload.
#[derive(Clone, Copy, Debug)]
pub enum TierOp {
    /// Submit a request for `vertex` to `tenant`.
    Submit {
        /// Target tenant.
        tenant: TenantId,
        /// Requested vertex.
        vertex: u32,
    },
    /// Advance one tenant's virtual clock.
    Idle {
        /// Target tenant.
        tenant: TenantId,
        /// Ticks to advance.
        ticks: u64,
    },
    /// Hot-swap `tenant` to a fresh checkpoint derived from
    /// `checkpoint_seed` (see [`swap_bytes_for`]).
    Swap {
        /// Target tenant.
        tenant: TenantId,
        /// Seed of the swapped-in parameters.
        checkpoint_seed: u64,
    },
}

/// Tier deployment knobs.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Number of replica workers (cluster ranks `1..=replicas`).
    pub replicas: usize,
    /// Consistent-hash ring slots.
    pub slots: usize,
    /// Shard map seed.
    pub shard_seed: u64,
    /// Transport retry/failure-detection policy.
    pub retry: RetryPolicy,
    /// Fault schedule for the *first* cluster; recovery fleets run
    /// `chaos.without_crash()` (the PR 2 idiom — one crash per
    /// schedule, delays/reorders persist).
    pub chaos: ChaosSchedule,
    /// Recovery budget: the run panics after this many replica
    /// crashes rather than spinning.
    pub max_recoveries: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            slots: 64,
            shard_seed: 0xF1EE,
            retry: RetryPolicy::snappy(),
            chaos: ChaosSchedule::default(),
            max_recoveries: 2,
        }
    }
}

/// One answered request, labelled with its tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct TierResponse {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Id assigned at submission (per-tenant monotonic).
    pub request_id: u64,
    /// The requested vertex.
    pub vertex: u32,
    /// The checkpoint version pinned at batch close.
    pub model_version: u64,
    /// The `classes`-wide output row — bitwise equal to
    /// [`crate::model::serve_one`] on the pinned snapshot.
    pub output: Vec<f32>,
    /// Virtual-time latency, fixed at batch close.
    pub latency_vt: u64,
    /// Whether some replica answered this straight from its shard of
    /// the cache. **Not** byte-stable across replica counts.
    pub cache_hit: bool,
}

/// Everything a finished tier run produced.
pub struct TierRun {
    /// All responses, sorted by `(tenant, request id)`.
    pub responses: Vec<TierResponse>,
    /// The canonical transcript: admission/swap events in op order,
    /// then one line per response in `(tenant, request id)` order.
    /// Byte-identical across thread counts, replica counts, and chaos
    /// seeds for a fixed workload.
    pub transcript: Vec<String>,
    /// Final per-tenant trace windows (ascending tenant). Cache
    /// counters here are shard-local and *not* byte-stable.
    pub windows: Vec<TenantServeRecord>,
    /// Replica crashes survived.
    pub recoveries: usize,
}

/// Checkpoint bytes for a fresh parameter set seeded with `seed` under
/// `model` — the workload-side half of [`TierOp::Swap`].
pub fn swap_bytes_for(model: &crate::ServeModelConfig, seed: u64) -> Vec<u8> {
    flexgraph_models::checkpoint::save(ModelSnapshot::init(model, seed).params())
}

/// One tenant as a replica holds it: the serving context, the snapshot
/// chain (every installed version) and the shard-local cache.
struct ReplicaTenant<'a> {
    ctx: PinnedContext<'a>,
    chain: BTreeMap<u64, ModelSnapshot>,
    cache: Mutex<crate::EmbeddingCache>,
}

/// A replica worker: serves `Exec` / `Swap` frames from rank 0 until a
/// `Shutdown` frame, its scheduled crash, or a latched peer failure.
struct Replica<'a>(BTreeMap<TenantId, ReplicaTenant<'a>>);

impl<'a> Replica<'a> {
    /// `feats[i]` is `tenants[i]`'s feature store, quantized once per run
    /// and shared by every replica.
    fn new(tenants: &'a [TierTenant], feats: &'a [ServeFeats]) -> Self {
        let fresh = |(t, feats): (&'a TierTenant, &'a ServeFeats)| {
            let server = &t.server;
            let base = ModelSnapshot::init_quant(&server.model, t.init_seed, server.quant);
            let mode = if server.quant == QuantConfig::F32 {
                crate::CacheMode::F32
            } else {
                crate::CacheMode::Bf16
            };
            let ctx = PinnedContext {
                graph: &t.graph,
                feats: feats.as_rows(),
                model: &server.model,
                budget: &server.budget,
            };
            let cache = Mutex::new(crate::EmbeddingCache::with_mode(server.cache_bytes, mode));
            let chain = BTreeMap::from([(base.version(), base)]);
            (t.tenant, ReplicaTenant { ctx, chain, cache })
        };
        Self(tenants.iter().zip(feats).map(fresh).collect())
    }

    fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
        // A latched failure means the driver is giving this fleet up.
        while ctx.failed().is_none() {
            let Some(frame) = ctx.try_recv(0, TAG_CTRL) else {
                return TaskStep::Recv {
                    from: 0,
                    tag: TAG_CTRL,
                };
            };
            match decode_serve_frame(&frame) {
                ServeFrame::Shutdown => break,
                ServeFrame::Swap {
                    tenant,
                    version,
                    checkpoint,
                } => {
                    let chain = &mut self.0.get_mut(&tenant).expect("unknown tenant").chain;
                    let prev = chain
                        .get(&(version - 1))
                        .expect("swap base version not installed");
                    let next = prev
                        .with_checkpoint(&checkpoint)
                        .expect("replica rejected checkpoint");
                    assert_eq!(next.version(), version, "swap version drift");
                    chain.insert(version, next);
                }
                ServeFrame::Exec {
                    round,
                    tenant,
                    version,
                    requests,
                } => {
                    let t = self.0.get(&tenant).expect("unknown tenant");
                    let snap = t.chain.get(&version).expect("pinned version not installed");
                    let vertices: Vec<u32> = requests.iter().map(|&(_, v)| v).collect();
                    let exec = execute_pinned(&t.ctx, snap, &t.cache, &vertices);
                    let reply = match exec.outcome {
                        Ok(rows) => ServeFrame::Rows {
                            round,
                            tenant,
                            version,
                            dim: t.ctx.model.classes,
                            rows: requests
                                .iter()
                                .zip(rows.outputs)
                                .zip(rows.cache_hit)
                                .map(|((&(id, _), out), hit)| (id, hit, out))
                                .collect(),
                            cache_hits: exec.cache_hits,
                            cache_misses: exec.cache_misses,
                        },
                        Err(ServeError::AdmissionDenied { needed, budget }) => ServeFrame::Shed {
                            round,
                            tenant,
                            needed: needed as u64,
                            budget: budget as u64,
                        },
                        Err(e) => panic!("replica execution failed: {e}"),
                    };
                    if ctx.send(0, TAG_RESP, reply.encode()).is_err() {
                        break; // This replica's scheduled crash.
                    }
                }
                other => panic!("unexpected control frame: {other:?}"),
            }
        }
        TaskStep::Done
    }
}

/// Sends `frame` to every replica of the cluster `ctx` belongs to.
fn broadcast<C: WorkerCtx>(ctx: &mut C, frame: &Bytes) -> Result<(), CommError> {
    (1..ctx.num_workers()).try_for_each(|rank| ctx.send(rank, TAG_CTRL, frame.clone()))
}

/// The one batch the driver has out with the replicas.
struct InFlight {
    batch: ClosedBatch,
    /// Rows received so far, by request id — the only state a recovery
    /// carries over.
    answered: BTreeMap<u64, (bool, Vec<f32>)>,
    hits: u64,
    misses: u64,
    shed: Option<(u64, u64)>,
    /// Ranks that still owe the current round's reply, in ascending
    /// replica id.
    awaiting: VecDeque<usize>,
}

impl InFlight {
    /// Ships every unanswered request to its shard owner as a new
    /// round and notes who owes a reply.
    fn dispatch<C: WorkerCtx>(
        &mut self,
        ctx: &mut C,
        shard: &ShardMap,
        live: &[u64],
        round: &mut u64,
    ) -> Result<(), CommError> {
        *round += 1;
        let mut by_owner: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        for r in &self.batch.requests {
            if !self.answered.contains_key(&r.id) {
                let owner = shard.owner_of(ShardMap::key_of(self.batch.tenant, r.vertex));
                by_owner.entry(owner).or_default().push((r.id, r.vertex));
            }
        }
        self.awaiting.clear();
        for (owner, requests) in by_owner {
            let rank = 1 + live.binary_search(&owner).expect("owner is live");
            let frame = ServeFrame::Exec {
                round: *round,
                tenant: self.batch.tenant,
                version: self.batch.version,
                requests,
            };
            ctx.send(rank, TAG_CTRL, frame.encode())?;
            self.awaiting.push_back(rank);
        }
        Ok(())
    }

    /// Folds one replica's reply to `round` into the batch.
    fn absorb(&mut self, reply: &Bytes, round: u64) {
        match decode_serve_frame(reply) {
            ServeFrame::Rows {
                round: r,
                tenant,
                version,
                dim: _,
                rows,
                cache_hits,
                cache_misses,
            } => {
                assert_eq!(r, round, "stale response round");
                assert_eq!(tenant, self.batch.tenant, "cross-tenant response");
                // The no-version-mixing check: every response of a
                // batch carries the version pinned at close.
                assert_eq!(version, self.batch.version, "version-mixed response");
                self.hits += cache_hits;
                self.misses += cache_misses;
                for (id, hit, out) in rows {
                    let dup = self.answered.insert(id, (hit, out));
                    assert!(dup.is_none(), "duplicate response for request {id}");
                }
            }
            ServeFrame::Shed {
                round: r,
                needed,
                budget,
                ..
            } => {
                assert_eq!(r, round, "stale shed round");
                // The remaining replicas are still drained, so no stale
                // response lingers for the next round.
                self.shed = Some((needed, budget));
            }
            other => panic!("unexpected response frame: {other:?}"),
        }
    }
}

/// The driver (rank 0): everything of a tier run that outlives a
/// cluster — the router, the op cursor, the closed-but-undispatched
/// batches, the batch in flight, the swap history and the transcript.
struct Driver<'a> {
    router: Router,
    ops: std::slice::Iter<'a, TierOp>,
    due: VecDeque<ClosedBatch>,
    in_flight: Option<InFlight>,
    /// Whether the end-of-workload `close_all` has happened.
    flushed: bool,
    /// Live replica ids, ascending; `live[i]` runs at rank `i + 1`.
    live: Vec<u64>,
    shard: ShardMap,
    /// Every applied swap as its encoded `Swap` frame, in order —
    /// replayed into each fresh fleet so its replicas hold the full
    /// chain.
    swap_history: Vec<Bytes>,
    /// Whether the current cluster has been brought up to date (swap
    /// history replayed, batch in flight re-dispatched).
    joined: bool,
    round: u64,
    /// The failure that ended the current cluster, for [`run_tier`].
    lost: Option<CommError>,
    events: Vec<String>,
    responses: Vec<TierResponse>,
}

impl Driver<'_> {
    /// Applies one workload op to the router; a swap returns the frame
    /// to roll across the fleet.
    fn apply(&mut self, op: &TierOp) -> Option<Bytes> {
        match *op {
            TierOp::Submit { tenant, vertex } => match self.router.submit(tenant, vertex) {
                Ok(_) => {}
                Err(ServeError::QuotaExceeded { quota, .. }) => {
                    self.events.push(format!(
                        "{{\"k\":\"mtq\",\"tenant\":{tenant},\"vertex\":{vertex},\"quota\":{quota}}}"
                    ));
                }
                Err(e @ (ServeError::QueueFull { .. } | ServeError::UnknownVertex { .. })) => {
                    self.events.push(format!(
                        "{{\"k\":\"mtx\",\"tenant\":{tenant},\"vertex\":{vertex},\"err\":\"{e}\"}}"
                    ));
                }
                Err(e) => panic!("submit failed: {e}"),
            },
            TierOp::Idle { tenant, ticks } => {
                self.router.tick(tenant, ticks).expect("tenant attached");
            }
            TierOp::Swap {
                tenant,
                checkpoint_seed,
            } => {
                let model = self
                    .router
                    .with_server(tenant, |s| s.config().model)
                    .expect("tenant attached");
                let checkpoint = swap_bytes_for(&model, checkpoint_seed);
                let version = self
                    .router
                    .swap_checkpoint(tenant, &checkpoint)
                    .expect("driver swap");
                self.events.push(format!(
                    "{{\"k\":\"mts\",\"tenant\":{tenant},\"ver\":{version}}}"
                ));
                let frame = ServeFrame::Swap {
                    tenant,
                    version,
                    checkpoint,
                }
                .encode();
                self.swap_history.push(frame.clone());
                return Some(frame);
            }
        }
        None
    }

    /// Accounts a fully answered (or shed) batch: the tenant's window,
    /// the transcript event or the responses.
    fn complete(&mut self, mut flight: InFlight) {
        let batch = &flight.batch;
        if let Some((needed, budget)) = flight.shed {
            self.router
                .note_remote_shed(batch.tenant, batch.requests.len())
                .expect("tenant attached");
            self.events.push(format!(
                "{{\"k\":\"mtd\",\"tenant\":{},\"n\":{},\"needed\":{needed},\"budget\":{budget}}}",
                batch.tenant,
                batch.requests.len()
            ));
            return;
        }
        let latencies: Vec<u64> = batch
            .requests
            .iter()
            .map(|r| batch.close_vt - r.submitted_vt)
            .collect();
        let (n, hits, misses) = (batch.requests.len(), flight.hits, flight.misses);
        self.router
            .note_remote_batch(batch.tenant, n, hits, misses, &latencies)
            .expect("tenant attached");
        for (r, &latency_vt) in batch.requests.iter().zip(&latencies) {
            let (cache_hit, output) = flight
                .answered
                .remove(&r.id)
                .expect("admitted request lost its response");
            self.responses.push(TierResponse {
                tenant: batch.tenant,
                request_id: r.id,
                vertex: r.vertex,
                model_version: batch.version,
                output,
                latency_vt,
                cache_hit,
            });
        }
        assert!(flight.answered.is_empty(), "orphan responses in batch");
    }

    /// Runs the workload until the driver must park for a reply, the
    /// cluster is lost (`Err`), or everything is answered (`Done`):
    /// batches go out one at a time, each to completion, in the order
    /// the ops made them due.
    fn run<C: WorkerCtx>(&mut self, ctx: &mut C) -> Result<TaskStep, CommError> {
        if let Some(e) = ctx.failed() {
            return Err(e);
        }
        if !std::mem::replace(&mut self.joined, true) {
            for frame in &self.swap_history {
                broadcast(ctx, frame)?;
            }
            if let Some(flight) = &mut self.in_flight {
                flight.dispatch(ctx, &self.shard, &self.live, &mut self.round)?;
            }
        }
        loop {
            if let Some(flight) = &mut self.in_flight {
                while let Some(&rank) = flight.awaiting.front() {
                    let Some(reply) = ctx.try_recv(rank, TAG_RESP) else {
                        return Ok(TaskStep::Recv {
                            from: rank,
                            tag: TAG_RESP,
                        });
                    };
                    flight.awaiting.pop_front();
                    flight.absorb(&reply, self.round);
                }
                let done = self.in_flight.take().expect("checked above");
                self.complete(done);
            } else if let Some(batch) = self.due.pop_front() {
                if !batch.requests.is_empty() {
                    let flight = self.in_flight.insert(InFlight {
                        batch,
                        answered: BTreeMap::new(),
                        hits: 0,
                        misses: 0,
                        shed: None,
                        awaiting: VecDeque::new(),
                    });
                    flight.dispatch(ctx, &self.shard, &self.live, &mut self.round)?;
                }
            } else if let Some(op) = self.ops.next() {
                let rollout = self.apply(op);
                self.due.extend(self.router.close_due());
                if let Some(frame) = rollout {
                    // A failure here recovers like any other: the fresh
                    // fleet is replayed the history, this swap included.
                    broadcast(ctx, &frame)?;
                }
            } else if !std::mem::replace(&mut self.flushed, true) {
                self.due.extend(self.router.close_all());
            } else {
                broadcast(ctx, &ServeFrame::Shutdown.encode())?;
                return Ok(TaskStep::Done);
            }
        }
    }

    /// Removes the replica `err` names from the fleet and the shard map.
    fn lose(&mut self, err: &CommError) {
        let rank = match err {
            CommError::PeerUnreachable { rank } if *rank >= 1 => *rank,
            _ => panic!("cannot identify crashed replica from {err}"),
        };
        let crashed = self.live.remove(rank - 1);
        assert!(!self.live.is_empty(), "every replica crashed");
        self.shard.remove_replica(crashed);
        self.joined = false;
    }
}

/// The tier's two step machines behind one type, so a cluster can hold
/// them in a slice. The driver is borrowed: it outlives the cluster.
enum Node<'d, 'a> {
    Driver(&'d mut Driver<'a>),
    Replica(Replica<'a>),
}

impl SimTask for Node<'_, '_> {
    fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep {
        match self {
            Node::Driver(d) => d.run(ctx).unwrap_or_else(|e| {
                d.lost = Some(e);
                TaskStep::Done
            }),
            Node::Replica(r) => r.step(ctx),
        }
    }
}

/// Runs a deterministic multi-tenant workload against a replicated
/// tier, returning the sorted responses, the canonical transcript, the
/// per-tenant trace windows, and the number of replica crashes
/// survived. Each fleet generation is a fresh [`VirtualCluster`] on a
/// constant network profile; the run reads no clock and spawns nothing.
///
/// # Panics
///
/// Panics on wiring bugs (unknown tenants in ops, replica-side
/// invariant violations or execution failures) and on exhausting
/// `cfg.max_recoveries`.
pub fn run_tier(tenants: &[TierTenant], ops: &[TierOp], cfg: &TierConfig) -> TierRun {
    assert!(cfg.replicas >= 1, "tier needs at least one replica");
    let router = Router::new();
    let mut feats: Vec<ServeFeats> = Vec::new();
    for t in tenants {
        let snapshot = ModelSnapshot::init_quant(&t.server.model, t.init_seed, t.server.quant);
        router
            .attach(
                t.tenant,
                Server::new(t.graph.clone(), t.feats.clone(), t.server, snapshot),
                t.quota,
            )
            .expect("unique tenant ids");
        feats.push(ServeFeats::new(t.feats.clone(), t.server.quant));
    }
    let live: Vec<u64> = (1..=cfg.replicas as u64).collect();
    let mut driver = Driver {
        router,
        ops: ops.iter(),
        due: VecDeque::new(),
        in_flight: None,
        flushed: false,
        shard: ShardMap::new(cfg.shard_seed, cfg.slots, &live),
        live,
        swap_history: Vec::new(),
        joined: false,
        round: 0,
        lost: None,
        events: Vec::new(),
        responses: Vec::new(),
    };
    let mut chaos = cfg.chaos;
    let mut recoveries = 0;
    loop {
        let replicas = driver.live.len();
        let mut nodes = vec![Node::Driver(&mut driver)];
        nodes.extend((0..replicas).map(|_| Node::Replica(Replica::new(tenants, &feats))));
        let sim = SimConfig {
            net: NetProfile::default(),
            retry: cfg.retry,
            chaos,
        };
        VirtualCluster::new(nodes.len(), sim).run(&mut nodes);
        drop(nodes);
        let Some(err) = driver.lost.take() else {
            break;
        };
        recoveries += 1;
        assert!(
            recoveries <= cfg.max_recoveries,
            "replica recovery budget exhausted ({err})"
        );
        driver.lose(&err);
        chaos = chaos.without_crash();
    }

    driver.responses.sort_by_key(|r| (r.tenant, r.request_id));
    let mut transcript = driver.events;
    for r in &driver.responses {
        let bits: Vec<String> = r.output.iter().map(|x| x.to_bits().to_string()).collect();
        transcript.push(format!(
            "{{\"k\":\"mtr\",\"tenant\":{},\"id\":{},\"vertex\":{},\"ver\":{},\"lat\":{},\"out\":[{}]}}",
            r.tenant,
            r.request_id,
            r.vertex,
            r.model_version,
            r.latency_vt,
            bits.join(",")
        ));
    }
    let windows = driver.router.emit_trace_windows();
    TierRun {
        responses: driver.responses,
        transcript,
        windows,
        recoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::serve_one;
    use crate::BatcherConfig;

    fn tenant(id: TenantId, graph_seed: u64) -> TierTenant {
        let ds = flexgraph_graph::gen::community(60, 3, 4, 1, 8, graph_seed);
        let model = crate::ServeModelConfig {
            in_dim: ds.feature_dim(),
            classes: ds.num_classes,
            ..Default::default()
        };
        TierTenant {
            tenant: id,
            graph: ds.graph,
            feats: ds.features,
            server: ServerConfig {
                batcher: BatcherConfig {
                    max_batch: 4,
                    max_delay: 3,
                    queue_cap: 256,
                },
                model,
                ..Default::default()
            },
            quota: TenantQuota::default(),
            init_seed: 77,
        }
    }

    fn workload() -> Vec<TierOp> {
        let mut ops = Vec::new();
        for i in 0..24u32 {
            ops.push(TierOp::Submit {
                tenant: 1 + (i as u64 % 2),
                vertex: (i * 7) % 60,
            });
            if i % 5 == 4 {
                ops.push(TierOp::Idle {
                    tenant: 1,
                    ticks: 2,
                });
            }
            if i == 11 {
                ops.push(TierOp::Swap {
                    tenant: 2,
                    checkpoint_seed: 123,
                });
            }
        }
        ops
    }

    #[test]
    fn tier_matches_serve_one_and_is_replica_count_invariant() {
        let tenants = vec![tenant(1, 5), tenant(2, 6)];
        let ops = workload();
        let run2 = run_tier(&tenants, &ops, &TierConfig::default());
        let run3 = run_tier(
            &tenants,
            &ops,
            &TierConfig {
                replicas: 3,
                ..Default::default()
            },
        );
        assert!(!run2.responses.is_empty());
        assert_eq!(run2.transcript, run3.transcript);
        // Every response's bytes equal single-process serve_one on the
        // pinned snapshot.
        for t in &tenants {
            let mut snaps = vec![ModelSnapshot::init_quant(
                &t.server.model,
                t.init_seed,
                t.server.quant,
            )];
            let bytes = swap_bytes_for(&t.server.model, 123);
            snaps.push(snaps[0].with_checkpoint(&bytes).unwrap());
            let feats = ServeFeats::new(t.feats.clone(), t.server.quant);
            for r in run2.responses.iter().filter(|r| r.tenant == t.tenant) {
                let snap = snaps
                    .iter()
                    .find(|s| s.version() == r.model_version)
                    .expect("known version");
                let want = serve_one(
                    &t.graph,
                    feats.as_rows(),
                    snap,
                    &t.server.model,
                    r.vertex,
                    &t.server.budget,
                )
                .unwrap();
                assert_eq!(r.output, want, "tier output differs from serve_one");
            }
        }
    }

    #[test]
    fn quota_rejections_are_counted_and_transcribed() {
        let mut t = tenant(1, 9);
        t.quota = TenantQuota {
            window_quota: 3,
            slo_vt: 1,
        };
        let ops: Vec<TierOp> = (0..6)
            .map(|i| TierOp::Submit {
                tenant: 1,
                vertex: i * 3,
            })
            .collect();
        let run = run_tier(&[t], &ops, &TierConfig::default());
        assert_eq!(run.responses.len(), 3);
        let quota_lines = run
            .transcript
            .iter()
            .filter(|l| l.contains("\"k\":\"mtq\""))
            .count();
        assert_eq!(quota_lines, 3);
        assert_eq!(run.windows.len(), 1);
        assert_eq!(run.windows[0].quota_rejected, 3);
        assert_eq!(run.windows[0].serve.served, 3);
    }
}
