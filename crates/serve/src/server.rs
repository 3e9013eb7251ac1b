//! The serving front end: queue → micro-batch → NeighborSelection →
//! hybrid aggregation → dense head → responses, with admission
//! control, the versioned cache, and `obs` trace emission in the loop.
//!
//! Execution is two-phase by design. [`Server::poll`] closes a batch
//! under the batcher lock, **clones the current model `Arc`**, releases
//! every lock, and only then executes. A concurrent
//! [`Server::swap_checkpoint`] replaces the `Arc` but cannot touch the
//! one an in-flight batch holds — so every response of a batch carries
//! the same `model_version`, always. The swap test drives
//! [`Server::execute_batch`] directly with a stale `Arc` to pin this
//! down.

use crate::batcher::{BatcherConfig, MicroBatcher, Request};
use crate::cache::{CacheKey, CacheMode, EmbeddingCache};
use crate::model::{
    aggregate_roots_preadmitted_quant, aggregate_roots_quant, cache_round_inplace,
    dense_head_quant, AdmissionPlanner, ModelSnapshot, ServeFeats, ServeModelConfig,
};
use crate::ServeError;
use flexgraph_engine::MemoryBudget;
use flexgraph_graph::Graph;
use flexgraph_obs::ServeRecord;
use flexgraph_tensor::{QuantConfig, Tensor};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, RwLock};

/// Everything [`execute_pinned`] needs besides the snapshot, cache, and
/// batch: the immutable serving context of one (tenant → model × graph)
/// pair. A [`Server`] builds one from its own fields; replica workers
/// in the replicated tier build one per hosted tenant and drive the
/// same code path — which is what keeps remote execution bitwise equal
/// to local serving.
pub struct PinnedContext<'a> {
    /// The served graph.
    pub graph: &'a Graph,
    /// Quantized (or f32) feature store.
    pub feats: &'a ServeFeats,
    /// Model architecture and NeighborSelection parameters.
    pub model: &'a ServeModelConfig,
    /// Serving precision.
    pub quant: QuantConfig,
    /// Sketch-based admission pricing (`None` admits everything).
    pub planner: Option<&'a AdmissionPlanner>,
    /// Admission budget.
    pub budget: &'a MemoryBudget,
}

/// Per-vertex results of one pinned execution, in input order
/// (duplicates included).
pub struct PinnedRows {
    /// One `classes`-wide output row per input vertex.
    pub outputs: Vec<Vec<f32>>,
    /// Whether the final output came straight from the cache.
    pub cache_hit: Vec<bool>,
}

/// Outcome of [`execute_pinned`]. Cache counters are reported even when
/// the execution itself was shed — the probes happened either way, and
/// trace windows must say so.
pub struct PinnedExecution {
    /// The rows, or the structured rejection that shed the batch.
    pub outcome: Result<PinnedRows, ServeError>,
    /// Cache hits this execution observed (both layers).
    pub cache_hits: u64,
    /// Cache misses this execution observed (both layers).
    pub cache_misses: u64,
}

/// Executes one version-pinned vertex batch against a cache: probe the
/// output layer per vertex, the aggregation layer per unique miss,
/// aggregate + dense-head the remainder, and fill both cache layers.
/// Per-vertex outputs are bitwise identical to
/// [`crate::model::serve_one`] on the same snapshot regardless of batch
/// composition, thread count, or cache state.
///
/// Locking is two-phase by design: the cache is locked for the probes,
/// released during compute, and re-locked for the fills — a concurrent
/// swap or poll never waits on an aggregation.
pub fn execute_pinned(
    ctx: &PinnedContext<'_>,
    snap: &ModelSnapshot,
    cache: &Mutex<EmbeddingCache>,
    vertices: &[u32],
) -> PinnedExecution {
    let m = ctx.model;
    let version = snap.version();

    // Phase 1 — cache probe, per vertex (duplicates in one batch probe,
    // and miss, independently until the first fill).
    let mut c = cache.lock().expect("cache lock");
    let (hits0, misses0) = c.stats();
    // vertex → cached output row, for vertices answerable now.
    let mut out_rows: Vec<Option<Vec<f32>>> = Vec::with_capacity(vertices.len());
    let mut pending: Vec<u32> = Vec::new(); // unique, first-appearance order
    let mut pending_set: HashSet<u32> = HashSet::new();
    for &v in vertices {
        let key = CacheKey {
            version,
            vertex: v,
            layer: 1,
        };
        match c.get(key) {
            Some(row) => out_rows.push(Some(row)),
            None => {
                out_rows.push(None);
                if pending_set.insert(v) {
                    pending.push(v);
                }
            }
        }
    }
    // Of the pending vertices, which have a cached aggregation?
    let mut agg_rows: Vec<Option<Vec<f32>>> = Vec::with_capacity(pending.len());
    let mut need_agg: Vec<u32> = Vec::new();
    for &v in &pending {
        let key = CacheKey {
            version,
            vertex: v,
            layer: 0,
        };
        match c.get(key) {
            Some(row) => agg_rows.push(Some(row)),
            None => {
                agg_rows.push(None);
                need_agg.push(v);
            }
        }
    }
    let (hits1, misses1) = c.stats();
    drop(c);

    // Phase 2 — compute. Admission control: budgeted contexts price the
    // selection from the HLL planner's sketches (a batch the planner
    // rejects walks nothing) and then aggregate pre-admitted; unlimited
    // ones take the exact aggregate_roots path, whose check prices the
    // very selection the HDG is then built from. Either way a batch is
    // selected once. The engine's own per-step budget checks run in
    // both; any rejection sheds the whole batch.
    let execute = || -> Result<Vec<Vec<f32>>, ServeError> {
        let mut fresh = if need_agg.is_empty() {
            Tensor::zeros(0, m.in_dim)
        } else if let Some(planner) = ctx.planner {
            ctx.budget.check(planner.planned_bytes(&need_agg))?;
            aggregate_roots_preadmitted_quant(ctx.graph, ctx.feats, m, &need_agg, ctx.budget)?
        } else {
            aggregate_roots_quant(ctx.graph, ctx.feats, m, &need_agg, ctx.budget)?
        };
        // Quantized serving rounds aggregations to their bf16
        // cache-storage form *before* first use, so warm hits and cold
        // computes feed identical bits downstream (identity under f32).
        cache_round_inplace(ctx.quant, &mut fresh);
        // Assemble x_v + a_v rows for every pending vertex, cached
        // aggregations and fresh ones alike.
        let mut summed = Tensor::zeros(pending.len(), m.in_dim);
        let mut x = vec![0.0f32; m.in_dim];
        let mut fresh_i = 0usize;
        let mut fresh_by_vertex: Vec<(u32, usize)> = Vec::new();
        for (i, &v) in pending.iter().enumerate() {
            ctx.feats.copy_row_into(v as usize, &mut x);
            let row = summed.row_mut(i);
            match &agg_rows[i] {
                Some(a) => {
                    for (o, (xv, av)) in row.iter_mut().zip(x.iter().zip(a.iter())) {
                        *o = xv + av;
                    }
                }
                None => {
                    let a = fresh.row(fresh_i);
                    fresh_by_vertex.push((v, fresh_i));
                    fresh_i += 1;
                    for (o, (xv, av)) in row.iter_mut().zip(x.iter().zip(a.iter())) {
                        *o = xv + av;
                    }
                }
            }
        }
        // Already bf16-rounded at the output under quant configs — its
        // cache-storage form.
        let outputs = dense_head_quant(&summed, snap);
        // Fill both cache layers for the next batch.
        let mut c = cache.lock().expect("cache lock");
        for &(v, i) in &fresh_by_vertex {
            c.insert(
                CacheKey {
                    version,
                    vertex: v,
                    layer: 0,
                },
                fresh.row(i).to_vec(),
            );
        }
        for (i, &v) in pending.iter().enumerate() {
            c.insert(
                CacheKey {
                    version,
                    vertex: v,
                    layer: 1,
                },
                outputs.row(i).to_vec(),
            );
        }
        Ok((0..pending.len())
            .map(|i| outputs.row(i).to_vec())
            .collect())
    };

    let cache_hits = hits1 - hits0;
    let cache_misses = misses1 - misses0;
    let computed = match execute() {
        Ok(c) => c,
        Err(e) => {
            return PinnedExecution {
                outcome: Err(e),
                cache_hits,
                cache_misses,
            }
        }
    };
    let index_of: HashMap<u32, usize> = pending.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut outputs = Vec::with_capacity(vertices.len());
    let mut cache_hit = Vec::with_capacity(vertices.len());
    for (&v, cached) in vertices.iter().zip(out_rows) {
        match cached {
            Some(row) => {
                outputs.push(row);
                cache_hit.push(true);
            }
            None => {
                outputs.push(computed[index_of[&v]].clone());
                cache_hit.push(false);
            }
        }
    }
    PinnedExecution {
        outcome: Ok(PinnedRows { outputs, cache_hit }),
        cache_hits,
        cache_misses,
    }
}

/// Everything static about a server instance.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Queue and micro-batching policy.
    pub batcher: BatcherConfig,
    /// Model architecture and NeighborSelection parameters.
    pub model: ServeModelConfig,
    /// Byte capacity of the embedding cache (0 disables caching).
    pub cache_bytes: usize,
    /// Admission-control budget: a batch whose NeighborSelection would
    /// materialize more transient bytes is rejected, not executed.
    pub budget: MemoryBudget,
    /// Serving precision. Non-f32 configs store features, weights, and
    /// cached embeddings at reduced width; the cache switches to bf16
    /// storage so the same byte budget holds ~2× the rows.
    pub quant: QuantConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batcher: BatcherConfig::default(),
            model: ServeModelConfig::default(),
            cache_bytes: 1 << 20,
            budget: MemoryBudget::unlimited(),
            quant: QuantConfig::F32,
        }
    }
}

/// One answered request.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Id assigned at submission.
    pub request_id: u64,
    /// The requested vertex.
    pub vertex: u32,
    /// The model version that computed (or cached) the output — uniform
    /// across a batch by construction.
    pub model_version: u64,
    /// The `classes`-wide output row.
    pub output: Vec<f32>,
    /// Virtual-time latency: execution tick − submission tick.
    pub latency_vt: u64,
    /// Whether the final output came straight from the cache.
    pub cache_hit: bool,
}

/// The online inference server.
pub struct Server {
    graph: Graph,
    feats: ServeFeats,
    cfg: ServerConfig,
    model: RwLock<Arc<ModelSnapshot>>,
    batcher: Mutex<MicroBatcher>,
    cache: Mutex<EmbeddingCache>,
    /// Counters of the current trace window.
    window: Mutex<ServeRecord>,
    /// Sketch-based admission pricing, built only when a budget is
    /// actually configured — unlimited-budget servers admit everything
    /// and never consult it.
    planner: Option<AdmissionPlanner>,
}

impl Server {
    /// A server over `graph`/`feats` starting at `snapshot`. Features
    /// are quantized once, here, when `cfg.quant` is not f32 (the f32
    /// matrix is dropped — the reduced-width store is the serving
    /// truth).
    ///
    /// Panics if the feature width disagrees with the model config or
    /// the snapshot's precision disagrees with the server's — both are
    /// wiring bugs, not runtime conditions to shed.
    pub fn new(graph: Graph, feats: Tensor, cfg: ServerConfig, snapshot: ModelSnapshot) -> Self {
        assert_eq!(
            feats.cols(),
            cfg.model.in_dim,
            "feature width must match model in_dim"
        );
        assert_eq!(
            graph.num_vertices(),
            feats.rows(),
            "one feature row per vertex"
        );
        assert_eq!(
            snapshot.quant_config(),
            cfg.quant,
            "snapshot precision must match the server's QuantConfig"
        );
        let planner = if cfg.budget.bytes != usize::MAX {
            Some(AdmissionPlanner::new(&graph, &cfg.model))
        } else {
            None
        };
        // Half-width cache storage rides with quantized serving: the
        // quant pipeline rounds rows through bf16 before they reach the
        // cache, so narrow storage round-trips exactly there (and only
        // there — f32 serving keeps f32 rows).
        let cache_mode = if cfg.quant == QuantConfig::F32 {
            CacheMode::F32
        } else {
            CacheMode::Bf16
        };
        Self {
            graph,
            feats: ServeFeats::new(feats, cfg.quant),
            cfg,
            model: RwLock::new(Arc::new(snapshot)),
            batcher: Mutex::new(MicroBatcher::new(cfg.batcher)),
            cache: Mutex::new(EmbeddingCache::with_mode(cfg.cache_bytes, cache_mode)),
            window: Mutex::new(ServeRecord::default()),
            planner,
        }
    }

    /// The served graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The currently published model snapshot. Batches clone this once
    /// at execution start and never re-read it.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.model.read().expect("model lock").clone()
    }

    /// Version of the currently published snapshot.
    pub fn current_version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Enqueues a request, returning its id. Structured rejections:
    /// [`ServeError::UnknownVertex`] for out-of-graph vertices,
    /// [`ServeError::QueueFull`] when the queue sheds.
    pub fn submit(&self, vertex: u32) -> Result<u64, ServeError> {
        let n = self.graph.num_vertices();
        if vertex as usize >= n {
            self.window.lock().expect("window lock").rejected += 1;
            return Err(ServeError::UnknownVertex {
                vertex,
                num_vertices: n,
            });
        }
        let mut b = self.batcher.lock().expect("batcher lock");
        match b.submit(vertex) {
            Ok(id) => {
                let depth = b.depth() as u64;
                drop(b);
                let mut w = self.window.lock().expect("window lock");
                w.enqueued += 1;
                w.queue_depth_max = w.queue_depth_max.max(depth);
                Ok(id)
            }
            Err(e) => {
                drop(b);
                self.window.lock().expect("window lock").rejected += 1;
                Err(e)
            }
        }
    }

    /// Advances virtual time (idle ticks between arrivals).
    pub fn tick(&self, ticks: u64) {
        self.batcher.lock().expect("batcher lock").tick(ticks);
    }

    /// Queued requests not yet batched.
    pub fn queue_depth(&self) -> usize {
        self.batcher.lock().expect("batcher lock").depth()
    }

    /// Closes and executes the next batch if the size-or-deadline
    /// policy allows one; `Ok(vec![])` when no batch is due.
    pub fn poll(&self) -> Result<Vec<Response>, ServeError> {
        let batch = self.batcher.lock().expect("batcher lock").poll();
        match batch {
            Some(batch) => self.execute_batch(&batch, &self.snapshot()),
            None => Ok(Vec::new()),
        }
    }

    /// Drains the queue unconditionally, executing batches until empty.
    pub fn flush(&self) -> Result<Vec<Response>, ServeError> {
        let mut out = Vec::new();
        loop {
            let batch = self.batcher.lock().expect("batcher lock").flush();
            match batch {
                Some(batch) => out.extend(self.execute_batch(&batch, &self.snapshot())?),
                None => return Ok(out),
            }
        }
    }

    /// Hot checkpoint swap. Restores `bytes` (checkpoint v2: CRC and
    /// shapes validated) into a clone of the current parameters, then
    /// atomically publishes the successor version and invalidates older
    /// cache entries. Serving never pauses: batches in flight finish on
    /// the snapshot they started with; a rejected checkpoint changes
    /// nothing. Returns the new version.
    pub fn swap_checkpoint(&self, bytes: &[u8]) -> Result<u64, ServeError> {
        let next = self.snapshot().with_checkpoint(bytes)?;
        let version = next.version();
        *self.model.write().expect("model lock") = Arc::new(next);
        self.cache
            .lock()
            .expect("cache lock")
            .invalidate_below(version);
        Ok(version)
    }

    /// Executes one batch against a pinned snapshot. Public so the swap
    /// suite can hold a stale `Arc` across a [`Server::swap_checkpoint`]
    /// and prove the batch still runs uniformly on the old version.
    ///
    /// Per-request outputs are bitwise identical to
    /// [`crate::model::serve_one`] on the same snapshot regardless of
    /// batch composition, thread count, or cache state (the parity
    /// suite's invariant).
    pub fn execute_batch(
        &self,
        batch: &[Request],
        snap: &Arc<ModelSnapshot>,
    ) -> Result<Vec<Response>, ServeError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let version = snap.version();
        let now = self.batcher.lock().expect("batcher lock").now();
        let vertices: Vec<u32> = batch.iter().map(|r| r.vertex).collect();
        let exec = execute_pinned(&self.pinned_context(), snap, &self.cache, &vertices);

        let mut w = self.window.lock().expect("window lock");
        w.cache_hits += exec.cache_hits;
        w.cache_misses += exec.cache_misses;
        let rows = match exec.outcome {
            Ok(rows) => rows,
            Err(e) => {
                w.rejected += batch.len() as u64;
                return Err(e);
            }
        };
        w.served += batch.len() as u64;
        w.batches += 1;
        w.batch_max = w.batch_max.max(batch.len() as u64);

        let mut responses = Vec::with_capacity(batch.len());
        for (r, (output, cache_hit)) in batch
            .iter()
            .zip(rows.outputs.into_iter().zip(rows.cache_hit))
        {
            let latency_vt = now.saturating_sub(r.submitted_vt);
            w.latency.record(latency_vt);
            responses.push(Response {
                request_id: r.id,
                vertex: r.vertex,
                model_version: version,
                output,
                latency_vt,
                cache_hit,
            });
        }
        Ok(responses)
    }

    /// The server's immutable serving context, for driving
    /// [`execute_pinned`] directly.
    pub fn pinned_context(&self) -> PinnedContext<'_> {
        PinnedContext {
            graph: &self.graph,
            feats: &self.feats,
            model: &self.cfg.model,
            quant: self.cfg.quant,
            planner: self.planner.as_ref(),
            budget: &self.cfg.budget,
        }
    }

    /// Closes the next due batch **without executing it**, returning the
    /// requests and the close-time virtual tick — the replicated tier's
    /// entry point, which ships the batch to remote workers instead of
    /// computing locally. `None` when no batch is due.
    pub fn next_batch(&self) -> Option<(Vec<Request>, u64)> {
        let mut b = self.batcher.lock().expect("batcher lock");
        let batch = b.poll()?;
        let now = b.now();
        Some((batch, now))
    }

    /// Unconditionally closes one queued batch without executing it (the
    /// remote-execution analogue of [`Server::flush`], one batch at a
    /// time). `None` when the queue is empty.
    pub fn drain_batch(&self) -> Option<(Vec<Request>, u64)> {
        let mut b = self.batcher.lock().expect("batcher lock");
        let batch = b.flush()?;
        let now = b.now();
        Some((batch, now))
    }

    /// Window accounting for a batch that executed remotely: the driver
    /// feeds back the batch size, the remote worker's cache counter
    /// deltas, and the per-request virtual-time latencies.
    pub fn note_remote_batch(&self, batch_len: usize, hits: u64, misses: u64, latencies: &[u64]) {
        let mut w = self.window.lock().expect("window lock");
        w.cache_hits += hits;
        w.cache_misses += misses;
        w.served += batch_len as u64;
        w.batches += 1;
        w.batch_max = w.batch_max.max(batch_len as u64);
        for &l in latencies {
            w.latency.record(l);
        }
    }

    /// Window accounting for a batch shed by remote admission control.
    pub fn note_remote_shed(&self, batch_len: usize) {
        self.window.lock().expect("window lock").rejected += batch_len as u64;
    }

    /// Emits the current window's counters as one `serve` trace line
    /// (no-op without an active `FLEXGRAPH_TRACE` session) and starts a
    /// fresh window. The record carries the server's quant label so
    /// mixed-precision fleets stay distinguishable in merged traces.
    /// Returns the emitted record.
    pub fn emit_trace_window(&self) -> ServeRecord {
        let rec = self.take_window();
        flexgraph_obs::emit_serve(&rec);
        rec
    }

    /// Takes the current window (resetting it) without emitting — for
    /// callers like the multi-tenant router that wrap the counters in a
    /// labelled record before emission. The quant label is stamped.
    pub fn take_window(&self) -> ServeRecord {
        let mut rec = {
            let mut w = self.window.lock().expect("window lock");
            std::mem::take(&mut *w)
        };
        rec.quant = self.cfg.quant.code();
        rec
    }

    /// A copy of the current (un-emitted) window counters.
    pub fn window_stats(&self) -> ServeRecord {
        *self.window.lock().expect("window lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::gen::community;

    fn make_server(cache_bytes: usize) -> Server {
        let ds = community(80, 3, 5, 1, 8, 3);
        let cfg = ServerConfig {
            batcher: BatcherConfig {
                max_batch: 4,
                max_delay: 8,
                queue_cap: 64,
            },
            model: ServeModelConfig {
                in_dim: ds.feature_dim(),
                classes: ds.num_classes,
                ..Default::default()
            },
            cache_bytes,
            budget: MemoryBudget::unlimited(),
            quant: QuantConfig::F32,
        };
        let snap = ModelSnapshot::init(&cfg.model, 42);
        Server::new(ds.graph, ds.features, cfg, snap)
    }

    fn make_quant_server(quant: QuantConfig) -> Server {
        let ds = community(80, 3, 5, 1, 8, 3);
        let cfg = ServerConfig {
            batcher: BatcherConfig {
                max_batch: 4,
                max_delay: 8,
                queue_cap: 64,
            },
            model: ServeModelConfig {
                in_dim: ds.feature_dim(),
                classes: ds.num_classes,
                ..Default::default()
            },
            quant,
            ..Default::default()
        };
        let snap = ModelSnapshot::init_quant(&cfg.model, 42, quant);
        Server::new(ds.graph, ds.features, cfg, snap)
    }

    #[test]
    fn submit_poll_roundtrip_answers_in_request_order() {
        let s = make_server(1 << 20);
        for v in [3u32, 9, 3, 14] {
            s.submit(v).unwrap();
        }
        let rs = s.poll().expect("batch of 4 is due");
        assert_eq!(rs.len(), 4);
        assert_eq!(
            rs.iter().map(|r| r.vertex).collect::<Vec<_>>(),
            vec![3, 9, 3, 14]
        );
        // Duplicate vertices in one batch get identical outputs.
        assert_eq!(rs[0].output, rs[2].output);
        assert!(rs.iter().all(|r| r.model_version == 1));
        let w = s.window_stats();
        assert_eq!(w.served, 4);
        assert_eq!(w.batches, 1);
        assert_eq!(w.batch_max, 4);
    }

    #[test]
    fn warm_cache_hits_and_survives_only_its_version() {
        let s = make_server(1 << 20);
        for _ in 0..2 {
            s.submit(5).unwrap();
            s.submit(6).unwrap();
        }
        let first = s.flush().unwrap();
        assert!(first.iter().take(2).all(|r| !r.cache_hit));
        // Second round: same vertices, fully warm.
        s.submit(5).unwrap();
        s.submit(6).unwrap();
        let second = s.flush().unwrap();
        assert!(second.iter().all(|r| r.cache_hit));
        assert_eq!(second[0].output, first[0].output, "cache returns the truth");

        // A swap makes the warm rows invisible.
        let bytes = flexgraph_models::checkpoint::save(s.snapshot().params());
        let v2 = s.swap_checkpoint(&bytes).unwrap();
        assert_eq!(v2, 2);
        s.submit(5).unwrap();
        let third = s.flush().unwrap();
        assert!(!third[0].cache_hit, "version flip invalidates");
        assert_eq!(third[0].model_version, 2);
    }

    #[test]
    fn unknown_vertices_and_full_queues_reject_structurally() {
        let s = make_server(0);
        assert!(matches!(
            s.submit(10_000),
            Err(ServeError::UnknownVertex { vertex: 10_000, .. })
        ));
        for v in 0..64 {
            s.submit(v).unwrap();
        }
        // queue_cap 64 with max_batch 4: queue fills faster than polls.
        assert!(matches!(
            s.submit(0),
            Err(ServeError::QueueFull { capacity: 64 })
        ));
        let w = s.window_stats();
        assert_eq!(w.rejected, 2);
        assert_eq!(w.enqueued, 64);
        assert_eq!(w.queue_depth_max, 64);
    }

    #[test]
    fn admission_control_sheds_batches_over_budget() {
        let ds = community(80, 3, 5, 1, 8, 3);
        let cfg = ServerConfig {
            model: ServeModelConfig {
                in_dim: ds.feature_dim(),
                classes: ds.num_classes,
                cap: 0, // uncapped: real shells, real bytes
                ..Default::default()
            },
            budget: MemoryBudget { bytes: 64 },
            ..Default::default()
        };
        let snap = ModelSnapshot::init(&cfg.model, 42);
        let s = Server::new(ds.graph, ds.features, cfg, snap);
        s.submit(0).unwrap();
        s.tick(100);
        match s.poll() {
            Err(ServeError::AdmissionDenied { needed, budget }) => {
                assert!(needed > budget);
                assert_eq!(budget, 64);
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
        assert_eq!(s.window_stats().rejected, 1);
        assert_eq!(s.queue_depth(), 0, "shed requests are not requeued");
    }

    #[test]
    fn quant_servers_use_bf16_cache_and_stay_warm_cold_bitwise() {
        for quant in [QuantConfig::Bf16, QuantConfig::Int8] {
            let s = make_quant_server(quant);
            for _ in 0..2 {
                s.submit(5).unwrap();
                s.submit(6).unwrap();
            }
            let first = s.flush().unwrap();
            assert!(first.iter().take(2).all(|r| !r.cache_hit));
            s.submit(5).unwrap();
            s.submit(6).unwrap();
            let second = s.flush().unwrap();
            assert!(second.iter().all(|r| r.cache_hit));
            // A warm hit returns exactly the bits the cold compute
            // produced: outputs are bf16-rounded before caching, so the
            // half-width store is lossless for them.
            assert_eq!(
                second[0]
                    .output
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                first[0]
                    .output
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            // Trace windows carry the precision label.
            s.submit(5).unwrap();
            s.flush().unwrap();
            assert_eq!(s.emit_trace_window().quant, quant.code());
        }
    }

    #[test]
    fn swap_requantizes_checkpoint_under_server_precision() {
        let s = make_quant_server(QuantConfig::Int8);
        s.submit(7).unwrap();
        let before = s.flush().unwrap();
        // Swap in a differently-initialized checkpoint; the snapshot
        // must re-derive int8 weights (same precision as the server),
        // and serving continues at version 2 with different outputs.
        let other = ModelSnapshot::init(&s.config().model, 43);
        let bytes = flexgraph_models::checkpoint::save(other.params());
        assert_eq!(s.swap_checkpoint(&bytes).unwrap(), 2);
        assert_eq!(s.snapshot().quant_config(), QuantConfig::Int8);
        s.submit(7).unwrap();
        let after = s.flush().unwrap();
        assert_eq!(after[0].model_version, 2);
        assert!(!after[0].cache_hit, "version flip invalidates warm rows");
        assert_ne!(after[0].output, before[0].output);
    }

    #[test]
    fn trace_window_resets_after_emission() {
        let s = make_server(1 << 20);
        s.submit(1).unwrap();
        s.tick(100);
        s.poll().unwrap();
        let rec = s.emit_trace_window();
        assert_eq!(rec.served, 1);
        let after = s.window_stats();
        assert_eq!(after, ServeRecord::default());
    }
}
