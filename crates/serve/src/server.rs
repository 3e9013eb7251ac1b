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
use crate::cache::{CacheKey, EmbeddingCache};
use crate::model::{aggregate_roots, dense_head, ModelSnapshot, ServeModelConfig};
use crate::{QuantConfig, ServeError};
use flexgraph_engine::MemoryBudget;
use flexgraph_graph::Graph;
use flexgraph_obs::ServeRecord;
use flexgraph_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, RwLock};

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
    /// materialize more transient bytes is rejected, not executed. The
    /// price is exact — that of the selection the batch is then built
    /// from ([`crate::model::aggregate_roots`]) — and the path is the
    /// same whether or not a budget is set.
    pub budget: MemoryBudget,
    /// Serving precision; f32 is the only one. `ledger/src/workloads/serve.rs`
    /// names this field; it goes with ROADMAP 1(g).
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
    feats: Tensor,
    cfg: ServerConfig,
    model: RwLock<Arc<ModelSnapshot>>,
    batcher: Mutex<MicroBatcher>,
    cache: Mutex<EmbeddingCache>,
    /// Counters of the current trace window.
    window: Mutex<ServeRecord>,
}

impl Server {
    /// A server over `graph`/`feats` starting at `snapshot`.
    ///
    /// Panics if the feature matrix disagrees with the model config or
    /// the graph — both are wiring bugs, not runtime conditions to shed.
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
        Self {
            graph,
            feats,
            cfg,
            model: RwLock::new(Arc::new(snapshot)),
            batcher: Mutex::new(MicroBatcher::new(cfg.batcher)),
            cache: Mutex::new(EmbeddingCache::new(cfg.cache_bytes)),
            window: Mutex::new(ServeRecord::default()),
        }
    }

    /// The served graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
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
        let m = &self.cfg.model;
        let feats = &self.feats;
        let version = snap.version();
        let now = self.batcher.lock().expect("batcher lock").now();

        // Phase 1 — cache probe, per request (duplicates in one batch
        // probe, and miss, independently until the first fill). The
        // cache is locked for the probes, released during compute, and
        // re-locked for the fills — a concurrent swap or poll never
        // waits on an aggregation.
        let mut c = self.cache.lock().expect("cache lock");
        let (hits0, misses0) = c.stats();
        // Request → cached output row, for requests answerable now.
        let mut out_rows: Vec<Option<Vec<f32>>> = Vec::with_capacity(batch.len());
        let mut pending: Vec<u32> = Vec::new(); // unique, first-appearance order
        let mut pending_set: HashSet<u32> = HashSet::new();
        for r in batch {
            let key = CacheKey {
                version,
                vertex: r.vertex,
                layer: 1,
            };
            match c.get(key) {
                Some(row) => out_rows.push(Some(row)),
                None => {
                    out_rows.push(None);
                    if pending_set.insert(r.vertex) {
                        pending.push(r.vertex);
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

        // Phase 2 — compute. Admission control is aggregate_roots' one
        // exact check: it walks the selection of the vertices still needing
        // an aggregation once, prices it, and builds the HDG from that same
        // selection only if the price fits the budget. The engine's own
        // per-step budget checks run too; any rejection sheds the whole
        // batch.
        let computed = (|| -> Result<Tensor, ServeError> {
            let fresh = if need_agg.is_empty() {
                Tensor::zeros(0, m.in_dim)
            } else {
                aggregate_roots(&self.graph, feats, m, &need_agg, &self.cfg.budget)?
            };
            // Assemble x_v + a_v rows for every pending vertex, cached
            // aggregations and fresh ones (in `need_agg` order) alike.
            let mut summed = Tensor::zeros(pending.len(), m.in_dim);
            let mut fresh_i = 0usize;
            for (i, &v) in pending.iter().enumerate() {
                let a = match &agg_rows[i] {
                    Some(a) => a.as_slice(),
                    None => {
                        fresh_i += 1;
                        fresh.row(fresh_i - 1)
                    }
                };
                let row = summed.row_mut(i);
                row.copy_from_slice(feats.row(v as usize));
                for (o, av) in row.iter_mut().zip(a) {
                    *o += av;
                }
            }
            let outputs = dense_head(&summed, snap);
            // Fill both cache layers for the next batch.
            let mut c = self.cache.lock().expect("cache lock");
            for (i, &v) in need_agg.iter().enumerate() {
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
            Ok(outputs)
        })();

        // Cache counters are reported even when the batch was shed — the
        // probes happened either way, and trace windows must say so.
        let mut w = self.window.lock().expect("window lock");
        w.cache_hits += hits1 - hits0;
        w.cache_misses += misses1 - misses0;
        let outputs = match computed {
            Ok(outputs) => outputs,
            Err(e) => {
                w.rejected += batch.len() as u64;
                return Err(e);
            }
        };
        w.served += batch.len() as u64;
        w.batches += 1;
        w.batch_max = w.batch_max.max(batch.len() as u64);

        let index_of: HashMap<u32, usize> =
            pending.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut responses = Vec::with_capacity(batch.len());
        for (r, cached) in batch.iter().zip(out_rows) {
            let (output, cache_hit) = match cached {
                Some(row) => (row, true),
                None => (outputs.row(index_of[&r.vertex]).to_vec(), false),
            };
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

    /// Closes the next due batch **without executing it**, returning the
    /// requests and the close-time virtual tick, so a caller can time
    /// closing and [`Server::execute_batch`] apart. `None` when no batch
    /// is due.
    pub fn next_batch(&self) -> Option<(Vec<Request>, u64)> {
        let mut b = self.batcher.lock().expect("batcher lock");
        let batch = b.poll()?;
        let now = b.now();
        Some((batch, now))
    }

    /// Emits the current window's counters as one `serve` trace line
    /// (no-op without an active `FLEXGRAPH_TRACE` session) and starts a
    /// fresh window. Returns the emitted record.
    pub fn emit_trace_window(&self) -> ServeRecord {
        let rec = self.take_window();
        flexgraph_obs::emit_serve(&rec);
        rec
    }

    /// Takes the current window (resetting it) without emitting.
    pub fn take_window(&self) -> ServeRecord {
        std::mem::take(&mut *self.window.lock().expect("window lock"))
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
        let bits = |r: &Response| r.output.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&second[0]), bits(&first[0]), "cache returns the truth");

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
        s.tick(100);
        assert!(
            s.poll().unwrap().is_empty(),
            "shed requests are not requeued"
        );
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
