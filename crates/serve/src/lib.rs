#![warn(missing_docs)]

//! `flexgraph-serve` — online GNN inference serving.
//!
//! The training stack (PRs 1–4) takes a dataset to a trained
//! [`flexgraph_models::checkpoint`]; this crate is the path from that
//! checkpoint to answering per-vertex embedding/prediction requests
//! online. Seven pieces, each its own module:
//!
//! * [`batcher`] — a request queue plus a deterministic micro-batcher
//!   that coalesces per-vertex requests into batches by size and
//!   deadline in **virtual time**. Batch composition is a pure function
//!   of the submit/tick sequence, so same-seed runs produce
//!   byte-identical batches at any `FLEXGRAPH_THREADS` — the same
//!   determinism contract as `obs` traces.
//! * [`model`] — immutable, versioned model snapshots and the **hot
//!   checkpoint swap**: a new checkpoint (v2, CRC-validated) loads
//!   while serving continues, then an `Arc` flip publishes the new
//!   version. In-flight batches keep the `Arc` they started with, so a
//!   batch never mixes model versions.
//! * [`cache`] — a versioned LRU embedding/feature cache keyed by
//!   `(model version, vertex, layer)`. The version key makes swap
//!   invalidation atomic: entries written under an old version simply
//!   stop matching, and [`cache::EmbeddingCache::invalidate_below`]
//!   reclaims their bytes.
//! * [`server`] — ties them together: per-batch k-hop
//!   NeighborSelection with sampling caps
//!   ([`flexgraph_hdg::build::select_hop_shells`], walked once per
//!   batch and read by both admission and the HDG build) feeding
//!   [`flexgraph_engine::hybrid`], admission control via
//!   [`flexgraph_engine::MemoryBudget`] with structured [`ServeError`]
//!   rejections, and `obs` serve-trace emission.
//! * [`router`] — the multi-tenant front-end: many (tenant → model ×
//!   graph) pairs behind one [`Router`] with hot attach/detach,
//!   per-window admission quotas, and virtual-time latency SLOs.
//!   Tenants are fully isolated; `tests/serve_multi_tenant.rs` proves
//!   any interleaving equals each tenant running alone, bitwise.
//! * [`shard`] — deterministic fixed-slot consistent hashing of the
//!   embedding cache across replica workers, with provably minimal
//!   key movement on replica add/remove.
//! * [`replica`] — the replicated tier: a router-driving rank 0 plus
//!   replica workers, step machines on `flexgraph_comm`'s virtual
//!   cluster, with version-pinned request routing, crash recovery by a
//!   fresh cluster over the survivors, and a chaos-proven exactly-once
//!   response guarantee (`tests/replica_chaos.rs`).
//!
//! The load-bearing invariant, asserted by
//! `tests/serve_parity.rs`: a served batch's outputs are **bitwise
//! identical** to running each request alone, for any batch
//! composition, thread count, and cache state. It holds because every
//! level of the pipeline is per-root independent — capped selection is
//! a pure hash of `(seed, root, leaf)`, hierarchical aggregation
//! reduces per-destination segments in a fixed order, and the dense
//! head accumulates each output row over ascending `k` regardless of
//! which other rows share the batch.
//!
//! Quantized serving ([`QuantConfig::Bf16`] / [`QuantConfig::Int8`] on
//! [`ServerConfig`]) swaps the f32 kernels for bf16/int8 ones and
//! halves the embedding cache's bytes per row
//! ([`cache::CacheMode::Bf16`]). The parity invariant then holds **per
//! config**: within a fixed `QuantConfig`, outputs stay bitwise
//! identical across thread counts, batch compositions, and cache
//! states — they differ from f32 only by a bounded rounding error
//! (see `tests/quant_accuracy.rs`).

pub mod batcher;
pub mod cache;
pub mod model;
pub mod replica;
pub mod router;
pub mod server;
pub mod shard;

pub use batcher::{BatcherConfig, MicroBatcher, Request};
pub use cache::{CacheKey, CacheMode, EmbeddingCache};
pub use flexgraph_tensor::QuantConfig;
pub use model::{
    aggregate_roots, aggregate_roots_preadmitted, dense_head, dense_head_quant,
    selection_admission_bytes, serve_one, serve_one_quant, AdmissionPlanner, ModelSnapshot,
    ServeFeats, ServeModelConfig,
};
pub use replica::{
    run_tier, swap_bytes_for, TierConfig, TierOp, TierResponse, TierRun, TierTenant,
};
pub use router::{ClosedBatch, Router, TenantId, TenantQuota};
pub use server::{
    execute_pinned, PinnedContext, PinnedExecution, PinnedRows, Response, Server, ServerConfig,
};
pub use shard::ShardMap;

use flexgraph_engine::EngineError;
use flexgraph_models::checkpoint::CheckpointError;

/// Errors surfaced by the serving layer. Every rejection is structured
/// — the serving loop never panics and never OOMs; it sheds load.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is at capacity; the client should back off.
    QueueFull {
        /// Configured queue capacity.
        capacity: usize,
    },
    /// Admission control rejected a batch: executing it would
    /// materialize more transient bytes than the budget allows. The
    /// batch's requests are rejected rather than OOMing the server.
    AdmissionDenied {
        /// Bytes the batch would have materialized.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The requested vertex is outside the served graph.
    UnknownVertex {
        /// The offending vertex id.
        vertex: u32,
        /// Number of vertices in the served graph.
        num_vertices: usize,
    },
    /// A hot swap was handed an invalid checkpoint; the serving model
    /// is unchanged.
    BadCheckpoint(CheckpointError),
    /// The execution engine rejected the batch (e.g. an unsupported
    /// aggregation for the configured strategy).
    Engine(EngineError),
    /// A router operation named a tenant that is not attached.
    UnknownTenant {
        /// The missing tenant id.
        tenant: u64,
    },
    /// A tenant attach collided with an already-attached id.
    TenantExists {
        /// The colliding tenant id.
        tenant: u64,
    },
    /// The tenant's per-window admission quota is exhausted; the
    /// request was refused before it reached the server's queue.
    QuotaExceeded {
        /// The refusing tenant.
        tenant: u64,
        /// The configured per-window quota.
        quota: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            Self::AdmissionDenied { needed, budget } => write!(
                f,
                "admission denied: batch needs {needed} transient bytes, budget {budget}"
            ),
            Self::UnknownVertex {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} outside served graph of {num_vertices}"),
            Self::BadCheckpoint(e) => write!(f, "checkpoint rejected: {e}"),
            Self::Engine(e) => write!(f, "engine error: {e}"),
            Self::UnknownTenant { tenant } => write!(f, "tenant {tenant} not attached"),
            Self::TenantExists { tenant } => write!(f, "tenant {tenant} already attached"),
            Self::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant} window quota {quota} exhausted")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        Self::BadCheckpoint(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Oom { needed, budget } => Self::AdmissionDenied { needed, budget },
            other => Self::Engine(other),
        }
    }
}
