#![warn(missing_docs)]

//! `flexgraph-serve` — online GNN inference serving.
//!
//! The training stack (PRs 1–4) takes a dataset to a trained
//! [`flexgraph_models::checkpoint`]; this crate is the path from that
//! checkpoint to answering per-vertex embedding/prediction requests
//! online. Four pieces, each its own module:
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
//!
//! The load-bearing invariant, asserted by
//! `tests/serve_parity.rs`: a served batch's outputs are **bitwise
//! identical** to running each request alone, for any batch
//! composition, thread count, and cache state. It holds because every
//! level of the pipeline is per-root independent — capped selection is
//! a pure hash of `(seed, root, leaf)`, hierarchical aggregation
//! reduces per-destination segments in a fixed order, and the dense
//! head accumulates each output row over ascending `k` regardless of
//! which other rows share the batch. Serving runs in f32 end to end,
//! like training; `tests/served_bits.rs` pins the absolute bits.

pub mod batcher;
pub mod cache;
pub mod model;
pub mod server;

pub use batcher::{BatcherConfig, MicroBatcher, Request};
pub use cache::{CacheKey, EmbeddingCache};
pub use model::{
    aggregate_roots, dense_head, selection_admission_bytes, serve_one, ModelSnapshot,
    ServeModelConfig,
};
pub use server::{Response, Server, ServerConfig};

use flexgraph_engine::EngineError;
use flexgraph_models::checkpoint::CheckpointError;

/// Serving precision: f32, the only one. `ledger/src/workloads/serve.rs`
/// names this enum; it goes with ROADMAP 1(g).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QuantConfig {
    /// Full-precision f32 everywhere.
    #[default]
    F32,
}

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
