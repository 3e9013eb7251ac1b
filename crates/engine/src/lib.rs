#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! The FlexGraph GNN execution engine.
//!
//! This crate houses the NAU programming abstraction (paper §3.2), the
//! hybrid hierarchical-aggregation executor (§4.2), and — because the
//! paper's baselines are closed systems we compare against
//! algorithmically — faithful reimplementations of their execution
//! strategies:
//!
//! * [`nau`] — stage timing for the three NAU stages
//!   (*NeighborSelection → Aggregation → Update*); the stages
//!   themselves are `models::Model`,
//! * [`hybrid`] — hierarchical aggregation under the SA / SA+FA / HA
//!   strategies of §7.5,
//! * [`gas`] — PinSage's random walks *simulated through graph
//!   propagation stages*, the way the SAGA-NN (GAS-like) systems of
//!   DGL/NeuGraph select (the ≥95 %-of-epoch cost of §7.1); their
//!   materializing aggregation is [`hybrid`]'s SA,
//! * [`minibatch`] — the Euler/DistDGL-style mini-batch strategy with
//!   full k-hop neighborhood expansion, which explodes on dense graphs,
//! * [`expanded`] — the Pre+DGL baseline of §7.2 (pre-materialized
//!   expanded graphs + GAS operations),
//! * [`memory`] — a transient-allocation budget that reproduces the
//!   OOM / ✗ cells of Table 2.

pub mod expanded;
pub mod gas;
pub mod hybrid;
pub mod memory;
pub mod minibatch;
pub mod nau;

pub use hybrid::{hierarchical_aggregate, AggrOp, AggrPlan, AggrResult, Strategy};
pub use memory::{admission_bytes, segment_residency_bytes, EngineError, MemoryBudget};
pub use nau::StageTimes;
