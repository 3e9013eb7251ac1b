#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Distributed GNN training runtime (paper §5).
//!
//! FlexGraph distributes training over `k` shared-nothing workers: the
//! vertex set is partitioned, each worker builds the HDGs of its roots,
//! and leaf-level features are synchronized at every layer. Two
//! optimizations define the paper's distributed story, both implemented
//! here:
//!
//! * [`balance`] — the application-driven workload balancer (**ADB**):
//!   a polynomial cost function fitted from per-root runtime samples,
//!   BFS-greedy balancing-plan generation, and plan selection by minimum
//!   induced-graph edge cut.
//! * [`pipeline`] — pipeline processing: sender-side *partial
//!   aggregation* (one combined message per destination instead of raw
//!   per-vertex rows) overlapped with local aggregation while messages
//!   are in flight.
//!
//! [`shard`] carves per-worker shards out of a dataset + partitioning;
//! the shards of one carving are a set that carries its leaf-sync plans.
//! The worker itself — FlexGraph's and the mini-batch baselines' — is
//! written once, as a step machine over [`flexgraph_comm::WorkerCtx`]
//! (the private `worker` module), and has two drivers: [`trainer`] runs
//! one task per OS thread over the fault-free [`flexgraph_comm`] fabric
//! and holds the epoch body both backends share (recovery, assembly,
//! telemetry); [`sim`] runs a whole cluster of tasks on the
//! deterministic virtual-time runtime, the one place a chaos schedule
//! injects faults. [`runtime`] names that choice as a trait for
//! harnesses. Either way an epoch reports time plus traffic, which is
//! what the Figure 13 / 15 harnesses measure.

pub mod adb;
pub mod balance;
pub mod pipeline;
pub mod runtime;
pub mod shard;
pub mod sim;
pub mod trainer;
mod worker;

pub use adb::AdbController;
pub use balance::{
    choose_plan, fit_cost_function, generate_plans, measured_partition_loads, CostFn, CostSample,
};
pub use pipeline::{build_leaf_sync, LeafSync, SlotLevel};
pub use runtime::{EpochRuntime, ThreadedRuntime, VirtualRuntime};
pub use shard::{leaf_sync_plans, make_shards, make_shards_paged, Shard};
pub use sim::{virtual_epoch, VirtualEpochReport};
pub use trainer::{distributed_epoch, DistConfig, DistMode, EpochReport};
