#![warn(missing_docs)]

//! # FlexGraph-RS
//!
//! A from-scratch Rust reproduction of **FlexGraph: A Flexible and
//! Efficient Distributed Framework for GNN Training** (Wang, Yin et al.,
//! EuroSys 2021).
//!
//! FlexGraph trains graph neural networks whose neighborhood definitions
//! and aggregation schemes go beyond what GAS-like frameworks express:
//! direct *and* indirect neighbors, flat *and* hierarchical aggregation.
//! Its pieces, each a crate re-exported here:
//!
//! * [`tensor`] — dense tensors, autograd, fused segment reductions,
//! * [`graph`] — CSR/CSC graphs, generators, walks, metapaths,
//!   partitioners,
//! * [`hdg`] — hierarchical dependency graphs with compact storage,
//! * [`engine`] — the NAU abstraction, hybrid execution, and the
//!   baseline execution strategies (GAS, mini-batch, Pre+DGL),
//! * [`comm`] — the simulated MPI fabric,
//! * [`dist`] — distributed training with ADB balancing and pipeline
//!   processing,
//! * [`models`] — GCN, PinSage, MAGNN, P-GNN, JK-Net in NAU,
//! * [`serve`] — online inference: deterministic micro-batching,
//!   versioned embedding cache, hot checkpoint swap, admission control,
//! * [`obs`] — epoch telemetry: per-stage/per-root running logs and the
//!   deterministic `FLEXGRAPH_TRACE` JSONL writer.
//!
//! # Quickstart
//!
//! Train a 2-layer GCN on a synthetic community graph:
//!
//! ```
//! use flexgraph::prelude::*;
//!
//! let ds = flexgraph::graph::gen::community(200, 3, 6, 1, 16, 7);
//! let model = Gcn::new(16, ds.feature_dim(), ds.num_classes);
//! let mut trainer = Trainer::new(model, TrainConfig { epochs: 10, ..Default::default() });
//! let stats = trainer.run(&ds);
//! assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
//! ```

pub mod ft;

pub use flexgraph_comm as comm;
pub use flexgraph_dist as dist;
pub use flexgraph_engine as engine;
pub use flexgraph_graph as graph;
pub use flexgraph_hdg as hdg;
pub use flexgraph_models as models;
pub use flexgraph_obs as obs;
pub use flexgraph_serve as serve;
pub use flexgraph_store as store;
pub use flexgraph_tensor as tensor;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::ft::{train_with_recovery, FtReport};
    pub use flexgraph_comm::{
        ChaosSchedule, CommError, CostModel, CrashPoint, Fabric, NetProfile, RetryPolicy,
    };
    pub use flexgraph_dist::{
        distributed_epoch, make_shards, virtual_epoch, DistConfig, DistMode, EpochReport,
        EpochRuntime, Shard, ThreadedRuntime, VirtualRuntime,
    };
    pub use flexgraph_engine::{
        hierarchical_aggregate, AggrOp, AggrPlan, EngineError, MemoryBudget, StageTimes, Strategy,
    };
    pub use flexgraph_graph::{
        gen::{Dataset, ScaleFactor},
        Graph, GraphBuilder, Partitioning, TypedGraph, VertexId,
    };
    pub use flexgraph_hdg::{Hdg, HdgBuilder, HdgStats, SchemaTree};
    pub use flexgraph_models::{
        EpochStats, GGcn, Gcn, Gin, JkNet, Magnn, Model, Pgnn, PinSage, TrainConfig, Trainer,
    };
    pub use flexgraph_obs::{PartitionRecord, ServeRecord, Stage, TraceEpoch};
    pub use flexgraph_serve::{
        ModelSnapshot, Response, ServeError, ServeModelConfig, Server, ServerConfig,
    };
    pub use flexgraph_store::{
        forward_out_of_core, rmat_to_store, write_graph, Neighborhood, PageCache, PagedGraph,
        StoreError,
    };
    pub use flexgraph_tensor::{Graph as AutogradGraph, Tensor};
}
