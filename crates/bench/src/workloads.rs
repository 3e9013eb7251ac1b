//! The model list, and the per-system single-machine epoch of Tables
//! 2–4.
//!
//! Every "system" row of the paper's tables is an *execution strategy*
//! reimplemented inside this runtime (DESIGN.md §2), run over identical
//! models: a cell trains one epoch of `flexgraph::models`' GCN, PinSage
//! or MAGNN, its tape recording aggregation under the system's
//! [`Strategy`].
//!
//! * **PyTorch-like** — all-sparse tensor ops (SA); MAGNN instance
//!   search without graph-side type pruning; PinSage walks simulated
//!   through propagation stages (§7.1).
//! * **DGL-like** — GAS abstraction with kernel fusion (SA+FA), and the
//!   same simulated walks.
//! * **DistDGL-like** — mini-batch with full k-hop expansion: a
//!   forward-only engine run on GCN; PinSage as DGL-like.
//! * **Euler-like** — mini-batch sampling with a prefetch pipeline
//!   (higher concurrent memory) on GCN, forward only; on PinSage an
//!   efficient walk engine and sparse aggregation (SA).
//! * **FlexGraph** — graph-engine NeighborSelection + hybrid execution
//!   (HA).

use crate::{magnn_metapaths, typed_dataset, with_synthetic_types, MAGNN_INSTANCE_CAP};
use flexgraph::engine::gas::gas_walk_neighbors;
use flexgraph::engine::hybrid::{AggrOp, AggrPlan, Strategy};
use flexgraph::engine::minibatch::{minibatch_epoch, MiniBatchConfig};
use flexgraph::engine::{EngineError, MemoryBudget};
use flexgraph::graph::gen::Dataset;
use flexgraph::graph::walk::WalkConfig;
use flexgraph::graph::{TypedGraph, VertexId};
use flexgraph::hdg::build::{
    from_direct_neighbors, from_importance_walks, from_metapaths, from_neighbor_lists, HdgBuilder,
};
use flexgraph::hdg::{Hdg, SchemaTree};
use flexgraph::models::{EpochStats, Gcn, Magnn, Model, PinSage, TrainConfig, Trainer};
use flexgraph::prelude::StageTimes;
use flexgraph::tensor::fusion::materialized_bytes;
use flexgraph::tensor::Tensor;
use std::time::{Duration, Instant};

/// Hidden width of every trained model.
const HIDDEN: usize = 64;

/// Seed of PinSage's walks, in the model and in the GAS simulation.
const WALK_SEED: u64 = 7;

/// The three models of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// DNFA: direct neighbors, flat sum.
    Gcn,
    /// INFA: walk-importance neighbors, flat sum.
    PinSage,
    /// INHA: metapath instances, hierarchical attention.
    Magnn,
}

impl ModelKind {
    /// The three models, in the paper's row order.
    pub const ALL: [ModelKind; 3] = [Self::Gcn, Self::PinSage, Self::Magnn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Gcn => "GCN",
            Self::PinSage => "PinSage",
            Self::Magnn => "MAGNN",
        }
    }

    /// The engine's aggregation plan for the distributed epoch and
    /// Pre+DGL, which do not run the models: a flat sum, or a mean at
    /// every MAGNN level. Its `leaf_op` is also the distributed epoch's
    /// leaf reduction.
    pub fn plan(self) -> AggrPlan {
        match self {
            Self::Gcn | Self::PinSage => AggrPlan::flat(AggrOp::Sum),
            Self::Magnn => AggrPlan::flat(AggrOp::Mean),
        }
    }

    /// NeighborSelection over `roots`: direct in-neighbors (GCN), the
    /// top importance-walk neighbors of walks seeded by `walk_seed`
    /// (PinSage), or capped metapath instances (MAGNN).
    pub fn hdg(self, typed: &TypedGraph, roots: Vec<VertexId>, walk_seed: u64) -> Hdg {
        let g = typed.graph();
        match self {
            Self::Gcn => from_direct_neighbors(g, roots),
            Self::PinSage => from_importance_walks(g, roots, &pinsage_walk(), walk_seed),
            Self::Magnn => from_metapaths(typed, roots, &magnn_metapaths(), MAGNN_INSTANCE_CAP),
        }
    }

    /// A trainer of this model for `ds`, recording under `strategy`.
    /// MAGNN reads vertex types: give it a [`typed_dataset`].
    pub fn trainer(self, ds: &Dataset, strategy: Strategy) -> Box<dyn Epochs> {
        let (d, c) = (ds.feature_dim(), ds.num_classes);
        match self {
            Self::Gcn => trained(Gcn::new(HIDDEN, d, c), strategy),
            Self::PinSage => trained(PinSage::new(HIDDEN, d, c, WALK_SEED), strategy),
            Self::Magnn => {
                let paths = magnn_metapaths();
                trained(
                    Magnn::new(HIDDEN, d, c, paths, MAGNN_INSTANCE_CAP),
                    strategy,
                )
            }
        }
    }
}

fn trained<M: Model + Send + 'static>(model: M, strategy: Strategy) -> Box<dyn Epochs> {
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: 7,
    };
    Box::new(Trainer::new(model, cfg).with_strategy(strategy))
}

/// A [`Trainer`] of any model, as the harness drives it.
pub trait Epochs: Send {
    /// One training epoch; see [`Trainer::epoch`].
    fn epoch(&mut self, ds: &Dataset, epoch: u64) -> EpochStats;
}

impl<M: Model + Send> Epochs for Trainer<M> {
    fn epoch(&mut self, ds: &Dataset, epoch: u64) -> EpochStats {
        Trainer::epoch(self, ds, epoch)
    }
}

/// `epoch` on a thread of its own, so its tape adopts no buffer an
/// earlier tape parked: every cell draws its whole footprint, and
/// [`EpochStats::tape_bytes`] reports it.
pub fn isolated_epoch(tr: &mut dyn Epochs, ds: &Dataset, epoch: u64) -> EpochStats {
    std::thread::scope(|s| s.spawn(|| tr.epoch(ds, epoch)).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Every vertex of `ds`, in id order: the roots of a whole-graph
/// selection.
pub(crate) fn all_roots(ds: &Dataset) -> Vec<VertexId> {
    (0..ds.graph.num_vertices() as VertexId).collect()
}

/// The five systems of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// All-sparse tensor execution.
    PyTorchLike,
    /// GAS with kernel fusion.
    DglLike,
    /// Mini-batch full k-hop expansion.
    DistDglLike,
    /// Mini-batch sampling with prefetch concurrency.
    EulerLike,
    /// NAU + hybrid execution.
    FlexGraph,
}

impl System {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::PyTorchLike => "PyT.",
            Self::DglLike => "DGL",
            Self::DistDglLike => "DistD.",
            Self::EulerLike => "Euler",
            Self::FlexGraph => "FlexG.",
        }
    }

    /// All systems in the paper's column order.
    pub const ALL: [System; 5] = [
        Self::PyTorchLike,
        Self::DglLike,
        Self::DistDglLike,
        Self::EulerLike,
        Self::FlexGraph,
    ];

    /// How the system's training epoch records aggregation.
    pub fn strategy(self) -> Strategy {
        match self {
            Self::PyTorchLike | Self::EulerLike => Strategy::Sa,
            Self::DglLike | Self::DistDglLike => Strategy::SaFa,
            Self::FlexGraph => Strategy::Ha,
        }
    }
}

/// Paper-default PinSage walk parameters (10 × 3, top-10).
pub fn pinsage_walk() -> WalkConfig {
    WalkConfig::default()
}

/// MAGNN HDG of every vertex over the (possibly synthetic) typing.
pub fn magnn_hdg(ds: &Dataset) -> Hdg {
    ModelKind::Magnn.hdg(&with_synthetic_types(ds), all_roots(ds), 0)
}

/// Estimated transient bytes of a *naive* (unpruned) metapath search:
/// every 2-hop expansion materialized as a tensor row before type
/// filtering — the PyTorch-like MAGNN execution that OOMs on the big
/// graphs in Table 2.
fn naive_magnn_bytes(ds: &Dataset) -> usize {
    let g = &ds.graph;
    let mut paths2: usize = 0;
    for v in 0..g.num_vertices() as u32 {
        for &u in g.out_neighbors(v) {
            paths2 += g.out_degree(u);
        }
    }
    materialized_bytes(paths2, ds.feature_dim())
}

/// Unpruned instance search: expands every length-3 path and filters by
/// type afterwards (the tensor-only formulation, §7.1: "over 95% of the
/// total time is used to find metapath instances").
fn naive_find_magnn_instances(ds: &Dataset) -> Hdg {
    let typed = with_synthetic_types(ds);
    let metapaths = magnn_metapaths();
    let g = &ds.graph;
    let mut b = HdgBuilder::new(
        SchemaTree::new(
            (0..metapaths.len())
                .map(|i| format!("MP{i}"))
                .collect::<Vec<_>>(),
        ),
        all_roots(ds),
    );
    let mut per_root_counts = vec![0usize; metapaths.len()];
    for v in 0..g.num_vertices() as u32 {
        per_root_counts.iter_mut().for_each(|c| *c = 0);
        // Tensor-style execution: materialize ALL length-3 expansions
        // first (the intermediate id tensor a dataflow formulation
        // builds), then filter by type per metapath.
        let mut expansions: Vec<(u32, u32)> = Vec::new();
        for &u in g.out_neighbors(v) {
            for &w in g.out_neighbors(u) {
                if w != v {
                    expansions.push((u, w));
                }
            }
        }
        for (mi, mp) in metapaths.iter().enumerate() {
            if typed.vertex_type(v) != mp.types[0] {
                continue;
            }
            // The per-metapath boolean-mask pass over the whole
            // expansion tensor.
            for &(u, w) in &expansions {
                if per_root_counts[mi] >= MAGNN_INSTANCE_CAP {
                    break;
                }
                if typed.vertex_type(u) == mp.types[1] && typed.vertex_type(w) == mp.types[2] {
                    per_root_counts[mi] += 1;
                    b.push_at(v as usize, mi as u16, &[v, u, w]);
                }
            }
        }
    }
    b.build()
}

/// The selection a baseline runs in place of the model's own, timed, if
/// it has one: GAS-simulated walks for PinSage on PyTorch-, DGL- and
/// DistDGL-like, the naive metapath search for PyTorch-like MAGNN.
fn baseline_selection(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<Option<Duration>, EngineError> {
    let t0 = Instant::now();
    match (system, model) {
        (System::PyTorchLike | System::DglLike | System::DistDglLike, ModelKind::PinSage) => {
            // Random walks simulated through propagation stages — the
            // ≥95 % cost of §7.1.
            let walk = gas_walk_neighbors(&ds.graph, &pinsage_walk(), WALK_SEED, budget)?;
            from_neighbor_lists(all_roots(ds), &walk.neighbors);
        }
        (System::PyTorchLike, ModelKind::Magnn) => {
            // The naive expansion materializes every 2-hop path before
            // filtering; check its tensor against the budget first (the
            // paper's OOM cells on Reddit/FB91/Twitter).
            budget.check(naive_magnn_bytes(ds))?;
            naive_find_magnn_instances(ds);
        }
        (System::DglLike | System::DistDglLike | System::EulerLike, ModelKind::Magnn) => {
            return Err(EngineError::Unsupported(
                "GAS-like abstractions cannot express hierarchical aggregation",
            ));
        }
        _ => return Ok(None),
    }
    Ok(Some(t0.elapsed()))
}

/// One single-machine epoch of a (system, model) pair: its stage
/// times, or the structured OOM / unsupported outcome — the cells of
/// Tables 2 and 4.
///
/// The mini-batch systems run GCN as a forward-only engine pass
/// (NeighborSelection-free k-hop batches, two layers, then a dense
/// update). Every other cell is the first epoch of a fresh
/// [`Trainer`] — selection, forward, backward and Adam, on a thread of
/// its own — recorded under [`System::strategy`], with the baseline's
/// own selection time in place of the model's where it has one.
pub fn run_epoch(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<StageTimes, EngineError> {
    if model == ModelKind::Gcn && matches!(system, System::DistDglLike | System::EulerLike) {
        let concurrent = if system == System::EulerLike { 8 } else { 1 };
        let cfg = MiniBatchConfig {
            batch_size: 512,
            layers: 2,
            concurrent_batches: concurrent,
        };
        let ta = Instant::now();
        let out = minibatch_epoch(&ds.graph, &ds.features, AggrOp::Sum, &cfg, budget)?;
        let aggregation = ta.elapsed();
        let w = Tensor::eye(ds.feature_dim()).scale(0.1);
        let tu = Instant::now();
        let mut h = out.result.features.matmul(&w);
        h.relu_inplace();
        return Ok(StageTimes {
            selection: Duration::ZERO,
            aggregation,
            update: tu.elapsed(),
        });
    }
    let selection = baseline_selection(system, model, ds, budget)?;
    let typed = (model == ModelKind::Magnn).then(|| typed_dataset(ds));
    let ds = typed.as_ref().unwrap_or(ds);
    let mut tr = model.trainer(ds, system.strategy());
    let mut times = isolated_epoch(tr.as_mut(), ds, 0).times;
    if let Some(selection) = selection {
        times.selection = selection;
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph::engine::hybrid::hierarchical_aggregate;
    use flexgraph::graph::gen::{community, hetero_imdb};

    #[test]
    fn flexgraph_runs_every_model() {
        let ds = community(300, 3, 6, 2, 16, 5);
        let b = MemoryBudget::unlimited();
        for m in [ModelKind::Gcn, ModelKind::PinSage, ModelKind::Magnn] {
            assert!(run_epoch(System::FlexGraph, m, &ds, &b).is_ok(), "{m:?}");
        }
    }

    #[test]
    fn magnn_is_unsupported_on_gas_like_systems() {
        let ds = hetero_imdb(100, 2, 2, 8, 6);
        let b = MemoryBudget::unlimited();
        for s in [System::DglLike, System::DistDglLike, System::EulerLike] {
            assert!(matches!(
                run_epoch(s, ModelKind::Magnn, &ds, &b),
                Err(EngineError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn naive_and_pruned_magnn_selection_agree_on_counts() {
        let ds = hetero_imdb(120, 2, 2, 8, 7);
        let naive = naive_find_magnn_instances(&ds);
        let pruned = magnn_hdg(&ds);
        // Same instance multiset size (both capped identically).
        assert_eq!(naive.num_instances(), pruned.num_instances());
    }

    /// §7.1's walk-simulation overhead, on the bytes it is budgeted on:
    /// GAS-style selection materializes one walker message per edge and
    /// trace, so a budget one byte short of that fails the DGL-like
    /// PinSage epoch, while FlexGraph's direct walks run under it.
    #[test]
    fn gas_walks_materialize_edge_messages_that_direct_walks_do_not() {
        let ds = community(300, 3, 6, 2, 16, 5);
        let cfg = pinsage_walk();
        let messages = ds.graph.num_edges() * cfg.num_traces * std::mem::size_of::<f32>();
        let gas = gas_walk_neighbors(&ds.graph, &cfg, 7, &MemoryBudget::unlimited()).unwrap();
        assert_eq!(gas.peak_transient_bytes, messages);
        let short = MemoryBudget {
            bytes: messages - 1,
        };
        assert!(matches!(
            run_epoch(System::DglLike, ModelKind::PinSage, &ds, &short),
            Err(EngineError::Oom { .. })
        ));
        assert!(run_epoch(System::FlexGraph, ModelKind::PinSage, &ds, &short).is_ok());
    }

    /// The fusion argument (§4.2) is about bytes, not a stopwatch: the
    /// sparse GCN aggregation materializes one feature row per edge
    /// before scattering, the fused one streams them and materializes
    /// none — for the same output bits.
    #[test]
    fn fusion_materializes_no_per_edge_rows_on_gcn() {
        let ds = community(2_000, 4, 16, 4, 64, 8);
        let hdg = from_direct_neighbors(&ds.graph, all_roots(&ds));
        let aggregate = |strategy| {
            let (plan, b) = (AggrPlan::flat(AggrOp::Sum), MemoryBudget::unlimited());
            hierarchical_aggregate(&hdg, &ds.features, &plan, strategy, &b).unwrap()
        };
        let (sparse, fused) = (aggregate(Strategy::Sa), aggregate(Strategy::Ha));
        assert_eq!(
            sparse.peak_transient_bytes,
            materialized_bytes(ds.graph.num_edges(), ds.feature_dim())
        );
        assert_eq!(fused.peak_transient_bytes, 0);
        assert_eq!(fused.features.data(), sparse.features.data());
    }
}
