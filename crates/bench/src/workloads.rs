//! The model list, and the per-system single-machine epoch of Tables
//! 2–4.
//!
//! Every "system" row of the paper's tables is an *execution strategy*
//! reimplemented inside this runtime (DESIGN.md §2), run over identical
//! model workloads:
//!
//! * **PyTorch-like** — all-sparse tensor ops: materializing gather +
//!   scatter; MAGNN instance search without graph-side type pruning.
//! * **DGL-like** — GAS abstraction with kernel fusion but without
//!   FlexGraph's parallel SIMD sweep; PinSage walks simulated through
//!   propagation stages (§7.1).
//! * **DistDGL-like** — mini-batch with full k-hop expansion.
//! * **Euler-like** — mini-batch sampling with a prefetch pipeline
//!   (higher concurrent memory) but an efficient walk engine.
//! * **FlexGraph** — graph-engine NeighborSelection + hybrid execution.

use crate::{magnn_metapaths, with_synthetic_types, MAGNN_INSTANCE_CAP};
use flexgraph::engine::gas::gas_walk_neighbors;
use flexgraph::engine::hybrid::{
    direct_aggregate, hierarchical_aggregate, AggrOp, AggrPlan, Strategy,
};
use flexgraph::engine::minibatch::{minibatch_epoch, MiniBatchConfig};
use flexgraph::engine::{EngineError, MemoryBudget};
use flexgraph::graph::gen::Dataset;
use flexgraph::graph::walk::WalkConfig;
use flexgraph::graph::{TypedGraph, VertexId};
use flexgraph::hdg::build::{
    from_direct_neighbors, from_importance_walks, from_metapaths, from_neighbor_lists, HdgBuilder,
};
use flexgraph::hdg::{Hdg, SchemaTree};
use flexgraph::prelude::StageTimes;
use flexgraph::tensor::fusion::{
    materialized_bytes, segment_reduce, segment_reduce_serial, Reduce,
};
use flexgraph::tensor::Tensor;
use std::time::{Duration, Instant};

/// The three models of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// DNFA: direct neighbors, flat sum.
    Gcn,
    /// INFA: walk-importance neighbors, flat sum.
    PinSage,
    /// INHA: metapath instances, hierarchical mean.
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

    /// The aggregation plan; its `leaf_op` is also the distributed
    /// epoch's leaf reduction.
    pub fn plan(self) -> AggrPlan {
        match self {
            Self::Gcn | Self::PinSage => AggrPlan::flat(AggrOp::Sum),
            Self::Magnn => magnn_plan(),
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
    /// GAS with kernel fusion, single-threaded.
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
    pub fn all() -> [System; 5] {
        [
            Self::PyTorchLike,
            Self::DglLike,
            Self::DistDglLike,
            Self::EulerLike,
            Self::FlexGraph,
        ]
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

/// MAGNN aggregation plan (mean at every level, per Figure 7's spirit).
pub fn magnn_plan() -> AggrPlan {
    AggrPlan {
        leaf_op: AggrOp::Mean,
        instance_op: AggrOp::Mean,
        schema_op: AggrOp::Mean,
    }
}

/// Dense Update stage shared by every system: `relu(h · w)`, with a
/// square weight so layers compose.
fn update(h: &Tensor, w: &Tensor) -> Tensor {
    let mut out = h.matmul(w);
    out.relu_inplace();
    out
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

/// One single-machine training-epoch equivalent (NeighborSelection +
/// two layers of Aggregation + Update) for a (system, model) pair.
///
/// Returns the wall time, or the structured OOM / unsupported outcome —
/// exactly the cells of Table 2.
pub fn run_epoch(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<Duration, EngineError> {
    Ok(run_epoch_timed(system, model, ds, budget)?.total())
}

/// As [`run_epoch`], with the per-stage breakdown (Table 4).
pub fn run_epoch_timed(
    system: System,
    model: ModelKind,
    ds: &Dataset,
    budget: &MemoryBudget,
) -> Result<StageTimes, EngineError> {
    let d = ds.feature_dim();
    let w = Tensor::eye(d).scale(0.1);
    let g = &ds.graph;
    let t0 = Instant::now();

    match (system, model) {
        // ---------------- GCN ----------------
        (System::PyTorchLike, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = direct_aggregate(g, &h, AggrOp::Sum, false, budget)?;
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a.features, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }
        (System::DglLike, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = segment_reduce_serial(&h, g.in_offsets(), g.in_sources());
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }
        (System::DistDglLike, ModelKind::Gcn) | (System::EulerLike, ModelKind::Gcn) => {
            let concurrent = if system == System::EulerLike { 8 } else { 1 };
            let selection = t0.elapsed();
            let ta = Instant::now();
            let cfg = MiniBatchConfig {
                batch_size: 512,
                layers: 2,
                concurrent_batches: concurrent,
            };
            let out = minibatch_epoch(g, &ds.features, AggrOp::Sum, &cfg, budget)?;
            let agg = ta.elapsed();
            let tu = Instant::now();
            let _ = update(&out.result.features, &w);
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: tu.elapsed(),
            })
        }
        (System::FlexGraph, ModelKind::Gcn) => {
            let selection = t0.elapsed();
            let mut h = ds.features.clone();
            let mut agg = Duration::ZERO;
            let mut upd = Duration::ZERO;
            for _ in 0..2 {
                let ta = Instant::now();
                let a = segment_reduce(&h, g.in_offsets(), g.in_sources(), Reduce::Sum);
                agg += ta.elapsed();
                let tu = Instant::now();
                h = update(&a, &w);
                upd += tu.elapsed();
            }
            Ok(StageTimes {
                selection,
                aggregation: agg,
                update: upd,
            })
        }

        // ---------------- PinSage ----------------
        (System::PyTorchLike | System::DglLike | System::DistDglLike, ModelKind::PinSage) => {
            // Selection: random walks simulated through propagation
            // stages — the ≥95 % cost of §7.1.
            let walk = gas_walk_neighbors(g, &pinsage_walk(), 7, budget)?;
            let hdg = from_neighbor_lists(all_roots(ds), &walk.neighbors);
            let selection = t0.elapsed();
            let strategy = if system == System::PyTorchLike {
                Strategy::Sa
            } else {
                Strategy::SaFa
            };
            layers(&hdg, ds, &w, model, strategy, budget, selection)
        }
        (System::EulerLike | System::FlexGraph, ModelKind::PinSage) => {
            // Euler's sampling engine (its Gremlin query engine) walks
            // the graph directly, as FlexGraph's graph engine does; Euler
            // then aggregates with sparse ops, FlexGraph with hybrid
            // execution.
            let hdg = from_importance_walks(g, all_roots(ds), &pinsage_walk(), 7);
            let selection = t0.elapsed();
            let strategy = if system == System::EulerLike {
                Strategy::Sa
            } else {
                Strategy::Ha
            };
            layers(&hdg, ds, &w, model, strategy, budget, selection)
        }

        // ---------------- MAGNN ----------------
        (System::PyTorchLike, ModelKind::Magnn) => {
            // The naive expansion materializes every 2-hop path before
            // filtering; check its tensor against the budget first (the
            // paper's OOM cells on Reddit/FB91/Twitter).
            budget.check(naive_magnn_bytes(ds))?;
            let hdg = naive_find_magnn_instances(ds);
            let selection = t0.elapsed();
            layers(&hdg, ds, &w, model, Strategy::Sa, budget, selection)
        }
        (System::DglLike | System::DistDglLike | System::EulerLike, ModelKind::Magnn) => {
            Err(EngineError::Unsupported(
                "GAS-like abstractions cannot express hierarchical aggregation",
            ))
        }
        (System::FlexGraph, ModelKind::Magnn) => {
            let hdg = magnn_hdg(ds);
            let selection = t0.elapsed();
            layers(&hdg, ds, &w, model, Strategy::Ha, budget, selection)
        }
    }
}

/// Two layers of `model`'s aggregation over an HDG plus updates.
fn layers(
    hdg: &Hdg,
    ds: &Dataset,
    w: &Tensor,
    model: ModelKind,
    strategy: Strategy,
    budget: &MemoryBudget,
    selection: Duration,
) -> Result<StageTimes, EngineError> {
    let plan = model.plan();
    let mut h = ds.features.clone();
    let mut agg = Duration::ZERO;
    let mut upd = Duration::ZERO;
    for _ in 0..2 {
        let ta = Instant::now();
        let a = hierarchical_aggregate(hdg, &h, &plan, strategy, budget)?;
        agg += ta.elapsed();
        let tu = Instant::now();
        h = update(&a.features, w);
        upd += tu.elapsed();
    }
    Ok(StageTimes {
        selection,
        aggregation: agg,
        update: upd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let b = MemoryBudget::unlimited();
        let sparse = direct_aggregate(&ds.graph, &ds.features, AggrOp::Sum, false, &b).unwrap();
        let fused = direct_aggregate(&ds.graph, &ds.features, AggrOp::Sum, true, &b).unwrap();
        assert_eq!(
            sparse.peak_transient_bytes,
            materialized_bytes(ds.graph.num_edges(), ds.feature_dim())
        );
        assert_eq!(fused.peak_transient_bytes, 0);
        assert_eq!(fused.features.data(), sparse.features.data());
    }
}
