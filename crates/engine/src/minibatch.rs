//! The Euler / DistDGL mini-batch baseline (paper §7.1 point (2)).
//!
//! Mini-batch systems train a `k`-layer GNN by first gathering, for every
//! batch of target vertices, their *full* neighborhood within `k` hops,
//! converting those vertices and relationships into a fresh subgraph, and
//! then aggregating inside it. On dense graphs (Reddit) and power-law
//! graphs (FB91, Twitter) the k-hop closure approaches the whole graph
//! for every batch — "tremendous computation and memory overhead", which
//! is why Table 2 shows DistDGL at 937 s and Euler OOM where FlexGraph
//! takes 0.7 s.

use crate::hybrid::{AggrOp, AggrResult};
use crate::memory::{admission_bytes, EngineError, MemoryBudget};
use flexgraph_graph::bfs::k_hop_closure;
use flexgraph_graph::{Graph, VertexId};
use flexgraph_tensor::scatter::{gather_rows, scatter_add, scatter_mean};
use flexgraph_tensor::Tensor;
use std::collections::HashMap;

/// Mini-batch execution parameters.
#[derive(Clone, Copy, Debug)]
pub struct MiniBatchConfig {
    /// Target vertices per batch.
    pub batch_size: usize,
    /// GNN layers (= hop radius of the expansion).
    pub layers: usize,
    /// Batch subgraphs held in memory concurrently. Euler prepares
    /// batches with a multi-threaded prefetch pipeline, so its peak
    /// memory is several batches' worth — which is what OOMs it on
    /// power-law graphs in Table 2. Execution here stays sequential;
    /// only the *accounted* transient scales.
    pub concurrent_batches: usize,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        Self {
            batch_size: 512,
            layers: 2,
            concurrent_batches: 1,
        }
    }
}

/// Outcome of one mini-batch epoch.
pub struct MiniBatchOutcome {
    /// Final-layer aggregation results for every vertex.
    pub result: AggrResult,
    /// Total vertices materialized across all batch subgraphs — the
    /// expansion blow-up factor is `expanded_vertices / |V|`.
    pub expanded_vertices: usize,
}

/// Runs one epoch of mini-batch aggregation: for each batch, expand the
/// full `layers`-hop neighborhood, build the induced subgraph, copy its
/// features, and aggregate `layers` rounds with sparse ops.
pub fn minibatch_epoch(
    graph: &Graph,
    feats: &Tensor,
    op: AggrOp,
    cfg: &MiniBatchConfig,
    budget: &MemoryBudget,
) -> Result<MiniBatchOutcome, EngineError> {
    let n = graph.num_vertices();
    let d = feats.cols();
    let mut out = Tensor::zeros(n, d);
    let mut peak = 0usize;
    let mut expanded_total = 0usize;

    let mut batch_start = 0usize;
    while batch_start < n {
        let batch: Vec<VertexId> = (batch_start..(batch_start + cfg.batch_size).min(n))
            .map(|v| v as VertexId)
            .collect();
        batch_start += cfg.batch_size;

        // Full k-hop expansion (the costly step).
        let closure = k_hop_closure(graph, &batch, cfg.layers);
        expanded_total += closure.len();

        // Convert into a new subgraph: local relabeling + induced edges.
        let local: HashMap<VertexId, u32> = closure
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut sub_src = Vec::new();
        let mut sub_dst = Vec::new();
        for &v in &closure {
            let lv = local[&v];
            for &u in graph.in_neighbors(v) {
                if let Some(&lu) = local.get(&u) {
                    sub_dst.push(lv);
                    sub_src.push(lu);
                }
            }
        }

        // Materialized cost: the copied feature block plus the per-edge
        // messages of the sparse aggregation rounds — the same
        // `admission_bytes` arithmetic the serve layer's admission
        // control applies to its batches.
        let transient =
            admission_bytes(closure.len(), sub_src.len(), d) * cfg.concurrent_batches.max(1);
        peak = peak.max(transient);
        budget.check(transient)?;

        let leaf_ids: Vec<u32> = closure.to_vec();
        let mut sub_feats = gather_rows(feats, &leaf_ids);

        for _layer in 0..cfg.layers {
            let messages = gather_rows(&sub_feats, &sub_src);
            sub_feats = match op {
                AggrOp::Sum => scatter_add(&messages, &sub_dst, closure.len()),
                AggrOp::Mean => scatter_mean(&messages, &sub_dst, closure.len()),
            };
        }

        for &v in &batch {
            let lv = local[&v] as usize;
            out.row_mut(v as usize).copy_from_slice(sub_feats.row(lv));
        }
    }

    Ok(MiniBatchOutcome {
        result: AggrResult {
            features: out,
            peak_transient_bytes: peak,
        },
        expanded_vertices: expanded_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{hierarchical_aggregate, AggrPlan, Strategy};
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::gen::community;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, Reduce};

    #[test]
    fn single_layer_minibatch_matches_full_graph_aggregation() {
        let g = sample_graph();
        let feats = Tensor::from_vec(9, 3, (0..27).map(|i| i as f32 * 0.5).collect());
        let cfg = MiniBatchConfig {
            batch_size: 4,
            layers: 1,
            concurrent_batches: 1,
        };
        let mb =
            minibatch_epoch(&g, &feats, AggrOp::Sum, &cfg, &MemoryBudget::unlimited()).unwrap();
        let full = segment_reduce(&feats, g.in_offsets(), g.in_sources(), Reduce::Sum);
        assert!(mb.result.features.max_abs_diff(&full) < 1e-4);
    }

    #[test]
    fn expansion_explodes_on_dense_graphs() {
        // On a dense community graph, 2-hop closures reach most of the
        // graph: the blow-up factor per batch must be large.
        let d = community(400, 4, 12, 4, 4, 9);
        let cfg = MiniBatchConfig {
            batch_size: 50,
            layers: 2,
            concurrent_batches: 1,
        };
        let mb = minibatch_epoch(
            &d.graph,
            &d.features,
            AggrOp::Sum,
            &cfg,
            &MemoryBudget::unlimited(),
        )
        .unwrap();
        let blowup = mb.expanded_vertices as f64 / 400.0;
        assert!(blowup > 4.0, "dense 2-hop expansion blow-up, got {blowup}");
    }

    #[test]
    fn minibatch_ooms_under_budget_where_fused_does_not() {
        let d = community(400, 4, 12, 4, 16, 9);
        let cfg = MiniBatchConfig {
            batch_size: 50,
            layers: 2,
            concurrent_batches: 1,
        };
        let tight = MemoryBudget { bytes: 200 * 1024 };
        let mb = minibatch_epoch(&d.graph, &d.features, AggrOp::Sum, &cfg, &tight);
        assert!(matches!(mb, Err(EngineError::Oom { .. })));
        // FlexGraph's fused path has no materialization at all.
        let hdg = from_direct_neighbors(&d.graph, (0..400).collect());
        let plan = AggrPlan::flat(AggrOp::Sum);
        let fused = hierarchical_aggregate(&hdg, &d.features, &plan, Strategy::Ha, &tight);
        assert!(fused.is_ok());
    }

    #[test]
    fn batch_boundaries_cover_all_vertices() {
        let g = sample_graph();
        let feats = Tensor::ones(9, 2);
        // Batch size that does not divide n.
        let cfg = MiniBatchConfig {
            batch_size: 4,
            layers: 1,
            concurrent_batches: 1,
        };
        let mb =
            minibatch_epoch(&g, &feats, AggrOp::Mean, &cfg, &MemoryBudget::unlimited()).unwrap();
        // Every vertex with in-neighbors gets the mean of ones = 1.
        for v in 0..9 {
            if g.in_degree(v) > 0 {
                assert!((mb.result.features.get(v as usize, 0) - 1.0).abs() < 1e-6);
            }
        }
    }
}
