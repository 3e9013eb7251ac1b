//! Hybrid execution of hierarchical aggregation (paper §4.2, §7.5).
//!
//! The three-step hierarchy and the strategy space:
//!
//! | level | SA | SA+FA | HA |
//! |---|---|---|---|
//! | leaves → instances | sparse (materialize per-edge rows, then scatter) | feature fusion | feature fusion |
//! | instances → types  | sparse scatter | sparse scatter | sparse scatter |
//! | types → root       | sparse scatter | sparse scatter | dense reshape + block reduce |
//!
//! `SA` is the PyTorch/PyG-style all-sparse execution, `SA+FA` adds
//! fusion at the expensive bottom level, `HA` is FlexGraph's full hybrid
//! strategy. [`Strategy`] is the autograd tape's: a trained model's tape
//! records the same table (`flexgraph_tensor::autograd`), and this
//! module is its no-grad executor for the distributed, serving and
//! out-of-core paths. Every path reports its peak transient allocation
//! so the memory budget can reproduce the paper's OOM cells.

use crate::memory::{EngineError, MemoryBudget};
use flexgraph_hdg::Hdg;
use flexgraph_tensor::autograd::reduce_row_blocks;
use flexgraph_tensor::fusion::{materialized_bytes, segment_reduce, Reduce};
use flexgraph_tensor::scatter::{
    gather_rows, scatter_add_with_plan, scatter_mean_with_plan, ScatterPlan,
};
pub use flexgraph_tensor::Strategy;
use flexgraph_tensor::Tensor;

/// Built-in aggregation UDFs: the sum and average of §6's list, the two
/// the paper's models run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggrOp {
    /// Sum of inputs.
    Sum,
    /// Arithmetic mean.
    Mean,
}

impl AggrOp {
    fn as_reduce(self) -> Reduce {
        match self {
            Self::Sum => Reduce::Sum,
            Self::Mean => Reduce::Mean,
        }
    }
}

/// One aggregation UDF per HDG level (bottom-up), in the shape of the
/// `udf = [scatter_mean, scatter_softmax, scatter_mean]` list of the
/// paper's MAGNN example (Figure 7); the softmax level is the trained
/// model's alone (`Graph::hierarchical_attention_pool`).
#[derive(Clone, Copy, Debug)]
pub struct AggrPlan {
    /// Leaves → neighbor instances.
    pub leaf_op: AggrOp,
    /// Instances → schema-tree leaves (types).
    pub instance_op: AggrOp,
    /// Types → root (only reached when the schema tree is not flat).
    pub schema_op: AggrOp,
}

impl AggrPlan {
    /// The single-op plan flat models use.
    pub fn flat(op: AggrOp) -> Self {
        Self {
            leaf_op: op,
            instance_op: op,
            schema_op: op,
        }
    }
}

/// Result of one aggregation pass.
#[derive(Clone, Debug)]
pub struct AggrResult {
    /// `(num_roots, dim)` neighborhood representations, root-major.
    pub features: Tensor,
    /// Largest transient allocation any step materialized.
    pub peak_transient_bytes: usize,
}

/// Runs hierarchical aggregation over `hdg` with features indexed by
/// input-graph vertex id.
///
/// Only the leaf step reads feature rows; it accumulates each
/// destination over its edges in ascending order, and every level above
/// runs on instance features. So the result is bitwise-deterministic
/// for any `FLEXGRAPH_THREADS`.
///
/// HA and SA+FA fold a unit HDG's leaves straight into its groups with
/// the instance op: the two steps' bits, as a sum from `+0.0` takes
/// `0 + x` as it takes `x`, and both scale a Mean by `1/n` once.
pub fn hierarchical_aggregate(
    hdg: &Hdg,
    feats: &Tensor,
    plan: &AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    if let (Some(groups), Strategy::SaFa | Strategy::Ha) = (hdg.hierarchy().leaf_groups(), strategy)
    {
        let reduce = plan.instance_op.as_reduce();
        let group_feats = segment_reduce(feats, groups.offsets(), groups.src(), reduce);
        return Ok(AggrResult {
            features: aggregate_from_groups(hdg, group_feats, plan, strategy),
            peak_transient_bytes: 0,
        });
    }
    // Step 1: leaves → instances.
    let src = hdg.leaf_sources();
    let (inst_feats, peak) = match strategy {
        Strategy::Sa => {
            // Materialize one row per (leaf, instance) edge, then scatter
            // — the memory-explosion path of §4.2(1). The scatter plan is
            // cached on the HDG's index; only the gathered rows are
            // transient.
            let bytes = materialized_bytes(src.len(), feats.cols());
            budget.check(bytes)?;
            let gathered = gather_rows(feats, src);
            let leaf_plan = hdg.hierarchy().instances().scatter_plan();
            let inst = apply_scatter(plan.leaf_op, &gathered, &leaf_plan);
            (inst, bytes)
        }
        Strategy::SaFa | Strategy::Ha => {
            let reduce = plan.leaf_op.as_reduce();
            (segment_reduce(feats, hdg.inst_offsets(), src, reduce), 0)
        }
    };

    Ok(AggrResult {
        features: aggregate_from_instances(hdg, &inst_feats, plan, strategy),
        peak_transient_bytes: peak,
    })
}

/// Completes the hierarchy from already-computed *instance* features:
/// instances → types (sparse) → root (dense or sparse). The distributed
/// runtime enters here after the leaf level has been aggregated across
/// workers (partial aggregation + sync), since every level above the
/// leaves is worker-local.
pub fn aggregate_from_instances(
    hdg: &Hdg,
    inst_feats: &Tensor,
    plan: &AggrPlan,
    strategy: Strategy,
) -> Tensor {
    // Instances → (root, type) groups — sparse NN ops in every strategy
    // (§4.2(2)). The group index the compact storage omits lives inside
    // the HDG index's cached scatter plan, materialized once for all
    // layers and epochs rather than per pass.
    let group_plan = hdg.hierarchy().group_plan();
    let group_feats = apply_scatter(plan.instance_op, inst_feats, &group_plan);
    aggregate_from_groups(hdg, group_feats, plan, strategy)
}

/// Completes only the schema level from already-computed *group*
/// (`(root, type)`) features. Entered directly by the distributed
/// runtime for flat HDGs, whose leaf-level partial aggregation already
/// lands on groups.
pub fn aggregate_from_groups(
    hdg: &Hdg,
    group_feats: Tensor,
    plan: &AggrPlan,
    strategy: Strategy,
) -> Tensor {
    // Types → root.
    let t = hdg.num_types();
    if t == 1 {
        // Flat schema tree: groups ARE the roots (GCN / PinSage shape).
        group_feats
    } else {
        match strategy {
            Strategy::Ha => {
                // Dense path: groups are (root-major, type-minor)
                // contiguous, so a logical reshape + block reduce suffices
                // (Figure 10). The schema level of every paper model is a
                // sum or a mean.
                reduce_row_blocks(&group_feats, t, plan.schema_op == AggrOp::Mean)
            }
            Strategy::Sa | Strategy::SaFa => {
                apply_scatter(plan.schema_op, &group_feats, &hdg.hierarchy().root_plan())
            }
        }
    }
}

fn apply_scatter(op: AggrOp, values: &Tensor, plan: &ScatterPlan) -> Tensor {
    match op {
        AggrOp::Sum => scatter_add_with_plan(values, plan),
        AggrOp::Mean => scatter_mean_with_plan(values, plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::hetero::sample_typed_graph;
    use flexgraph_graph::metapath::paper_metapaths;
    use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};

    fn feats9() -> Tensor {
        Tensor::from_vec(9, 4, (0..36).map(|i| (i % 11) as f32 - 5.0).collect())
    }

    fn magnn_hdg() -> Hdg {
        from_metapaths(
            &sample_typed_graph(),
            (0..9).collect(),
            &paper_metapaths(),
            0,
        )
    }

    #[test]
    fn all_three_strategies_agree_on_magnn() {
        let hdg = magnn_hdg();
        let feats = feats9();
        let plan = AggrPlan {
            leaf_op: AggrOp::Mean,
            instance_op: AggrOp::Mean,
            schema_op: AggrOp::Mean,
        };
        let budget = MemoryBudget::unlimited();
        let sa = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Sa, &budget).unwrap();
        let safa = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::SaFa, &budget).unwrap();
        let ha = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Ha, &budget).unwrap();
        assert!(sa.features.max_abs_diff(&safa.features) < 1e-5);
        assert!(sa.features.max_abs_diff(&ha.features) < 1e-5);
        assert_eq!(sa.features.shape(), (9, 4));
    }

    #[test]
    fn sa_materializes_more_than_fused_paths() {
        let hdg = magnn_hdg();
        let feats = feats9();
        let plan = AggrPlan::flat(AggrOp::Sum);
        let budget = MemoryBudget::unlimited();
        let sa = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Sa, &budget).unwrap();
        let ha = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Ha, &budget).unwrap();
        assert!(sa.peak_transient_bytes > ha.peak_transient_bytes);
    }

    #[test]
    fn sa_respects_memory_budget() {
        let hdg = magnn_hdg();
        let feats = feats9();
        let plan = AggrPlan::flat(AggrOp::Sum);
        // 15 leaf edges × 4 dims × 4 bytes = 240 bytes to materialize;
        // a 100-byte budget must OOM the SA path but not HA.
        let budget = MemoryBudget { bytes: 100 };
        assert!(matches!(
            hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Sa, &budget),
            Err(EngineError::Oom { .. })
        ));
        assert!(hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Ha, &budget).is_ok());
    }

    #[test]
    fn magnn_hand_computed_root_a() {
        // Root A, all-ones features, Sum everywhere: instance features =
        // 3 (three leaves each), MP1 group = 3 (one instance), MP2 group
        // = 12 (four instances), root = 15.
        let hdg = magnn_hdg();
        let ones = Tensor::ones(9, 1);
        let plan = AggrPlan::flat(AggrOp::Sum);
        let r =
            hierarchical_aggregate(&hdg, &ones, &plan, Strategy::Ha, &MemoryBudget::unlimited())
                .unwrap();
        assert_eq!(r.features.get(0, 0), 15.0);
    }

    #[test]
    fn direct_and_hdg_aggregation_agree_for_gcn() {
        let g = sample_graph();
        let feats = feats9();
        let hdg = from_direct_neighbors(&g, (0..9).collect());
        let plan = AggrPlan::flat(AggrOp::Sum);
        let budget = MemoryBudget::unlimited();
        // The input graph's CSC, fused, is GCN's aggregation (§7.4).
        let direct = segment_reduce(&feats, g.in_offsets(), g.in_sources(), Reduce::Sum);
        for strategy in [Strategy::Sa, Strategy::SaFa, Strategy::Ha] {
            let via_hdg = hierarchical_aggregate(&hdg, &feats, &plan, strategy, &budget).unwrap();
            assert!(
                via_hdg.features.max_abs_diff(&direct) < 1e-4,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn empty_roots_get_zero_features() {
        // Vertex C (id 2) roots no metapath instance; its neighborhood
        // representation must be zero, not garbage.
        let hdg = magnn_hdg();
        let r = hierarchical_aggregate(
            &hdg,
            &Tensor::ones(9, 3),
            &AggrPlan::flat(AggrOp::Sum),
            Strategy::Ha,
            &MemoryBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.features.row(2), &[0.0, 0.0, 0.0]);
    }
}
