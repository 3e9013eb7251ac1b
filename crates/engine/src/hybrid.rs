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
//! strategy. Every path reports its peak transient allocation so the
//! memory budget can reproduce the paper's OOM cells.

use crate::memory::{EngineError, MemoryBudget};
use flexgraph_graph::Graph;
use flexgraph_hdg::Hdg;
use flexgraph_tensor::autograd::reduce_row_blocks;
use flexgraph_tensor::fusion::{materialized_bytes, segment_reduce, Reduce};
use flexgraph_tensor::quant::{
    gather_rows_bf16, gather_rows_q8, segment_reduce_bf16, segment_reduce_q8, Bf16Tensor, QInt8Rows,
};
use flexgraph_tensor::scatter::{
    gather_rows, scatter_add_with_plan, scatter_max_with_plan, scatter_mean_with_plan,
    scatter_min_with_plan, scatter_softmax_with_plan, ScatterPlan,
};
use flexgraph_tensor::Tensor;

/// Built-in aggregation UDFs (§6 lists sum / average / max / min;
/// `AttnSoftmax` is the softmax-weighted sum MAGNN's intermediate level
/// uses in Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggrOp {
    /// Sum of inputs.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Per-column maximum.
    Max,
    /// Per-column minimum.
    Min,
    /// Softmax-attention over group members (score = row sum), then a
    /// weighted sum.
    AttnSoftmax,
}

impl AggrOp {
    fn as_reduce(self) -> Option<Reduce> {
        match self {
            Self::Sum => Some(Reduce::Sum),
            Self::Mean => Some(Reduce::Mean),
            Self::Max => Some(Reduce::Max),
            Self::Min => Some(Reduce::Min),
            Self::AttnSoftmax => None,
        }
    }
}

/// One aggregation UDF per HDG level (bottom-up), mirroring the
/// `udf = [scatter_mean, scatter_softmax, scatter_mean]` list of the
/// paper's MAGNN example (Figure 7).
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

/// Aggregation execution strategy (§7.5's SA / SA+FA / HA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Sparse scatter operations only.
    Sa,
    /// Feature fusion at the bottom level, sparse elsewhere.
    SaFa,
    /// Feature fusion + sparse + dense (FlexGraph's hybrid strategy).
    Ha,
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
pub fn hierarchical_aggregate(
    hdg: &Hdg,
    feats: &Tensor,
    plan: &AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    hierarchical_aggregate_quant(hdg, LeafFeats::F32(feats), plan, strategy, budget)
}

/// Feature storage for the leaf step: only the bottom level of the
/// hierarchy ever touches the input feature matrix, so quantizing
/// inference is exactly "swap the leaf gather/reduce for a half-/
/// quarter-width one" — every level above runs the unchanged f32 code
/// on the (f32) instance features.
#[derive(Clone, Copy, Debug)]
pub enum LeafFeats<'a> {
    /// Full-precision features.
    F32(&'a Tensor),
    /// bf16-stored features, widened to f32 as they stream.
    Bf16(&'a Bf16Tensor),
    /// Per-row int8 features, dequantized as they stream.
    Int8(&'a QInt8Rows),
}

impl LeafFeats<'_> {
    fn cols(&self) -> usize {
        match self {
            Self::F32(t) => t.cols(),
            Self::Bf16(t) => t.cols(),
            Self::Int8(t) => t.cols(),
        }
    }
}

/// [`hierarchical_aggregate`] over any feature storage.
///
/// The leaf step reads rows at their stored width (f32/bf16/int8) and
/// accumulates in f32 with the same per-destination ascending-edge
/// chains at every width, so the result is bitwise-deterministic for
/// any `FLEXGRAPH_THREADS` and bitwise-identical to widening /
/// dequantizing the whole matrix and calling
/// [`hierarchical_aggregate`].
pub fn hierarchical_aggregate_quant(
    hdg: &Hdg,
    feats: LeafFeats<'_>,
    plan: &AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    let mut peak = 0usize;

    // Step 1: leaves → instances.
    let src = hdg.leaf_sources();
    let inst_feats = match strategy {
        Strategy::Sa => {
            // Materialize one row per (leaf, instance) edge, then scatter
            // — the memory-explosion path of §4.2(1). The scatter plan is
            // cached on the HDG; only the gathered rows are transient,
            // accounted at f32 width because that is what every gather
            // materializes.
            let bytes = materialized_bytes(src.len(), feats.cols());
            peak = peak.max(bytes);
            budget.check(bytes)?;
            let gathered = match feats {
                LeafFeats::F32(t) => gather_rows(t, src),
                LeafFeats::Bf16(t) => gather_rows_bf16(t, src),
                LeafFeats::Int8(t) => gather_rows_q8(t, src),
            };
            apply_scatter(
                plan.leaf_op,
                &gathered,
                &hdg.leaf_scatter_plan(),
                &mut peak,
                budget,
            )?
        }
        Strategy::SaFa | Strategy::Ha => {
            let reduce = plan
                .leaf_op
                .as_reduce()
                .ok_or(EngineError::Unsupported("attention at the leaf level"))?;
            let offsets = hdg.inst_offsets();
            match feats {
                LeafFeats::F32(t) => segment_reduce(t, offsets, src, reduce),
                LeafFeats::Bf16(t) => segment_reduce_bf16(t, offsets, src, reduce),
                LeafFeats::Int8(t) => segment_reduce_q8(t, offsets, src, reduce),
            }
        }
    };

    let upper = aggregate_from_instances(hdg, &inst_feats, plan, strategy, budget)?;
    Ok(AggrResult {
        features: upper.features,
        peak_transient_bytes: peak.max(upper.peak_transient_bytes),
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
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    let mut peak = 0usize;

    // Instances → (root, type) groups — sparse NN ops in every strategy
    // (§4.2(2)). The group index the compact storage omits lives inside
    // the HDG's cached scatter plan, materialized once for all layers
    // and epochs rather than per pass.
    let group_feats = apply_scatter(
        plan.instance_op,
        inst_feats,
        &hdg.group_scatter_plan(),
        &mut peak,
        budget,
    )?;

    let upper = aggregate_from_groups(hdg, group_feats, plan, strategy, budget)?;
    Ok(AggrResult {
        features: upper.features,
        peak_transient_bytes: peak.max(upper.peak_transient_bytes),
    })
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
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    let mut peak = 0usize;
    // Types → root.
    let t = hdg.num_types();
    let features = if t == 1 {
        // Flat schema tree: groups ARE the roots (GCN / PinSage shape).
        group_feats
    } else {
        match strategy {
            Strategy::Ha => {
                // Dense path: groups are (root-major, type-minor)
                // contiguous, so a logical reshape + block reduce suffices
                // (Figure 10). Attention degrades to mean here — the
                // schema level of every paper model uses sum/mean.
                let mean = matches!(plan.schema_op, AggrOp::Mean | AggrOp::AttnSoftmax);
                reduce_row_blocks(&group_feats, t, mean)
            }
            Strategy::Sa | Strategy::SaFa => apply_scatter(
                plan.schema_op,
                &group_feats,
                &hdg.root_scatter_plan(),
                &mut peak,
                budget,
            )?,
        }
    };

    Ok(AggrResult {
        features,
        peak_transient_bytes: peak,
    })
}

/// Flat aggregation straight over the input graph's CSC — the DNFA fast
/// path (§7.4: "for GCN the input graph structure can capture the
/// dependencies, and we do not need to build HDGs explicitly").
pub fn direct_aggregate(
    graph: &Graph,
    feats: &Tensor,
    op: AggrOp,
    fused: bool,
    budget: &MemoryBudget,
) -> Result<AggrResult, EngineError> {
    if fused {
        let reduce = op
            .as_reduce()
            .ok_or(EngineError::Unsupported("attention in direct aggregation"))?;
        let features = segment_reduce(feats, graph.in_offsets(), graph.in_sources(), reduce);
        Ok(AggrResult {
            features,
            peak_transient_bytes: 0,
        })
    } else {
        let (_, src) = graph.coo_in();
        let bytes = materialized_bytes(src.len(), feats.cols());
        budget.check(bytes)?;
        let gathered = gather_rows(feats, &src);
        let mut peak = bytes;
        let features = apply_scatter(op, &gathered, &graph.in_scatter_plan(), &mut peak, budget)?;
        Ok(AggrResult {
            features,
            peak_transient_bytes: peak,
        })
    }
}

fn apply_scatter(
    op: AggrOp,
    values: &Tensor,
    plan: &ScatterPlan,
    peak: &mut usize,
    budget: &MemoryBudget,
) -> Result<Tensor, EngineError> {
    Ok(match op {
        AggrOp::Sum => scatter_add_with_plan(values, plan),
        AggrOp::Mean => scatter_mean_with_plan(values, plan),
        AggrOp::Max => scatter_max_with_plan(values, plan),
        AggrOp::Min => scatter_min_with_plan(values, plan),
        AggrOp::AttnSoftmax => {
            // score_i = Σ_c values[i][c]; weights = group softmax; output
            // = Σ w_i · values[i]. The weighted copy is a transient; both
            // scatters reuse the same cached plan.
            let scores = values.sum_cols();
            let w = scatter_softmax_with_plan(&scores, plan);
            let bytes = values.len() * std::mem::size_of::<f32>();
            *peak = (*peak).max(bytes);
            budget.check(bytes)?;
            let mut weighted = values.clone();
            for r in 0..weighted.rows() {
                let wv = w.get(r, 0);
                for x in weighted.row_mut(r) {
                    *x *= wv;
                }
            }
            scatter_add_with_plan(&weighted, plan)
        }
    })
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
        let via_hdg = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Ha, &budget).unwrap();
        let direct = direct_aggregate(&g, &feats, AggrOp::Sum, true, &budget).unwrap();
        let direct_sparse = direct_aggregate(&g, &feats, AggrOp::Sum, false, &budget).unwrap();
        assert!(via_hdg.features.max_abs_diff(&direct.features) < 1e-4);
        assert!(direct.features.max_abs_diff(&direct_sparse.features) < 1e-4);
    }

    #[test]
    fn attention_op_runs_and_normalizes() {
        let hdg = magnn_hdg();
        let feats = feats9();
        let plan = AggrPlan {
            leaf_op: AggrOp::Mean,
            instance_op: AggrOp::AttnSoftmax,
            schema_op: AggrOp::Mean,
        };
        let r = hierarchical_aggregate(
            &hdg,
            &feats,
            &plan,
            Strategy::Ha,
            &MemoryBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.features.shape(), (9, 4));
        // Attention weights sum to 1 per group, so a group of identical
        // instance rows must reproduce that row. Feed constant features.
        let ones = Tensor::ones(9, 2);
        let r1 =
            hierarchical_aggregate(&hdg, &ones, &plan, Strategy::Ha, &MemoryBudget::unlimited())
                .unwrap();
        // Root A: instances all aggregate to 1.0 (mean of ones), both
        // groups attention-sum to 1.0, schema mean = 1.0.
        assert!((r1.features.get(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn attention_at_leaf_level_is_unsupported_in_fused_paths() {
        let hdg = magnn_hdg();
        let plan = AggrPlan {
            leaf_op: AggrOp::AttnSoftmax,
            instance_op: AggrOp::Mean,
            schema_op: AggrOp::Mean,
        };
        let r = hierarchical_aggregate(
            &hdg,
            &feats9(),
            &plan,
            Strategy::Ha,
            &MemoryBudget::unlimited(),
        );
        assert!(matches!(r, Err(EngineError::Unsupported(_))));
    }

    #[test]
    fn quant_leaf_aggregation_matches_widened_f32_bitwise() {
        let hdg = magnn_hdg();
        let feats = feats9();
        let bf = Bf16Tensor::from_tensor(&feats);
        let q8 = QInt8Rows::quantize(&feats);
        let budget = MemoryBudget::unlimited();
        for op in [AggrOp::Sum, AggrOp::Mean, AggrOp::Max, AggrOp::Min] {
            let plan = AggrPlan::flat(op);
            for strat in [Strategy::Sa, Strategy::SaFa, Strategy::Ha] {
                // Quantized leaf vs running the plain f32 path on the
                // widened/dequantized matrix: every upper level is the
                // same code, so the whole result must match bitwise.
                let qb =
                    hierarchical_aggregate_quant(&hdg, LeafFeats::Bf16(&bf), &plan, strat, &budget)
                        .unwrap();
                let wb =
                    hierarchical_aggregate(&hdg, &bf.to_tensor(), &plan, strat, &budget).unwrap();
                assert_eq!(qb.features, wb.features, "bf16 {op:?} {strat:?}");
                let q8r =
                    hierarchical_aggregate_quant(&hdg, LeafFeats::Int8(&q8), &plan, strat, &budget)
                        .unwrap();
                let w8 =
                    hierarchical_aggregate(&hdg, &q8.dequantize(), &plan, strat, &budget).unwrap();
                assert_eq!(q8r.features, w8.features, "int8 {op:?} {strat:?}");
            }
        }
        // The F32 arm is exactly the plain path.
        let plan = AggrPlan::flat(AggrOp::Sum);
        let qf = hierarchical_aggregate_quant(
            &hdg,
            LeafFeats::F32(&feats),
            &plan,
            Strategy::Ha,
            &budget,
        )
        .unwrap();
        let wf = hierarchical_aggregate(&hdg, &feats, &plan, Strategy::Ha, &budget).unwrap();
        assert_eq!(qf.features, wf.features);
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
