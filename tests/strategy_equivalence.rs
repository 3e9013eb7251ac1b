//! The SA / SA+FA / HA strategies, the GAS baseline, the mini-batch
//! baseline and the Pre+DGL baseline are different *executions* of the
//! same mathematics — they must agree on results while differing in
//! materialization.

use flexgraph::engine::expanded::magnn_pre_dgl_epoch;
use flexgraph::engine::hybrid::{hierarchical_aggregate, AggrOp, AggrPlan, Strategy};
use flexgraph::engine::minibatch::{minibatch_epoch, MiniBatchConfig};
use flexgraph::engine::{EngineError, MemoryBudget};
use flexgraph::graph::gen::{community, hetero_imdb, rmat};
use flexgraph::graph::metapath::Metapath;
use flexgraph::graph::walk::WalkConfig;
use flexgraph::hdg::build::{from_direct_neighbors, from_importance_walks, from_metapaths};
use flexgraph::tensor::fusion::{segment_reduce, Reduce};

#[test]
fn strategies_agree_on_flat_hdgs_across_datasets() {
    let budget = MemoryBudget::unlimited();
    for ds in [community(300, 3, 6, 2, 8, 61), rmat(9, 6, 4, 8, 62, "t")] {
        let n = ds.graph.num_vertices() as u32;
        let hdg = from_direct_neighbors(&ds.graph, (0..n).collect());
        let plan = AggrPlan::flat(AggrOp::Sum);
        let sa = hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::Sa, &budget).unwrap();
        let safa =
            hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::SaFa, &budget).unwrap();
        let ha = hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::Ha, &budget).unwrap();
        assert!(sa.features.max_abs_diff(&safa.features) < 1e-3);
        assert!(sa.features.max_abs_diff(&ha.features) < 1e-3);
        // Memory ordering: SA materializes, the fused paths do not.
        assert!(sa.peak_transient_bytes > ha.peak_transient_bytes);
    }
}

#[test]
fn strategies_agree_on_magnn_hdgs() {
    let budget = MemoryBudget::unlimited();
    let ds = hetero_imdb(300, 3, 3, 8, 63);
    let typed = ds.typed();
    let mps = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let hdg = from_metapaths(
        &typed,
        (0..ds.graph.num_vertices() as u32).collect(),
        &mps,
        0,
    );
    for plan in [
        AggrPlan {
            leaf_op: AggrOp::Mean,
            instance_op: AggrOp::Mean,
            schema_op: AggrOp::Mean,
        },
        AggrPlan {
            leaf_op: AggrOp::Sum,
            instance_op: AggrOp::Sum,
            schema_op: AggrOp::Sum,
        },
        AggrPlan {
            leaf_op: AggrOp::Max,
            instance_op: AggrOp::Mean,
            schema_op: AggrOp::Mean,
        },
    ] {
        let sa = hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::Sa, &budget).unwrap();
        let ha = hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::Ha, &budget).unwrap();
        assert!(
            sa.features.max_abs_diff(&ha.features) < 1e-3,
            "plan {plan:?} diverges"
        );
    }
}

#[test]
fn gas_and_fused_direct_aggregation_agree() {
    // The GAS execution materializes one message row per edge (Scatter)
    // before reducing them (Gather): SA over the direct neighbors.
    let ds = community(250, 2, 6, 2, 12, 64);
    let hdg = from_direct_neighbors(&ds.graph, (0..250).collect());
    let plan = AggrPlan::flat(AggrOp::Sum);
    let run = |strategy, budget: &MemoryBudget| {
        hierarchical_aggregate(&hdg, &ds.features, &plan, strategy, budget)
    };
    let budget = MemoryBudget::unlimited();
    let gas = run(Strategy::Sa, &budget).unwrap();
    let fused = run(Strategy::Ha, &budget).unwrap();
    assert!(gas.features.max_abs_diff(&fused.features) < 1e-3);
    assert!(gas.peak_transient_bytes > 0);
    assert_eq!(fused.peak_transient_bytes, 0);
    // The materialization is what a tight budget refuses.
    let tight = MemoryBudget { bytes: 64 };
    assert!(matches!(
        run(Strategy::Sa, &tight),
        Err(EngineError::Oom { .. })
    ));
    assert!(run(Strategy::Ha, &tight).is_ok());
}

#[test]
fn minibatch_matches_full_graph_for_one_layer() {
    let ds = rmat(8, 5, 2, 6, 65, "mb");
    let budget = MemoryBudget::unlimited();
    let cfg = MiniBatchConfig {
        batch_size: 37,
        layers: 1,
        concurrent_batches: 1,
    };
    let mb = minibatch_epoch(&ds.graph, &ds.features, AggrOp::Mean, &cfg, &budget).unwrap();
    let full = segment_reduce(
        &ds.features,
        ds.graph.in_offsets(),
        ds.graph.in_sources(),
        Reduce::Mean,
    );
    assert!(mb.result.features.max_abs_diff(&full) < 1e-3);
}

#[test]
fn pre_dgl_magnn_equals_flexgraph_results() {
    let ds = hetero_imdb(200, 2, 2, 8, 66);
    let typed = ds.typed();
    let mps = vec![Metapath::new(vec![0, 1, 0])];
    let hdg = from_metapaths(
        &typed,
        (0..ds.graph.num_vertices() as u32).collect(),
        &mps,
        0,
    );
    let plan = AggrPlan::flat(AggrOp::Mean);
    let budget = MemoryBudget::unlimited();
    let pre = magnn_pre_dgl_epoch(&hdg, &ds.features, &plan, &budget).unwrap();
    let flex = hierarchical_aggregate(&hdg, &ds.features, &plan, Strategy::Ha, &budget).unwrap();
    assert!(pre.features.max_abs_diff(&flex.features) < 1e-3);
}

#[test]
fn table2_oom_cells_reproduce_under_realistic_budget() {
    // A budget that lets the fused path through but kills sparse
    // materialization on a dense graph — the PyTorch-MAGNN OOM cell.
    let ds = community(600, 4, 14, 4, 64, 67);
    let n = ds.graph.num_vertices() as u32;
    let walk_hdg = from_importance_walks(&ds.graph, (0..n).collect(), &WalkConfig::default(), 68);
    // 600 roots × ≤10 neighbors × 64 dims × 4 B ≈ 1.5 MB of sparse
    // messages; a 1 MiB budget splits the two paths.
    let budget = MemoryBudget::mib(1);
    let plan = AggrPlan::flat(AggrOp::Sum);
    let sa = hierarchical_aggregate(&walk_hdg, &ds.features, &plan, Strategy::Sa, &budget);
    let ha = hierarchical_aggregate(&walk_hdg, &ds.features, &plan, Strategy::Ha, &budget);
    assert!(sa.is_err(), "sparse path must OOM under the budget");
    assert!(ha.is_ok(), "fused path survives the same budget");
}
