//! Strategy equivalence under multi-threading.
//!
//! §7.5's three execution strategies (SA, SA+FA, HA) compute the same
//! hierarchical aggregation. With the planned scatter kernels, SA and
//! SA+FA are *bitwise* identical — both reduce every destination segment
//! in the same ascending edge order through the same shared kernel — and
//! that identity must hold for any thread count. HA's dense schema-level
//! path reassociates differently, so it is held to a tolerance instead.
//!
//! A unit HDG (every instance one leaf, none stored) folds its leaves
//! straight into the groups under HA and SA+FA; every strategy must give
//! the bits of the leaf → instance → group chain with the instances
//! materialised.

use flexgraph_engine::hybrid::{
    aggregate_from_groups, hierarchical_aggregate, AggrOp, AggrPlan, Strategy,
};
use flexgraph_engine::memory::MemoryBudget;
use flexgraph_graph::gen::community;
use flexgraph_graph::hetero::sample_typed_graph;
use flexgraph_graph::metapath::paper_metapaths;
use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph_hdg::{Hdg, HdgBuilder, SchemaTree};
use flexgraph_tensor::scatter::{scatter_add_with_plan, scatter_mean_with_plan, ScatterPlan};
use flexgraph_tensor::{segment_reduce, set_thread_override, Reduce, Tensor};

static SWEEP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {i} differs: {a:?} vs {b:?}"
        );
    }
}

fn run(hdg: &Hdg, feats: &Tensor, op: AggrOp, strategy: Strategy) -> Tensor {
    hierarchical_aggregate(
        hdg,
        feats,
        &AggrPlan::flat(op),
        strategy,
        &MemoryBudget::unlimited(),
    )
    .unwrap()
    .features
}

fn check_sa_safa_identity(hdg: &Hdg, feats: &Tensor) {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for op in [AggrOp::Sum, AggrOp::Mean] {
        set_thread_override(Some(1));
        let reference = run(hdg, feats, op, Strategy::Sa);
        for threads in [1usize, 2, 7, 16] {
            set_thread_override(Some(threads));
            let sa = run(hdg, feats, op, Strategy::Sa);
            let safa = run(hdg, feats, op, Strategy::SaFa);
            assert_bitwise_eq(&sa, &reference, &format!("Sa {op:?} @ {threads} threads"));
            assert_bitwise_eq(
                &safa,
                &reference,
                &format!("SaFa {op:?} @ {threads} threads"),
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn sa_and_safa_are_bitwise_identical_on_magnn_hdg() {
    let hdg = from_metapaths(
        &sample_typed_graph(),
        (0..9).collect(),
        &paper_metapaths(),
        0,
    );
    let feats = Tensor::from_vec(
        9,
        7,
        (0..63).map(|i| ((i * 37) % 23) as f32 - 11.0).collect(),
    );
    check_sa_safa_identity(&hdg, &feats);
}

#[test]
fn sa_and_safa_are_bitwise_identical_on_large_flat_hdg() {
    // Large enough that the planned kernels take their parallel path.
    let ds = community(1200, 4, 12, 2, 32, 9);
    let hdg = from_direct_neighbors(&ds.graph, (0..ds.graph.num_vertices() as u32).collect());
    check_sa_safa_identity(&hdg, &ds.features);
}

#[test]
fn ha_agrees_with_sa_within_tolerance_across_threads() {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hdg = from_metapaths(
        &sample_typed_graph(),
        (0..9).collect(),
        &paper_metapaths(),
        0,
    );
    let feats = Tensor::from_vec(9, 5, (0..45).map(|i| (i as f32 * 0.61).cos()).collect());
    for threads in [1usize, 2, 7, 16] {
        set_thread_override(Some(threads));
        let sa = run(&hdg, &feats, AggrOp::Mean, Strategy::Sa);
        let ha = run(&hdg, &feats, AggrOp::Mean, Strategy::Ha);
        assert!(
            sa.max_abs_diff(&ha) < 1e-5,
            "HA drifted from SA at {threads} threads"
        );
    }
    set_thread_override(None);
}

/// The reduction of `op`.
fn reduce(op: AggrOp) -> Reduce {
    match op {
        AggrOp::Sum => Reduce::Sum,
        AggrOp::Mean => Reduce::Mean,
    }
}

/// `hdg`'s aggregation as the two steps it ran before single-leaf
/// instances were implied: a fused leaf → instance reduce over an
/// identity offset array, then a planned instance → group scatter.
fn two_level_reference(hdg: &Hdg, feats: &Tensor, plan: &AggrPlan, strategy: Strategy) -> Tensor {
    let leaves = hdg.leaf_sources();
    let identity: Vec<usize> = (0..=leaves.len()).collect();
    let instances = segment_reduce(feats, &identity, leaves, reduce(plan.leaf_op));
    let groups = hdg.group_offsets().windows(2).enumerate();
    let owner: Vec<u32> = groups
        .flat_map(|(g, w)| vec![g as u32; w[1] - w[0]])
        .collect();
    let scatter = ScatterPlan::new(&owner, hdg.num_groups());
    let group_feats = match plan.instance_op {
        AggrOp::Sum => scatter_add_with_plan(&instances, &scatter),
        AggrOp::Mean => scatter_mean_with_plan(&instances, &scatter),
    };
    aggregate_from_groups(hdg, group_feats, plan, strategy)
}

#[test]
fn a_unit_hdg_aggregates_to_the_two_level_chain_bits() {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Rows 3 and 8 are −0.0; row 5 carries a NaN; wide rows take the
    // register walk's masked tail.
    let (rows, d) = (10, 19);
    let mut data: Vec<f32> = (0..rows * d)
        .map(|i| (i as f32 * 0.37).sin() * 3.0)
        .collect();
    data[3 * d..4 * d].fill(-0.0);
    data[8 * d..9 * d].fill(-0.0);
    data[5 * d + 2] = f32::NAN;
    let feats = Tensor::from_vec(rows, d, data);
    // Root 1 and root 4's second type have no instances; root 2 sums
    // −0.0s alone; pushes arrive out of group order.
    let pushes: [(usize, u16, u32); 12] = [
        (0, 0, 1),
        (3, 1, 9),
        (0, 0, 4),
        (2, 0, 3),
        (2, 0, 8),
        (0, 1, 5),
        (3, 0, 2),
        (4, 0, 7),
        (3, 0, 0),
        (0, 0, 6),
        (3, 1, 3),
        (4, 0, 5),
    ];
    for types in [1, 2] {
        let names: Vec<String> = (0..types).map(|t| format!("t{t}")).collect();
        let mut b = HdgBuilder::new(SchemaTree::new(names), (0..5).collect());
        for &(rank, t, leaf) in &pushes {
            b.push_at(rank, t % types as u16, &[leaf]);
        }
        let hdg = b.build();
        assert!(hdg.hierarchy().leaf_groups().is_some(), "the unit layout");
        let ops = [AggrOp::Sum, AggrOp::Mean];
        for (leaf_op, instance_op) in ops.iter().flat_map(|&a| ops.map(|b| (a, b))) {
            let plan = AggrPlan {
                leaf_op,
                instance_op,
                schema_op: instance_op,
            };
            for threads in [1usize, 4] {
                set_thread_override(Some(threads));
                for strategy in [Strategy::Ha, Strategy::SaFa, Strategy::Sa] {
                    let want = two_level_reference(&hdg, &feats, &plan, strategy);
                    let budget = MemoryBudget::unlimited();
                    let got = hierarchical_aggregate(&hdg, &feats, &plan, strategy, &budget);
                    let what = format!("{types} types, {plan:?}, {strategy:?} @ {threads}");
                    assert_bitwise_eq(&got.unwrap().features, &want, &what);
                }
            }
        }
    }
    set_thread_override(None);
}
