//! Strategy equivalence under multi-threading.
//!
//! §7.5's three execution strategies (SA, SA+FA, HA) compute the same
//! hierarchical aggregation. With the planned scatter kernels, SA and
//! SA+FA are *bitwise* identical — both reduce every destination segment
//! in the same ascending edge order through the same shared kernel — and
//! that identity must hold for any thread count. HA's dense schema-level
//! path reassociates differently, so it is held to a tolerance instead.

use flexgraph_engine::hybrid::{hierarchical_aggregate, AggrOp, AggrPlan, Strategy};
use flexgraph_engine::memory::MemoryBudget;
use flexgraph_graph::gen::community;
use flexgraph_graph::hetero::sample_typed_graph;
use flexgraph_graph::metapath::paper_metapaths;
use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph_hdg::Hdg;
use flexgraph_tensor::{set_thread_override, Tensor};

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
