//! Golden forward fixtures.
//!
//! The fixed 6-vertex datasets and hand-chosen integer weights that the
//! golden forward suite (`tests/golden_forward.rs`) pins GCN, PinSage,
//! and JK-Net against. Every value is an exact multiple of a small
//! power of two and far below 2^24, so every partial sum in every
//! kernel is exactly representable in `f32`: the expected outputs are
//! hand-computable, whatever the accumulation order.

use crate::train::Model;
use flexgraph_graph::csr::GraphBuilder;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{Graph, ParamSet, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed 6×2 feature matrix shared by all fixtures.
pub fn features() -> Tensor {
    Tensor::from_vec(
        6,
        2,
        vec![
            1.0, 2.0, // v0
            3.0, 1.0, // v1
            0.0, 2.0, // v2
            2.0, 0.0, // v3
            1.0, 1.0, // v4
            4.0, 3.0, // v5
        ],
    )
}

fn dataset(edges: &[(u32, u32)], name: &str) -> Dataset {
    let mut b = GraphBuilder::new(6);
    for &(a, c) in edges {
        b.add_undirected(a, c);
    }
    Dataset {
        name: name.to_string(),
        graph: b.build(),
        types: None,
        features: features(),
        labels: vec![0; 6],
        num_classes: 2,
    }
}

/// Path-plus-triangle graph: 0-1, 0-2, 1-2, 2-3, 3-4, 4-5 — the GCN and
/// PinSage fixture.
pub fn graph_a() -> Dataset {
    dataset(
        &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)],
        "golden-a",
    )
}

/// 6-cycle: every vertex has exactly two 1-hop and two 2-hop neighbors,
/// so JK-Net's shell means divide by powers of two only.
pub fn graph_cycle() -> Dataset {
    dataset(
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        "golden-c",
    )
}

/// The hand-chosen 2×2 GCN weights `(W1, W2)` — small integers, exact
/// in `f32`.
pub fn gcn_weights() -> (Tensor, Tensor) {
    (
        Tensor::from_vec(2, 2, vec![1.0, -1.0, 2.0, 1.0]),
        Tensor::from_vec(2, 2, vec![1.0, 1.0, -1.0, 2.0]),
    )
}

/// The hand-chosen 4×2 weights `(W1, W2)` shared by the PinSage and
/// JK-Net fixtures (their update concatenates `[h | a]`).
pub fn concat_weights() -> (Tensor, Tensor) {
    (
        Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, -1.0, 1.0, 1.0]),
        Tensor::from_vec(4, 2, vec![1.0, 1.0, -1.0, 0.0, 0.0, 2.0, 2.0, -2.0]),
    )
}

/// Runs `model.forward` on the dataset with the given weight overrides
/// (slot order = registration order).
pub fn run_forward<M: Model>(mut model: M, ds: &Dataset, weights: &[Tensor]) -> Tensor {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    model.init_params(&mut params, &mut rng);
    assert_eq!(params.len(), weights.len(), "one override per slot");
    for (i, w) in weights.iter().enumerate() {
        assert_eq!(params.value(i).shape(), w.shape(), "slot {i} shape");
        *params.value_mut(i) = w.clone();
    }
    model.selection(ds, 0);
    let mut g = Graph::new();
    let feats = g.leaf(ds.features.clone());
    let out = model.forward(&mut g, feats, &params);
    g.value(out).clone()
}
