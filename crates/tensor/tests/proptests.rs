//! Property-based tests for the tensor substrate.

use flexgraph_tensor::{
    gather_rows, scatter_add, scatter_mean, scatter_softmax_with_plan, Graph, ScatterPlan, Tensor,
};
use proptest::prelude::*;

/// Strategy: a small tensor plus a valid scatter index for its rows.
fn tensor_and_index() -> impl Strategy<Value = (Tensor, Vec<u32>, usize)> {
    (1usize..12, 1usize..6, 1usize..8).prop_flat_map(|(rows, cols, out_rows)| {
        (
            proptest::collection::vec(-10.0f32..10.0, rows * cols),
            proptest::collection::vec(0u32..out_rows as u32, rows),
        )
            .prop_map(move |(data, idx)| (Tensor::from_vec(rows, cols, data), idx, out_rows))
    })
}

/// Naive single-loop reference for any scatter reduction.
fn reference_scatter(
    values: &Tensor,
    index: &[u32],
    out_rows: usize,
    fold: impl Fn(&[f32]) -> f32,
) -> Tensor {
    let mut out = Tensor::zeros(out_rows, values.cols());
    for d in 0..out_rows {
        for c in 0..values.cols() {
            let group: Vec<f32> = index
                .iter()
                .enumerate()
                .filter(|(_, &i)| i as usize == d)
                .map(|(r, _)| values.get(r, c))
                .collect();
            if !group.is_empty() {
                out.set(d, c, fold(&group));
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn scatter_add_matches_reference((v, idx, out_rows) in tensor_and_index()) {
        let got = scatter_add(&v, &idx, out_rows);
        let want = reference_scatter(&v, &idx, out_rows, |g| g.iter().sum());
        prop_assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn scatter_mean_matches_reference((v, idx, out_rows) in tensor_and_index()) {
        let got = scatter_mean(&v, &idx, out_rows);
        let want = reference_scatter(&v, &idx, out_rows, |g| {
            g.iter().sum::<f32>() / g.len() as f32
        });
        prop_assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn scatter_softmax_groups_sum_to_one((v, idx, out_rows) in tensor_and_index()) {
        let sm = scatter_softmax_with_plan(&v, &ScatterPlan::new(&idx, out_rows));
        // Scatter-adding the softmax output must give 1 for every
        // destination that receives at least one row.
        let sums = scatter_add(&sm, &idx, out_rows);
        for d in 0..out_rows {
            if idx.iter().any(|&i| i as usize == d) {
                for c in 0..v.cols() {
                    prop_assert!((sums.get(d, c) - 1.0).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn gather_scatter_adjoint_identity((v, idx, out_rows) in tensor_and_index()) {
        // <scatter(x), y> == <x, gather(y)> — the defining adjoint pair
        // used by the autograd engine.
        let y_data: Vec<f32> = (0..out_rows * v.cols()).map(|i| (i as f32 * 0.37).sin()).collect();
        let y = Tensor::from_vec(out_rows, v.cols(), y_data);
        let lhs = scatter_add(&v, &idx, out_rows).mul(&y).sum();
        let rhs = v.mul(&gather_rows(&y, &idx)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in proptest::collection::vec(-3.0f32..3.0, 6),
        b in proptest::collection::vec(-3.0f32..3.0, 6),
        c in proptest::collection::vec(-3.0f32..3.0, 6),
    ) {
        let a = Tensor::from_vec(2, 3, a);
        let b = Tensor::from_vec(3, 2, b);
        let c = Tensor::from_vec(3, 2, c);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transpose_is_involutive(data in proptest::collection::vec(-5.0f32..5.0, 12)) {
        let t = Tensor::from_vec(3, 4, data);
        prop_assert_eq!(t.transpose_naive().transpose_naive(), t);
    }

    #[test]
    fn autograd_linear_matches_closed_form(
        x in proptest::collection::vec(-2.0f32..2.0, 4),
    ) {
        // loss = mean(x * w), d loss / d x = w / n elementwise.
        let w = Tensor::from_rows(&[&[0.5, -1.5], &[2.0, 0.25]]);
        let mut g = Graph::new();
        let xn = g.param(Tensor::from_vec(2, 2, x), 0);
        let wn = g.leaf(w.clone());
        let m = g.mul(xn, wn);
        let loss = g.mean_all(m);
        g.backward(loss);
        let grad = g.grad(xn).unwrap();
        let want = w.scale(1.0 / 4.0);
        prop_assert!(grad.max_abs_diff(&want) < 1e-5);
    }
}
