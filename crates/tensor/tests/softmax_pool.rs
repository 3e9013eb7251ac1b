//! The fused attention-pool op against its three-op oracle.
//!
//! `Graph::scatter_softmax_pool_with_plan` promises the *bits* — value and
//! input gradient — of `scatter_softmax` → `mul` → `scatter_add` on the
//! same plan, at any thread count. Every comparison here is on bit
//! patterns, swept over `FLEXGRAPH_THREADS` ∈ {1, 2, 4} through the
//! runtime override.

use flexgraph_tensor::{set_thread_override, Graph, NodeId, ScatterPlan, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// The thread override is process-global and the harness runs test fns
/// concurrently; serialize every sweep.
static SWEEP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 6.0 - 3.0
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Pooled value and `d loss / d x` of one tape whose instance → group
/// level is recorded by `pool`; the loss is a fixed weighted read-out so
/// every destination row receives a distinct upstream gradient.
fn run(
    x: &Tensor,
    plan: &Arc<ScatterPlan>,
    pool: impl Fn(&mut Graph, NodeId, Arc<ScatterPlan>) -> NodeId,
) -> (Tensor, Tensor) {
    let mut g = Graph::new();
    let xn = g.param(x.clone(), 0);
    let pooled = pool(&mut g, xn, plan.clone());
    let readout = Tensor::from_vec(
        plan.out_rows(),
        x.cols(),
        fill(plan.out_rows() * x.cols(), 99),
    );
    let r = g.leaf(readout);
    let m = g.mul(pooled, r);
    let loss = g.mean_all(m);
    g.backward(loss);
    let grad = g.grad(xn).expect("x is a parameter").clone();
    (g.value(pooled).clone(), grad)
}

fn fused(g: &mut Graph, x: NodeId, plan: Arc<ScatterPlan>) -> NodeId {
    g.scatter_softmax_pool_with_plan(x, plan)
}

fn chain(g: &mut Graph, x: NodeId, plan: Arc<ScatterPlan>) -> NodeId {
    let weights = g.scatter_softmax_with_plan(x, plan.clone());
    let weighted = g.mul(weights, x);
    g.scatter_add_with_plan(weighted, plan)
}

/// Fused == chain, value and gradient bits, at every swept thread count;
/// returns the (thread-invariant) fused gradient.
fn check(x: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Arc::new(ScatterPlan::new(index, out_rows));
    set_thread_override(Some(1));
    let (want_v, want_g) = run(x, &plan, chain);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        let (v, gx) = run(x, &plan, fused);
        assert_eq!(bits(&v), bits(&want_v), "value @ {threads} threads");
        assert_eq!(bits(&gx), bits(&want_g), "gradient @ {threads} threads");
        let (v, gx) = run(x, &plan, chain);
        assert_eq!(bits(&v), bits(&want_v), "oracle value @ {threads} threads");
        assert_eq!(
            bits(&gx),
            bits(&want_g),
            "oracle gradient @ {threads} threads"
        );
    }
    set_thread_override(None);
    want_g
}

#[test]
fn empty_destinations_pool_to_zero() {
    let x = Tensor::from_vec(4, 7, fill(28, 1));
    let plan = Arc::new(ScatterPlan::new(&[1, 1, 4, 1], 6));
    let (v, _) = run(&x, &plan, fused);
    for dst in [0, 2, 3, 5] {
        assert!(v.row(dst).iter().all(|&y| y.to_bits() == 0), "row {dst}");
    }
    check(&x, &[1, 1, 4, 1], 6);
}

#[test]
fn singleton_groups_pass_the_gradient_through_exactly() {
    // A singleton group's softmax is the constant 1: its pooled row is
    // the input row, and the softmax term of the gradient is exactly
    // zero, so `d loss / d x` is the upstream gradient bit for bit.
    let d = 7;
    let x = Tensor::from_vec(5, d, fill(5 * d, 2));
    let index = [3u32, 0, 4, 1, 2];
    let gx = check(&x, &index, 5);
    let plan = Arc::new(ScatterPlan::new(&index, 5));
    let (v, _) = run(&x, &plan, fused);
    let upstream = fill(5 * d, 99);
    for (e, &dst) in index.iter().enumerate() {
        assert_eq!(v.row(dst as usize), x.row(e));
        for c in 0..d {
            let want = (1.0 / (5 * d) as f32) * upstream[dst as usize * d + c];
            assert_eq!(gx.get(e, c).to_bits(), want.to_bits());
        }
    }
    // The oracle's softmax alone has an exactly-zero gradient there.
    let mut g = Graph::new();
    let xn = g.param(x.clone(), 0);
    let s = g.scatter_softmax_with_plan(xn, plan);
    let r = g.leaf(Tensor::from_vec(5, d, upstream));
    let m = g.mul(s, r);
    let loss = g.mean_all(m);
    g.backward(loss);
    assert!(g.grad(xn).unwrap().data().iter().all(|&y| y == 0.0));
}

#[test]
fn one_long_group_and_a_parallel_sized_plan() {
    for d in [1, 7, 64] {
        // Every edge in one group, with trailing empty destinations.
        let x = Tensor::from_vec(513, d, fill(513 * d, 3));
        check(&x, &vec![0u32; 513], 3);
    }
    // 4096 × 64 elements over skewed groups: far past the serial cutoff,
    // so the sweep really runs destination ranges on the pool.
    let (rows, d, out_rows) = (4096, 64, 300);
    let x = Tensor::from_vec(rows, d, fill(rows * d, 4));
    let index: Vec<u32> = (0..rows)
        .map(|r| {
            if r % 3 == 0 {
                0
            } else {
                ((r * 2654435761) % out_rows) as u32
            }
        })
        .collect();
    check(&x, &index, out_rows);
}

proptest! {
    #[test]
    fn fused_bits_equal_the_three_op_chain(
        (rows, out_rows) in (0usize..48, 1usize..12),
        d in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
        seed in 0u64..1000,
    ) {
        let x = Tensor::from_vec(rows, d, fill(rows * d, seed));
        // Seed-derived grouping: some destinations empty, some
        // singleton, sizes uneven.
        let index: Vec<u32> = (0..rows as u64)
            .map(|r| ((r * r + seed * 7 + r / 3) % out_rows as u64) as u32)
            .collect();
        check(&x, &index, out_rows);
    }
}
