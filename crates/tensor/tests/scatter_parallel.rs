//! Bitwise determinism of the planned parallel scatter kernels.
//!
//! The ScatterPlan contract: for ANY thread count, every kernel's output
//! is bitwise identical to the single-threaded reference, because each
//! destination segment is reduced by exactly one thread in original edge
//! order. These tests sweep `FLEXGRAPH_THREADS` ∈ {1, 2, 7, 16} through
//! the runtime override and compare bit patterns, not tolerances.

use flexgraph_tensor::fusion::segment_reduce_serial;
use flexgraph_tensor::scatter::{
    gather_rows_serial, scatter_add_serial, scatter_mean_serial, scatter_softmax_serial,
};
use flexgraph_tensor::{
    gather_rows, scatter_add, scatter_mean, scatter_softmax_with_plan, segment_reduce,
    set_thread_override, Reduce, ScatterPlan, Tensor,
};
use proptest::prelude::*;

const THREAD_SWEEP: [usize; 4] = [1, 2, 7, 16];

/// The thread override is process-global and the test harness runs test
/// fns concurrently; serialize every sweep so each comparison really
/// runs at its stated thread count.
static SWEEP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn sweep_guard() -> std::sync::MutexGuard<'static, ()> {
    SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asserts two tensors carry identical bit patterns (stricter than `==`:
/// distinguishes -0.0 from 0.0 and would catch NaN-producing races).
fn assert_bitwise_eq(got: &Tensor, want: &Tensor, what: &str, threads: usize) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{what}: shape @ {threads} threads"
    );
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {i} differs at {threads} threads: {a:?} vs {b:?}"
        );
    }
}

/// Runs every kernel against its serial reference across the thread
/// sweep; the serial reference itself is computed with the override
/// pinned to 1 thread so it never takes a parallel path.
fn check_all_kernels(values: &Tensor, index: &[u32], out_rows: usize) {
    let _guard = sweep_guard();
    set_thread_override(Some(1));
    let want_add = scatter_add_serial(values, index, out_rows);
    let want_mean = scatter_mean_serial(values, index, out_rows);
    let want_sm = scatter_softmax_serial(values, index, out_rows);
    let plan = ScatterPlan::new(index, out_rows);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        assert_bitwise_eq(
            &scatter_add(values, index, out_rows),
            &want_add,
            "add",
            threads,
        );
        assert_bitwise_eq(
            &scatter_mean(values, index, out_rows),
            &want_mean,
            "mean",
            threads,
        );
        assert_bitwise_eq(
            &scatter_softmax_with_plan(values, &plan),
            &want_sm,
            "softmax",
            threads,
        );
    }
    set_thread_override(None);
}

/// Deterministic pseudo-random fill (no RNG dependency in this crate's
/// tests; LCG constants from Numerical Recipes).
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 20.0 - 10.0
        })
        .collect()
}

#[test]
fn large_inputs_are_bitwise_deterministic_across_threads() {
    // 4096 edges × 16 columns = 65536 elements — far past the 16 KiB
    // serial cutoff, so the sweep genuinely exercises the parallel path.
    let rows = 4096;
    let cols = 16;
    let out_rows = 300;
    let values = Tensor::from_vec(rows, cols, fill(rows * cols, 7));
    let index: Vec<u32> = (0..rows)
        .map(|r| ((r * 2654435761) % out_rows) as u32)
        .collect();
    check_all_kernels(&values, &index, out_rows);
}

#[test]
fn skewed_large_input_with_empty_destinations() {
    // Power-law-ish skew: destination 0 owns half the edges, many
    // destinations own none — the shape that breaks naive row-split
    // parallelism and exact-equality under reordering.
    let rows = 3000;
    let cols = 8;
    let out_rows = 500;
    let values = Tensor::from_vec(rows, cols, fill(rows * cols, 11));
    let index: Vec<u32> = (0..rows)
        .map(|r| {
            if r % 2 == 0 {
                0
            } else {
                ((r * 48271) % (out_rows / 2)) as u32
            }
        })
        .collect();
    check_all_kernels(&values, &index, out_rows);
}

#[test]
fn single_segment_takes_whole_input() {
    // Every edge lands on destination 0: one segment, zero parallelism
    // available over destinations — still must be bitwise stable.
    let rows = 2048;
    let cols = 12;
    let values = Tensor::from_vec(rows, cols, fill(rows * cols, 3));
    let index = vec![0u32; rows];
    check_all_kernels(&values, &index, 1);
    // And with trailing empty destinations after the one real segment.
    check_all_kernels(&values, &index, 64);
}

#[test]
fn edge_scan_walk_order_is_bitwise_deterministic_across_threads() {
    // 32768 edges × 32 columns = 4 MiB of values into a 128 KiB output:
    // exactly the footprint where the planned path switches from the
    // fused segment walk to the destination-owned edge-order scan. Both
    // walk orders accumulate each destination in ascending original
    // edge order, so the switch must be invisible bit-for-bit.
    let rows = 32_768;
    let cols = 32;
    let out_rows = 1024;
    let values = Tensor::from_vec(rows, cols, fill(rows * cols, 29));
    let index: Vec<u32> = (0..rows)
        .map(|r| ((r * 2654435761) % out_rows) as u32)
        .collect();
    check_all_kernels(&values, &index, out_rows);
}

#[test]
fn gather_rows_is_bitwise_deterministic_across_threads() {
    let _guard = sweep_guard();
    let src = Tensor::from_vec(512, 64, fill(512 * 64, 23));
    let idx: Vec<u32> = (0..5000).map(|i| ((i * 31) % 512) as u32).collect();
    set_thread_override(Some(1));
    let want = gather_rows_serial(&src, &idx);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        assert_bitwise_eq(&gather_rows(&src, &idx), &want, "gather", threads);
    }
    set_thread_override(None);
}

#[test]
fn infinities_preserve_seed_sentinel_semantics() {
    // The max/min kernels use ±∞ as fold sentinels and rewrite untouched
    // outputs to zero; inputs that ARE ±∞ must survive bit-for-bit.
    let values = Tensor::from_rows(&[
        &[f32::NEG_INFINITY, 1.0],
        &[f32::INFINITY, -1.0],
        &[0.5, f32::NEG_INFINITY],
    ]);
    let index = [0u32, 0, 2];
    check_all_kernels(&values, &index, 4);
}

#[test]
fn tiled_matmul_is_bitwise_deterministic_across_threads() {
    let _guard = sweep_guard();
    // Past the tiling cutoff, with ragged edges in every tile dimension
    // (m % MC, k % KC, n % NC, n % NR all nonzero) and a zero row for
    // the hoist.
    let (m, k, n) = (67, 131, 83);
    let mut a = Tensor::from_vec(m, k, fill(m * k, 51));
    let b = Tensor::from_vec(k, n, fill(k * n, 52));
    a.row_mut(5).fill(0.0);
    set_thread_override(Some(1));
    let want = a.matmul_naive(&b);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        assert_bitwise_eq(&a.matmul(&b), &want, "matmul", threads);
        assert_bitwise_eq(&a.matmul_naive(&b), &want, "matmul_naive", threads);
    }
    set_thread_override(None);
}

#[test]
fn narrow_tiled_matmul_is_bitwise_deterministic_across_threads() {
    let _guard = sweep_guard();
    // A 6-column output: one ragged register-tile chunk over the
    // zero-padded stripe, past the tiling cutoff, three K-tiles.
    let (m, k, n) = (331, 269, 6);
    let mut a = Tensor::from_vec(m, k, fill(m * k, 53));
    let b = Tensor::from_vec(k, n, fill(k * n, 54));
    a.row_mut(100).fill(0.0);
    a.row_mut(7)[200] = f32::INFINITY;
    set_thread_override(Some(1));
    let want = a.matmul_naive(&b);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        assert_bitwise_eq(&a.matmul(&b), &want, "narrow matmul", threads);
    }
    set_thread_override(None);
}

#[test]
fn segment_reduce_is_bitwise_deterministic_across_threads() {
    let _guard = sweep_guard();
    // 4096 destination-major edges over 300 skewed segments (segment 0
    // owns a quarter of the edges; many segments are empty).
    let feats = Tensor::from_vec(512, 16, fill(512 * 16, 71));
    let segments = 300;
    let edges = 4096;
    let src: Vec<u32> = (0..edges)
        .map(|e| ((e * 2654435761) % 512) as u32)
        .collect();
    let mut offsets = vec![0usize; segments + 1];
    let mut at = 0usize;
    for (i, o) in offsets.iter_mut().enumerate().skip(1) {
        if i == 1 {
            at += edges / 4;
        } else if i % 3 != 0 {
            at += (edges - edges / 4) / (segments - segments / 3);
        }
        *o = at.min(edges);
    }
    offsets[segments] = edges;
    let src = &src[..];
    let offsets = &offsets[..];

    set_thread_override(Some(1));
    let wants: Vec<Tensor> = [Reduce::Sum, Reduce::Mean]
        .iter()
        .map(|&k| segment_reduce(&feats, offsets, src, k))
        .collect();
    // The fused parallel Sum must also match the independent serial
    // implementation, not just itself at one thread.
    assert_bitwise_eq(
        &wants[0],
        &segment_reduce_serial(&feats, offsets, src),
        "segment sum vs serial",
        1,
    );
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        for (kind, want) in [Reduce::Sum, Reduce::Mean].into_iter().zip(&wants) {
            assert_bitwise_eq(
                &segment_reduce(&feats, offsets, src, kind),
                want,
                &format!("segment {kind:?}"),
                threads,
            );
        }
    }
    set_thread_override(None);
}

proptest! {
    #[test]
    fn all_kernels_bitwise_match_serial(
        (rows, cols, out_rows) in (1usize..40, 1usize..8, 1usize..16),
        seed in 0u64..1000,
    ) {
        let values = Tensor::from_vec(rows, cols, fill(rows * cols, seed));
        // Index derived from the seed; out_rows may exceed every index
        // (empty trailing destinations).
        let index: Vec<u32> = (0..rows)
            .map(|r| ((r as u64 * 7 + seed) % out_rows as u64) as u32)
            .collect();
        check_all_kernels(&values, &index, out_rows);
    }

    #[test]
    fn empty_input_rows_yield_zero_outputs(out_rows in 1usize..10, cols in 1usize..6) {
        let values = Tensor::zeros(0, cols);
        let index: Vec<u32> = Vec::new();
        check_all_kernels(&values, &index, out_rows);
        let out = {
            let _guard = sweep_guard();
            set_thread_override(Some(13));
            let out = scatter_add(&values, &index, out_rows);
            set_thread_override(None);
            out
        };
        prop_assert!(out.data().iter().all(|&x| x == 0.0));
    }
}
