//! Bitwise parity of the tiled matmul's transposed operand layouts.
//!
//! `Aᵀ·B` ([`Tensor::matmul_tn_into`], A read in place) and `A·Bᵀ`
//! ([`Tensor::matmul_nt_into`], B packed from its transposed view) must
//! give, for ANY thread count, the bits of `matmul_naive` on the
//! materialised transposes: every output element accumulates its
//! products in ascending K, mul then add, and a row of `op(A)` that is
//! all zero (`±0.0`) leaves its output row untouched. The sweep covers
//! output widths around the register tile (16) and the stripe (64),
//! heights below and off the register-tile height (3), depths around the
//! K-tile (128), products either side of the tiling cutoff, and special
//! values.

use flexgraph_tensor::{set_thread_override, Tensor};

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
/// The flop count (`2·m·k·n`) below which `Tensor::matmul` runs its
/// serial loop.
const MATMUL_TILE_CUTOFF: usize = 2 * 64 * 64 * 64;

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
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {i} differs: {:#x} vs {:#x}",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// The logical `m×k` A and `k×n` B: random values, with (where the
/// shape has room) an all-`0.0` and an all-`−0.0` row of A, which both
/// kernels skip; a `−0.0` and a `+∞` in A's first row; NaN in A's last
/// row and in B's last column; `−0.0` and `−∞` in B's last column.
///
/// No output's chain meets two NaNs of different bits (an input NaN and
/// the default NaN of `0·∞`): which operand's NaN an add keeps is the
/// compiler's choice, as `fadd` commutes, in the naive loop as in the
/// kernel.
fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut a = Tensor::from_vec(m, k, fill(m * k, seed));
    let mut b = Tensor::from_vec(k, n, fill(k * n, seed ^ 0xb));
    if m >= 4 {
        a.row_mut(1).fill(0.0);
        a.row_mut(m - 2).fill(-0.0);
    }
    a.set(0, k / 2, -0.0);
    a.set(0, k - 1, f32::INFINITY);
    if m >= 2 {
        a.set(m - 1, k / 3, f32::NAN);
    }
    b.set(k - 1, n - 1, f32::NEG_INFINITY);
    b.set(k / 2, n - 1, -0.0);
    if k >= 3 {
        b.set(1, n - 1, f32::NAN);
    }
    (a, b)
}

/// Checks both transposed layouts of one `(m, k, n)` product at every
/// thread count of the sweep.
fn check(m: usize, k: usize, n: usize) {
    let (a, b) = operands(m, k, n, (m * 31 + k * 7 + n) as u64);
    let (at, bt) = (a.transpose_naive(), b.transpose_naive());
    let want = a.matmul_naive(&b);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        let what = |l| format!("{l} m={m} k={k} n={n} @ {threads} threads");
        let mut tn = Tensor::zeros(m, n);
        at.matmul_tn_into(&b, &mut tn);
        assert_bits_eq(&tn, &want, &what("Aᵀ·B"));
        let mut nt = Tensor::zeros(m, n);
        a.matmul_nt_into(&bt, &mut nt);
        assert_bits_eq(&nt, &want, &what("A·Bᵀ"));
    }
    set_thread_override(None);
}

#[test]
fn transposed_layouts_match_naive_at_every_width() {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 67 rows: two row blocks, `67 % 3 != 0`; 129 deep: a ragged K-tile.
    let (m, k) = (67, 129);
    let widths = [1, 3, 4, 15, 16, 17, 50, 64, 65, 130];
    assert!(2 * m * k * widths[0] < MATMUL_TILE_CUTOFF);
    assert!(2 * m * k * widths[9] >= MATMUL_TILE_CUTOFF);
    for n in widths {
        check(m, k, n);
    }
}

#[test]
fn transposed_layouts_match_naive_at_every_height() {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Fewer rows than one register tile, and row counts off its height;
    // 130 rows split into two ranges at two and four threads.
    for m in [1, 2, 4, 5, 64, 130] {
        check(m, 300, 17);
    }
}

#[test]
fn transposed_layouts_match_naive_at_every_depth() {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Around one K-tile, and a weight gradient's depth (|V| = 8192).
    for k in [127, 128, 129] {
        check(64, k, 16);
        check(5, k, 65);
    }
    check(64, 8192, 16);
}
