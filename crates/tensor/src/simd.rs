//! Explicit SIMD backend for the hot inner loops of the sparse segment
//! kernels and the dense matmul micro-kernel.
//!
//! # Determinism contract
//!
//! Every operation here is **elementwise over the feature (column)
//! dimension**: AVX2 lanes carry 8 *independent* output columns, never 8
//! partial sums of one column. No horizontal reduction, no lane tree,
//! no re-association — the per-element accumulation chain (ascending
//! edge order for segment reductions, ascending K for matmul) is exactly
//! the chain the scalar code produces, so results are bit-identical to
//! the scalar fallback and to the serial reference kernels.
//!
//! One rule keeps that true: [`mul_add_assign`] uses a separate
//! multiply then add (`_mm256_mul_ps` + `_mm256_add_ps`), **never** FMA:
//! fused multiply-add rounds once where the scalar `acc += a * x` rounds
//! twice, which would break bitwise parity with the serial matmul.
//!
//! # Register accumulators
//!
//! [`fold_segments`] is the segment walk of every sparse reduction: it
//! reduces each segment's rows into that segment's output row. The
//! AVX2 version keeps a block of up to eight vectors (64 columns) of the
//! output row in registers across the whole segment and stores it once,
//! so a column's chain is a chain of register adds rather than a
//! load-add-store through memory per row, and a row of up to 64 columns
//! is one pass over the segment's edges; a ragged tail (`dim % 8`
//! columns) is the block's last vector, loaded and stored under a lane
//! mask.
//! How a row splits into blocks depends on the width alone, so it is
//! chosen once per call, not per segment — a walk over short segments
//! would otherwise pay for the choice on every one. The adds and their
//! order are the per-row chain's — [`scalar::fold_segments`], one
//! [`add_assign`] per row — so the two return the same bits, which
//! `tests/segment_walk.rs` checks across widths, sum and mean, and
//! special values.
//!
//! # `exp`
//!
//! [`exp`] is the only exponential in the tree: every softmax (the
//! planned segment kernels and their serial oracle, the row softmax
//! under the cross-entropy) and the sigmoid call it, so any two of them
//! agree bit for bit by construction. It is one scalar, branch-free
//! definition — no intrinsic twin — which the compiler turns into 8-lane
//! code wherever a loop calls it, on whichever backend is compiled in:
//!
//! * `n = round(x / ln 2)` by adding `1.5·2²³` (the sum's low mantissa
//!   bits *are* `n`) and subtracting it again;
//! * `r = x − n·ln 2` in two Cody–Waite steps (`ln 2` split into a
//!   9-bit head, whose product with `n` is exact, and a tail), so
//!   `|r| ≤ ½ ln 2` carries no cancellation error;
//! * `e^r ≈ 1 + r + r²·q(r)`, `q` a degree-4 near-minimax fit (relative
//!   error 3·10⁻⁹ before rounding), evaluated by Horner's rule with a
//!   separate multiply and add at every step — never FMA;
//! * `2ⁿ` applied by adding `n`, taken from the rounded sum's bits and
//!   shifted into place, to the exponent field of that value. There is
//!   no float → integer conversion anywhere (an `as i32` is what keeps
//!   LLVM from vectorising the textbook form), and `n = 128` needs no
//!   special case.
//!
//! Every step is an IEEE add, multiply, shift or select on one element,
//! so a vector lane computes exactly what the scalar tail and a lone
//! call compute: the AVX2 and the scalar backend return the same bits,
//! which `tests/simd_parity.rs` pins as constants.
//!
//! Contract (tested there): `exp(±0) = 1` exactly — a singleton softmax
//! group gets weight exactly 1; `exp(−∞) = +0`, `exp(+∞) = +∞`, NaN →
//! NaN; every input below `ln(f32::MIN_POSITIVE)` returns `+0`, so no
//! output is ever denormal and no result depends on the FTZ/DAZ mode;
//! inputs above `ln(f32::MAX)` return `+∞`; the function is monotone
//! non-decreasing; and it is within 2 ulp of the correctly rounded
//! result wherever that is normal (measured over all 2.24·10⁹ such
//! inputs: at most 1 ulp, 99.2 % correctly rounded, no monotonicity
//! violation).
//!
//! # Backend selection
//!
//! The vector backend is chosen at **compile time**: when the target
//! enables AVX2 (the workspace builds with `-C target-cpu=x86-64-v3`,
//! see `.cargo/config.toml`), the exported functions are the AVX2
//! intrinsic versions; otherwise they are the scalar loops. The scalar
//! implementations are *always* compiled — as [`scalar`] — so an AVX2
//! build can still run scalar-vs-SIMD parity tests, and a plain
//! `x86-64` (or non-x86) build uses them directly. [`backend`] reports
//! which flavor the exported functions resolve to.

/// `f32` lanes per AVX2 vector; the vector loops peel in strides of
/// this. Exported so tests can probe the sub-lane-width tail path.
pub const LANES: usize = 8;

/// True when this build's exported functions are the AVX2 versions.
const HAS_AVX2: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx2"));

/// Name of the compiled-in vector backend: `"avx2"` or `"scalar"`.
pub fn backend() -> &'static str {
    if HAS_AVX2 {
        "avx2"
    } else {
        "scalar"
    }
}

/// Hints the CPU to pull the cache line at `p` into all cache levels.
///
/// Used by the fused segment walk to hide the latency of the permuted
/// row gather. Purely a hint: prefetching any address — mapped or not —
/// is architecturally side-effect-free, so this is a safe function. A
/// no-op on non-x86 targets.
#[inline(always)]
pub fn prefetch_read(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 never faults, regardless of the address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Edge-position lookahead of the walk's software prefetch: while
/// reducing edge `e`, the row of edge `e + PREFETCH_DIST` is pulled
/// toward L1. Segments average a handful of edges, so the prefetch
/// deliberately reaches across segment boundaries (up to the walk's last
/// edge) to stay ahead of the permuted-gather misses.
const PREFETCH_DIST: usize = 16;

/// `f32`s per cache line; the prefetch walks the whole row in
/// line-sized strides so multi-line rows (dim > 16) are fully covered.
const FLOATS_PER_LINE: usize = 16;

/// Prefetches the row of edge `e + PREFETCH_DIST` of a [`fold_segments`]
/// walk when that edge is one the walk reaches (below `end`).
///
/// # Safety
///
/// `end <= idx.len()`.
#[inline(always)]
unsafe fn prefetch_ahead(values: &[f32], d: usize, idx: &[u32], e: usize, end: usize) {
    let pf = e + PREFETCH_DIST;
    if pf < end {
        let row = *idx.get_unchecked(pf) as usize * d;
        let mut c = 0;
        while c < d {
            prefetch_read(values.as_ptr().wrapping_add(row + c));
            c += FLOATS_PER_LINE;
        }
    }
}

/// Reference (scalar) implementations, compiled unconditionally.
///
/// These define the semantics the vector backend must reproduce
/// bit-for-bit; the parity proptests in `tensor/tests/` compare the
/// exported (possibly AVX2) functions against these on random shapes.
pub mod scalar {
    use crate::fusion::Reduce;

    /// `acc[i] += x[i]` elementwise.
    #[inline]
    pub fn add_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        for (o, &v) in acc.iter_mut().zip(x) {
            *o += v;
        }
    }

    /// `acc[i] += a * x[i]` elementwise — multiply rounds, then add
    /// rounds (two roundings, the non-FMA chain).
    #[inline]
    pub fn mul_add_assign(acc: &mut [f32], a: f32, x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        for (o, &v) in acc.iter_mut().zip(x) {
            *o += a * v;
        }
    }

    /// `o[i] *= s` elementwise.
    #[inline]
    pub fn scale_assign(o: &mut [f32], s: f32) {
        for x in o.iter_mut() {
            *x *= s;
        }
    }

    /// Reduces each segment's rows into its row of `out` (`d` floats a
    /// segment): segment `t` takes row `idx[e]` of `values` for each `e`
    /// of `offsets[t]..offsets[t + 1]` in ascending order — the per-row
    /// chain, one [`add_assign`] per row, into what the row holds;
    /// `Mean` then scales it by `1/len`. An empty segment's row is left
    /// as it is. With `prefetch`, each edge first pulls the row
    /// `PREFETCH_DIST` edges ahead toward L1: a hint, so no bit depends
    /// on it. This chain reads its rows checked; it is `unsafe` only to
    /// share the register walk's contract.
    ///
    /// # Safety
    ///
    /// Every offset is at most `idx.len()`, and every `idx[e]` the walk
    /// reaches names a whole row of `values`: `(idx[e] + 1) · d ≤
    /// values.len()`.
    pub unsafe fn fold_segments(
        out: &mut [f32],
        d: usize,
        kind: Reduce,
        offsets: &[usize],
        values: &[f32],
        idx: &[u32],
        prefetch: bool,
    ) {
        assert_eq!(
            out.len(),
            (offsets.len() - 1) * d,
            "one output row per segment"
        );
        if d == 0 {
            return;
        }
        let end = offsets[offsets.len() - 1];
        for (t, acc) in out.chunks_mut(d).enumerate() {
            let (lo, hi) = (offsets[t], offsets[t + 1]);
            if lo == hi {
                continue;
            }
            for e in lo..hi {
                if prefetch {
                    super::prefetch_ahead(values, d, idx, e, end);
                }
                let r = idx[e] as usize * d;
                add_assign(acc, &values[r..r + d]);
            }
            if kind == Reduce::Mean {
                scale_assign(acc, 1.0 / (hi - lo) as f32);
            }
        }
    }

    /// `1.5·2²³`: adding it to `|v| < 2²²` rounds `v` to an integer
    /// (ties to even) and leaves that integer in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    /// `ln 2` as a 9-bit head (`n · LN2_HI` is exact for `|n| < 2¹⁵`)…
    const LN2_HI: f32 = 355.0 / 512.0;
    /// …and the tail `ln 2 − LN2_HI`.
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// Smallest input with a normal result: the `f32` just above
    /// `ln(f32::MIN_POSITIVE)`.
    const EXP_LO: f32 = -87.336_54;
    /// Largest input with a finite result: the `f32` just below
    /// `ln(f32::MAX)`.
    const EXP_HI: f32 = 88.722_83;
    /// `q` of `e^r ≈ 1 + r + r²·q(r)` on `|r| ≤ ½ ln 2`, highest degree
    /// first: a near-minimax fit of the relative error (Lawson's
    /// reweighted least squares over 400 Chebyshev nodes).
    const EXP_Q: [f32; 5] = [
        1.381_453_8e-3,
        8.368_745e-3,
        4.166_839e-2,
        1.666_652_1e-1,
        4.999_999_4e-1,
    ];

    /// `e^x` (see the module docs for the algorithm and its contract).
    #[inline(always)]
    pub fn exp(x: f32) -> f32 {
        let t = x * std::f32::consts::LOG2_E + ROUND;
        let n = t - ROUND;
        let r = (x - n * LN2_HI) - n * LN2_LO;
        let [c6, c5, c4, c3, c2] = EXP_Q;
        let q = (((c6 * r + c5) * r + c4) * r + c3) * r + c2;
        let p = q * (r * r) + r + 1.0;
        // `p` lies in [0.70, 1.42] and `n` in [-126, 128] for every input
        // the selects below let through, so the exponent field neither
        // borrows nor carries.
        let y = f32::from_bits(p.to_bits().wrapping_add(t.to_bits() << 23));
        let y = if x < EXP_LO { 0.0 } else { y };
        // Written so that NaN takes the second arm and stays NaN.
        if x <= EXP_HI {
            y
        } else {
            x + f32::INFINITY
        }
    }

    /// `out[i] = exp(x[i] - m[i])` elementwise, each added into
    /// `sums[i]` — the stabilised exponentials of one softmax row against
    /// its column maxima, and the running column sums, in one pass.
    #[inline]
    pub fn exp_sub_into(out: &mut [f32], sums: &mut [f32], x: &[f32], m: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        debug_assert_eq!(out.len(), m.len());
        debug_assert_eq!(out.len(), sums.len());
        for (((o, z), &v), &m) in out.iter_mut().zip(sums).zip(x).zip(m) {
            *o = exp(v - m);
            *z += *o;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::LANES;
    use crate::fusion::Reduce;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Accumulator vectors one [`fold_segments`] block keeps in
    /// registers: eight accumulators take half of the sixteen AVX2
    /// registers, and each add reads its row straight from memory.
    const BLOCK_VECS: usize = 8;
    /// Columns of a full block.
    const BLOCK: usize = BLOCK_VECS * LANES;

    /// Folds columns `c0..c0 + N·8` (the last vector cut to the lanes
    /// set in `mask` when `MASKED`) of row `idx[e]` of `values`, for
    /// every `e` of `edges`, into the output row at `out`, holding the
    /// `N` accumulator vectors in registers: one load before the run,
    /// one store after it, times `scale` just before the store when
    /// given. With `ahead = Some(end)`, each edge first prefetches the
    /// row `PREFETCH_DIST` edges on, below `end`.
    ///
    /// # Safety
    ///
    /// `out` and every row `idx[e]` names (`d` floats) must hold `c0 +
    /// N·8` floats, or — when `MASKED` — at least the lanes `mask`
    /// selects of the last vector; `edges` and `end` lie within `idx`.
    #[inline(always)]
    unsafe fn fold_block<const N: usize, const MASKED: bool>(
        out: *mut f32,
        c0: usize,
        mask: __m256i,
        edges: Range<usize>,
        (values, d, idx): (&[f32], usize, &[u32]),
        ahead: Option<usize>,
        scale: Option<__m256>,
    ) {
        let load = |p: *const f32, k: usize| {
            if MASKED && k + 1 == N {
                _mm256_maskload_ps(p.add(k * LANES), mask)
            } else {
                _mm256_loadu_ps(p.add(k * LANES))
            }
        };
        let out = out.add(c0);
        let mut a = [_mm256_setzero_ps(); N];
        for (k, a) in a.iter_mut().enumerate() {
            *a = load(out, k);
        }
        for e in edges {
            if let Some(end) = ahead {
                super::prefetch_ahead(values, d, idx, e, end);
            }
            let p = values.as_ptr().add(*idx.get_unchecked(e) as usize * d + c0);
            for (k, a) in a.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, load(p, k));
            }
        }
        if let Some(s) = scale {
            for a in a.iter_mut() {
                *a = _mm256_mul_ps(*a, s);
            }
        }
        for (k, &a) in a.iter().enumerate() {
            if MASKED && k + 1 == N {
                _mm256_maskstore_ps(out.add(k * LANES), mask, a);
            } else {
                _mm256_storeu_ps(out.add(k * LANES), a);
            }
        }
    }

    /// [`fold_segments`] for one split of the row: `d / BLOCK` full
    /// blocks, then a block of `R` vectors (the last one masked when
    /// `MASKED`), each block a full walk of the segment's edges; the
    /// first block prefetches.
    ///
    /// # Safety
    ///
    /// [`fold_segments`]'s, with `out` holding `d` floats per segment,
    /// and `R`, `MASKED` the split of `d`.
    #[inline(always)]
    unsafe fn walk<const R: usize, const MASKED: bool>(
        out: &mut [f32],
        (d, mean, prefetch): (usize, bool, bool),
        offsets: &[usize],
        rows: (&[f32], usize, &[u32]),
    ) {
        let full = d / BLOCK;
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((d % LANES) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let ahead = prefetch.then(|| offsets[offsets.len() - 1]);
        for (t, acc) in out.chunks_mut(d).enumerate() {
            let (lo, hi) = (offsets[t], offsets[t + 1]);
            if lo == hi {
                continue;
            }
            let scale = mean.then(|| _mm256_set1_ps(1.0 / (hi - lo) as f32));
            let acc = acc.as_mut_ptr();
            for b in 0..full {
                let ahead = if b == 0 { ahead } else { None };
                fold_block::<BLOCK_VECS, false>(acc, b * BLOCK, mask, lo..hi, rows, ahead, scale);
            }
            if R > 0 {
                let ahead = if full == 0 { ahead } else { None };
                fold_block::<R, MASKED>(acc, full * BLOCK, mask, lo..hi, rows, ahead, scale);
            }
        }
    }

    /// [`super::scalar::fold_segments`] with each output row in
    /// registers (see the module docs). The split of `d` is chosen once
    /// per call, and this is the one body of the walk: it takes no
    /// closure, so every caller runs the same machine code.
    ///
    /// # Safety
    ///
    /// As [`super::scalar::fold_segments`].
    pub unsafe fn fold_segments(
        out: &mut [f32],
        d: usize,
        kind: Reduce,
        offsets: &[usize],
        values: &[f32],
        idx: &[u32],
        prefetch: bool,
    ) {
        assert_eq!(
            out.len(),
            (offsets.len() - 1) * d,
            "one output row per segment"
        );
        if d == 0 {
            return;
        }
        let (r, masked) = ((d % BLOCK).div_ceil(LANES), !d.is_multiple_of(LANES));
        let how = (d, kind == Reduce::Mean, prefetch);
        let rows = (values, d, idx);
        // One arm per split: `R` vectors past the full blocks, the last
        // of them masked or not.
        macro_rules! by_split {
            ($($r:literal)*) => {
                match (r, masked) {
                    $(($r, false) => walk::<$r, false>(out, how, offsets, rows),
                      ($r, true) => walk::<$r, true>(out, how, offsets, rows),)*
                    _ => unreachable!("a split has at most {BLOCK_VECS} vectors"),
                }
            };
        }
        // SAFETY: the caller's contract, `out` checked against `d`
        // above, and `(r, masked)` is the split of `d`.
        by_split!(0 1 2 3 4 5 6 7 8)
    }

    /// `acc[i] += x[i]` elementwise (8-lane AVX2 body, scalar tail).
    #[inline]
    pub fn add_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let mut i = 0;
        // SAFETY: every load/store stays within `i + LANES <= n`.
        unsafe {
            while i + LANES <= n {
                let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                let b = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, b));
                i += LANES;
            }
        }
        for j in i..n {
            acc[j] += x[j];
        }
    }

    /// `acc[i] += a * x[i]` with separate mul and add (no FMA — see the
    /// module-level determinism contract).
    #[inline]
    pub fn mul_add_assign(acc: &mut [f32], a: f32, x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let mut i = 0;
        // SAFETY: bounds as in `add_assign`.
        unsafe {
            let va = _mm256_set1_ps(a);
            while i + LANES <= n {
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                let vo = _mm256_loadu_ps(acc.as_ptr().add(i));
                let prod = _mm256_mul_ps(va, vx);
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(vo, prod));
                i += LANES;
            }
        }
        for j in i..n {
            acc[j] += a * x[j];
        }
    }

    /// `o[i] *= s` elementwise.
    #[inline]
    pub fn scale_assign(o: &mut [f32], s: f32) {
        let n = o.len();
        let mut i = 0;
        // SAFETY: bounds as in `add_assign`.
        unsafe {
            let vs = _mm256_set1_ps(s);
            while i + LANES <= n {
                let vo = _mm256_loadu_ps(o.as_ptr().add(i));
                _mm256_storeu_ps(o.as_mut_ptr().add(i), _mm256_mul_ps(vo, vs));
                i += LANES;
            }
        }
        for j in i..n {
            o[j] *= s;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub use avx2::{add_assign, fold_segments, mul_add_assign, scale_assign};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub use scalar::{add_assign, fold_segments, mul_add_assign, scale_assign};
// One definition serves both backends (see the module docs).
pub use scalar::{exp, exp_sub_into};

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
        let mut state = seed as u64 | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        };
        let a: Vec<f32> = (0..n).map(|_| next()).collect();
        let b: Vec<f32> = (0..n).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn backend_name_matches_cfg() {
        let expect = if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
            "avx2"
        } else {
            "scalar"
        };
        assert_eq!(backend(), expect);
    }

    #[test]
    fn exported_ops_bitwise_match_scalar_reference() {
        // Lengths straddle the lane width: sub-lane, exact, and ragged.
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let (a, b) = vecs(n, 7 + n as u32);
            for op in 0..2 {
                let mut got = a.clone();
                let mut want = a.clone();
                match op {
                    0 => {
                        add_assign(&mut got, &b);
                        scalar::add_assign(&mut want, &b);
                    }
                    _ => {
                        mul_add_assign(&mut got, 1.7, &b);
                        scalar::mul_add_assign(&mut want, 1.7, &b);
                    }
                }
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "op {op} len {n}");
                }
            }
        }
    }

    #[test]
    fn scale_matches_scalar() {
        let (a, _) = vecs(27, 3);
        let mut got = a.clone();
        let mut want = a;
        scale_assign(&mut got, 0.125);
        scalar::scale_assign(&mut want, 0.125);
        assert_eq!(got, want);
    }

    #[test]
    fn prefetch_is_a_safe_no_op_semantically() {
        let v = [1.0f32; 16];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null());
        assert_eq!(v[0], 1.0);
    }
}
