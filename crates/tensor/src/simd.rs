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
//! Two rules keep that true:
//!
//! * [`mul_add_assign`] uses a separate multiply then add
//!   (`_mm256_mul_ps` + `_mm256_add_ps`), **never** FMA: fused
//!   multiply-add rounds once where the scalar `acc += a * x` rounds
//!   twice, which would break bitwise parity with the serial matmul.
//! * [`max_assign`]/[`min_assign`] are compare-and-keep (`x > acc ? x :
//!   acc`), matching `vmaxps`/`vminps` hardware semantics exactly in
//!   both backends. This agrees with `f32::max`/`f32::min` for every
//!   input free of `±0.0` ties (a NaN candidate never displaces the
//!   accumulator on either path, and the accumulator itself never
//!   becomes NaN from the `±∞` sentinel initialization).
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

/// Reference (scalar) implementations, compiled unconditionally.
///
/// These define the semantics the vector backend must reproduce
/// bit-for-bit; the parity proptests in `tensor/tests/` compare the
/// exported (possibly AVX2) functions against these on random shapes.
pub mod scalar {
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

    /// `acc[i] = if x[i] > acc[i] { x[i] } else { acc[i] }` — the
    /// `vmaxps` semantic (ties and NaN candidates keep the accumulator).
    #[inline]
    pub fn max_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        for (o, &v) in acc.iter_mut().zip(x) {
            if v > *o {
                *o = v;
            }
        }
    }

    /// `acc[i] = if x[i] < acc[i] { x[i] } else { acc[i] }` — the
    /// `vminps` semantic.
    #[inline]
    pub fn min_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        for (o, &v) in acc.iter_mut().zip(x) {
            if v < *o {
                *o = v;
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

    /// `out[i] = exp(x[i] - m[i])` elementwise — the stabilised
    /// exponentials of one softmax row against its column maxima.
    #[inline]
    pub fn exp_sub_into(out: &mut [f32], x: &[f32], m: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        debug_assert_eq!(out.len(), m.len());
        for ((o, &v), &m) in out.iter_mut().zip(x).zip(m) {
            *o = exp(v - m);
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::LANES;
    use std::arch::x86_64::*;

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

    /// `acc = vmaxps(x, acc)`: keeps the accumulator on ties and NaN
    /// candidates, exactly like the scalar reference.
    #[inline]
    pub fn max_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let mut i = 0;
        // SAFETY: bounds as in `add_assign`. `_mm256_max_ps(a, b)`
        // returns `a > b ? a : b` (second operand on ties/NaN), so the
        // candidate goes in the first slot and the accumulator second.
        unsafe {
            while i + LANES <= n {
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                let vo = _mm256_loadu_ps(acc.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_max_ps(vx, vo));
                i += LANES;
            }
        }
        for j in i..n {
            if x[j] > acc[j] {
                acc[j] = x[j];
            }
        }
    }

    /// `acc = vminps(x, acc)`: mirror of [`max_assign`].
    #[inline]
    pub fn min_assign(acc: &mut [f32], x: &[f32]) {
        debug_assert_eq!(acc.len(), x.len());
        let n = acc.len();
        let mut i = 0;
        // SAFETY: bounds and operand order as in `max_assign`.
        unsafe {
            while i + LANES <= n {
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                let vo = _mm256_loadu_ps(acc.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_min_ps(vx, vo));
                i += LANES;
            }
        }
        for j in i..n {
            if x[j] < acc[j] {
                acc[j] = x[j];
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub use avx2::{add_assign, max_assign, min_assign, mul_add_assign, scale_assign};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub use scalar::{add_assign, max_assign, min_assign, mul_add_assign, scale_assign};
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
            for op in 0..4 {
                let mut got = a.clone();
                let mut want = a.clone();
                match op {
                    0 => {
                        add_assign(&mut got, &b);
                        scalar::add_assign(&mut want, &b);
                    }
                    1 => {
                        mul_add_assign(&mut got, 1.7, &b);
                        scalar::mul_add_assign(&mut want, 1.7, &b);
                    }
                    2 => {
                        max_assign(&mut got, &b);
                        scalar::max_assign(&mut want, &b);
                    }
                    _ => {
                        min_assign(&mut got, &b);
                        scalar::min_assign(&mut want, &b);
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
