//! Quantized storage for the inference path (bf16 + int8).
//!
//! GNN inference's aggregation is bandwidth-bound: it streams feature
//! rows through a reduction, so halving (bf16) or quartering (int8) the
//! bytes a feature store holds is a footprint lever. Only the leaf step
//! of hierarchical aggregation reads feature rows, so precision is a
//! property of one borrowed view, [`FeatureRows`], and of nothing
//! above it:
//!
//! * [`Bf16Tensor`] — truncated-mantissa `f32` storage (1 sign, 8
//!   exponent, 7 mantissa bits) with round-to-nearest-even conversion.
//!   Compute always **widens to f32**: bf16 is a *storage* format here,
//!   so every arithmetic chain is an f32 kernel's chain (a bf16 dense
//!   layer is [`round_bf16_inplace`] then [`Tensor::matmul`]).
//! * [`QInt8Rows`] / [`QInt8Cols`] — symmetric per-row (activations) and
//!   per-column (weights) int8 quantization with an i32-accumulating
//!   matmul micro-kernel ([`matmul_i8`]). Integer sums are exact, so the
//!   int8 matmul is order-free and trivially bitwise-deterministic; no
//!   widened f32 product reproduces its bits.
//!
//! # Determinism contract
//!
//! Within a fixed [`QuantConfig`], every kernel here is
//! bitwise-deterministic across `FLEXGRAPH_THREADS`: each output row is
//! produced by exactly one thread running a fixed serial reduction
//! chain. [`FeatureRows::segment_reduce`] over a narrow store is
//! bitwise-identical to widening it and calling
//! [`crate::fusion::segment_reduce`] — quantization changes *which*
//! values flow, never the order they combine in.

use crate::fusion::{segment_reduce, Reduce};
use crate::par::parallel_for;
use crate::scatter::gather_rows;
use crate::simd;
use crate::tensor::Tensor;

/// Inference precision configuration for the serving tier.
///
/// The config is part of the determinism contract: outputs are bitwise
/// reproducible *within* a config, and different configs produce
/// (boundedly) different numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QuantConfig {
    /// Full-precision f32 everywhere — the existing serving contract,
    /// bit-for-bit.
    #[default]
    F32,
    /// bf16 storage for features and cached embeddings, bf16-rounded
    /// weights and activations; f32 compute with round-to-nearest-even
    /// at storage boundaries.
    Bf16,
    /// Symmetric per-row int8 for features and the dense head's
    /// activations, per-column int8 for its weights (i32
    /// accumulation); bf16 storage for cached embeddings.
    Int8,
}

impl QuantConfig {
    /// Human-readable label (used in bench JSON and trace records).
    pub fn label(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Bf16 => "bf16",
            Self::Int8 => "int8",
        }
    }

    /// Stable numeric code for the trace schema (0 = f32, 1 = bf16,
    /// 2 = int8).
    pub fn code(self) -> u64 {
        match self {
            Self::F32 => 0,
            Self::Bf16 => 1,
            Self::Int8 => 2,
        }
    }
}

// ---------------------------------------------------------------------
// bf16 scalar conversions
// ---------------------------------------------------------------------

/// Narrows an `f32` to bf16 bits with round-to-nearest-even.
///
/// RNE on the truncated 16 low bits: add `0x7FFF` plus the lowest kept
/// bit, then shift — exact halves round toward the even (kept-LSB-zero)
/// neighbor. Values with ≤ 8 mantissa bits convert exactly; overflow
/// saturates to the correctly-signed infinity; NaN stays NaN (quiet bit
/// forced so the payload survives the truncation).
#[inline]
pub fn narrow(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = (bits >> 16) & 1;
    (bits.wrapping_add(0x7FFF + round_bit) >> 16) as u16
}

/// Widens bf16 bits back to `f32` (exact: bf16 is a prefix of f32).
#[inline]
pub fn widen(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

/// Rounds an `f32` through bf16 and back — the value actually stored at
/// a bf16 cache/storage boundary.
#[inline]
pub fn round_bf16(x: f32) -> f32 {
    widen(narrow(x))
}

/// Rounds every element of `t` through bf16 in place. Elementwise, so
/// per-row independent — batch composition cannot change any row.
pub fn round_bf16_inplace(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = round_bf16(*v);
    }
}

// ---------------------------------------------------------------------
// bf16 tensor storage
// ---------------------------------------------------------------------

/// Row-major bf16 matrix: the half-width storage form of [`Tensor`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bf16Tensor {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl Bf16Tensor {
    /// Quantizes an f32 tensor row-for-row with round-to-nearest-even.
    pub fn from_tensor(t: &Tensor) -> Self {
        Self {
            rows: t.rows(),
            cols: t.cols(),
            data: t.data().iter().map(|&v| narrow(v)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw bf16 bits of row `r`.
    pub fn row(&self, r: usize) -> &[u16] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Widens row `r` into `out` (`out.len()` must equal `cols`).
    pub fn widen_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        for (o, &b) in out.iter_mut().zip(self.row(r)) {
            *o = widen(b);
        }
    }

    /// Widens the whole matrix back to f32 (exact).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&b| widen(b)).collect(),
        )
    }

    /// Heap bytes of the quantized storage (half of the f32 form).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u16>()
    }
}

// ---------------------------------------------------------------------
// int8 symmetric quantization
// ---------------------------------------------------------------------

/// Inner-dimension ceiling for the i32-accumulating matmul: 127 · 127 ·
/// K must stay far inside `i32::MAX` for the integer sums to be exact
/// (and therefore order-free).
const I8_MATMUL_MAX_K: usize = 1 << 16;

/// Row-major int8 matrix with one symmetric scale per **row** — the
/// activation/feature side of the quantized matmul. Per-row scales are
/// the parity lever: a row's quantization depends only on that row, so
/// batch composition cannot change any served output.
#[derive(Clone, Debug, PartialEq)]
pub struct QInt8Rows {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QInt8Rows {
    /// Symmetric per-row quantization: `scale = max|row| / 127`,
    /// `q = round(x / scale)` clamped to ±127 (all-zero rows get scale
    /// 0 and quantize exactly). Inputs must be finite.
    pub fn quantize(t: &Tensor) -> Self {
        let (rows, cols) = t.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = t.row(r);
            let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if amax == 0.0 { 0.0 } else { amax / 127.0 };
            scales.push(scale);
            if scale == 0.0 {
                data.extend(std::iter::repeat_n(0i8, cols));
            } else {
                data.extend(
                    row.iter()
                        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
                );
            }
        }
        Self {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantized codes of row `r`.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Dequantizes row `r` into `out`: `out[c] = scale · q[c]`.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        let s = self.scales[r];
        for (o, &q) in out.iter_mut().zip(self.row(r)) {
            *o = s * q as f32;
        }
    }

    /// Dequantizes the whole matrix.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row_into(r, out.row_mut(r));
        }
        out
    }

    /// Heap bytes of codes + scales (≈ a quarter of the f32 form).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }
}

/// Column-major int8 matrix with one symmetric scale per **column** —
/// the weight side of the quantized matmul. Column-major so the i32
/// inner product streams both operands contiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct QInt8Cols {
    /// Inner dimension (rows of the logical `k×n` weight).
    k: usize,
    /// Output dimension (columns of the logical weight).
    n: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QInt8Cols {
    /// Symmetric per-column quantization of a `k×n` weight matrix.
    pub fn quantize(w: &Tensor) -> Self {
        let (k, n) = w.shape();
        let mut data = vec![0i8; k * n];
        let mut scales = Vec::with_capacity(n);
        for c in 0..n {
            let mut amax = 0.0f32;
            for r in 0..k {
                amax = amax.max(w.get(r, c).abs());
            }
            let scale = if amax == 0.0 { 0.0 } else { amax / 127.0 };
            scales.push(scale);
            if scale != 0.0 {
                for r in 0..k {
                    data[c * k + r] = (w.get(r, c) / scale).round().clamp(-127.0, 127.0) as i8;
                }
            }
        }
        Self { k, n, data, scales }
    }

    /// Inner dimension (rows of the logical weight).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the logical weight).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Quantized codes of column `c` (length `k`).
    pub fn col(&self, c: usize) -> &[i8] {
        &self.data[c * self.k..(c + 1) * self.k]
    }

    /// Scale of column `c`.
    pub fn scale(&self, c: usize) -> f32 {
        self.scales[c]
    }

    /// Dequantizes back to the row-major `k×n` f32 form.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(self.k, self.n);
        for c in 0..self.n {
            let s = self.scales[c];
            for (r, &q) in self.col(c).iter().enumerate() {
                out.set(r, c, s * q as f32);
            }
        }
        out
    }

    /// Heap bytes of codes + scales.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }
}

// ---------------------------------------------------------------------
// quantized matmul
// ---------------------------------------------------------------------

/// int8 matmul micro-kernel: i32-accumulating inner product over
/// quantized codes, then one f32 rescale per output element:
/// `out[r][c] = (Σ_k qa[r][k]·qb[k][c]) · (scale_a[r] · scale_b[c])`.
///
/// The integer sum is exact (K is bounded so it cannot overflow i32),
/// which makes the kernel order-free and bitwise-deterministic for any
/// thread count by construction. Parallel over output rows; both
/// operands stream contiguously (A row-major, B column-major).
pub fn matmul_i8(a: &QInt8Rows, b: &QInt8Cols) -> Tensor {
    assert_eq!(
        a.cols(),
        b.k(),
        "matmul inner dims: {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.k(),
        b.n()
    );
    assert!(
        a.cols() <= I8_MATMUL_MAX_K,
        "inner dim {} exceeds i32 accumulator headroom",
        a.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.n());
    let mut out = Tensor::zeros(m, n);
    if m == 0 || k == 0 || n == 0 {
        return out;
    }
    parallel_for(m, out.data_mut(), n, |r0, chunk| {
        for (i, orow) in chunk.chunks_mut(n).enumerate() {
            let r = r0 + i;
            let arow = a.row(r);
            let sa = a.scale(r);
            for (c, o) in orow.iter_mut().enumerate() {
                let mut acc = 0i32;
                for (&qa, &qb) in arow.iter().zip(b.col(c)) {
                    acc += qa as i32 * qb as i32;
                }
                *o = (sa * b.scale(c)) * acc as f32;
            }
        }
    });
    out
}

/// Reference int8 matmul: single-threaded triple loop over the same
/// exact-integer math. [`matmul_i8`] must match it bitwise.
pub fn matmul_i8_naive(a: &QInt8Rows, b: &QInt8Cols) -> Tensor {
    assert_eq!(a.cols(), b.k(), "matmul inner dims");
    let (m, n) = (a.rows(), b.n());
    let mut out = Tensor::zeros(m, n);
    for r in 0..m {
        let arow = a.row(r);
        let sa = a.scale(r);
        for c in 0..n {
            let mut acc = 0i32;
            for (&qa, &qb) in arow.iter().zip(b.col(c)) {
                acc += qa as i32 * qb as i32;
            }
            out.set(r, c, (sa * b.scale(c)) * acc as f32);
        }
    }
    out
}

// ---------------------------------------------------------------------
// quantized aggregation kernels
// ---------------------------------------------------------------------

fn check_segments(rows: usize, offsets: &[usize], src: &[u32]) {
    assert!(!offsets.is_empty(), "offsets needs a terminating entry");
    assert_eq!(
        *offsets.last().unwrap(),
        src.len(),
        "offsets must cover src"
    );
    debug_assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "offsets must be sorted"
    );
    if let Some(&m) = src.iter().max() {
        assert!((m as usize) < rows, "source row {m} out of range");
    }
}

/// Shared destination-owned segment walk over *decoded* rows: `decode`
/// materializes source row `s` into the per-thread scratch, and the
/// accumulate runs the same SIMD ops, in the same ascending-edge order,
/// as the f32 fused kernel ([`crate::fusion::segment_reduce`]). One
/// thread owns each output row, so the walk is bitwise-deterministic
/// for any thread count.
fn segment_reduce_decoded<D>(
    rows: usize,
    cols: usize,
    offsets: &[usize],
    src: &[u32],
    kind: Reduce,
    decode: D,
) -> Tensor
where
    D: Fn(usize, &mut [f32]) + Sync,
{
    check_segments(rows, offsets, src);
    let n = offsets.len() - 1;
    let d = cols;
    let mut out = Tensor::zeros(n, d);
    if d == 0 {
        return out;
    }
    let decode = &decode;
    parallel_for(n, out.data_mut(), d, |seg0, chunk| {
        let mut srow = vec![0.0f32; d];
        for (si, orow) in chunk.chunks_mut(d).enumerate() {
            let seg = seg0 + si;
            let lo = offsets[seg];
            let hi = offsets[seg + 1];
            match kind {
                Reduce::Sum | Reduce::Mean => {
                    for e in lo..hi {
                        decode(src[e] as usize, &mut srow);
                        simd::add_assign(orow, &srow);
                    }
                    if kind == Reduce::Mean && hi > lo {
                        simd::scale_assign(orow, 1.0 / (hi - lo) as f32);
                    }
                }
                Reduce::Max | Reduce::Min => {
                    if lo == hi {
                        continue; // Empty segment stays zero.
                    }
                    let init = if kind == Reduce::Max {
                        f32::NEG_INFINITY
                    } else {
                        f32::INFINITY
                    };
                    for o in orow.iter_mut() {
                        *o = init;
                    }
                    for e in lo..hi {
                        decode(src[e] as usize, &mut srow);
                        if kind == Reduce::Max {
                            simd::max_assign(orow, &srow);
                        } else {
                            simd::min_assign(orow, &srow);
                        }
                    }
                }
            }
        }
    });
    out
}

/// A borrowed feature matrix at its stored precision — the one input of
/// the leaf step, the only step of hierarchical aggregation that reads
/// feature rows. Every level above it runs on f32 instance features, so
/// this view is where serving precision is decided.
#[derive(Clone, Copy, Debug)]
pub enum FeatureRows<'a> {
    /// Full-precision features.
    F32(&'a Tensor),
    /// bf16-stored features, widened to f32 as they stream.
    Bf16(&'a Bf16Tensor),
    /// Per-row int8 features, dequantized as they stream.
    Int8(&'a QInt8Rows),
}

impl<'a> From<&'a Tensor> for FeatureRows<'a> {
    fn from(t: &'a Tensor) -> Self {
        Self::F32(t)
    }
}

impl FeatureRows<'_> {
    /// Number of feature rows.
    pub fn rows(&self) -> usize {
        match self {
            Self::F32(t) => t.rows(),
            Self::Bf16(t) => t.rows(),
            Self::Int8(t) => t.rows(),
        }
    }

    /// Feature width.
    pub fn cols(&self) -> usize {
        match self {
            Self::F32(t) => t.cols(),
            Self::Bf16(t) => t.cols(),
            Self::Int8(t) => t.cols(),
        }
    }

    /// Writes the f32 value of row `r` into `out` (`out.len()` must
    /// equal `cols`).
    pub fn copy_row_into(&self, r: usize, out: &mut [f32]) {
        match self {
            Self::F32(t) => out.copy_from_slice(t.row(r)),
            Self::Bf16(t) => t.widen_row_into(r, out),
            Self::Int8(t) => t.dequantize_row_into(r, out),
        }
    }

    /// Fused segment reduction over the stored rows. The f32 arm is
    /// [`crate::fusion::segment_reduce`]; a narrow store decodes each
    /// source row into a per-thread scratch and accumulates in f32,
    /// bitwise-identical to widening the whole matrix first.
    pub fn segment_reduce(&self, offsets: &[usize], src: &[u32], kind: Reduce) -> Tensor {
        match self {
            Self::F32(t) => segment_reduce(t, offsets, src, kind),
            _ => segment_reduce_decoded(self.rows(), self.cols(), offsets, src, kind, |s, row| {
                self.copy_row_into(s, row)
            }),
        }
    }

    /// Gathers `src` rows into an f32 tensor (the materializing SA
    /// path). The f32 arm is [`crate::scatter::gather_rows`].
    pub fn gather_rows(&self, src: &[u32]) -> Tensor {
        if let Self::F32(t) = self {
            return gather_rows(t, src);
        }
        let mut out = Tensor::zeros(src.len(), self.cols());
        for (i, &s) in src.iter().enumerate() {
            self.copy_row_into(s as usize, out.row_mut(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::segment_reduce;

    fn demo(rows: usize, cols: usize, seed: u64) -> Tensor {
        // Deterministic pseudo-random values in roughly [-4, 4].
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 8192) as f32 / 1024.0) - 4.0
        };
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    #[test]
    fn narrow_is_exact_on_small_mantissas() {
        for v in [0.0f32, -0.0, 1.0, -1.5, 0.25, 3.0, -256.0, 1.0078125] {
            assert_eq!(round_bf16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn narrow_rounds_to_nearest_even() {
        // 1.0 + 2^-8 sits exactly between bf16 neighbors 1.0 and
        // 1.0078125 (= 1 + 2^-7); RNE picks the even mantissa (1.0).
        let half_ulp = 1.0 + 2f32.powi(-8);
        assert_eq!(round_bf16(half_ulp), 1.0);
        // 1.0 + 3·2^-8 is the midpoint above 1.0078125; the even
        // neighbor there is 1.015625 (mantissa 0b10).
        let next_half = 1.0 + 3.0 * 2f32.powi(-8);
        assert_eq!(round_bf16(next_half), 1.015625);
        // Anything past the midpoint rounds up.
        assert_eq!(round_bf16(1.0 + 2f32.powi(-8) + 2f32.powi(-12)), 1.0078125);
    }

    #[test]
    fn narrow_handles_specials() {
        assert_eq!(round_bf16(f32::INFINITY), f32::INFINITY);
        assert_eq!(round_bf16(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(round_bf16(f32::NAN).is_nan());
        // f32::MAX is above bf16::MAX + half an ulp → saturates to inf.
        assert_eq!(round_bf16(f32::MAX), f32::INFINITY);
        assert_eq!(round_bf16(-f32::MAX), f32::NEG_INFINITY);
        // Signed zero survives.
        assert_eq!(narrow(-0.0), 0x8000);
        assert_eq!(narrow(0.0), 0x0000);
    }

    #[test]
    fn bf16_round_trip_through_tensor() {
        let t = demo(7, 5, 1);
        let q = Bf16Tensor::from_tensor(&t);
        assert_eq!(q.heap_bytes(), 7 * 5 * 2);
        let w = q.to_tensor();
        // Rounding error is bounded by half a bf16 ulp: 2^-9 relative.
        assert!(w.max_abs_diff(&t) <= 4.0 * 2f32.powi(-9));
        // Re-narrowing the widened form is exact (idempotence).
        assert_eq!(Bf16Tensor::from_tensor(&w), q);
    }

    #[test]
    fn int8_row_quant_error_is_bounded_by_half_scale() {
        let t = demo(9, 6, 2);
        let q = QInt8Rows::quantize(&t);
        let d = q.dequantize();
        for r in 0..t.rows() {
            let bound = q.scale(r) * 0.500001 + f32::EPSILON;
            for c in 0..t.cols() {
                assert!(
                    (t.get(r, c) - d.get(r, c)).abs() <= bound,
                    "row {r} col {c}: err {} > {bound}",
                    (t.get(r, c) - d.get(r, c)).abs()
                );
            }
        }
    }

    #[test]
    fn int8_zero_rows_are_exact() {
        let t = Tensor::zeros(3, 4);
        let q = QInt8Rows::quantize(&t);
        assert_eq!(q.scale(0), 0.0);
        assert_eq!(q.dequantize(), t);
    }

    /// The bf16 head is "round, then `matmul`": rounding in place gives
    /// exactly the values a bf16 store widens to, and the tiled kernel
    /// runs the naive ascending-K chain on them.
    fn assert_round_then_matmul_is_widened_product(mut a: Tensor, mut b: Tensor) {
        let want = Bf16Tensor::from_tensor(&a)
            .to_tensor()
            .matmul_naive(&Bf16Tensor::from_tensor(&b).to_tensor());
        round_bf16_inplace(&mut a);
        round_bf16_inplace(&mut b);
        assert_eq!(a.matmul(&b), want);
    }

    #[test]
    fn bf16_matmul_matches_widened_f32_bitwise() {
        assert_round_then_matmul_is_widened_product(demo(17, 13, 3), demo(13, 11, 4));
    }

    #[test]
    fn bf16_matmul_hoists_zero_rows_like_naive() {
        let mut a = demo(4, 3, 5);
        for v in a.row_mut(2) {
            *v = 0.0;
        }
        assert_round_then_matmul_is_widened_product(a, demo(3, 6, 6));
    }

    #[test]
    fn i8_matmul_matches_naive_bitwise() {
        let a = QInt8Rows::quantize(&demo(15, 12, 7));
        let b = QInt8Cols::quantize(&demo(12, 9, 8));
        assert_eq!(matmul_i8(&a, &b), matmul_i8_naive(&a, &b));
    }

    #[test]
    fn i8_matmul_error_is_small_relative_to_f32() {
        let af = demo(8, 16, 9);
        let bf = demo(16, 5, 10);
        let exact = af.matmul(&bf);
        let q = matmul_i8(&QInt8Rows::quantize(&af), &QInt8Cols::quantize(&bf));
        // Empirical sanity bound: per-element error ≲ K · (|a|·εb +
        // |b|·εa) with ε ≈ max/254. Keep a loose factor for safety.
        let scale = exact.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
        assert!(q.max_abs_diff(&exact) <= 0.05 * scale * 16.0f32.sqrt());
    }

    #[test]
    fn quant_segment_reduce_matches_widened_fused_kernel() {
        let feats = demo(40, 7, 11);
        let offsets = [0usize, 3, 3, 8, 12];
        let src: Vec<u32> = [0u32, 5, 9, 1, 2, 3, 4, 39, 7, 8, 30, 12].to_vec();
        let bf = Bf16Tensor::from_tensor(&feats);
        let q8 = QInt8Rows::quantize(&feats);
        for kind in [Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min] {
            let got = FeatureRows::Bf16(&bf).segment_reduce(&offsets, &src, kind);
            let want = segment_reduce(&bf.to_tensor(), &offsets, &src, kind);
            assert_eq!(got, want, "bf16 {kind:?}");
            let got8 = FeatureRows::Int8(&q8).segment_reduce(&offsets, &src, kind);
            let want8 = segment_reduce(&q8.dequantize(), &offsets, &src, kind);
            assert_eq!(got8, want8, "int8 {kind:?}");
        }
    }

    #[test]
    fn quant_gathers_match_dequantized_rows() {
        let feats = demo(10, 4, 12);
        let src = [9u32, 0, 3, 3];
        let bf = Bf16Tensor::from_tensor(&feats);
        let q8 = QInt8Rows::quantize(&feats);
        let gb = FeatureRows::Bf16(&bf).gather_rows(&src);
        let g8 = FeatureRows::Int8(&q8).gather_rows(&src);
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(gb.row(i), bf.to_tensor().row(s as usize));
            assert_eq!(g8.row(i), q8.dequantize().row(s as usize));
        }
    }

    #[test]
    fn quant_config_codes_round_trip() {
        let all = [QuantConfig::F32, QuantConfig::Bf16, QuantConfig::Int8];
        assert_eq!(all.map(QuantConfig::code), [0, 1, 2]);
        assert_eq!(QuantConfig::default(), QuantConfig::F32);
    }
}
