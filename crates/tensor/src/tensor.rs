//! The dense 2-D tensor type and its elementwise / linear-algebra kernels.
//!
//! All tensors are row-major `f32` matrices. FlexGraph's feature matrices
//! are `(#vertices, feature_dim)` and its weights are
//! `(in_dim, out_dim)`, so two dimensions are all the system needs; logical
//! 3-D reshapes (paper Figure 10) are expressed as row-block views over the
//! same buffer via [`Tensor::reshape_rows`].

use crate::par::{parallel_for, parallel_ranges, SendPtr};
use crate::simd;
use std::fmt;

/// Matmul row-block size: the unit of parallel work handed to the pool
/// (each worker owns `MC`-row blocks of the output).
const MC: usize = 64;
/// Matmul K-tile depth. The K loop is tiled in a *fixed ascending
/// order* independent of threading, so every output element accumulates
/// its products in exactly the naive kernel's order — the tiled path is
/// bitwise identical to the naive one for any thread count.
const KC: usize = 128;
/// Matmul column-tile width. One packed `KC×NC` B-panel is `128 × 64 ×
/// 4 B = 32 KiB` — sized to sit in L1d while every row of an `MC` block
/// (and every row of the matrix, across blocks) re-reads it.
const NC: usize = 64;
/// Register-tile width of the micro-kernel: `NR` output accumulators
/// are held in registers across the whole K-tile, cutting per-product
/// output-row loads/stores by a factor of `KC`.
const NR: usize = 16;
/// Register-tile height: the micro-kernel advances `MR` output rows at
/// once so every B-tile row it loads from L1 is reused `MR`-fold —
/// load-port pressure, not arithmetic, is the bound once the panel is
/// cache-resident. Rows in a group need not be adjacent (zero rows are
/// filtered out first); each row's accumulation chain is untouched, so
/// bitwise identity with the naive kernel is preserved. Tuned by
/// measurement (`dense_baseline`): 3×16 keeps the 2·NR/8 accumulator
/// vectors per row plus the shared B vectors inside the 16 AVX2
/// registers; 4×16 and 6×8 both measured slower.
const MR: usize = 3;
/// Flop threshold (`2·m·k·n`) below which matmul skips tiling: packing
/// and dispatch overheads dominate on the small weight matrices of the
/// model layers, and the naive order is bitwise identical anyway.
const MATMUL_TILE_CUTOFF: usize = 2 * 64 * 64 * 64;
/// Transpose block edge: a `32×32` tile touches 32 cache lines on each
/// side, small enough to keep both in L1 while the tile turns.
const TB: usize = 32;
/// Element count below which transpose takes the unblocked loop: the
/// whole matrix sits in L2 anyway and the blocked loop's bookkeeping
/// measures slower there (`dense_baseline`, "small" point).
const TRANSPOSE_TILE_CUTOFF: usize = 128 * 1024;

/// A dense, row-major `f32` matrix.
///
/// Cloning is a deep copy; the distributed runtime shares tensors through
/// `Arc` where aliasing is intended.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Self { rows, cols, data }
    }

    /// Builds a tensor from row slices (all rows must have equal length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows are not allowed");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
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

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read access to the raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count. This is the paper's "reshape" (Figure 10): a logical-layout
    /// change with no memory copy of substance.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape_rows(self, rows: usize, cols: usize) -> Self {
        assert_eq!(rows * cols, self.data.len(), "reshape must preserve length");
        Self {
            rows,
            cols,
            data: self.data,
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = Self::zeros(self.rows, self.cols);
        self.map_into(&mut out, f);
        out
    }

    /// [`Tensor::map`] into a caller-provided `out` of the same shape,
    /// which is overwritten.
    pub fn map_into(&self, out: &mut Self, f: impl Fn(f32) -> f32) {
        assert_eq!(self.shape(), out.shape(), "shape mismatch in map_into");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = Self::zeros(self.rows, self.cols);
        self.zip_into(other, &mut out, f);
        out
    }

    /// Elementwise `out = f(self, other)` over three equal shapes.
    pub fn zip_into(&self, other: &Self, out: &mut Self, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in elementwise op"
        );
        assert_eq!(self.shape(), out.shape(), "shape mismatch in zip_into");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// Elementwise in-place `self = f(self, other)`.
    pub fn zip_inplace(&mut self, other: &Self, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in elementwise op"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        self.zip_inplace(other, |a, b| a + b);
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.zip_inplace(other, |a, b| a + alpha * b);
    }

    /// Scalar multiply into a new tensor.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds `bias` (a `1×cols` tensor) to every row.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = Self::zeros(self.rows, self.cols);
        self.add_row_broadcast_into(bias, &mut out);
        out
    }

    /// [`Tensor::add_row_broadcast`] into `out` (same shape as `self`).
    pub fn add_row_broadcast_into(&self, bias: &Self, out: &mut Self) {
        assert_eq!(bias.rows, 1, "bias must be a single row");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "shape mismatch in add_row_broadcast"
        );
        for r in 0..self.rows {
            for ((o, &x), &b) in out.row_mut(r).iter_mut().zip(self.row(r)).zip(&bias.data) {
                *o = x + b;
            }
        }
    }

    /// Rectified linear unit, into a new tensor.
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// In-place rectified linear unit: `x = max(x, 0)` elementwise.
    ///
    /// The allocation-free form used by forward passes that own their
    /// activations (the distributed update step, inference paths).
    /// Bitwise identical to [`Tensor::relu`].
    pub fn relu_inplace(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// Matrix product `self · other`.
    ///
    /// Large products run blocked/tiled — see [`Tensor::matmul_naive`]
    /// for the reference kernel this is measured against. B is packed
    /// once into L1-sized `KC×NC` panels; each `MC`-row block of the
    /// output (the unit of pool parallelism) then re-reads a hot panel
    /// instead of streaming all of B from memory per row, and an
    /// `NR`-wide register tile keeps output accumulators out of memory
    /// across each K-tile. The K loop is tiled in fixed ascending order
    /// independent of threading, so for every output element the
    /// products accumulate in exactly the naive kernel's order: the
    /// result is **bitwise identical** to [`Tensor::matmul_naive`] for
    /// any `FLEXGRAPH_THREADS`. Small products (under
    /// [`MATMUL_TILE_CUTOFF`] flops) skip tiling entirely.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Accumulating form of [`Tensor::matmul`]: `out += self · other`
    /// for a caller-provided `self.rows × other.cols` `out` (zeroed, for
    /// the plain product).
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape");
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        if 2 * m * k * n < MATMUL_TILE_CUTOFF {
            matmul_rows_serial(&self.data, &other.data, &mut out.data, k, n, 0..m);
            return;
        }

        let a = &self.data;
        // All-zero rows (isolated vertices, padded batches) are common
        // enough to test for, but the test must cover the *whole* row —
        // skipping per K-tile would elide `0.0 * x` additions the naive
        // kernel performs (visible through -0.0 and non-finite values).
        let nonzero: Vec<bool> = (0..m)
            .map(|r| a[r * k..(r + 1) * k].iter().any(|&v| v != 0.0))
            .collect();
        let bpack = pack_b_tiles(&other.data, k, n);

        let out_ptr = SendPtr::new(out.data.as_mut_ptr());
        let tiles_n = n.div_ceil(NC);
        let tiles_k = k.div_ceil(KC);
        parallel_ranges(m, MC, |range| {
            let mut live = Vec::with_capacity(MC);
            let mut b0 = range.start;
            while b0 < range.end {
                let b1 = (b0 + MC).min(range.end);
                // The micro-kernel wants `MR` rows at a time so each
                // B-tile row it loads is reused `MR`-fold; zero rows are
                // filtered out up front so groups are always full of
                // live rows (they need not be adjacent in A).
                live.clear();
                live.extend((b0..b1).filter(|&r| nonzero[r]));
                // Tile loops outside the row loop: one `KC×NC` panel
                // stays L1-hot while all rows of the block consume it.
                for nt in 0..tiles_n {
                    let ncs = nt * NC;
                    let nb = NC.min(n - ncs);
                    let stripe = &bpack[k * ncs..k * ncs + k * nb];
                    for kt in 0..tiles_k {
                        let kcs = kt * KC;
                        let kb = KC.min(k - kcs);
                        let tile = &stripe[kcs * nb..kcs * nb + kb * nb];
                        for grp in live.chunks(MR) {
                            // SAFETY: each row belongs to exactly one
                            // dispatched range and appears once in
                            // `live`; ranges are disjoint.
                            let orow = |r: usize| unsafe {
                                std::slice::from_raw_parts_mut(out_ptr.get().add(r * n + ncs), nb)
                            };
                            if let Ok(rs) = <[usize; MR]>::try_from(grp) {
                                let at = rs.map(|r| &a[r * k + kcs..r * k + kcs + kb]);
                                matmul_micro_m(at, tile, rs.map(orow), nb);
                            } else {
                                for &r in grp {
                                    let atile = &a[r * k + kcs..r * k + kcs + kb];
                                    matmul_micro(atile, tile, orow(r), nb);
                                }
                            }
                        }
                    }
                }
                b0 = b1;
            }
        });
    }

    /// Reference matrix product: the seed's single-threaded triple loop
    /// (row-major, K-major inner, zero-row hoist). Kept as the ground
    /// truth the tiled [`Tensor::matmul`] is bitwise-compared against
    /// and the baseline `dense_baseline` measures speedups over.
    pub fn matmul_naive(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return out;
        }
        matmul_rows_serial(&self.data, &other.data, &mut out.data, k, n, 0..m);
        out
    }

    /// Transpose into a new tensor, in `TB×TB` cache blocks.
    ///
    /// The seed walked the source row-major and the destination with a
    /// `rows`-element stride — one cache line touched per element on
    /// the write side. Blocking turns one `TB×TB` tile at a time so
    /// both sides stay within L1; the output is identical (a transpose
    /// is pure data movement), and row-chunks of the output are
    /// computed independently through the worker pool. Small matrices
    /// (under [`TRANSPOSE_TILE_CUTOFF`] elements) take the unblocked
    /// loop.
    pub fn transpose(&self) -> Self {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into a caller-provided `cols × rows` `out`.
    pub fn transpose_into(&self, out: &mut Self) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(out.shape(), (cols, rows), "transpose output shape");
        if rows * cols < TRANSPOSE_TILE_CUTOFF {
            return self.transpose_naive_into(out);
        }
        let src = &self.data;
        parallel_for(cols, out.data.as_mut_slice(), rows, |c0, chunk| {
            let ncols = chunk.len() / rows;
            for cb in (0..ncols).step_by(TB) {
                let cbe = (cb + TB).min(ncols);
                for rb in (0..rows).step_by(TB) {
                    let rbe = (rb + TB).min(rows);
                    for ci in cb..cbe {
                        let orow = &mut chunk[ci * rows..(ci + 1) * rows];
                        let c = c0 + ci;
                        for r in rb..rbe {
                            orow[r] = src[r * cols + c];
                        }
                    }
                }
            }
        });
    }

    /// Reference transpose: the seed's unblocked double loop. Kept for
    /// the `dense_baseline` bench's naive-vs-tiled comparison.
    pub fn transpose_naive(&self) -> Self {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_naive_into(&mut out);
        out
    }

    fn transpose_naive_into(&self, out: &mut Self) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Horizontal concatenation `[self | other]` (equal row counts).
    pub fn concat_cols(&self, other: &Self) -> Self {
        let mut out = Tensor::zeros(self.rows, self.cols + other.cols);
        self.concat_cols_into(other, &mut out);
        out
    }

    /// [`Tensor::concat_cols`] into a caller-provided `out`.
    pub fn concat_cols_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.rows, other.rows, "concat_cols needs equal row counts");
        assert_eq!(
            out.shape(),
            (self.rows, self.cols + other.cols),
            "concat_cols output shape"
        );
        for r in 0..self.rows {
            let (left, right) = out.row_mut(r).split_at_mut(self.cols);
            left.copy_from_slice(self.row(r));
            right.copy_from_slice(other.row(r));
        }
    }

    /// Copies columns `start..start + out.cols()` of every row into
    /// `out` (one side of the inverse of [`Tensor::concat_cols`]).
    pub fn slice_cols_into(&self, start: usize, out: &mut Self) {
        assert_eq!(out.rows, self.rows, "slice_cols needs equal row counts");
        assert!(start + out.cols <= self.cols, "column slice out of range");
        for r in 0..self.rows {
            let cols = out.cols;
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + cols]);
        }
    }

    /// Vertical concatenation (equal column counts). Allocates the
    /// exact output size once (the seed cloned `self`'s buffer and then
    /// grew it, paying a reallocation plus copy on every call).
    pub fn concat_rows(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "concat_rows needs equal col counts");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum, producing a `1×cols` tensor (used as the matmul
    /// bias gradient).
    pub fn sum_rows(&self) -> Self {
        let mut out = Tensor::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Accumulating form of [`Tensor::sum_rows`]: adds every row into
    /// the caller-provided `1×cols` `out`.
    pub fn sum_rows_into(&self, out: &mut Self) {
        assert_eq!(out.shape(), (1, self.cols), "sum_rows output shape");
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Row-wise sum, producing an `rows×1` tensor (used as an attention
    /// score).
    pub fn sum_cols(&self) -> Self {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Per-row index of the maximum element (ties resolve to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference against another tensor of equal shape.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Row-wise softmax into a new tensor (numerically stabilized).
    pub fn softmax_rows(&self) -> Self {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`Tensor::softmax_rows`] into a caller-provided `out` of the
    /// same shape.
    pub fn softmax_rows_into(&self, out: &mut Self) {
        assert_eq!(self.shape(), out.shape(), "shape mismatch in softmax_rows");
        for r in 0..self.rows {
            let src = self.row(r);
            let row = out.row_mut(r);
            let m = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for (x, &s) in row.iter_mut().zip(src) {
                *x = simd::exp(s - m);
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
    }

    /// Heap bytes held by the tensor buffer (used by the memory harnesses).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

/// The seed's matmul inner loops, over an arbitrary row range: K-major
/// with the right operand read row-wise (sequential, so the compiler
/// vectorizes the multiply-accumulate), plus the whole-row zero hoist.
/// Every per-element accumulation is the left-associated ascending-K
/// chain the tiled kernel must reproduce exactly.
fn matmul_rows_serial(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
) {
    for r in rows {
        let arow = &a[r * k..(r + 1) * k];
        if arow.iter().all(|&av| av == 0.0) {
            continue;
        }
        let orow = &mut out[r * n..(r + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Packs a `k×n` row-major B into tile-blocked layout: column stripes of
/// width `NC` stored contiguously (stripe `nt` starts at `k * nt*NC`),
/// each stripe holding its `KC`-deep tiles in ascending K order (tile
/// `kt` at offset `kt*KC * nb` within the stripe, row-major `kb×nb`).
/// Total size is exactly `k*n`; edge tiles are narrower, never padded.
fn pack_b_tiles(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    let tiles_n = n.div_ceil(NC);
    let ptr = SendPtr::new(packed.as_mut_ptr());
    parallel_ranges(tiles_n, 1, |stripes| {
        for nt in stripes {
            let ncs = nt * NC;
            let nb = NC.min(n - ncs);
            // SAFETY: stripe `nt` is written by exactly one range.
            let stripe = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(k * ncs), k * nb) };
            for (kk, dst) in stripe.chunks_exact_mut(nb).enumerate() {
                dst.copy_from_slice(&b[kk * n + ncs..kk * n + ncs + nb]);
            }
        }
    });
    packed
}

/// Micro-kernel: accumulate one row's contribution from one packed
/// `kb×nb` B-tile into `ostripe`. `NR` accumulators live in registers
/// across the whole K-tile; the ragged tail runs the same ascending-K,
/// one-product-at-a-time order, so the accumulation chain per output
/// element is identical to [`matmul_rows_serial`]'s. The per-K
/// multiply-accumulate is the SIMD backend's [`simd::mul_add_assign`]
/// — separate mul and add (never FMA), lanes over independent columns,
/// so it is bitwise-equal to the scalar chain.
#[inline]
fn matmul_micro(atile: &[f32], tile: &[f32], ostripe: &mut [f32], nb: usize) {
    let mut j = 0;
    while j + NR <= nb {
        let mut acc = [0.0f32; NR];
        acc.copy_from_slice(&ostripe[j..j + NR]);
        for (kk, &av) in atile.iter().enumerate() {
            let brow = &tile[kk * nb + j..kk * nb + j + NR];
            simd::mul_add_assign(&mut acc, av, brow);
        }
        ostripe[j..j + NR].copy_from_slice(&acc);
        j += NR;
    }
    if j < nb {
        for (kk, &av) in atile.iter().enumerate() {
            let brow = &tile[kk * nb + j..(kk + 1) * nb];
            simd::mul_add_assign(&mut ostripe[j..], av, brow);
        }
    }
}

/// Multi-row micro-kernel: identical per-row semantics to
/// [`matmul_micro`], but each B row loaded from the L1-resident tile
/// feeds `M` output rows' accumulators before the next load. Rows are
/// independent, so interleaving them changes no accumulation chain.
/// Instantiated at `M = MR`; generic so the register-tile height is one
/// constant away from retuning.
#[inline]
fn matmul_micro_m<const M: usize>(
    at: [&[f32]; M],
    tile: &[f32],
    mut os: [&mut [f32]; M],
    nb: usize,
) {
    let kb = at[0].len();
    let mut j = 0;
    while j + NR <= nb {
        let mut acc = [[0.0f32; NR]; M];
        for (a, o) in acc.iter_mut().zip(os.iter()) {
            a.copy_from_slice(&o[j..j + NR]);
        }
        for kk in 0..kb {
            let brow = &tile[kk * nb + j..kk * nb + j + NR];
            for (arow, a) in at.iter().zip(acc.iter_mut()) {
                simd::mul_add_assign(a, arow[kk], brow);
            }
        }
        for (a, o) in acc.iter().zip(os.iter_mut()) {
            o[j..j + NR].copy_from_slice(a);
        }
        j += NR;
    }
    if j < nb {
        for (arow, o) in at.iter().zip(os.iter_mut()) {
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &tile[kk * nb + j..(kk + 1) * nb];
                simd::mul_add_assign(&mut o[j..], av, brow);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[&[1.0, 1.0], &[0.0, 1.0], &[2.0, 0.0]]);
        assert_eq!(a.matmul(&b), Tensor::from_rows(&[&[5.0, 1.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Tensor::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.sub(&b), Tensor::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(a.mul(&b), Tensor::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.relu(), Tensor::from_rows(&[&[1.0, 0.0]]));
        assert_eq!(a.scale(2.0), Tensor::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    fn broadcast_bias() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(
            a.add_row_broadcast(&b),
            Tensor::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let b = Tensor::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(
            a.concat_cols(&b),
            Tensor::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]])
        );
        assert_eq!(
            a.concat_rows(&b),
            Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]])
        );
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows(), Tensor::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.sum_cols(), Tensor::from_rows(&[&[3.0], &[7.0]]));
        assert_eq!(a.argmax_rows(), vec![1, 1]);
    }

    #[test]
    fn reshape_preserves_buffer() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let b = a.clone().reshape_rows(2, 2);
        assert_eq!(b, Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn softmax_rows_is_normalized() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large-but-equal logits must not overflow to NaN.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn large_parallel_matmul_matches_serial_reference() {
        // Exercise the parallel path with enough rows to split chunks.
        let m = 67;
        let k = 31;
        let n = 13;
        let a = Tensor::from_vec(m, k, (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect());
        let c = a.matmul(&b);
        // Serial reference.
        let mut expect = Tensor::zeros(m, n);
        for r in 0..m {
            for kk in 0..k {
                for cc in 0..n {
                    let v = expect.get(r, cc) + a.get(r, kk) * b.get(kk, cc);
                    expect.set(r, cc, v);
                }
            }
        }
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }

    /// Deterministic pseudo-random fill (xorshift-mixed LCG).
    fn fill(t: &mut Tensor, mut seed: u64) {
        for x in t.data_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = ((seed >> 40) as f32 / 8_388_608.0) - 1.0;
        }
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at flat index {i}");
        }
    }

    #[test]
    fn tiled_matmul_bitwise_matches_naive() {
        // Above MATMUL_TILE_CUTOFF, with ragged edges in every tile
        // dimension (m % MC, k % KC, n % NC, n % NR all nonzero).
        let (m, k, n) = (67, 131, 83);
        assert!(2 * m * k * n >= MATMUL_TILE_CUTOFF);
        let mut a = Tensor::zeros(m, k);
        let mut b = Tensor::zeros(k, n);
        fill(&mut a, 0x5eed);
        fill(&mut b, 0xfeed);
        // Zero rows exercise the hoist; -0.0 rows must NOT be hoisted
        // (they change output sign bits) and must match naive exactly.
        a.data_mut()[3 * k..4 * k].fill(0.0);
        a.data_mut()[65 * k..66 * k].fill(-0.0);
        assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn tiled_matmul_matches_naive_with_nonfinite_values() {
        let (m, k, n) = (65, 129, 80);
        assert!(2 * m * k * n >= MATMUL_TILE_CUTOFF);
        let mut a = Tensor::zeros(m, k);
        let mut b = Tensor::zeros(k, n);
        fill(&mut a, 1);
        fill(&mut b, 2);
        a.data_mut()[7 * k + 1] = f32::INFINITY;
        a.data_mut()[40 * k + 128] = f32::NEG_INFINITY;
        b.data_mut()[12 * n + 79] = f32::INFINITY;
        assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        // Above TRANSPOSE_TILE_CUTOFF so the blocked path actually
        // runs, ragged against the 32-element block edge on both sides.
        let mut t = Tensor::zeros(403, 331);
        assert!(t.len() >= TRANSPOSE_TILE_CUTOFF);
        fill(&mut t, 42);
        assert_bits_eq(&t.transpose(), &t.transpose_naive());
        assert_bits_eq(&t.transpose().transpose(), &t);
        // Below the cutoff both paths are literally the same loop.
        let mut s = Tensor::zeros(67, 129);
        fill(&mut s, 43);
        assert_bits_eq(&s.transpose(), &s.transpose_naive());
    }

    #[test]
    fn relu_inplace_matches_relu_including_negative_zero() {
        let mut t = Tensor::from_rows(&[&[-1.0, -0.0, 0.0, 2.0]]);
        let by_value = t.relu();
        t.relu_inplace();
        assert_bits_eq(&t, &by_value);
        // Whatever sign bit max(-0.0, 0.0) picks, both paths must agree
        // (checked above) and the value must clamp to zero.
        assert_eq!(t.get(0, 1), 0.0);
    }
}
