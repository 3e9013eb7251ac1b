//! Sparse scatter reductions and row gather, executed through cached
//! [`ScatterPlan`]s.
//!
//! These are the tensor-level primitives that GAS-like GNN frameworks use
//! for neighborhood aggregation (paper §3.3, Figure 8): a `value` tensor
//! holds one row per edge, an `index` array holds the destination of each
//! row, and every row with the same destination is reduced into one output
//! row. The paper's "SA" baseline strategy (§7.5) is built exactly from
//! these; FlexGraph's feature-fusion path avoids materializing the `value`
//! tensor in the first place.
//!
//! # Plans
//!
//! The seed implementation walked the COO index edge-by-edge, which is
//! inherently serial (multiple edges race on one destination row) and
//! re-derives the destination grouping on every call. A [`ScatterPlan`]
//! converts the COO index once into CSC-style form — per-destination
//! segment `offsets` plus a stable edge permutation `perm` — after which
//! every kernel is a *destination-owned parallel segment reduction*: each
//! thread owns a disjoint range of destination rows, so there are no
//! write races and no atomics, and each segment is still reduced in
//! original edge order, so results are **bitwise identical** to the
//! serial kernel for any `FLEXGRAPH_THREADS`. Plans are cached by the
//! HDG/graph layers and reused across layers and epochs.
//!
//! The serial seed kernels are kept as `*_serial` references for tests
//! and benchmarks.

use crate::fusion::{segment_apply_into, Reduce};
use crate::par::{num_threads, parallel_for, parallel_ranges};
use crate::simd;
use crate::tensor::Tensor;

/// Work threshold (in `f32` elements touched) below which kernels stay
/// serial; mirrors the cutoff in [`crate::par::parallel_for`].
const PAR_CUTOFF: usize = 16 * 1024;

/// Value-tensor footprint above which the permuted gather of the
/// segment walk stops being cache-resident and an edge-order scan
/// (sequential value reads) wins. Tuned on the scatter baseline;
/// roughly "larger than a per-core L2".
const EDGE_SCAN_MIN_VALUE_BYTES: usize = 4 << 20;

/// Output footprint below which the edge-order scan's random
/// destination writes stay cache-resident. Above this, random writes
/// cost as much as the random reads they replace and the segment walk
/// (sequential writes, prefetched gather) wins again.
const EDGE_SCAN_MAX_OUT_BYTES: usize = 2 << 20;

/// Chooses between the two bitwise-identical walk orders of a planned
/// scatter: `true` selects the destination-owned *edge-order scan*
/// (stream `values`, write into a cache-resident output), `false` the
/// fused *segment walk* (gather `values` through `perm`, stream the
/// output). Purely a planning decision — both walks reduce every
/// destination in ascending original-edge order, so the result is
/// bit-identical either way.
fn edge_scan_profitable(edges: usize, out_rows: usize, d: usize) -> bool {
    let value_bytes = edges * d * std::mem::size_of::<f32>();
    let out_bytes = out_rows * d * std::mem::size_of::<f32>();
    value_bytes >= EDGE_SCAN_MIN_VALUE_BYTES && out_bytes <= EDGE_SCAN_MAX_OUT_BYTES
}

/// Destination-owned edge-order scan: every thread walks the full COO
/// `index` in original edge order and accumulates only the rows whose
/// destination falls in its chunk. Value rows are read *sequentially*
/// (the access pattern the serial reference enjoys), destination rows
/// are written randomly but stay cache-resident by the
/// [`edge_scan_profitable`] precondition. Per destination the
/// accumulation order is ascending edge order — exactly the segment
/// walk's order — so the two walks are bitwise interchangeable.
///
/// For `Max`/`Min` the chunk is first filled with the `±∞` sentinel;
/// callers rewrite surviving sentinels to zero (the serial reference's
/// convention, which also zeroes empty destinations).
fn scatter_edge_scan_into(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan, kind: Reduce) {
    let d = out.cols();
    let index: &[u32] = &plan.index;
    let offsets: &[usize] = &plan.offsets;
    let vdata = values.data();
    parallel_for(plan.out_rows, out.data_mut(), d, |r0, chunk| {
        let rows = chunk.len() / d;
        // With one chunk every destination is owned: skip the test.
        let full = rows == plan.out_rows;
        if matches!(kind, Reduce::Max | Reduce::Min) {
            let init = if kind == Reduce::Max {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            };
            chunk.fill(init);
        }
        for (e, &dst) in index.iter().enumerate() {
            let dst = dst as usize;
            if !full && (dst < r0 || dst >= r0 + rows) {
                continue;
            }
            let lo = (dst - r0) * d;
            // SAFETY: the plan validated every `dst < out_rows` at build
            // time and this chunk owns rows `r0..r0 + rows`; `values`
            // has one `d`-wide row per edge (checked by the caller).
            let orow = unsafe { chunk.get_unchecked_mut(lo..lo + d) };
            let srow = unsafe { vdata.get_unchecked(e * d..e * d + d) };
            match kind {
                Reduce::Sum | Reduce::Mean => simd::add_assign(orow, srow),
                Reduce::Max => simd::max_assign(orow, srow),
                Reduce::Min => simd::min_assign(orow, srow),
            }
        }
        if kind == Reduce::Mean {
            for (r, orow) in chunk.chunks_mut(d).enumerate() {
                let c = offsets[r0 + r + 1] - offsets[r0 + r];
                if c > 0 {
                    simd::scale_assign(orow, 1.0 / c as f32);
                }
            }
        }
    });
}

/// A reusable execution plan for scatter kernels over one COO index.
///
/// Holds the destination index itself (for backward gathers), the
/// per-destination segment `offsets` (CSC-style), and the stable
/// permutation `perm` grouping edge ids by destination while preserving
/// original edge order within each destination. Building is `O(E +
/// out_rows)`; once built, a plan serves every scatter kernel, the
/// autograd backward, and the distributed partial-aggregation fold.
#[derive(Clone, PartialEq, Eq)]
pub struct ScatterPlan {
    out_rows: usize,
    index: Vec<u32>,
    offsets: Vec<usize>,
    perm: Vec<u32>,
}

impl ScatterPlan {
    /// Builds a plan from a COO destination index via a stable counting
    /// sort. Panics if any index is out of range, matching the eager
    /// validation of the unplanned kernels.
    pub fn new(index: &[u32], out_rows: usize) -> Self {
        if let Some(&m) = index.iter().max() {
            assert!(
                (m as usize) < out_rows,
                "scatter index {m} out of range for {out_rows} output rows"
            );
        }
        let mut offsets = vec![0usize; out_rows + 1];
        for &dst in index {
            offsets[dst as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<usize> = offsets[..out_rows].to_vec();
        let mut perm = vec![0u32; index.len()];
        for (e, &dst) in index.iter().enumerate() {
            let c = &mut cursor[dst as usize];
            perm[*c] = e as u32;
            *c += 1;
        }
        ScatterPlan {
            out_rows,
            index: index.to_vec(),
            offsets,
            perm,
        }
    }

    /// Number of output (destination) rows.
    pub fn out_rows(&self) -> usize {
        self.out_rows
    }

    /// Number of edges (value rows) the plan covers.
    pub fn num_edges(&self) -> usize {
        self.index.len()
    }

    /// The original COO destination index.
    pub fn index(&self) -> &[u32] {
        &self.index
    }

    /// Per-destination segment offsets (length `out_rows + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Edge ids grouped by destination, original edge order within each
    /// destination.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Edge ids targeting destination `dst`, in original edge order.
    pub fn segment(&self, dst: usize) -> &[u32] {
        &self.perm[self.offsets[dst]..self.offsets[dst + 1]]
    }

    /// Number of edges targeting destination `dst`.
    pub fn count(&self, dst: usize) -> usize {
        self.offsets[dst + 1] - self.offsets[dst]
    }

    /// Bytes of heap this plan holds.
    pub fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
            + self.perm.capacity() * std::mem::size_of::<u32>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }

    fn check_values(&self, values: &Tensor) {
        assert_eq!(
            values.rows(),
            self.num_edges(),
            "scatter needs one index per value row"
        );
    }
}

impl std::fmt::Debug for ScatterPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterPlan")
            .field("out_rows", &self.out_rows)
            .field("num_edges", &self.index.len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Planned kernels (parallel, destination-owned, bitwise-deterministic).
// ---------------------------------------------------------------------

/// Runs one planned reduction through whichever walk order the shape
/// heuristic prefers; both orders are bitwise-identical by contract.
fn scatter_reduce_with_plan(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan, kind: Reduce) {
    if edge_scan_profitable(plan.num_edges(), plan.out_rows, values.cols()) {
        scatter_edge_scan_into(out, values, plan, kind);
    } else {
        segment_apply_into(out, &plan.offsets, kind, values, |e| plan.perm[e] as usize);
    }
}

/// Planned [`scatter_add`]: sums value rows per destination segment.
pub fn scatter_add_with_plan(values: &Tensor, plan: &ScatterPlan) -> Tensor {
    let mut out = Tensor::zeros(plan.out_rows, values.cols());
    scatter_add_with_plan_into(&mut out, values, plan);
    out
}

/// Accumulating form of [`scatter_add_with_plan`]: adds into a
/// caller-provided `out_rows × values.cols()` `out`.
pub fn scatter_add_with_plan_into(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan) {
    scatter_checked_with_plan(out, values, plan, Reduce::Sum);
}

/// Planned [`scatter_mean`].
pub fn scatter_mean_with_plan(values: &Tensor, plan: &ScatterPlan) -> Tensor {
    let mut out = Tensor::zeros(plan.out_rows, values.cols());
    scatter_mean_with_plan_into(&mut out, values, plan);
    out
}

/// [`scatter_mean_with_plan`] into a caller-provided, zeroed `out`.
pub fn scatter_mean_with_plan_into(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan) {
    scatter_checked_with_plan(out, values, plan, Reduce::Mean);
}

/// Checks shapes and runs one planned reduction into a zeroed `out`.
fn scatter_checked_with_plan(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan, kind: Reduce) {
    plan.check_values(values);
    assert_eq!(
        out.shape(),
        (plan.out_rows, values.cols()),
        "scatter output shape"
    );
    scatter_reduce_with_plan(out, values, plan, kind);
}

/// Planned [`scatter_max`].
pub fn scatter_max_with_plan(values: &Tensor, plan: &ScatterPlan) -> Tensor {
    scatter_extreme_with_plan(values, plan, Reduce::Max, f32::NEG_INFINITY)
}

/// Planned [`scatter_min`].
pub fn scatter_min_with_plan(values: &Tensor, plan: &ScatterPlan) -> Tensor {
    scatter_extreme_with_plan(values, plan, Reduce::Min, f32::INFINITY)
}

fn scatter_extreme_with_plan(
    values: &Tensor,
    plan: &ScatterPlan,
    kind: Reduce,
    init: f32,
) -> Tensor {
    let mut out = Tensor::zeros(plan.out_rows, values.cols());
    scatter_checked_with_plan(&mut out, values, plan, kind);
    // The serial reference folds from a ±∞ sentinel and rewrites any
    // surviving sentinel to zero; replicate that so results match
    // elementwise even for infinite inputs. (Empty destinations are
    // zero after the segment walk and sentinel-valued after the edge
    // scan — the rewrite normalizes both.)
    for x in out.data_mut() {
        if *x == init {
            *x = 0.0;
        }
    }
    out
}

/// Fused gather+scatter-add: `out[d] += Σ src[edge_rows[e]]` over the
/// plan's segment of `d`, without materializing the gathered rows.
///
/// This is the same destination-owned primitive the distributed
/// pipeline's partial-aggregation fold uses: `plan` groups edges by
/// destination slot and `edge_rows[e]` names the source row of edge `e`.
/// Accumulates into `out` (callers zero it or fold into running sums).
pub fn scatter_add_gathered_into(
    out: &mut Tensor,
    src: &Tensor,
    edge_rows: &[u32],
    plan: &ScatterPlan,
) {
    assert_eq!(
        edge_rows.len(),
        plan.num_edges(),
        "scatter needs one source row per edge"
    );
    assert_eq!(out.rows(), plan.out_rows, "output rows must match plan");
    if let Some(&m) = edge_rows.iter().max() {
        assert!((m as usize) < src.rows(), "source row {m} out of range");
    }
    segment_apply_into(out, &plan.offsets, Reduce::Sum, src, |e| {
        edge_rows[plan.perm[e] as usize] as usize
    });
}

/// Planned [`scatter_softmax`].
pub fn scatter_softmax_with_plan(values: &Tensor, plan: &ScatterPlan) -> Tensor {
    let mut out = Tensor::zeros(values.rows(), values.cols());
    scatter_softmax_with_plan_into(&mut out, values, plan);
    out
}

/// [`scatter_softmax_with_plan`] into a caller-provided `out` shaped
/// like `values`, which is overwritten.
pub fn scatter_softmax_with_plan_into(out: &mut Tensor, values: &Tensor, plan: &ScatterPlan) {
    softmax_segments(out, None, values, plan);
}

/// Fused attention pooling (the instance → metapath-type level of the
/// paper's MAGNN, Figure 7): `pooled[d] = Σ_{e ∈ seg(d)} softmax_seg(x)_e
/// ⊙ x_e`, together with the normalised weights the backward needs.
///
/// One destination-owned pass per segment performs exactly the
/// operations, in exactly the order, of [`scatter_softmax_with_plan`] →
/// elementwise product → [`scatter_add_with_plan`], so `pooled` is
/// bit-identical to that chain — without writing and re-reading the
/// edge-shaped product, and with each group's rows still in cache when
/// they are weighted.
///
/// Writes into caller-provided `pooled` (`out_rows × d`) and `weights`
/// (shaped like `values`); both are overwritten.
pub fn scatter_softmax_pool_with_plan_into(
    pooled: &mut Tensor,
    weights: &mut Tensor,
    values: &Tensor,
    plan: &ScatterPlan,
) {
    assert_eq!(
        pooled.shape(),
        (plan.out_rows, values.cols()),
        "pooled output shape"
    );
    softmax_segments(weights, Some(pooled), values, plan);
}

/// The per-segment softmax behind both kernels above; with `pooled`
/// it also accumulates each segment's weighted rows, from zero, in
/// plan (= original edge) order.
///
/// `weights` is edge-shaped, so the kernel parallelizes over
/// destination segments and writes each edge row through a shared
/// pointer: safe because `perm` partitions the edge set — exactly one
/// destination (hence one thread) owns each edge row.
fn softmax_segments(
    weights: &mut Tensor,
    mut pooled: Option<&mut Tensor>,
    values: &Tensor,
    plan: &ScatterPlan,
) {
    plan.check_values(values);
    assert_eq!(weights.shape(), values.shape(), "softmax output shape");
    let d = values.cols();
    if let Some(p) = pooled.as_deref_mut() {
        p.data_mut().fill(0.0); // Empty destinations stay zero.
    }
    if d == 0 || values.rows() == 0 {
        return;
    }
    let shared = SharedRows::new(weights);
    let pooled = pooled.map(SharedRows::new);
    for_destination_ranges(plan, d, |range| {
        let mut maxes = vec![0.0f32; d];
        let mut sums = vec![0.0f32; d];
        for dst in range {
            let seg = plan.segment(dst);
            if seg.is_empty() {
                continue;
            }
            // Column max over the segment, in edge order, from the same
            // -∞ sentinel (rewritten to 0 if it survives) as the serial
            // reference — keeps elementwise parity on infinite inputs.
            maxes.fill(f32::NEG_INFINITY);
            for &e in seg {
                for (m, &s) in maxes.iter_mut().zip(values.row(e as usize)) {
                    *m = m.max(s);
                }
            }
            for m in maxes.iter_mut() {
                if *m == f32::NEG_INFINITY {
                    *m = 0.0;
                }
            }
            // Stabilized exponentials and their segment sums.
            sums.fill(0.0);
            for &e in seg {
                // SAFETY: each edge row belongs to exactly one
                // destination segment, and destinations are partitioned
                // across threads, so this row is written by this thread
                // only.
                let row = unsafe { shared.row(e as usize) };
                simd::exp_sub_into(row, values.row(e as usize), &maxes);
                simd::add_assign(&mut sums, row);
            }
            // SAFETY: destination row `dst` is in this thread's range.
            let mut acc = pooled.as_ref().map(|p| unsafe { p.row(dst) });
            // Normalize, and pool the weighted rows while they are hot.
            for &e in seg {
                // SAFETY: as for the exponentials above.
                let row = unsafe { shared.row(e as usize) };
                for (x, &z) in row.iter_mut().zip(sums.iter()) {
                    if z > 0.0 {
                        *x /= z;
                    }
                }
                if let Some(acc) = acc.as_deref_mut() {
                    for ((a, &w), &v) in acc.iter_mut().zip(row.iter()).zip(values.row(e as usize))
                    {
                        *a += w * v;
                    }
                }
            }
        }
    });
}

/// Adjoint of [`scatter_softmax_with_plan`]: with `s` the forward
/// output and `g` the gradient arriving at it (both edge-shaped),
/// `grad_in[e] = s[e] ⊙ (g[e] − Σ_{j ∈ seg} g[j] ⊙ s[j])`, the sum
/// running from zero in plan order. Overwrites `grad_in`.
pub fn scatter_softmax_backward_into(
    grad_in: &mut Tensor,
    grad_out: &Tensor,
    s: &Tensor,
    plan: &ScatterPlan,
) {
    plan.check_values(s);
    assert_eq!(grad_out.shape(), s.shape(), "softmax gradient shape");
    assert_eq!(grad_in.shape(), s.shape(), "softmax input-gradient shape");
    let d = s.cols();
    if d == 0 || s.rows() == 0 {
        return;
    }
    let shared = SharedRows::new(grad_in);
    for_destination_ranges(plan, d, |range| {
        let mut sums = vec![0.0f32; d];
        for dst in range {
            let seg = plan.segment(dst);
            sums.fill(0.0);
            for &e in seg {
                let (g, s) = (grad_out.row(e as usize), s.row(e as usize));
                for ((z, &g), &s) in sums.iter_mut().zip(g).zip(s) {
                    *z += g * s;
                }
            }
            for &e in seg {
                // SAFETY: `perm` partitions the edge rows among
                // destinations and destinations among threads, so this
                // row is written by this thread only.
                let row = unsafe { shared.row(e as usize) };
                let (g, s) = (grad_out.row(e as usize), s.row(e as usize));
                for (((x, &g), &s), &z) in row.iter_mut().zip(g).zip(s).zip(sums.iter()) {
                    *x = s * (g - z);
                }
            }
        }
    });
}

/// Adjoint of [`scatter_softmax_pool_with_plan_into`] with respect to
/// `values`: with `g = grad_out[d]` the gradient of destination `d`,
/// `x` its segment's input rows and `s` their forward weights,
/// `grad_in[e] = g ⊙ s_e + s_e ⊙ (g ⊙ x_e − Σ_j (g ⊙ x_j) ⊙ s_j)` —
/// the association of the unfused chain's `Mul`-then-softmax backward,
/// so the result is bit-identical to it, with no `exp`. Overwrites
/// `grad_in`.
pub fn scatter_softmax_pool_backward_into(
    grad_in: &mut Tensor,
    grad_out: &Tensor,
    values: &Tensor,
    weights: &Tensor,
    plan: &ScatterPlan,
) {
    plan.check_values(values);
    assert_eq!(weights.shape(), values.shape(), "pool weights shape");
    assert_eq!(grad_in.shape(), values.shape(), "pool input-gradient shape");
    assert_eq!(
        grad_out.shape(),
        (plan.out_rows, values.cols()),
        "pool gradient shape"
    );
    let d = values.cols();
    if d == 0 || values.rows() == 0 {
        return;
    }
    let shared = SharedRows::new(grad_in);
    for_destination_ranges(plan, d, |range| {
        let mut sums = vec![0.0f32; d];
        for dst in range {
            let seg = plan.segment(dst);
            let g = grad_out.row(dst);
            sums.fill(0.0);
            for &e in seg {
                let (x, s) = (values.row(e as usize), weights.row(e as usize));
                for (((z, &g), &x), &s) in sums.iter_mut().zip(g).zip(x).zip(s) {
                    *z += (g * x) * s;
                }
            }
            for &e in seg {
                // SAFETY: `perm` partitions the edge rows among
                // destinations and destinations among threads, so this
                // row is written by this thread only.
                let row = unsafe { shared.row(e as usize) };
                let (x, s) = (values.row(e as usize), weights.row(e as usize));
                for ((((o, &g), &x), &s), &z) in
                    row.iter_mut().zip(g).zip(x).zip(s).zip(sums.iter())
                {
                    *o = g * s + s * (g * x - z);
                }
            }
        }
    });
}

/// Runs `process` over destination ranges of `plan`: the whole range
/// inline for small work or one thread, disjoint sub-ranges on the pool
/// otherwise.
fn for_destination_ranges(
    plan: &ScatterPlan,
    d: usize,
    process: impl Fn(std::ops::Range<usize>) + Sync,
) {
    if num_threads() <= 1 || plan.num_edges().saturating_mul(d) < PAR_CUTOFF {
        process(0..plan.out_rows);
    } else {
        parallel_ranges(plan.out_rows, 1, process);
    }
}

/// Shared mutable row view for kernels whose write pattern is a
/// partition of rows proven disjoint by a [`ScatterPlan`].
struct SharedRows {
    ptr: *mut f32,
    cols: usize,
}

// SAFETY: the pointer is only dereferenced through `row`, whose callers
// guarantee that no two threads touch the same row.
unsafe impl Sync for SharedRows {}

impl SharedRows {
    /// Borrows `t` exclusively for the lifetime of the kernel call that
    /// creates the view.
    fn new(t: &mut Tensor) -> Self {
        SharedRows {
            cols: t.cols(),
            ptr: t.data_mut().as_mut_ptr(),
        }
    }

    /// # Safety
    /// The caller must guarantee no two threads touch the same `r`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, r: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.ptr.add(r * self.cols), self.cols)
    }
}

// ---------------------------------------------------------------------
// Convenience wrappers: build a one-shot plan. Hot paths (engine, HDG,
// autograd, pipeline) should cache the plan and call `*_with_plan`.
// ---------------------------------------------------------------------

fn one_shot_plan(values: &Tensor, index: &[u32], out_rows: usize) -> ScatterPlan {
    assert_eq!(
        values.rows(),
        index.len(),
        "scatter needs one index per value row"
    );
    ScatterPlan::new(index, out_rows)
}

/// Sums all value rows sharing a destination index (Figure 8 of the paper).
///
/// Output row `d` is `Σ values[i] for index[i] == d`; destinations that
/// receive no rows stay zero.
pub fn scatter_add(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_add_with_plan(values, &one_shot_plan(values, index, out_rows))
}

/// Per-destination arithmetic mean; empty destinations stay zero.
pub fn scatter_mean(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_mean_with_plan(values, &one_shot_plan(values, index, out_rows))
}

/// Per-destination, per-column maximum; empty destinations stay zero
/// (matching the convention of `pytorch_scatter` with a zero fill).
pub fn scatter_max(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_max_with_plan(values, &one_shot_plan(values, index, out_rows))
}

/// Per-destination, per-column minimum; empty destinations stay zero.
pub fn scatter_min(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_min_with_plan(values, &one_shot_plan(values, index, out_rows))
}

/// Softmax over value rows sharing a destination, per column.
///
/// The output has the shape of `values`: row `i`, column `c` becomes
/// `exp(v[i][c]) / Σ exp(v[j][c])` over all `j` with `index[j] ==
/// index[i]`. Used by MAGNN-style attention within one HDG level.
pub fn scatter_softmax(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_softmax_with_plan(values, &one_shot_plan(values, index, out_rows))
}

/// Number of value rows targeting each destination.
pub fn index_counts(index: &[u32], out_rows: usize) -> Vec<u32> {
    let mut counts = vec![0u32; out_rows];
    for &i in index {
        counts[i as usize] += 1;
    }
    counts
}

/// Gathers rows of `src` into a new tensor: output row `i` is
/// `src[idx[i]]`. This is the materialization step of sparse aggregation —
/// the memory-explosion path the paper's feature fusion removes. Parallel
/// over output rows (each thread copies a disjoint row range).
pub fn gather_rows(src: &Tensor, idx: &[u32]) -> Tensor {
    let mut out = Tensor::zeros(idx.len(), src.cols());
    gather_rows_into(&mut out, src, idx);
    out
}

/// [`gather_rows`] into a caller-provided `idx.len() × src.cols()`
/// `out`, which is overwritten.
pub fn gather_rows_into(out: &mut Tensor, src: &Tensor, idx: &[u32]) {
    let d = src.cols();
    assert_eq!(out.shape(), (idx.len(), d), "gather output shape");
    if d == 0 {
        return;
    }
    parallel_for(idx.len(), out.data_mut(), d, |r0, chunk| {
        for (i, orow) in chunk.chunks_mut(d).enumerate() {
            orow.copy_from_slice(src.row(idx[r0 + i] as usize));
        }
    });
}

// ---------------------------------------------------------------------
// Serial reference kernels (the seed implementations, edge-order COO
// walks). Kept as the ground truth that the planned parallel kernels
// are bitwise-compared against, and as the baseline the scatter bench
// measures speedups over.
// ---------------------------------------------------------------------

fn check_serial(values: &Tensor, index: &[u32], out_rows: usize) {
    assert_eq!(
        values.rows(),
        index.len(),
        "scatter needs one index per value row"
    );
    if let Some(&m) = index.iter().max() {
        assert!(
            (m as usize) < out_rows,
            "scatter index {m} out of range for {out_rows} output rows"
        );
    }
}

/// Serial reference for [`scatter_add`]: single-threaded edge-order walk.
pub fn scatter_add_serial(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    check_serial(values, index, out_rows);
    let d = values.cols();
    let mut out = Tensor::zeros(out_rows, d);
    for (i, &dst) in index.iter().enumerate() {
        let src = values.row(i);
        let o = out.row_mut(dst as usize);
        for (o, &s) in o.iter_mut().zip(src) {
            *o += s;
        }
    }
    out
}

/// Serial reference for [`scatter_mean`].
pub fn scatter_mean_serial(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    let mut out = scatter_add_serial(values, index, out_rows);
    let counts = index_counts(index, out_rows);
    for (r, &c) in counts.iter().enumerate() {
        if c > 0 {
            let inv = 1.0 / c as f32;
            for x in out.row_mut(r) {
                *x *= inv;
            }
        }
    }
    out
}

/// Serial reference for [`scatter_max`].
pub fn scatter_max_serial(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_extreme_serial(values, index, out_rows, f32::NEG_INFINITY, f32::max)
}

/// Serial reference for [`scatter_min`].
pub fn scatter_min_serial(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    scatter_extreme_serial(values, index, out_rows, f32::INFINITY, f32::min)
}

fn scatter_extreme_serial(
    values: &Tensor,
    index: &[u32],
    out_rows: usize,
    init: f32,
    pick: impl Fn(f32, f32) -> f32,
) -> Tensor {
    check_serial(values, index, out_rows);
    let d = values.cols();
    let mut out = Tensor::full(out_rows, d, init);
    for (i, &dst) in index.iter().enumerate() {
        let src = values.row(i);
        let o = out.row_mut(dst as usize);
        for (o, &s) in o.iter_mut().zip(src) {
            *o = pick(*o, s);
        }
    }
    // Untouched destinations revert to zero.
    for x in out.data_mut() {
        if *x == init {
            *x = 0.0;
        }
    }
    out
}

/// Serial reference for [`scatter_softmax`].
pub fn scatter_softmax_serial(values: &Tensor, index: &[u32], out_rows: usize) -> Tensor {
    check_serial(values, index, out_rows);
    let d = values.cols();
    // Stabilize per destination group with the column max.
    let maxes = scatter_extreme_serial(values, index, out_rows, f32::NEG_INFINITY, f32::max);
    let mut exp = Tensor::zeros(values.rows(), d);
    for (i, &dst) in index.iter().enumerate() {
        let m = maxes.row(dst as usize);
        let src = values.row(i);
        let out = exp.row_mut(i);
        for ((o, &s), &mx) in out.iter_mut().zip(src).zip(m) {
            *o = simd::exp(s - mx);
        }
    }
    let sums = scatter_add_serial(&exp, index, out_rows);
    for (i, &dst) in index.iter().enumerate() {
        let z = sums.row(dst as usize).to_vec();
        let row = exp.row_mut(i);
        for (x, z) in row.iter_mut().zip(z) {
            if z > 0.0 {
                *x /= z;
            }
        }
    }
    exp
}

/// Serial reference for [`gather_rows`].
pub fn gather_rows_serial(src: &Tensor, idx: &[u32]) -> Tensor {
    let d = src.cols();
    let mut out = Tensor::zeros(idx.len(), d);
    for (i, &s) in idx.iter().enumerate() {
        out.row_mut(i).copy_from_slice(src.row(s as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals() -> Tensor {
        Tensor::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]])
    }

    #[test]
    fn plan_groups_edges_by_destination_in_edge_order() {
        let plan = ScatterPlan::new(&[2, 0, 2, 1, 0], 4);
        assert_eq!(plan.out_rows(), 4);
        assert_eq!(plan.num_edges(), 5);
        assert_eq!(plan.segment(0), &[1, 4], "edge order preserved");
        assert_eq!(plan.segment(1), &[3]);
        assert_eq!(plan.segment(2), &[0, 2]);
        assert_eq!(plan.segment(3), &[] as &[u32]);
        assert_eq!(plan.count(2), 2);
        assert_eq!(plan.offsets(), &[0, 2, 3, 5, 5]);
    }

    #[test]
    fn scatter_add_matches_figure8_semantics() {
        // Figure 8 of the paper: rows with the same dst index are summed.
        let out = scatter_add(&vals(), &[0, 1, 0, 2], 3);
        assert_eq!(
            out,
            Tensor::from_rows(&[&[4.0, 40.0], &[2.0, 20.0], &[4.0, 40.0]])
        );
    }

    #[test]
    fn scatter_add_empty_destination_is_zero() {
        let out = scatter_add(&vals(), &[0, 0, 0, 0], 2);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_mean_divides_by_count() {
        let out = scatter_mean(&vals(), &[0, 0, 1, 1], 2);
        assert_eq!(out, Tensor::from_rows(&[&[1.5, 15.0], &[3.5, 35.0]]));
    }

    #[test]
    fn scatter_max_and_min() {
        let v = Tensor::from_rows(&[&[1.0, -5.0], &[3.0, -1.0], &[2.0, -9.0]]);
        let mx = scatter_max(&v, &[0, 0, 1], 2);
        assert_eq!(mx, Tensor::from_rows(&[&[3.0, -1.0], &[2.0, -9.0]]));
        let mn = scatter_min(&v, &[0, 0, 1], 2);
        assert_eq!(mn, Tensor::from_rows(&[&[1.0, -5.0], &[2.0, -9.0]]));
    }

    #[test]
    fn scatter_max_empty_destination_is_zero_not_neg_inf() {
        let v = Tensor::from_rows(&[&[5.0]]);
        let mx = scatter_max(&v, &[1], 3);
        assert_eq!(mx, Tensor::from_rows(&[&[0.0], &[5.0], &[0.0]]));
    }

    #[test]
    fn scatter_softmax_sums_to_one_per_group() {
        let v = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[0.0]]);
        let sm = scatter_softmax(&v, &[0, 0, 0, 1], 2);
        let g0: f32 = sm.get(0, 0) + sm.get(1, 0) + sm.get(2, 0);
        assert!((g0 - 1.0).abs() < 1e-5);
        // Singleton group softmax is exactly 1.
        assert!((sm.get(3, 0) - 1.0).abs() < 1e-6);
        // Larger logits get larger shares.
        assert!(sm.get(2, 0) > sm.get(1, 0) && sm.get(1, 0) > sm.get(0, 0));
    }

    #[test]
    fn scatter_softmax_is_stable_for_huge_logits() {
        let v = Tensor::from_rows(&[&[1000.0], &[1000.0]]);
        let sm = scatter_softmax(&v, &[0, 0], 1);
        assert!((sm.get(0, 0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn gather_then_scatter_is_degree_weighted_sum() {
        let src = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let idx = [2u32, 0, 2];
        let g = gather_rows(&src, &idx);
        assert_eq!(g, Tensor::from_rows(&[&[3.0], &[1.0], &[3.0]]));
        let s = scatter_add(&g, &[0, 0, 1], 2);
        assert_eq!(s, Tensor::from_rows(&[&[4.0], &[3.0]]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_index_out_of_range_panics() {
        let _ = scatter_add(&vals(), &[0, 1, 2, 9], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_rejects_out_of_range_index() {
        let _ = ScatterPlan::new(&[0, 5], 3);
    }

    #[test]
    fn index_counts_counts() {
        assert_eq!(index_counts(&[0, 2, 2, 2], 4), vec![1, 0, 3, 0]);
    }

    #[test]
    fn planned_kernels_are_bitwise_equal_to_serial_references() {
        // Skewed index with empty destinations, reused plan.
        let rows = 97;
        let d = 5;
        let values = Tensor::from_vec(
            rows,
            d,
            (0..rows * d)
                .map(|i| ((i * 37) % 23) as f32 - 11.0)
                .collect(),
        );
        let index: Vec<u32> = (0..rows as u32).map(|i| (i * i) % 13).collect();
        let out_rows = 17; // destinations 13..17 are empty
        let plan = ScatterPlan::new(&index, out_rows);
        let pairs: [(Tensor, Tensor); 4] = [
            (
                scatter_add_with_plan(&values, &plan),
                scatter_add_serial(&values, &index, out_rows),
            ),
            (
                scatter_mean_with_plan(&values, &plan),
                scatter_mean_serial(&values, &index, out_rows),
            ),
            (
                scatter_max_with_plan(&values, &plan),
                scatter_max_serial(&values, &index, out_rows),
            ),
            (
                scatter_min_with_plan(&values, &plan),
                scatter_min_serial(&values, &index, out_rows),
            ),
        ];
        for (planned, serial) in &pairs {
            assert_eq!(planned, serial);
        }
        let sm = scatter_softmax_with_plan(&values, &plan);
        assert_eq!(&sm, &scatter_softmax_serial(&values, &index, out_rows));
    }

    #[test]
    fn gathered_fold_matches_gather_then_scatter() {
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // Edge e reads src[edge_rows[e]] and lands in slot index[e].
        let edge_rows = [2u32, 0, 1, 2];
        let index = [1u32, 0, 1, 1];
        let plan = ScatterPlan::new(&index, 2);
        let mut out = Tensor::zeros(2, 2);
        scatter_add_gathered_into(&mut out, &src, &edge_rows, &plan);
        let reference = scatter_add_serial(&gather_rows_serial(&src, &edge_rows), &index, 2);
        assert_eq!(out, reference);
        // Accumulation semantics: a second fold doubles the result.
        scatter_add_gathered_into(&mut out, &src, &edge_rows, &plan);
        let mut doubled = reference.clone();
        for x in doubled.data_mut() {
            *x *= 2.0;
        }
        assert_eq!(out, doubled);
    }
}
