//! Fused segment reductions — the tensor-level core of FlexGraph's
//! *vertex feature fusion* (paper §4.2, execution context (1)).
//!
//! Sparse scatter aggregation first materializes one message row per edge
//! (`gather_rows`) and then reduces (`scatter_add`) — ~500× feature
//! memory on Reddit-like densities, per the paper. Feature fusion instead
//! reads each source row straight from the feature matrix and accumulates
//! it into the destination buffer. The destination-major (CSC-style)
//! layout — `offsets` over destinations, `src` listing each destination's
//! sources contiguously — makes the loop embarrassingly parallel over
//! destinations with zero synchronization, and keeps the inner
//! per-feature loop a straight-line multiply-accumulate the compiler can
//! vectorize (standing in for the paper's AVX-512 kernels).

use crate::par::parallel_for;
use crate::simd;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// Edge-position lookahead for the software prefetch in the fused
/// segment walk: while reducing edge `e`, the row of edge `e +
/// PREFETCH_DIST` is pulled toward L1. Segments average a handful of
/// edges, so the prefetch deliberately reaches across segment
/// boundaries (within the thread's chunk) to stay ahead of the
/// permuted-gather misses.
const PREFETCH_DIST: usize = 16;

/// `f32`s per cache line; the prefetch walks the whole row in
/// line-sized strides so multi-line rows (dim > 16) are fully covered.
const FLOATS_PER_LINE: usize = 16;

/// Value-tensor footprint below which the fused walk skips prefetching:
/// a cache-resident gather never misses, so the prefetch instructions
/// (and the extra `idx_of` probe per edge) are pure overhead.
const PREFETCH_MIN_VALUE_BYTES: usize = 2 << 20;

/// Built-in reduction kinds (the paper's built-in aggregation functions:
/// sum, average, max, min — §6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// Sum of source rows.
    Sum,
    /// Arithmetic mean of source rows (empty segments stay zero).
    Mean,
    /// Per-column maximum (empty segments stay zero).
    Max,
    /// Per-column minimum (empty segments stay zero).
    Min,
}

fn check(feats: &Tensor, offsets: &[usize], src: &[u32]) {
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
        assert!((m as usize) < feats.rows(), "source row {m} out of range");
    }
}

/// The shared destination-owned segment kernel behind the fused
/// [`segment_reduce`] path, the pull backward of
/// [`segment_reduce_backward_into`] and the planned scatter kernels in
/// [`crate::scatter`].
///
/// `out` holds `offsets.len() - 1` rows of `d` floats. Edge positions
/// `offsets[i]..offsets[i+1]` feed output row `i`; `idx_of(e)` resolves
/// edge position `e` to its source row *index* in `values` (the direct
/// source id for fusion, a segment id for the pull backward, a permuted
/// edge id for planned scatter, a gathered row id for the distributed
/// fold). The gather is **fused** into the walk: each segment streams
/// its rows straight out of `values` exactly once — no materialized
/// gather — while a software prefetch ([`PREFETCH_DIST`] edges ahead,
/// clamped to the thread's chunk) hides the irregular-access latency
/// that dominates this kernel at scale. The walk itself is
/// [`simd::fold_segments`]: each output row stays in registers across
/// its segment and is written once, and the lanes carry independent
/// columns only.
///
/// Each output row is reduced by exactly one thread, in ascending
/// edge-position order, so the result is race-free and
/// bitwise-deterministic for any thread count.
///
/// `Sum` accumulates into `out`'s existing content; `Mean`/`Max`/`Min`
/// assume a zeroed `out` (empty segments stay zero).
pub(crate) fn segment_apply_into<F>(
    out: &mut [f32],
    d: usize,
    offsets: &[usize],
    kind: Reduce,
    values: &Tensor,
    idx_of: F,
) where
    F: Fn(usize) -> usize + Sync,
{
    let n = offsets.len() - 1;
    debug_assert_eq!(out.len(), n * d, "one output row per segment");
    assert_eq!(values.cols(), d, "value width must match output width");
    if d == 0 {
        return;
    }
    let vdata = values.data();
    let idx_of = &idx_of;
    // A cache-resident gather gains nothing from prefetching.
    let prefetch_on = std::mem::size_of_val(vdata) >= PREFETCH_MIN_VALUE_BYTES;
    parallel_for(n, out, d, |seg0, chunk| {
        let segs = &offsets[seg0..=seg0 + chunk.len() / d];
        // Last edge position owned by this thread's chunk: the prefetch
        // lookahead stops here so `idx_of` is never probed out of range.
        let chunk_end = segs[segs.len() - 1];
        let prefetch = |e: usize| {
            let pf = e + PREFETCH_DIST;
            if prefetch_on && pf < chunk_end {
                let row = &vdata[idx_of(pf) * d..];
                let mut c = 0;
                while c < d {
                    simd::prefetch_read(row[c..].as_ptr());
                    c += FLOATS_PER_LINE;
                }
            }
        };
        // SAFETY (for the unchecked row reads below): every caller
        // validates its index source before entering the kernel —
        // `SegmentIndex::new` bounds `src` (and its transpose is built
        // from it), `check()` bounds a bare `src`, `ScatterPlan::new`
        // bounds `perm` against the edge count and `check_values` pins
        // the edge count to `values.rows()`, and
        // `scatter_add_gathered_into` asserts its `edge_rows` entries —
        // so `idx_of(e) * d + d` never exceeds `vdata.len()`.
        let row = |e: usize| {
            let r = idx_of(e);
            debug_assert!((r + 1) * d <= vdata.len());
            unsafe { vdata.get_unchecked(r * d..r * d + d) }
        };
        simd::fold_segments(chunk, d, kind, segs, row, prefetch);
    });
}

/// A destination-major segment index — `offsets` over destinations,
/// `src` listing each destination's source rows contiguously — checked
/// once when built. It keeps its transpose (per source row, the
/// segments it feeds, ascending) once the first pull backward
/// ([`segment_reduce_backward_into`]) has built it, so a static index —
/// a graph's CSC — pays for the transpose once.
pub struct SegmentIndex {
    offsets: Vec<usize>,
    src: Vec<u32>,
    /// One past the largest source row; 0 without edges.
    sources: usize,
    transpose: OnceLock<Transpose>,
}

/// [`SegmentIndex`] turned around: the segments source row `s` feeds
/// are `segs[offsets[s]..offsets[s + 1]]`, ascending, a segment listed
/// once per occurrence of `s` in it.
struct Transpose {
    offsets: Vec<usize>,
    segs: Vec<u32>,
}

impl SegmentIndex {
    /// Checks and wraps a destination-major index.
    ///
    /// # Panics
    ///
    /// If `offsets` is empty, does not end at `src.len()`, or has more
    /// segments than a `u32` counts.
    pub fn new(offsets: Vec<usize>, src: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a terminating entry");
        assert_eq!(
            *offsets.last().unwrap(),
            src.len(),
            "offsets must cover src"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        assert!(offsets.len() - 1 <= u32::MAX as usize, "too many segments");
        let sources = src.iter().max().map_or(0, |&m| m as usize + 1);
        Self {
            offsets,
            src,
            sources,
            transpose: OnceLock::new(),
        }
    }

    /// Per-segment offsets into [`SegmentIndex::src`].
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Source row of each edge, segment-major.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Heap bytes of the index, its transpose included once built.
    pub fn heap_bytes(&self) -> usize {
        let transpose = self.transpose.get().map_or(0, |t| {
            std::mem::size_of_val(&t.offsets[..]) + std::mem::size_of_val(&t.segs[..])
        });
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.src[..]) + transpose
    }

    fn segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Panics unless every source row is below `rows`.
    fn check_rows(&self, rows: usize) {
        if self.sources > rows {
            panic!("source row {} out of range", self.sources - 1);
        }
    }

    /// The transpose, counting-sorted on first use: one pass counts each
    /// source's edges, a second drops each segment into its sources'
    /// buckets in ascending order, using the offsets as cursors (which
    /// leaves each at the next one's start, so a shift restores them).
    fn transpose(&self) -> &Transpose {
        self.transpose.get_or_init(|| {
            let mut offsets = vec![0usize; self.sources + 1];
            for &s in &self.src {
                offsets[s as usize + 1] += 1;
            }
            for s in 0..self.sources {
                offsets[s + 1] += offsets[s];
            }
            let mut segs = vec![0u32; self.src.len()];
            for t in 0..self.segments() {
                for &s in &self.src[self.offsets[t]..self.offsets[t + 1]] {
                    let at = &mut offsets[s as usize];
                    segs[*at] = t as u32;
                    *at += 1;
                }
            }
            offsets.copy_within(..self.sources, 1);
            offsets[0] = 0;
            Transpose { offsets, segs }
        })
    }
}

/// Fused segment reduction: output row `i` reduces
/// `feats[src[offsets[i]..offsets[i+1]]]` without materializing them.
pub fn segment_reduce(feats: &Tensor, offsets: &[usize], src: &[u32], kind: Reduce) -> Tensor {
    check(feats, offsets, src);
    let (n, d) = (offsets.len() - 1, feats.cols());
    let mut out = Tensor::zeros(n, d);
    segment_apply_into(out.data_mut(), d, offsets, kind, feats, |e| src[e] as usize);
    out
}

/// [`segment_reduce`] over a [`SegmentIndex`], into a caller-provided,
/// zeroed `segments × feats.cols()` `out` (`Sum` accumulates into what
/// it holds).
pub fn segment_reduce_into(out: &mut Tensor, feats: &Tensor, index: &SegmentIndex, kind: Reduce) {
    index.check_rows(feats.rows());
    assert_eq!(out.rows(), index.segments(), "one output row per segment");
    let d = out.cols();
    segment_apply_into(out.data_mut(), d, &index.offsets, kind, feats, |e| {
        index.src[e] as usize
    });
}

/// Single-threaded fused segment reduction (Sum only).
///
/// Models the kernel-fusion execution of DGL (§7.1): the same
/// no-materialization algorithm as [`segment_reduce`], but without the
/// SIMD-friendly parallel sweep FlexGraph adds on top.
pub fn segment_reduce_serial(feats: &Tensor, offsets: &[usize], src: &[u32]) -> Tensor {
    check(feats, offsets, src);
    let n = offsets.len() - 1;
    let d = feats.cols();
    let mut out = Tensor::zeros(n, d);
    for seg in 0..n {
        // Per-element indexing (rather than the chunked slice loop)
        // deliberately leaves auto-vectorization on the table, like a
        // generic fused kernel would.
        for e in offsets[seg]..offsets[seg + 1] {
            let s = src[e] as usize;
            for c in 0..d {
                let v = out.get(seg, c) + feats.get(s, c);
                out.set(seg, c, v);
            }
        }
    }
    out
}

/// Adjoint of the Sum/Mean fused reduction: adds `grad_out[i]` (scaled
/// by `1/len` for Mean) into every source row of segment `i` of the
/// caller-provided `grad_in`, `grad_out` having one row per segment.
///
/// Two walk orders give the same bits, and the input picks one. A Sum
/// whose `grad_out` has no more rows than `grad_in` — a graph's CSC, an
/// HDG with a segment per root — *pulls*: each `grad_in` row is owned
/// by one thread and folds, in registers, the gradient rows of the
/// segments it feeds in ascending order (over the index's cached
/// transpose), as [`segment_reduce`] does forward. Anything else —
/// many short segments over few sources, as every Mean in the tree
/// has — *pushes* serially, segment by segment, each edge adding its
/// segment's (scaled) row into its source's row, so `grad_out` is read
/// once in order. Either way a `grad_in` row receives the same rows in
/// the same ascending segment order.
pub fn segment_reduce_backward_into(
    grad_in: &mut Tensor,
    grad_out: &Tensor,
    index: &SegmentIndex,
    mean: bool,
) {
    index.check_rows(grad_in.rows());
    assert_eq!(
        grad_out.rows(),
        index.segments(),
        "one gradient row per segment"
    );
    assert_eq!(grad_in.cols(), grad_out.cols(), "gradient width mismatch");
    let (d, offsets, src) = (grad_in.cols(), &index.offsets, &index.src);
    if !mean && grad_out.rows() <= grad_in.rows() {
        let tr = index.transpose();
        let rows = &mut grad_in.data_mut()[..index.sources * d];
        segment_apply_into(rows, d, &tr.offsets, Reduce::Sum, grad_out, |e| {
            tr.segs[e] as usize
        });
        return;
    }
    for t in 0..index.segments() {
        let (lo, hi) = (offsets[t], offsets[t + 1]);
        let grow = grad_out.row(t);
        for &s in &src[lo..hi] {
            let o = grad_in.row_mut(s as usize);
            if mean {
                simd::mul_add_assign(o, 1.0 / (hi - lo) as f32, grow);
            } else {
                simd::add_assign(o, grow);
            }
        }
    }
}

/// Peak transient bytes a *sparse* (materializing) execution of the same
/// reduction would allocate: one `f32` row per edge. Used by the OOM
/// model of Table 2's baselines.
pub fn materialized_bytes(num_edges: usize, dim: usize) -> usize {
    num_edges * dim * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::{gather_rows, scatter_add, scatter_mean};

    fn feats() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]])
    }

    #[test]
    fn fused_sum_equals_gather_then_scatter() {
        // Destination 0 ← rows {0, 2}; destination 1 ← rows {1, 2, 3}.
        let offsets = [0usize, 2, 5];
        let src = [0u32, 2, 1, 2, 3];
        let fused = segment_reduce(&feats(), &offsets, &src, Reduce::Sum);
        let dst_idx = [0u32, 0, 1, 1, 1];
        let sparse = scatter_add(&gather_rows(&feats(), &src), &dst_idx, 2);
        assert_eq!(fused, sparse);
    }

    #[test]
    fn fused_mean_equals_scatter_mean() {
        let offsets = [0usize, 2, 5];
        let src = [0u32, 2, 1, 2, 3];
        let fused = segment_reduce(&feats(), &offsets, &src, Reduce::Mean);
        let dst_idx = [0u32, 0, 1, 1, 1];
        let sparse = scatter_mean(&gather_rows(&feats(), &src), &dst_idx, 2);
        assert!(fused.max_abs_diff(&sparse) < 1e-6);
    }

    #[test]
    fn fused_max_min_and_empty_segment() {
        let offsets = [0usize, 0, 3];
        let src = [0u32, 3, 1];
        let mx = segment_reduce(&feats(), &offsets, &src, Reduce::Max);
        assert_eq!(mx.row(0), &[0.0, 0.0], "empty segment stays zero");
        assert_eq!(mx.row(1), &[7.0, 8.0]);
        let mn = segment_reduce(&feats(), &offsets, &src, Reduce::Min);
        assert_eq!(mn.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn backward_matches_scatter_semantics() {
        let offsets = [0usize, 2, 3];
        let src = [0u32, 1, 1];
        let grad_out = Tensor::from_rows(&[&[1.0, 10.0], &[2.0, 20.0]]);
        let index = SegmentIndex::new(offsets.to_vec(), src.to_vec());
        let mut g = Tensor::zeros(3, 2);
        segment_reduce_backward_into(&mut g, &grad_out, &index, false);
        // Row 0 feeds segment 0 once; row 1 feeds segments 0 and 1.
        assert_eq!(g.row(0), &[1.0, 10.0]);
        assert_eq!(g.row(1), &[3.0, 30.0]);
        assert_eq!(g.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn heap_bytes_count_the_transpose_once_built() {
        let index = SegmentIndex::new(vec![0, 2, 3], vec![0, 1, 1]);
        let (offset, id) = (std::mem::size_of::<usize>(), std::mem::size_of::<u32>());
        let before = index.heap_bytes();
        assert_eq!(before, 3 * offset + 3 * id);
        let mut g = Tensor::zeros(2, 1);
        segment_reduce_backward_into(&mut g, &Tensor::zeros(2, 1), &index, false);
        // Offsets over the two sources, one segment id per edge.
        assert_eq!(index.heap_bytes(), before + 3 * offset + 3 * id);
    }

    #[test]
    fn backward_mean_scales_by_segment_size() {
        let offsets = [0usize, 2];
        let src = [0u32, 1];
        let grad_out = Tensor::from_rows(&[&[4.0]]);
        let index = SegmentIndex::new(offsets.to_vec(), src.to_vec());
        let mut g = Tensor::zeros(2, 1);
        segment_reduce_backward_into(&mut g, &grad_out, &index, true);
        assert_eq!(g.row(0), &[2.0]);
        assert_eq!(g.row(1), &[2.0]);
    }

    #[test]
    fn serial_fused_matches_parallel() {
        let offsets = [0usize, 2, 5];
        let src = [0u32, 2, 1, 2, 3];
        let a = segment_reduce(&feats(), &offsets, &src, Reduce::Sum);
        let b = segment_reduce_serial(&feats(), &offsets, &src);
        assert_eq!(a, b);
    }

    #[test]
    fn materialized_bytes_formula() {
        assert_eq!(materialized_bytes(1000, 64), 1000 * 64 * 4);
    }

    #[test]
    #[should_panic(expected = "offsets must cover src")]
    fn mismatched_offsets_panic() {
        let _ = segment_reduce(&feats(), &[0, 1], &[0, 1], Reduce::Sum);
    }

    #[test]
    #[should_panic(expected = "one gradient row per segment")]
    fn backward_rejects_a_gradient_with_the_wrong_row_count() {
        let grad_out = Tensor::zeros(3, 2);
        let mut g = Tensor::zeros(3, 2);
        let index = SegmentIndex::new(vec![0, 2, 3], vec![0, 1, 1]);
        segment_reduce_backward_into(&mut g, &grad_out, &index, false);
    }

    #[test]
    #[should_panic(expected = "offsets must cover src")]
    fn backward_rejects_offsets_that_do_not_cover_src() {
        let grad_out = Tensor::zeros(2, 2);
        let mut g = Tensor::zeros(3, 2);
        let index = SegmentIndex::new(vec![0, 2, 2], vec![0, 1, 1]);
        segment_reduce_backward_into(&mut g, &grad_out, &index, false);
    }

    #[test]
    #[should_panic(expected = "source row 3 out of range")]
    fn backward_rejects_a_source_row_past_grad_in() {
        let grad_out = Tensor::zeros(2, 2);
        let mut g = Tensor::zeros(3, 2);
        let index = SegmentIndex::new(vec![0, 2, 3], vec![0, 3, 1]);
        segment_reduce_backward_into(&mut g, &grad_out, &index, false);
    }

    #[test]
    fn large_parallel_fusion_matches_sparse() {
        // Enough segments to exercise the parallel path.
        let n_src = 500;
        let n_dst = 300;
        let d = 16;
        let feats = Tensor::from_vec(
            n_src,
            d,
            (0..n_src * d)
                .map(|i| ((i * 31) % 17) as f32 - 8.0)
                .collect(),
        );
        let mut offsets = vec![0usize];
        let mut src = Vec::new();
        let mut dst_idx = Vec::new();
        for seg in 0..n_dst {
            for e in 0..(seg % 7) {
                src.push(((seg * 13 + e * 101) % n_src) as u32);
                dst_idx.push(seg as u32);
            }
            offsets.push(src.len());
        }
        let fused = segment_reduce(&feats, &offsets, &src, Reduce::Sum);
        let sparse = scatter_add(&gather_rows(&feats, &src), &dst_idx, n_dst);
        assert!(fused.max_abs_diff(&sparse) < 1e-3);
    }
}
