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
//!
//! The kernels walk two indexes, each the one copy of its arrays and the
//! one cache of their scatter plans: a [`SegmentIndex`] (a graph's CSC,
//! an HDG's instances) and a [`HierarchyIndex`] (an HDG's three levels,
//! which `hdg::Hdg` holds as its storage).

use crate::par::{parallel_for, parallel_for_scratch};
use crate::scatter::{softmax_segment, ScatterPlan, SharedRows};
use crate::simd;
use crate::tensor::Tensor;
use std::sync::{Arc, OnceLock};

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

/// Built-in reduction kinds: the sum and average of the paper's built-in
/// aggregation functions (§6), the two its models run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// Sum of source rows.
    Sum,
    /// Arithmetic mean of source rows (empty segments stay zero).
    Mean,
}

fn check(feats: &Tensor, offsets: &[usize], src: &[u32]) {
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
/// `offsets[i]..offsets[i+1]` feed output row `i`; `row_of(idx[e])`
/// resolves edge position `e` to its source row *index* in `values`
/// (the direct source id for fusion, a segment id for the pull backward,
/// a permuted edge id for planned scatter, a gathered row id for the
/// distributed fold). The gather is **fused** into the walk: each
/// segment streams its rows straight out of `values` exactly once — no
/// materialized gather — while a software prefetch ([`PREFETCH_DIST`]
/// edges ahead, clamped to the thread's chunk) hides the
/// irregular-access latency that dominates this kernel at scale. The walk itself is
/// [`simd::fold_segments`]: each output row stays in registers across
/// its segment and is written once, and the lanes carry independent
/// columns only.
///
/// Each output row is reduced by exactly one thread, in ascending
/// edge-position order, so the result is race-free and
/// bitwise-deterministic for any thread count.
///
/// `Sum` accumulates into `out`'s existing content; `Mean` assumes a
/// zeroed `out` (empty segments stay zero).
pub(crate) fn segment_apply_into(
    out: &mut [f32],
    d: usize,
    offsets: &[usize],
    kind: Reduce,
    values: &Tensor,
    idx: &[u32],
    row_of: impl Fn(u32) -> usize + Sync,
) {
    let n = offsets.len() - 1;
    debug_assert_eq!(out.len(), n * d, "one output row per segment");
    assert_eq!(values.cols(), d, "value width must match output width");
    assert_eq!(offsets[n], idx.len(), "offsets must cover the index");
    debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    if d == 0 {
        return;
    }
    let vdata = values.data();
    // SAFETY (both unchecked reads): `offsets` is sorted (asserted by
    // `SegmentIndex::new` and `check()`, built so by a plan) and ends at
    // `idx.len()`, so every walked `e` indexes `idx`. Every caller bounds
    // the rows `row_of` names by `values.rows()` — `check_rows` or
    // `check()` a `src` (and the transpose built from it),
    // `check_values` a plan's `perm`, `scatter_add_gathered_into` its
    // `edge_rows` — so `row * d + d` never exceeds `vdata.len()`.
    let idx_of = |e: usize| row_of(unsafe { *idx.get_unchecked(e) });
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
        let row = |e: usize| {
            let r = idx_of(e);
            debug_assert!((r + 1) * d <= vdata.len());
            // SAFETY: see above.
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
/// a graph's CSC — pays for the transpose once. The two scatter plans a
/// sparse (SA) execution reads are kept the same way, each built only
/// when first asked for.
#[derive(Debug)]
pub struct SegmentIndex {
    offsets: Vec<usize>,
    src: Vec<u32>,
    /// One past the largest source row; 0 without edges.
    sources: usize,
    transpose: OnceLock<Transpose>,
    /// The gather over `src` (destinations: the input's rows).
    gather: OnceLock<Arc<ScatterPlan>>,
    /// The scatter of each edge into its segment.
    scatter: OnceLock<Arc<ScatterPlan>>,
}

/// [`SegmentIndex`] turned around: the segments source row `s` feeds
/// are `segs[offsets[s]..offsets[s + 1]]`, ascending, a segment listed
/// once per occurrence of `s` in it.
#[derive(Debug)]
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
            gather: OnceLock::new(),
            scatter: OnceLock::new(),
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

    /// Heap bytes of the index, its transpose and plans included once
    /// built.
    pub fn heap_bytes(&self) -> usize {
        let transpose = self.transpose.get().map_or(0, |t| {
            std::mem::size_of_val(&t.offsets[..]) + std::mem::size_of_val(&t.segs[..])
        });
        let plans = [&self.gather, &self.scatter]
            .iter()
            .filter_map(|plan| plan.get())
            .map(|plan| plan.heap_bytes())
            .sum::<usize>();
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.src[..])
            + transpose
            + plans
    }

    /// The plan scattering edge position `e` into the segment that holds
    /// it, built on first use.
    pub fn scatter_plan(&self) -> Arc<ScatterPlan> {
        Arc::clone(self.scatter.get_or_init(|| owner_plan(&self.offsets)))
    }

    /// The plans that record this reduction as a gather of one row per
    /// edge out of `rows` input rows and a scatter-add into the
    /// segments, built on first use. The gather plan is kept for the
    /// row count first asked for; another gets one of its own, uncached.
    pub fn sparse_plans(&self, rows: usize) -> (Arc<ScatterPlan>, Arc<ScatterPlan>) {
        let gather = self
            .gather
            .get_or_init(|| Arc::new(ScatterPlan::new(&self.src, rows)));
        let gather = if gather.out_rows() == rows {
            Arc::clone(gather)
        } else {
            Arc::new(ScatterPlan::new(&self.src, rows))
        };
        (gather, self.scatter_plan())
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

/// The scatter plan sending position `e` of `offsets[t]..offsets[t + 1]`
/// to row `t`.
fn owner_plan(offsets: &[usize]) -> Arc<ScatterPlan> {
    let owner: Vec<u32> = (0..offsets.len() - 1)
        .flat_map(|t| (offsets[t]..offsets[t + 1]).map(move |_| t as u32))
        .collect();
    Arc::new(ScatterPlan::new(&owner, offsets.len() - 1))
}

/// Fused segment reduction: output row `i` reduces
/// `feats[src[offsets[i]..offsets[i+1]]]` without materializing them.
pub fn segment_reduce(feats: &Tensor, offsets: &[usize], src: &[u32], kind: Reduce) -> Tensor {
    check(feats, offsets, src);
    let (n, d) = (offsets.len() - 1, feats.cols());
    let mut out = Tensor::zeros(n, d);
    segment_apply_into(out.data_mut(), d, offsets, kind, feats, src, |s| s as usize);
    out
}

/// [`segment_reduce`] over a [`SegmentIndex`], into a caller-provided,
/// zeroed `segments × feats.cols()` `out` (`Sum` accumulates into what
/// it holds).
pub fn segment_reduce_into(out: &mut Tensor, feats: &Tensor, index: &SegmentIndex, kind: Reduce) {
    index.check_rows(feats.rows());
    assert_eq!(out.rows(), index.segments(), "one output row per segment");
    let d = out.cols();
    let (offsets, src) = (&index.offsets, &index.src);
    segment_apply_into(out.data_mut(), d, offsets, kind, feats, src, |s| s as usize);
}

/// Single-threaded fused segment reduction (Sum only): the same
/// no-materialization algorithm as [`segment_reduce`], without the
/// parallel register walk — its reference in the parity tests.
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
        segment_apply_into(rows, d, &tr.offsets, Reduce::Sum, grad_out, &tr.segs, |t| {
            t as usize
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

/// An HDG collection's three levels (paper Figure 9): `types` groups per
/// root, group `g = root·types + t` holding instances `groups[g]..
/// groups[g + 1]` (Figure 9's `Offset2`), and `instances` over leaf rows.
/// This is the HDG's one copy of its arrays (`hdg::Hdg` holds it). The
/// scatter plans of the two upper levels, which only an unfused
/// (SA / SA+FA) execution reads, are each built on first use and kept.
#[derive(Debug)]
pub struct HierarchyIndex {
    groups: Vec<usize>,
    instances: Arc<SegmentIndex>,
    types: usize,
    /// Instances in the largest group; sizes the kernels' scratch.
    widest: usize,
    /// Instance → group.
    group_plan: OnceLock<Arc<ScatterPlan>>,
    /// Group → root.
    root_plan: OnceLock<Arc<ScatterPlan>>,
}

impl HierarchyIndex {
    /// Panics unless `groups` runs, sorted, from 0 to the instance count
    /// over a whole number of roots of `types > 0` groups.
    pub fn new(groups: Vec<usize>, instances: SegmentIndex, types: usize) -> Self {
        let spans = groups.first() == Some(&0) && groups.last() == Some(&instances.segments());
        let whole = types > 0 && groups.len() % types == 1 % types;
        let sorted = groups.windows(2).all(|w| w[0] <= w[1]);
        assert!(spans && whole && sorted, "malformed hierarchy index");
        let widest = groups.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Self {
            groups,
            instances: Arc::new(instances),
            types,
            widest,
            group_plan: OnceLock::new(),
            root_plan: OnceLock::new(),
        }
    }

    /// Group offsets over instances.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// The instances over leaf rows.
    pub fn instances(&self) -> &Arc<SegmentIndex> {
        &self.instances
    }

    /// Groups per root.
    pub fn types(&self) -> usize {
        self.types
    }

    /// The scatter plan of instances into their groups, built on first
    /// use.
    pub fn group_plan(&self) -> Arc<ScatterPlan> {
        Arc::clone(self.group_plan.get_or_init(|| owner_plan(&self.groups)))
    }

    /// The scatter plan of groups into their roots, built on first use.
    pub fn root_plan(&self) -> Arc<ScatterPlan> {
        let plan = self.root_plan.get_or_init(|| {
            let roots: Vec<usize> = (0..=self.num_roots()).map(|r| r * self.types).collect();
            owner_plan(&roots)
        });
        Arc::clone(plan)
    }

    /// Number of roots (one output row each).
    pub fn num_roots(&self) -> usize {
        (self.groups.len() - 1) / self.types
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.instances.segments()
    }

    /// Floats of scratch one thread of either kernel needs: the largest
    /// group's instance means and softmax weights, and five `d`-rows.
    pub(crate) fn scratch_len(&self, d: usize) -> usize {
        (2 * self.widest + 5) * d
    }

    /// The non-empty groups of root `r`, as instance ranges.
    fn groups_of(&self, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let groups = self.groups[r * self.types..=(r + 1) * self.types].windows(2);
        groups.map(|w| (w[0], w[1])).filter(|(lo, hi)| lo < hi)
    }

    /// Group `lo..hi`'s instance means over `h`'s rows, into `xs` — the
    /// fold [`segment_reduce_into`] runs, from zero — and their weights,
    /// into `ws` — the [`softmax_segment`] the unfused chain runs per
    /// group, handing each instance's mean and weight rows to `weighed`.
    /// The caller has run `self.instances.check_rows(h.rows())`.
    fn attend<'s>(
        &self,
        h: &Tensor,
        (lo, hi): (usize, usize),
        [xs, ws, maxes, sums]: [&'s mut [f32]; 4],
        mut weighed: impl FnMut(&[f32], &[f32]),
    ) -> (&'s [f32], &'s [f32]) {
        let (n, d, offsets) = (hi - lo, h.cols(), &self.instances.offsets[lo..=hi]);
        let (src, data) = (&self.instances.src, h.data());
        let (xs, ws) = (&mut xs[..n * d], &mut ws[..n * d]);
        xs.fill(0.0);
        // SAFETY: `SegmentIndex::new` checked that its sorted offsets end
        // at `src.len()`, so the walk's edge positions index `src`; and
        // `check_rows` bounds every source row below `h.rows()`.
        let row = |e: usize| unsafe {
            let r = *src.get_unchecked(e) as usize;
            data.get_unchecked(r * d..r * d + d)
        };
        simd::fold_segments(xs, d, Reduce::Mean, offsets, row, |_| {});
        let rows = SharedRows::new(ws, d);
        // SAFETY: `softmax_segment` holds one row of `ws` at a time.
        let w = |i: usize| unsafe { rows.row(i) };
        let x = |i: usize| &xs[i * d..(i + 1) * d];
        softmax_segment(n, x, w, maxes, sums, |i, s| weighed(x(i), s));
        (xs, ws)
    }
}

/// MAGNN's aggregation (paper Figure 7), root-owned: per non-empty group
/// of a root, the instance means are folded into scratch, soft-maxed
/// ([`softmax_segment`]) into scratch and pooled as `Σ s ⊙ x` from zero,
/// and the row is added into the root's, finally scaled by `1/types` —
/// the element operations and order of `segment_reduce` (Mean) → scatter
/// softmax → `mul` → scatter-add → block mean; a skipped empty group is
/// exact, as a sum from `+0.0` never becomes `−0.0`. Overwrites `out`;
/// each thread borrows a row of `scratch`. No instance-sized tensor is
/// written.
pub(crate) fn hierarchical_attention_pool_into(
    out: &mut Tensor,
    scratch: &mut Tensor,
    h: &Tensor,
    index: &HierarchyIndex,
) {
    index.instances.check_rows(h.rows());
    let (d, roots, inv_types) = (h.cols(), index.num_roots(), 1.0 / index.types as f32);
    assert_eq!(out.shape(), (roots, d), "one row per root");
    let wide = index.widest * d;
    parallel_for_scratch(roots, out.data_mut(), d, scratch, |r0, rows, lent| {
        let (xs, rest) = lent.split_at_mut(wide);
        let (ws, rest) = rest.split_at_mut(wide);
        let (maxes, rest) = rest.split_at_mut(d);
        let (sums, rest) = rest.split_at_mut(d);
        let acc = &mut rest[..d];
        for (r, root) in (r0..).zip(rows.chunks_mut(d)) {
            root.fill(0.0);
            for (lo, hi) in index.groups_of(r) {
                acc.fill(0.0);
                index.attend(h, (lo, hi), [xs, ws, maxes, sums], |x, s| {
                    for ((a, &s), &x) in acc.iter_mut().zip(s).zip(x) {
                        *a += s * x;
                    }
                });
                simd::add_assign(root, acc);
            }
            simd::scale_assign(root, inv_types);
        }
    });
}

/// Adjoint of [`hierarchical_attention_pool_into`], added into a zeroed
/// `grad_h` serially: per group, with the means `x` and the weights `s`
/// recomputed by the forward's own calls (so with its bits) and `g =
/// grad_out[root] / types`, each instance's `g⊙s + s⊙(g⊙x − Σ_j
/// (g⊙x_j)⊙s_j)` (the unfused chain's association), times `1/len`, is
/// added into its leaves' rows ([`segment_reduce_backward_into`]'s push).
pub(crate) fn hierarchical_attention_pool_backward_into(
    grad_h: &mut Tensor,
    grad_out: &Tensor,
    scratch: &mut [f32],
    h: &Tensor,
    index: &HierarchyIndex,
) {
    index.instances.check_rows(h.rows());
    let (d, inv_types) = (h.cols(), 1.0 / index.types as f32);
    assert_eq!(grad_h.shape(), h.shape(), "one gradient row per input row");
    assert_eq!(grad_out.shape(), (index.num_roots(), d), "one row per root");
    let (xs, rest) = scratch.split_at_mut(index.widest * d);
    let (ws, rest) = rest.split_at_mut(index.widest * d);
    let (maxes, rest) = rest.split_at_mut(d);
    let (sums, rest) = rest.split_at_mut(d);
    let (g, rest) = rest.split_at_mut(d);
    let (z, rest) = rest.split_at_mut(d);
    let o = &mut rest[..d];
    let (offsets, src) = (&index.instances.offsets, &index.instances.src);
    for r in 0..index.num_roots() {
        for (g, &y) in g.iter_mut().zip(grad_out.row(r)) {
            *g = y * inv_types;
        }
        for (lo, hi) in index.groups_of(r) {
            z.fill(0.0);
            let (x, s) = index.attend(h, (lo, hi), [xs, ws, maxes, sums], |x, s| {
                for (((z, &g), &x), &s) in z.iter_mut().zip(&*g).zip(x).zip(s) {
                    *z += (g * x) * s;
                }
            });
            for (inst, (s, x)) in (lo..hi).zip(s.chunks(d).zip(x.chunks(d))) {
                let leaves = &src[offsets[inst]..offsets[inst + 1]];
                let inv_len = 1.0 / leaves.len() as f32;
                // The Mean push's `row += (1/len) · o`, its product taken
                // once for all of the instance's leaves.
                for ((((o, &g), &x), &s), &z) in o.iter_mut().zip(&*g).zip(x).zip(s).zip(&*z) {
                    *o = inv_len * (g * s + s * (g * x - z));
                }
                for &leaf in leaves {
                    simd::add_assign(grad_h.row_mut(leaf as usize), o);
                }
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
    fn plans_are_built_one_at_a_time_and_kept() {
        // The CSC of edges 0→2, 1→2, 2→0.
        let index = SegmentIndex::new(vec![0, 1, 1, 3], vec![2, 0, 1]);
        let bare = index.heap_bytes();
        let scatter = index.scatter_plan();
        assert_eq!((scatter.out_rows(), scatter.index()), (3, &[0, 2, 2][..]));
        let with_scatter = index.heap_bytes();
        assert_eq!(
            with_scatter,
            bare + scatter.heap_bytes(),
            "no gather plan yet"
        );
        let (gather, again) = index.sparse_plans(3);
        assert_eq!((gather.out_rows(), gather.index()), (3, &[2, 0, 1][..]));
        assert!(Arc::ptr_eq(&scatter, &again));
        assert!(Arc::ptr_eq(&gather, &index.sparse_plans(3).0));
        assert_eq!(index.heap_bytes(), with_scatter + gather.heap_bytes());
        // Another row count gets a gather plan of its own, uncached.
        assert_eq!(index.sparse_plans(5).0.out_rows(), 5);
        assert_eq!(index.heap_bytes(), with_scatter + gather.heap_bytes());
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
    #[should_panic(expected = "source row 3 out of range")]
    fn pool_backward_rejects_a_leaf_row_past_h() {
        // `tests/segment_walk.rs` has the forward's twin.
        let instances = SegmentIndex::new(vec![0, 2], vec![0, 3]);
        let (h, index) = (
            Tensor::zeros(3, 2),
            HierarchyIndex::new(vec![0, 1], instances, 1),
        );
        let mut scratch = vec![0.0; index.scratch_len(2)];
        let (mut grad_h, grad_out) = (Tensor::zeros(3, 2), Tensor::zeros(1, 2));
        hierarchical_attention_pool_backward_into(&mut grad_h, &grad_out, &mut scratch, &h, &index);
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
