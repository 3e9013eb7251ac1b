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
//! flat, as unit groups over the leaves or as MAGNN's prefix tree, which
//! `hdg::Hdg` holds as its storage).

use crate::par::{parallel_for, parallel_for_scratch};
use crate::scatter::{softmax_segment, ScatterPlan, SharedRows};
use crate::simd;
use crate::tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Value-tensor footprint below which the fused walk skips prefetching:
/// a cache-resident gather never misses, so the prefetch instructions
/// (and the extra index probe per edge) are pure overhead. With the
/// cutoff at 0 (alternating 8 s ledger pairs on a 2-CPU Xeon, `op_cpu_ms`
/// median, cutoff → none): `serve_cold` 0.133 → 0.136 ms (3 of 6 pairs
/// lower), `train_gcn_reddit` 11.3 → 10.5 ms (7 of 12), and
/// `train_magnn_imdb`, whose walks all sit below it, 24.4 → 34.9 ms (1 of
/// 6). `dist_virtual_k16`'s local fold is above it.
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
/// `offsets[i]..offsets[i+1]` feed output row `i`, edge `e` reading row
/// `idx[e]` of `values` (a source id for fusion, a segment id for the
/// pull backward, an edge id for planned scatter). The gather is
/// **fused** into the walk: each segment streams its rows straight out
/// of `values` exactly once — no materialized gather — while a software
/// prefetch (a fixed lookahead of edges, clamped to the thread's chunk)
/// hides the irregular-access latency that dominates this kernel at
/// scale. The walk itself is [`simd::fold_segments`]: each output row
/// stays in registers across its segment and is written once, and the
/// lanes carry independent columns only.
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
    // A cache-resident gather gains nothing from prefetching.
    let prefetch = std::mem::size_of_val(vdata) >= PREFETCH_MIN_VALUE_BYTES;
    parallel_for(n, out, d, |seg0, chunk| {
        let segs = &offsets[seg0..=seg0 + chunk.len() / d];
        // SAFETY: `offsets` is sorted (asserted by `SegmentIndex::new`
        // and `check()`, built so by a plan) and ends at `idx.len()`, so
        // no offset exceeds it. Every caller bounds the rows `idx` names
        // by `values.rows()` — `check_rows` or `check()` a `src` (and the
        // transpose built from it), `check_values` a plan's `perm` — so
        // every row is a whole `d`-float row of `vdata`.
        unsafe { simd::fold_segments(chunk, d, kind, segs, vdata, idx, prefetch) };
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

/// Equal when the arrays are: the transpose and the plans are functions
/// of them.
impl PartialEq for SegmentIndex {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.src == other.src
    }
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
    segment_apply_into(out.data_mut(), d, offsets, kind, feats, src);
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
    segment_apply_into(out.data_mut(), d, offsets, kind, feats, src);
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
        segment_apply_into(rows, d, &tr.offsets, Reduce::Sum, grad_out, &tr.segs);
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
/// root, group `g = root·types + t` holding instances over leaf rows —
/// the HDG's one copy of its arrays (`hdg::Hdg` holds it), in one of three
/// layouts:
/// - **flat** ([`HierarchyIndex::new`]): Figure 9's arrays, group offsets
///   over instances and the instances over leaf rows;
/// - **unit** ([`HierarchyIndex::unit`]): every instance holds one leaf,
///   so the groups are one CSC straight over the leaves and the instances
///   are implied;
/// - **prefix tree** ([`HierarchyIndex::from_prefix_tree`]): MAGNN's
///   `[root, mid, end]` instances, each shared prefix once.
///
/// [`HierarchyIndex::for_each_instance`] walks each layout as it is, and
/// the pool a prefix tree; readers of the flat arrays get, from the last
/// two, a view built on first use. The upper levels' scatter plans, which
/// only an unfused (SA / SA+FA) execution reads, are built on first use
/// too. All are kept.
#[derive(Debug)]
pub struct HierarchyIndex {
    layout: Layout,
    /// The flat view of a unit layout or a prefix tree: a tree's group
    /// offsets, and the instances.
    view: (OnceLock<Vec<usize>>, OnceLock<Arc<SegmentIndex>>),
    types: usize,
    /// Instances in the largest group; sizes the kernels' scratch.
    widest: usize,
    /// One past the largest row an instance names.
    sources: usize,
    /// Instance → group, and group → root.
    plans: [OnceLock<Arc<ScatterPlan>>; 2],
}

#[derive(Debug)]
enum Layout {
    /// Group offsets over instances, and the instances.
    Flat(Vec<usize>, Arc<SegmentIndex>),
    /// The groups over their leaves, one instance each.
    Unit(Arc<SegmentIndex>),
    Tree(PrefixTree),
}

/// §4.1's revised CSC without what it implies (see
/// [`HierarchyIndex::from_prefix_tree`]).
#[derive(Debug)]
struct PrefixTree {
    roots: Vec<u32>,
    group_runs: Vec<u32>,
    runs: Vec<[u32; 2]>,
    ends: Vec<u32>,
}

impl HierarchyIndex {
    /// Panics unless `groups` runs, sorted, from 0 to the instance count
    /// over a whole number of roots of `types > 0` groups.
    pub fn new(groups: Vec<usize>, instances: SegmentIndex, types: usize) -> Self {
        let spans = groups.first() == Some(&0) && groups.last() == Some(&instances.segments());
        let whole = types > 0 && groups.len() % types == 1 % types;
        let sorted = groups.windows(2).all(|w| w[0] <= w[1]);
        assert!(spans && whole && sorted, "malformed hierarchy index");
        let widest = groups.windows(2).map(|w| w[1] - w[0]).max();
        let sources = instances.sources;
        let layout = Layout::Flat(groups, Arc::new(instances));
        Self::from_layout(layout, types, widest, sources)
    }

    /// The unit layout: group `g` holds one single-leaf instance per
    /// entry of `groups`' segment `g`, that entry's row its leaf. Panics
    /// unless the groups make a whole number of roots of `types > 0`.
    pub fn unit(groups: SegmentIndex, types: usize) -> Self {
        let whole = types > 0 && groups.offsets.len() % types == 1 % types;
        assert!(whole, "malformed hierarchy index");
        let widest = groups.offsets.windows(2).map(|w| w[1] - w[0]).max();
        let sources = groups.sources;
        Self::from_layout(Layout::Unit(Arc::new(groups)), types, widest, sources)
    }

    /// The prefix tree of `roots.len() × types` groups: group `g` holds
    /// runs `group_runs[g]..group_runs[g + 1]`, run `k` the instances
    /// `[roots[g / types], runs[k][0], e]`, `e` in `ends[runs[k][1]..
    /// runs[k + 1][1]]`. Panics unless `types > 0`, `group_runs` runs,
    /// sorted, from 0 to the last entry of `runs`, and run starts ascend
    /// strictly from 0 to that entry's, `ends.len()`.
    pub fn from_prefix_tree(
        roots: Vec<u32>,
        types: usize,
        group_runs: Vec<u32>,
        runs: Vec<[u32; 2]>,
        ends: Vec<u32>,
    ) -> Self {
        let shape = types > 0 && group_runs.len() == roots.len() * types + 1;
        let spans = group_runs.first() == Some(&0)
            && group_runs.last().map(|&k| k as usize + 1) == Some(runs.len())
            && runs.first().map(|r| r[1]) == Some(0)
            && runs.last().map(|r| r[1] as usize) == Some(ends.len());
        let sorted = group_runs.windows(2).all(|w| w[0] <= w[1])
            && runs.windows(2).all(|w| w[0][1] < w[1][1]);
        assert!(shape && spans && sorted, "malformed prefix tree");
        let mids = runs[..runs.len() - 1].iter().map(|r| &r[0]);
        let sources = roots.iter().chain(mids).chain(&ends).max();
        let sources = sources.map_or(0, |&m| m as usize + 1);
        let end = |k: &u32| runs[*k as usize][1] as usize;
        let widest = group_runs.windows(2).map(|w| end(&w[1]) - end(&w[0])).max();
        let tree = PrefixTree {
            roots,
            group_runs,
            runs,
            ends,
        };
        Self::from_layout(Layout::Tree(tree), types, widest, sources)
    }

    fn from_layout(layout: Layout, types: usize, widest: Option<usize>, sources: usize) -> Self {
        let (widest, view, plans) = (widest.unwrap_or(0), Default::default(), Default::default());
        Self {
            layout,
            view,
            types,
            widest,
            sources,
            plans,
        }
    }

    /// Group offsets over instances; a prefix tree's built on first use.
    pub fn groups(&self) -> &[usize] {
        match &self.layout {
            Layout::Flat(groups, _) => groups,
            Layout::Unit(groups) => groups.offsets(),
            Layout::Tree(t) => self.view.0.get_or_init(|| {
                (0..t.group_runs.len())
                    .map(|g| self.group_start(g))
                    .collect()
            }),
        }
    }

    /// The instances over leaf rows; a unit layout's or a prefix tree's,
    /// in order, built on first use.
    pub fn instances(&self) -> &Arc<SegmentIndex> {
        if let Layout::Flat(_, instances) = &self.layout {
            return instances;
        }
        self.view.1.get_or_init(|| {
            let (mut offsets, mut src) = (vec![0], Vec::with_capacity(self.num_leaves()));
            self.for_each_instance(|_, leaves| {
                src.extend(leaves);
                offsets.push(src.len());
            });
            Arc::new(SegmentIndex::new(offsets, src))
        })
    }

    /// A unit layout's groups, each over its leaf rows.
    pub fn leaf_groups(&self) -> Option<&Arc<SegmentIndex>> {
        match &self.layout {
            Layout::Unit(groups) => Some(groups),
            _ => None,
        }
    }

    /// Groups per root.
    pub fn types(&self) -> usize {
        self.types
    }

    /// A prefix tree's root rows, which all its instances start at.
    pub fn root_rows(&self) -> Option<&[u32]> {
        match &self.layout {
            Layout::Tree(t) => Some(&t.roots),
            _ => None,
        }
    }

    /// The rank of group `g`'s first instance (`g` up to the group
    /// count), read off the layout: no view is built.
    pub fn group_start(&self, g: usize) -> usize {
        match &self.layout {
            Layout::Tree(t) => t.runs[t.group_runs[g] as usize][1] as usize,
            _ => self.groups()[g],
        }
    }

    /// Hands each instance, in rank order, to `visit` as its group and its
    /// leaf rows, walking the layout as it is: no view is built.
    pub fn for_each_instance(&self, mut visit: impl FnMut(usize, &[u32])) {
        for g in 0..self.num_roots() * self.types {
            self.walk(g / self.types, self.span(g), |leaves| visit(g, leaves));
        }
    }

    /// Heap bytes of the arrays, a flat view's once built (plans and
    /// transposes not counted).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val as size;
        let csc = |i: &SegmentIndex| size(&i.offsets[..]) + size(&i.src[..]);
        let view =
            self.view.0.get().map_or(0, |g| size(&g[..])) + self.view.1.get().map_or(0, |i| csc(i));
        view + match &self.layout {
            Layout::Flat(groups, instances) => size(&groups[..]) + csc(instances),
            Layout::Unit(groups) => csc(groups),
            Layout::Tree(t) => {
                size(&t.roots[..]) + size(&t.group_runs[..]) + size(&t.runs[..]) + size(&t.ends[..])
            }
        }
    }

    /// The scatter plan of instances into their groups, built on first
    /// use.
    pub fn group_plan(&self) -> Arc<ScatterPlan> {
        Arc::clone(self.plans[0].get_or_init(|| owner_plan(self.groups())))
    }

    /// The scatter plan of groups into their roots, built on first use.
    pub fn root_plan(&self) -> Arc<ScatterPlan> {
        let plan = self.plans[1].get_or_init(|| {
            let roots: Vec<usize> = (0..=self.num_roots()).map(|r| r * self.types).collect();
            owner_plan(&roots)
        });
        Arc::clone(plan)
    }

    /// Number of roots (one output row each).
    pub fn num_roots(&self) -> usize {
        let flat = || (self.groups().len() - 1) / self.types;
        self.root_rows().map_or_else(flat, <[u32]>::len)
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.group_start(self.num_roots() * self.types)
    }

    /// Number of leaf entries over all instances.
    pub fn num_leaves(&self) -> usize {
        match &self.layout {
            Layout::Flat(_, index) | Layout::Unit(index) => index.src.len(),
            Layout::Tree(t) => 3 * t.ends.len(),
        }
    }

    /// Floats of scratch one thread of either kernel needs: the largest
    /// group's instance means and softmax weights, and five `d`-rows.
    pub(crate) fn scratch_len(&self, d: usize) -> usize {
        (2 * self.widest + 5) * d
    }

    /// Panics unless every row an instance names is below `rows`.
    fn check_rows(&self, rows: usize) {
        if self.sources > rows {
            panic!("source row {} out of range", self.sources - 1);
        }
    }

    /// Group `g` as a range of the level below: instances, or runs.
    fn span(&self, g: usize) -> (usize, usize) {
        match &self.layout {
            Layout::Tree(t) => (t.group_runs[g] as usize, t.group_runs[g + 1] as usize),
            _ => (self.groups()[g], self.groups()[g + 1]),
        }
    }

    /// The non-empty groups of root `r`, as [`HierarchyIndex::span`]s.
    fn groups_of(&self, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let groups = r * self.types..(r + 1) * self.types;
        groups.map(|g| self.span(g)).filter(|(lo, hi)| lo < hi)
    }

    /// Hands each instance of root `r`'s group `span` to `visit` as its
    /// leaf rows, in order.
    fn walk(&self, r: usize, (lo, hi): (usize, usize), mut visit: impl FnMut(&[u32])) {
        match &self.layout {
            Layout::Flat(_, i) => i.offsets[lo..=hi]
                .windows(2)
                .for_each(|w| visit(&i.src[w[0]..w[1]])),
            Layout::Unit(groups) => groups.src[lo..hi].chunks(1).for_each(visit),
            Layout::Tree(t) => {
                for k in lo..hi {
                    let ([mid, first], last) = (t.runs[k], t.runs[k + 1][1]);
                    for &end in &t.ends[first as usize..last as usize] {
                        visit(&[t.roots[r], mid, end]);
                    }
                }
            }
        }
    }

    /// Root `r`'s group `span`'s instance means over `h`'s rows, into
    /// `xs` — the fold [`segment_reduce_into`] runs, from zero — and
    /// their count. A prefix tree folds `0 + h[root]` once per group and
    /// `+ h[mid]` once per run, then `+ h[end]` and the `1/3` scale per
    /// instance: the flat fold's chain. The caller has run `check_rows`.
    fn means(
        &self,
        h: &Tensor,
        (r, (lo, hi)): (usize, (usize, usize)),
        xs: &mut [f32],
        [prefix, run]: [&mut [f32]; 2],
    ) -> usize {
        let (d, rows) = (h.cols(), h.data());
        let Layout::Tree(t) = &self.layout else {
            let (xs, index) = (&mut xs[..(hi - lo) * d], self.instances());
            xs.fill(0.0);
            // SAFETY: `SegmentIndex::new` checked that its sorted offsets
            // end at `src.len()`, so no offset exceeds it; and
            // `check_rows` bounds every source row below `h.rows()`.
            unsafe {
                let (offsets, src) = (&index.offsets[lo..=hi], &index.src);
                simd::fold_segments(xs, d, Reduce::Mean, offsets, rows, src, false);
            }
            return hi - lo;
        };
        let row = |v: u32| {
            debug_assert!((v as usize) < h.rows());
            // SAFETY: `check_rows` bounded every root, mid and end row
            // below `h.rows()`: row `v` is a whole `d`-float row.
            unsafe { rows.get_unchecked(v as usize * d..(v as usize + 1) * d) }
        };
        let n = (t.runs[hi][1] - t.runs[lo][1]) as usize;
        let mut means = xs[..n * d].chunks_exact_mut(d);
        // One pass per row, no `fill` or copy call: 28 k fewer calls a
        // pass on the ledger's HDG, 2.1–2.2 → 1.6–1.8 ms.
        for (p, &v) in prefix.iter_mut().zip(row(t.roots[r])) {
            *p = 0.0 + v;
        }
        for k in lo..hi {
            let ([mid, first], last) = (t.runs[k], t.runs[k + 1][1]);
            for ((q, &p), &v) in run.iter_mut().zip(&*prefix).zip(row(mid)) {
                *q = p + v;
            }
            debug_assert!(first < last && last as usize <= t.ends.len());
            // SAFETY: `from_prefix_tree` checked that run starts ascend
            // to `ends.len()`.
            let ends = unsafe { t.ends.get_unchecked(first as usize..last as usize) };
            // `ends` leads, so the zip draws no row past a run's last end.
            for (&end, x) in ends.iter().zip(means.by_ref()) {
                for ((x, &p), &v) in x.iter_mut().zip(&*run).zip(row(end)) {
                    *x = (p + v) * (1.0 / 3.0);
                }
            }
        }
        n
    }

    /// Root `r`'s group `span`'s instance means ([`HierarchyIndex::means`])
    /// into `xs` and their weights into `ws` — the [`softmax_segment`]
    /// the unfused chain runs per group — handing each instance's mean
    /// and weight rows to `weighed`. The caller has run `check_rows`.
    fn attend<'s>(
        &self,
        h: &Tensor,
        group: (usize, (usize, usize)),
        [xs, ws, maxes, sums]: [&'s mut [f32]; 4],
        mut weighed: impl FnMut(&[f32], &[f32]),
    ) -> (&'s [f32], &'s [f32]) {
        let d = h.cols();
        // The softmax sets `maxes` and `sums` itself.
        let n = self.means(h, group, xs, [&mut *maxes, &mut *sums]);
        let (xs, ws) = (&xs[..n * d], &mut ws[..n * d]);
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
    index.check_rows(h.rows());
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
            for span in index.groups_of(r) {
                acc.fill(0.0);
                index.attend(h, (r, span), [xs, ws, maxes, sums], |x, s| {
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
/// added into its leaves' rows in order ([`segment_reduce_backward_into`]'s
/// push) — a prefix tree's root, mid and end rows too.
pub(crate) fn hierarchical_attention_pool_backward_into(
    grad_h: &mut Tensor,
    grad_out: &Tensor,
    scratch: &mut [f32],
    h: &Tensor,
    index: &HierarchyIndex,
) {
    index.check_rows(h.rows());
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
    for r in 0..index.num_roots() {
        for (g, &y) in g.iter_mut().zip(grad_out.row(r)) {
            *g = y * inv_types;
        }
        for span in index.groups_of(r) {
            z.fill(0.0);
            let (x, s) = index.attend(h, (r, span), [xs, ws, maxes, sums], |x, s| {
                for (((z, &g), &x), &s) in z.iter_mut().zip(&*g).zip(x).zip(s) {
                    *z += (g * x) * s;
                }
            });
            let mut rows = s.chunks(d).zip(x.chunks(d));
            index.walk(r, span, |leaves| {
                let (s, x) = rows.next().expect("one mean per instance");
                let inv_len = 1.0 / leaves.len() as f32;
                // The Mean push's `row += (1/len) · o`, its product taken
                // once for all of the instance's leaves.
                for ((((o, &g), &x), &s), &z) in o.iter_mut().zip(&*g).zip(x).zip(s).zip(&*z) {
                    *o = inv_len * (g * s + s * (g * x - z));
                }
                for &leaf in leaves {
                    simd::add_assign(grad_h.row_mut(leaf as usize), o);
                }
            });
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
