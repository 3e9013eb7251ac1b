//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node on a tape; calling
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients.
//! One graph instance corresponds to one forward/backward pass — models
//! build a fresh graph per training step, read parameter gradients out via
//! [`Graph::collect_grads`], and let the optimizer apply them.
//!
//! The operation set is exactly what FlexGraph's models need: dense NN ops
//! (matmul, with or without a ReLU on its output, bias, concat,
//! elementwise), the sparse aggregation ops
//! over a cached [`ScatterPlan`] (gather / scatter-add / scatter-softmax),
//! the fused segment reduction, the dense schema-level block mean of the
//! paper's Figure 10, MAGNN's whole hierarchical aggregation as one fused
//! op over a [`HierarchyIndex`], and a fused softmax cross-entropy loss.
//!
//! # Three recordings of one aggregation
//!
//! A tape records the two aggregation calls under one of §7.5's
//! [`Strategy`]s, with no op kind of its own: HA ([`Graph::new`]) as the
//! fused ops above; SA+FA with MAGNN's pool spelled out as Figure 7's
//! chain — instance means, scatter softmax, `mul`, a planned scatter-add
//! into the groups, and the block mean as a planned scatter-add into the
//! roots and a `mul` by `1/types`; SA as that chain with every segment
//! reduction recorded sparse — a gather of one row per edge, a planned
//! scatter-add, and for a mean a `mul` by a constant leaf of reciprocal
//! segment lengths. Each recording accumulates every output in the same
//! order, so the three give the same bits; what they differ in is the
//! tensors they write.
//!
//! # Which nodes get a gradient, and for how long
//!
//! A node *needs a gradient* if it is a [`Graph::param`], or an operation
//! with an input that does; a [`Graph::leaf`] never does. Backward skips
//! nodes that do not, and computes no contribution for an input that does
//! not (the `dC·Bᵀ` of a matmul whose left operand is the feature matrix,
//! the scatter of a leaf-fed segment reduction). An interior node's
//! gradient lives only until it has been propagated to the node's inputs:
//! it is handed to the last input that can take it as is, or returned to
//! the free list. After [`Graph::backward`] only parameter nodes hold a
//! gradient, so [`Graph::grad`] answers `Some` for those alone.
//!
//! # Buffer reuse
//!
//! Every value, gradient and kernel scratch the tape creates — and the
//! tensor an op keeps for its own backward (only in a node that needs a
//! gradient), the cross-entropy's probabilities — is drawn from an
//! exact-length free list the tape owns, and goes back to it when
//! released or when the tape drops. It keeps only what backward reads: a
//! matmul's backward reads `dC·Bᵀ` and `Aᵀ·dC`'s operands in place
//! ([`Tensor::matmul_nt_into`], [`Tensor::matmul_tn_into`]); a ReLU
//! rides on its matmul ([`Graph::matmul_relu`]) and masks by its output;
//! a tensor that outlives the tape is a leaf [`Value`] lent for the
//! tape's lifetime or shared through an `Arc`, never copied, and never
//! returned to the list. A suffix of the tape that needs no gradient can
//! be collapsed into one shared leaf ([`Graph::collapse_into_leaf`]): its
//! other buffers return to the list mid-pass, for the nodes recorded next.
//!
//! A static HDG makes every epoch's tape the same sequence of shapes, so
//! the list is handed from one tape to the next: a dropping tape parks it
//! in a thread-local, and the next [`Graph::new`] on that thread adopts
//! it. A buffer the adopting pass never draws is freed when that pass
//! drops, so what is retained is bounded by one pass — a model whose
//! shapes change every epoch cannot accumulate buffers.
//! A drawn buffer holds stale values: the tape hands it either to an
//! `_into` kernel that overwrites its output entirely, or — for the
//! accumulating kernels (matmul, the scatter and segment sums) — zeroes
//! it first, so which buffer a draw returns never shows in a result.

use crate::fusion::{
    hierarchical_attention_pool_backward_into, hierarchical_attention_pool_into,
    segment_reduce_backward_into, segment_reduce_into, HierarchyIndex, Reduce, SegmentIndex,
};
use crate::par::num_threads;
use crate::scatter::{
    gather_rows_into, scatter_add_with_plan_into, scatter_softmax_backward_into,
    scatter_softmax_with_plan_into, ScatterPlan,
};
use crate::simd;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::Arc;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// How a node's value was produced, with everything backward needs.
enum Op {
    /// Input with no gradient tracking (features, constants).
    Leaf,
    /// Trainable parameter; `slot` is its index in the external
    /// [`crate::optim::ParamSet`].
    Param { slot: usize },
    /// `a · b`, or `max(a · b, 0)` if the flag is set: the ReLU's
    /// backward reads its mask off the output.
    MatMul(NodeId, NodeId, bool),
    /// Elementwise `a + b`.
    Add(NodeId, NodeId),
    /// `a + bias` with `bias` broadcast over rows.
    AddBias(NodeId, NodeId),
    /// Elementwise `a * b`.
    Mul(NodeId, NodeId),
    /// Logistic sigmoid `1 / (1 + e^{-a})`.
    Sigmoid(NodeId),
    /// `[a | b]` horizontal concatenation.
    ConcatCols(NodeId, NodeId),
    /// Row gather: output row `i` is `a[plan.index()[i]]`. The plan is
    /// over the gather index with `a`'s row count as destination space,
    /// which is exactly the scatter plan the backward needs.
    Gather(NodeId, Arc<ScatterPlan>),
    /// Scatter-add of rows; the plan carries the destination grouping
    /// for both directions (backward is a gather by `plan.index()`).
    ScatterAdd(NodeId, Arc<ScatterPlan>),
    /// Per-group softmax over rows sharing a destination index.
    ScatterSoftmax(NodeId, Arc<ScatterPlan>),
    /// Fused hierarchical attention pool, leaves → roots; it keeps no
    /// tensor, as its backward recomputes each group's means and softmax
    /// weights in scratch.
    HierarchicalAttentionPool {
        /// Leaf rows.
        h: NodeId,
        /// The three levels over them.
        index: Arc<HierarchyIndex>,
    },
    /// Fused segment reduce (feature fusion): the `Arc`'d index avoids
    /// copying edge-scale data onto the tape, and keeps the transpose
    /// its backward may build for the next tape.
    SegmentReduce {
        /// Input features.
        a: NodeId,
        /// Destination-major segments over `a`'s rows.
        index: Arc<SegmentIndex>,
        /// Whether the reduction is a mean (else sum).
        mean: bool,
    },
    /// Mean over consecutive row blocks of size `block` (dense
    /// schema-level aggregation, paper Figure 10).
    MeanRowBlocks(NodeId, usize),
    /// Fused mean softmax cross-entropy against integer class targets;
    /// `probs` are the forward pass's row softmax, which backward turns
    /// into the logits' gradient in place (no second `exp` pass).
    CrossEntropy {
        /// Pre-softmax scores, one row per target.
        logits: NodeId,
        /// Class index of each row.
        targets: Vec<usize>,
        /// `softmax_rows(logits)`, until backward takes it; `None` from
        /// the start if the node needs no gradient.
        probs: Option<Tensor>,
    },
    /// Mean of all elements (scalar output).
    MeanAll(NodeId),
}

impl Op {
    /// The tape nodes this operation read.
    fn inputs(&self) -> [Option<NodeId>; 2] {
        match self {
            Op::Leaf | Op::Param { .. } => [None, None],
            Op::MatMul(a, b, _)
            | Op::Add(a, b)
            | Op::AddBias(a, b)
            | Op::Mul(a, b)
            | Op::ConcatCols(a, b) => [Some(*a), Some(*b)],
            Op::Sigmoid(a)
            | Op::Gather(a, _)
            | Op::ScatterAdd(a, _)
            | Op::ScatterSoftmax(a, _)
            | Op::HierarchicalAttentionPool { h: a, .. }
            | Op::SegmentReduce { a, .. }
            | Op::MeanRowBlocks(a, _)
            | Op::CrossEntropy { logits: a, .. }
            | Op::MeanAll(a) => [Some(*a), None],
        }
    }
}

/// A node's value. An op's output is the tape's own; a leaf's may also
/// be lent for the tape's lifetime or shared through an `Arc`, and is
/// then neither copied onto the tape nor reused when the tape drops.
pub enum Value<'a> {
    /// The tape's own buffer.
    Owned(Tensor),
    /// A tensor that outlives the tape (the feature matrix).
    Lent(&'a Tensor),
    /// A tensor shared across tapes (an aggregate memoised across epochs).
    Shared(Arc<Tensor>),
}

impl From<Tensor> for Value<'_> {
    fn from(t: Tensor) -> Self {
        Value::Owned(t)
    }
}

impl<'a> From<&'a Tensor> for Value<'a> {
    fn from(t: &'a Tensor) -> Self {
        Value::Lent(t)
    }
}

impl From<Arc<Tensor>> for Value<'_> {
    fn from(t: Arc<Tensor>) -> Self {
        Value::Shared(t)
    }
}

struct Node<'a> {
    value: Value<'a>,
    grad: Option<Tensor>,
    op: Op,
    /// Whether backward must produce a gradient for this node: it is a
    /// parameter, or an operation with an input that needs one.
    needs_grad: bool,
}

impl Node<'_> {
    /// Every buffer the node owns: its value unless lent or shared, its
    /// gradient, and the tensor its op keeps for backward.
    fn into_buffers(self) -> impl Iterator<Item = Tensor> {
        let kept = match self.op {
            Op::CrossEntropy { probs: kept, .. } => kept,
            _ => None,
        };
        let value = match self.value {
            Value::Owned(t) => Some(t),
            Value::Lent(_) | Value::Shared(_) => None,
        };
        value.into_iter().chain(self.grad).chain(kept)
    }
}

/// How a tape records its aggregation (paper §7.5; see the module
/// docs): the sparse scatter ops only, feature fusion at the leaves, or
/// FlexGraph's hybrid of fusion and dense schema-level ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Sparse scatter operations only.
    Sa,
    /// Feature fusion at the bottom level, sparse elsewhere.
    SaFa,
    /// Feature fusion + sparse + dense (FlexGraph's hybrid strategy).
    Ha,
}

thread_local! {
    /// The buffers of the last tape dropped on this thread, waiting for
    /// the next [`Graph::new`] to adopt them.
    static PARKED: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Exact-length free list of `f32` buffers (see the module docs).
#[derive(Default)]
struct FreeList {
    /// Buffers this pass has released.
    released: Vec<Vec<f32>>,
    /// Buffers adopted from the previous pass and not drawn so far;
    /// whatever is still here when the tape drops is freed.
    inherited: Vec<Vec<f32>>,
    /// Bytes of the draws the list could not serve (the allocator did).
    allocated: usize,
}

impl FreeList {
    /// A `rows × cols` tensor with unspecified contents.
    fn draw(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let take = |list: &mut Vec<Vec<f32>>| {
            let i = list.iter().rposition(|b| b.len() == len)?;
            Some(list.swap_remove(i))
        };
        let buf = take(&mut self.released)
            .or_else(|| take(&mut self.inherited))
            .unwrap_or_else(|| {
                self.allocated += len * std::mem::size_of::<f32>();
                vec![0.0; len]
            });
        Tensor::from_vec(rows, cols, buf)
    }

    /// A zeroed `rows × cols` tensor, for the accumulating kernels.
    fn draw_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.draw(rows, cols);
        t.data_mut().fill(0.0);
        t
    }

    fn release(&mut self, t: Tensor) {
        self.released.push(t.into_vec());
    }
}

/// A single forward/backward tape; `'a` is how long a lent leaf lives.
pub struct Graph<'a> {
    nodes: Vec<Node<'a>>,
    pool: FreeList,
    strategy: Strategy,
}

impl Default for Graph<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph<'_> {
    /// Parks every buffer this tape owns for the next tape on this
    /// thread; adopted buffers it never drew are freed with it.
    fn drop(&mut self) {
        let mut parked = std::mem::take(&mut self.pool.released);
        let buffers = self.nodes.drain(..).flat_map(Node::into_buffers);
        parked.extend(buffers.map(Tensor::into_vec));
        // The thread-local is gone while the thread itself is exiting;
        // the buffers are then simply freed.
        let _ = PARKED.try_with(|p| p.replace(parked));
    }
}

impl<'a> Graph<'a> {
    /// Creates an empty tape that records aggregation under HA,
    /// adopting the free list the previous tape on this thread left
    /// behind.
    pub fn new() -> Self {
        Self::with_strategy(Strategy::Ha)
    }

    /// [`Graph::new`], recording aggregation under `strategy`.
    pub fn with_strategy(strategy: Strategy) -> Self {
        Graph {
            nodes: Vec::new(),
            pool: FreeList {
                inherited: PARKED.try_with(RefCell::take).unwrap_or_default(),
                ..FreeList::default()
            },
            strategy,
        }
    }

    fn push(&mut self, value: impl Into<Value<'a>>, op: Op) -> NodeId {
        let needs_grad = matches!(op, Op::Param { .. })
            || op.inputs().into_iter().flatten().any(|id| self.needs(id));
        self.nodes.push(Node {
            value: value.into(),
            grad: None,
            op,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// A pooled tensor shaped like node `id`'s value, contents
    /// unspecified.
    fn draw_like(&mut self, id: NodeId) -> Tensor {
        let (rows, cols) = self.value(id).shape();
        self.pool.draw(rows, cols)
    }

    /// [`Graph::draw_like`], zeroed.
    fn zeros_like(&mut self, id: NodeId) -> Tensor {
        let (rows, cols) = self.value(id).shape();
        self.pool.draw_zeroed(rows, cols)
    }

    /// A pooled `1×1` tensor holding `x`.
    fn scalar(&mut self, x: f32) -> Tensor {
        let mut t = self.pool.draw(1, 1);
        t.set(0, 0, x);
        t
    }

    /// Registers an input that does not require gradients: an owned
    /// tensor, one lent for the tape's lifetime, or one shared through an
    /// `Arc`. Only an owned one is the tape's to reuse.
    pub fn leaf(&mut self, value: impl Into<Value<'a>>) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Collapses everything recorded since `mark` (a [`Graph::len`]
    /// taken earlier) into one leaf holding `node`'s value, and returns
    /// that leaf with the value, shared: a caller keeps it for later
    /// tapes without a copy. Backward would have skipped the whole
    /// suffix, so the tape computes the same gradients without it; every
    /// other buffer the suffix held — values, and what its ops kept —
    /// goes back to the free list for the nodes recorded next. Ids of the
    /// suffix's nodes other than the returned one are invalid afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not recorded after `mark`, or if any node
    /// after `mark` needs a gradient.
    pub fn collapse_into_leaf(&mut self, mark: usize, node: NodeId) -> (NodeId, Arc<Tensor>) {
        assert!(
            (mark..self.nodes.len()).contains(&node.0),
            "the collapsed node must be recorded after the mark"
        );
        assert!(
            self.nodes[mark..].iter().all(|n| !n.needs_grad),
            "a collapsed suffix must need no gradient"
        );
        let mut suffix = self.nodes.split_off(mark);
        // Needing no gradient, the node holds nothing but its value.
        let value = match suffix.swap_remove(node.0 - mark).value {
            Value::Owned(t) => Arc::new(t),
            Value::Lent(t) => Arc::new(t.clone()),
            Value::Shared(t) => t,
        };
        for buf in suffix.into_iter().flat_map(Node::into_buffers) {
            self.pool.release(buf);
        }
        (self.leaf(Arc::clone(&value)), value)
    }

    /// Registers a trainable parameter living in external `slot`.
    pub fn param(&mut self, value: Tensor, slot: usize) -> NodeId {
        self.push(value, Op::Param { slot })
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        match &self.nodes[id.0].value {
            Value::Owned(t) => t,
            Value::Lent(t) => t,
            Value::Shared(t) => t,
        }
    }

    /// The gradient of a parameter node, once backward has reached it.
    /// Interior nodes give their gradient up as soon as it has been
    /// propagated, and leaves never receive one: both answer `None`.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.matmul_op(a, b, false)
    }

    /// `max(a · b, 0)`, one node: the ReLU runs in place on the product,
    /// and its backward masks by the output (`y > 0` exactly where
    /// `x > 0`, NaN and `±0` included), so no pre-activation is kept.
    pub fn matmul_relu(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.matmul_op(a, b, true)
    }

    fn matmul_op(&mut self, a: NodeId, b: NodeId, relu: bool) -> NodeId {
        let (rows, cols) = (self.value(a).rows(), self.value(b).cols());
        let mut v = self.pool.draw_zeroed(rows, cols);
        self.value(a).matmul_into(self.value(b), &mut v);
        if relu {
            v.relu_inplace();
        }
        self.push(v, Op::MatMul(a, b, relu))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.draw_like(a);
        self.value(a).zip_into(self.value(b), &mut v, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1×d` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut v = self.draw_like(a);
        self.value(a)
            .add_row_broadcast_into(self.value(bias), &mut v);
        self.push(v, Op::AddBias(a, bias))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.draw_like(a);
        self.value(a).zip_into(self.value(b), &mut v, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Logistic sigmoid (used by gated aggregations, e.g. G-GCN's edge
    /// gates).
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut v = self.draw_like(a);
        self.value(a)
            .map_into(&mut v, |x| 1.0 / (1.0 + simd::exp(-x)));
        self.push(v, Op::Sigmoid(a))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (
            self.value(a).rows(),
            self.value(a).cols() + self.value(b).cols(),
        );
        let mut v = self.pool.draw(rows, cols);
        self.value(a).concat_cols_into(self.value(b), &mut v);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Row gather (differentiable indexing). Builds a one-shot plan for
    /// the backward scatter; callers that gather with the same index
    /// every step should cache a plan (over `idx` with `a`'s row count
    /// as destinations) and use [`Graph::gather_with_plan`].
    pub fn gather(&mut self, a: NodeId, idx: &[u32]) -> NodeId {
        let plan = Arc::new(ScatterPlan::new(idx, self.value(a).rows()));
        self.gather_with_plan(a, plan)
    }

    /// [`Graph::gather`] reusing a cached plan (built over the gather
    /// index with the source row count as destination space).
    pub fn gather_with_plan(&mut self, a: NodeId, plan: Arc<ScatterPlan>) -> NodeId {
        assert_eq!(
            self.value(a).rows(),
            plan.out_rows(),
            "gather plan must cover the source rows"
        );
        let cols = self.value(a).cols();
        let mut v = self.pool.draw(plan.num_edges(), cols);
        gather_rows_into(&mut v, self.value(a), plan.index());
        self.push(v, Op::Gather(a, plan))
    }

    /// Differentiable scatter-add into the plan's destinations.
    pub fn scatter_add_with_plan(&mut self, a: NodeId, plan: Arc<ScatterPlan>) -> NodeId {
        let cols = self.value(a).cols();
        let mut v = self.pool.draw_zeroed(plan.out_rows(), cols);
        scatter_add_with_plan_into(&mut v, self.value(a), &plan);
        self.push(v, Op::ScatterAdd(a, plan))
    }

    /// Differentiable scatter-softmax: rows sharing a plan segment are
    /// soft-maxed against each other per column (the attention
    /// normalization of the paper's MAGNN Figure 7, `scatter_softmax`).
    /// Output has the shape of `a`.
    pub fn scatter_softmax_with_plan(&mut self, a: NodeId, plan: Arc<ScatterPlan>) -> NodeId {
        let mut v = self.draw_like(a);
        scatter_softmax_with_plan_into(&mut v, self.value(a), &plan);
        self.push(v, Op::ScatterSoftmax(a, plan))
    }

    /// MAGNN's aggregation (paper Figure 7), bit-identical, value and
    /// gradient, to [`Graph::segment_reduce`] (mean) →
    /// [`Graph::scatter_softmax_with_plan`] → [`Graph::mul`] →
    /// [`Graph::scatter_add_with_plan`] → [`Graph::mean_row_blocks`]; it
    /// writes and keeps no instance-sized tensor (the backward recomputes
    /// the softmax weights). Under SA
    /// and SA+FA the tape records that chain instead, the block mean as
    /// a planned scatter-add and a `mul` by `1/types`.
    pub fn hierarchical_attention_pool(&mut self, h: NodeId, index: Arc<HierarchyIndex>) -> NodeId {
        if self.strategy != Strategy::Ha {
            let (to_group, types) = (index.group_plan(), index.types());
            let inst = self.segment_reduce(h, Arc::clone(index.instances()), true);
            let weights = self.scatter_softmax_with_plan(inst, Arc::clone(&to_group));
            let weighted = self.mul(weights, inst);
            let groups = self.scatter_add_with_plan(weighted, to_group);
            let roots = self.scatter_add_with_plan(groups, index.root_plan());
            return self.times_reciprocal(roots, |_| types);
        }
        let d = self.value(h).cols();
        let mut v = self.pool.draw(index.num_roots(), d);
        let mut scratch = self.pool.draw(num_threads(), index.scratch_len(d));
        hierarchical_attention_pool_into(&mut v, &mut scratch, self.value(h), &index);
        self.pool.release(scratch);
        self.push(v, Op::HierarchicalAttentionPool { h, index })
    }

    /// Differentiable *fused* segment reduction (feature fusion, paper
    /// §4.2): destination `i` reduces `a[src[offsets[i]..offsets[i+1]]]`
    /// without materializing per-edge rows, `offsets` and `src` being the
    /// index's. `mean` selects mean over sum. Under SA the tape records
    /// a gather of one row per edge and a planned scatter-add instead
    /// (the plans cached on the index), a mean as that sum times the
    /// reciprocal segment lengths.
    pub fn segment_reduce(&mut self, a: NodeId, index: Arc<SegmentIndex>, mean: bool) -> NodeId {
        if self.strategy == Strategy::Sa {
            let (gather, scatter) = index.sparse_plans(self.value(a).rows());
            let edges = self.gather_with_plan(a, gather);
            let sum = self.scatter_add_with_plan(edges, scatter);
            let offsets = index.offsets();
            return match mean {
                true => self.times_reciprocal(sum, |t| offsets[t + 1] - offsets[t]),
                false => sum,
            };
        }
        let kind = if mean { Reduce::Mean } else { Reduce::Sum };
        let cols = self.value(a).cols();
        let mut v = self.pool.draw_zeroed(index.offsets().len() - 1, cols);
        segment_reduce_into(&mut v, self.value(a), &index, kind);
        self.push(v, Op::SegmentReduce { a, index, mean })
    }

    /// `sum` times a constant leaf whose row `t` is `1 / len(t)` (zero for
    /// an empty segment): a mean recorded as a sum and a [`Graph::mul`],
    /// with the fused reductions' bits.
    fn times_reciprocal(&mut self, sum: NodeId, len: impl Fn(usize) -> usize) -> NodeId {
        let (rows, cols) = self.value(sum).shape();
        let mut inv = self.pool.draw(rows, cols);
        for t in 0..rows {
            let n = len(t);
            let r = if n == 0 { 0.0 } else { 1.0 / n as f32 };
            inv.row_mut(t).fill(r);
        }
        let inv = self.leaf(inv);
        self.mul(sum, inv)
    }

    /// Mean over consecutive row blocks of size `block`: `(n·block, d) →
    /// (n, d)`. This is the reshape-then-reduce dense op of Figure 10.
    pub fn mean_row_blocks(&mut self, a: NodeId, block: usize) -> NodeId {
        assert!(block > 0, "block size must be positive");
        let (rows, cols) = self.value(a).shape();
        let mut v = self.pool.draw_zeroed(rows / block, cols);
        reduce_row_blocks_into(&mut v, self.value(a), block, true);
        self.push(v, Op::MeanRowBlocks(a, block))
    }

    /// Fused softmax cross-entropy, averaged over rows. `targets[i]` is the
    /// class index of row `i`. Produces a `1×1` scalar node.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        assert_eq!(
            self.value(logits).rows(),
            targets.len(),
            "one target per logits row"
        );
        let mut probs = self.draw_like(logits);
        self.value(logits).softmax_rows_into(&mut probs);
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            loss -= (probs.get(r, t).max(1e-12) as f64).ln();
        }
        let v = self.scalar((loss / targets.len() as f64) as f32);
        // Kept only if backward will run through this node.
        let probs = if self.needs(logits) {
            Some(probs)
        } else {
            self.pool.release(probs);
            None
        };
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Mean of all elements, as a `1×1` scalar node.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = self.scalar(self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Runs reverse-mode accumulation from `root` (which must be `1×1`).
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward starts from a scalar loss"
        );
        if !self.needs(root) {
            return; // No parameter feeds the loss.
        }
        let one = self.scalar(1.0);
        self.nodes[root.0].grad = Some(one);
        for i in (0..=root.0).rev() {
            if matches!(self.nodes[i].op, Op::Leaf | Op::Param { .. }) {
                continue;
            }
            if let Some(grad) = self.nodes[i].grad.take() {
                self.propagate(i, grad);
            }
        }
    }

    /// Adds the owned contribution `g` to the pending gradient of `id`:
    /// moved into an empty slot, else accumulated and released.
    fn give(&mut self, id: NodeId, g: Tensor) {
        debug_assert!(self.needs(id), "contribution computed for a dead input");
        match &mut self.nodes[id.0].grad {
            Some(acc) => {
                acc.add_assign(&g);
                self.pool.release(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Graph::give`] for a contribution the caller still needs.
    fn give_copy(&mut self, id: NodeId, g: &Tensor) {
        if let Some(acc) = &mut self.nodes[id.0].grad {
            acc.add_assign(g);
        } else {
            let mut copy = self.pool.draw(g.rows(), g.cols());
            copy.data_mut().copy_from_slice(g.data());
            self.give(id, copy);
        }
    }

    /// Propagates node `i`'s finished gradient to the inputs that need
    /// one, then lets go of it.
    fn propagate(&mut self, i: usize, mut grad: Tensor) {
        // `op` is moved out temporarily so we can mutate `self` while
        // reading the recorded inputs.
        let mut op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        // Each arm yields `grad` back unless it moved it into an input.
        // A one-input op only gets here if that input needs a gradient.
        let leftover = match &mut op {
            Op::Leaf | Op::Param { .. } => Some(grad),
            Op::MatMul(a, b, relu) => {
                if *relu {
                    let y = self.value(NodeId(i));
                    grad.zip_inplace(y, |g, y| g * if y > 0.0 { 1.0 } else { 0.0 });
                }
                // dA = dC·Bᵀ, dB = Aᵀ·dC, each operand read in place.
                if self.needs(*a) {
                    let mut ga = self.zeros_like(*a);
                    grad.matmul_nt_into(self.value(*b), &mut ga);
                    self.give(*a, ga);
                }
                if self.needs(*b) {
                    let mut gb = self.zeros_like(*b);
                    self.value(*a).matmul_tn_into(&grad, &mut gb);
                    self.give(*b, gb);
                }
                Some(grad)
            }
            Op::Add(a, b) => {
                // Both adjoints are `grad` itself: the last input that
                // needs one takes the buffer.
                if self.needs(*a) && self.needs(*b) {
                    self.give_copy(*a, &grad);
                }
                let last = if self.needs(*b) { *b } else { *a };
                self.give(last, grad);
                None
            }
            Op::AddBias(a, bias) => {
                let gb = self.needs(*bias).then(|| {
                    let mut gb = self.zeros_like(*bias);
                    grad.sum_rows_into(&mut gb);
                    gb
                });
                let leftover = if self.needs(*a) {
                    self.give(*a, grad);
                    None
                } else {
                    Some(grad)
                };
                if let Some(gb) = gb {
                    self.give(*bias, gb);
                }
                leftover
            }
            Op::Mul(a, b) => {
                if self.needs(*a) {
                    let mut ga = self.draw_like(*a);
                    grad.zip_into(self.value(*b), &mut ga, |g, y| g * y);
                    self.give(*a, ga);
                }
                if self.needs(*b) {
                    grad.zip_inplace(self.value(*a), |g, x| g * x);
                    self.give(*b, grad);
                    None
                } else {
                    Some(grad)
                }
            }
            Op::Sigmoid(a) => {
                // d/dx σ(x) = σ(x)·(1 − σ(x)), read from the forward value.
                grad.zip_inplace(self.value(NodeId(i)), |g, y| g * (y * (1.0 - y)));
                self.give(*a, grad);
                None
            }
            Op::ConcatCols(a, b) => {
                let mut start = 0;
                for id in [*a, *b] {
                    if self.needs(id) {
                        let mut g = self.draw_like(id);
                        grad.slice_cols_into(start, &mut g);
                        self.give(id, g);
                    }
                    start += self.value(id).cols();
                }
                Some(grad)
            }
            Op::Gather(a, plan) => {
                // Adjoint of gather is scatter-add back to the source rows;
                // the forward plan (index over `a`'s rows) is exactly the
                // backward scatter's plan.
                let mut g = self.zeros_like(*a);
                scatter_add_with_plan_into(&mut g, &grad, plan);
                self.give(*a, g);
                Some(grad)
            }
            Op::ScatterAdd(a, plan) => {
                // Adjoint of scatter-add is gather from the destinations.
                let mut g = self.draw_like(*a);
                gather_rows_into(&mut g, &grad, plan.index());
                self.give(*a, g);
                Some(grad)
            }
            Op::ScatterSoftmax(a, plan) => {
                let mut g = self.draw_like(*a);
                scatter_softmax_backward_into(&mut g, &grad, self.value(NodeId(i)), plan);
                self.give(*a, g);
                Some(grad)
            }
            Op::HierarchicalAttentionPool { h, index } => {
                let mut g = self.zeros_like(*h);
                let mut scratch = self.pool.draw(1, index.scratch_len(grad.cols()));
                let (lent, x) = (scratch.data_mut(), self.value(*h));
                hierarchical_attention_pool_backward_into(&mut g, &grad, lent, x, index);
                self.pool.release(scratch);
                self.give(*h, g);
                Some(grad)
            }
            Op::SegmentReduce { a, index, mean } => {
                let mut g = self.zeros_like(*a);
                segment_reduce_backward_into(&mut g, &grad, index, *mean);
                self.give(*a, g);
                Some(grad)
            }
            Op::MeanRowBlocks(a, block) => {
                let mut g = self.draw_like(*a);
                expand_row_blocks_into(&mut g, &grad, *block, 1.0 / *block as f32);
                self.give(*a, g);
                Some(grad)
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                // d/dlogits of mean CE = (softmax - onehot) / n, scaled by
                // the incoming scalar gradient; the forward's softmax
                // becomes that gradient in place.
                let g0 = grad.get(0, 0);
                let mut sm = probs.take().expect("backward runs once per tape");
                let n = targets.len() as f32;
                for (r, &t) in targets.iter().enumerate() {
                    let v = sm.get(r, t) - 1.0;
                    sm.set(r, t, v);
                }
                sm.map_inplace(|x| x * g0 / n);
                self.give(*logits, sm);
                Some(grad)
            }
            Op::MeanAll(a) => {
                let mut g = self.draw_like(*a);
                let share = grad.get(0, 0) / g.len() as f32;
                g.data_mut().fill(share);
                self.give(*a, g);
                Some(grad)
            }
        };
        self.nodes[i].op = op;
        if let Some(grad) = leftover {
            self.pool.release(grad);
        }
    }

    /// Adds every parameter node's gradient into `sink[slot]`.
    ///
    /// `sink` must hold one gradient tensor per parameter slot, shaped like
    /// the parameter.
    pub fn collect_grads(&self, sink: &mut [Tensor]) {
        for node in &self.nodes {
            if let Op::Param { slot } = node.op {
                if let Some(g) = &node.grad {
                    sink[slot].add_assign(g);
                }
            }
        }
    }

    /// Number of nodes on the tape (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes this tape had to get from the allocator because its free
    /// list held no buffer of the right length: zero for a tape whose
    /// shapes the previous tape on this thread already drew, and the
    /// tape's whole footprint on a thread with nothing parked.
    pub fn allocated_bytes(&self) -> usize {
        self.pool.allocated
    }
}

/// Reduces consecutive row blocks of size `block`: `(n·block, d) → (n, d)`.
///
/// This is the dense schema-level aggregation of the paper's Figure 10:
/// a logical reshape to `(n, block, d)` followed by a reduction over the
/// middle axis, with no data movement before the reduction.
pub fn reduce_row_blocks(t: &Tensor, block: usize, mean: bool) -> Tensor {
    assert!(block > 0, "block size must be positive");
    let mut out = Tensor::zeros(t.rows() / block, t.cols());
    reduce_row_blocks_into(&mut out, t, block, mean);
    out
}

/// [`reduce_row_blocks`] into a caller-provided, zeroed `(t.rows() /
/// block) × t.cols()` `out`.
pub fn reduce_row_blocks_into(out: &mut Tensor, t: &Tensor, block: usize, mean: bool) {
    assert!(block > 0, "block size must be positive");
    assert_eq!(t.rows() % block, 0, "rows must divide into blocks");
    let n = t.rows() / block;
    let d = t.cols();
    assert_eq!(out.shape(), (n, d), "row-block output shape");
    let inv = 1.0 / block as f32;
    crate::par::parallel_for(n, out.data_mut(), d, |g0, chunk| {
        for (gi, orow) in chunk.chunks_mut(d).enumerate() {
            let g = g0 + gi;
            for b in 0..block {
                for (o, &x) in orow.iter_mut().zip(t.row(g * block + b)) {
                    *o += x;
                }
            }
            if mean {
                for o in orow.iter_mut() {
                    *o *= inv;
                }
            }
        }
    });
}

/// Adjoint of [`reduce_row_blocks`]: replicates each row of `g` `block`
/// times into `out`, scaled by `scale`.
fn expand_row_blocks_into(out: &mut Tensor, g: &Tensor, block: usize, scale: f32) {
    assert_eq!(
        out.shape(),
        (g.rows() * block, g.cols()),
        "row-block gradient shape"
    );
    for r in 0..g.rows() {
        for b in 0..block {
            let row = out.row_mut(r * block + b);
            for (o, &x) in row.iter_mut().zip(g.row(r)) {
                *o = x * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks `d loss / d input` for a scalar-producing
    /// closure, via central finite differences.
    fn finite_diff_check(input: Tensor, forward: impl Fn(&mut Graph, NodeId) -> NodeId, tol: f32) {
        // Analytic gradient.
        let mut g = Graph::new();
        let x = g.param(input.clone(), 0);
        let loss = forward(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("input must receive a gradient").clone();

        // Numeric gradient.
        let eps = 1e-3f32;
        let mut numeric = Tensor::zeros(input.rows(), input.cols());
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.leaf(t);
                let l = forward(&mut g, x);
                g.value(l).get(0, 0)
            };
            numeric.data_mut()[i] = (f(plus) - f(minus)) / (2.0 * eps);
        }
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < tol,
            "finite-difference mismatch: {diff} (analytic {analytic:?} vs numeric {numeric:?})"
        );
    }

    fn sample_input() -> Tensor {
        Tensor::from_rows(&[&[0.5, -1.2, 2.0], &[1.5, 0.3, -0.7], &[-0.4, 0.9, 1.1]])
    }

    #[test]
    fn grad_matmul() {
        let w = Tensor::from_rows(&[&[0.2, -0.5], &[1.0, 0.3], &[-0.8, 0.6]]);
        finite_diff_check(
            sample_input(),
            move |g, x| {
                let w = g.leaf(w.clone());
                let y = g.matmul(x, w);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_weight_side() {
        let x = sample_input();
        finite_diff_check(
            Tensor::from_rows(&[&[0.2, -0.5], &[1.0, 0.3], &[-0.8, 0.6]]),
            move |g, w| {
                let x = g.leaf(x.clone());
                let y = g.matmul(x, w);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_relu() {
        // Pre-activations of both signs, none within a step of the kink;
        // the gradient reaches the input and the weight through the mask.
        let w = Tensor::from_rows(&[&[0.7, -0.4], &[-0.3, 0.9], &[0.8, 0.6]]);
        let wv = w.clone();
        finite_diff_check(
            sample_input(),
            move |g, x| {
                let w = g.leaf(wv.clone());
                let y = g.matmul_relu(x, w);
                g.mean_all(y)
            },
            1e-2,
        );
        finite_diff_check(
            w,
            |g, w| {
                let x = g.leaf(sample_input());
                let y = g.matmul_relu(x, w);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    /// `matmul_relu` against a hand-built `matmul` → `max(0)` → mask
    /// chain over the same kernels, with pre-activations of `0.0`, NaN
    /// and negatives: the same value and gradient bits, though the node
    /// masks by its output and the chain by the pre-activation.
    #[test]
    fn matmul_relu_masks_by_its_output_with_the_pre_activations_bits() {
        // The two masks agree on every class of pre-activation, `-0.0`
        // included (an accumulating kernel over a zeroed output cannot
        // produce it: `0.0 + -0.0` is `0.0`).
        for x in [
            0.0f32,
            -0.0,
            f32::NAN,
            -2.0,
            1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(x.max(0.0) > 0.0, x > 0.0, "{x}");
        }
        // One NaN in `a`, so no gradient sum adds two NaNs.
        let a = Tensor::from_rows(&[&[0.0], &[-0.0], &[f32::NAN], &[-2.0], &[1.5], &[-0.5]]);
        let b = Tensor::from_rows(&[&[1.0, -1.0, 0.0]]);
        let r = Tensor::from_vec(6, 3, (0..18).map(|i| i as f32 * 0.25 - 2.0).collect());

        let mut g = Graph::new();
        let (an, bn) = (g.param(a.clone(), 0), g.param(b.clone(), 1));
        let y = g.matmul_relu(an, bn);
        let rn = g.leaf(&r);
        let m = g.mul(y, rn);
        let loss = g.mean_all(m);
        g.backward(loss);

        let pre = a.matmul(&b);
        let pre_bits = bits(&pre);
        assert!(pre.data().iter().any(|x| x.is_nan()));
        assert!(pre.data().iter().any(|&x| x < 0.0));
        assert!(pre_bits.contains(&0.0f32.to_bits()));
        let mut mask_grad = r.scale(1.0 / 18.0);
        mask_grad.zip_inplace(&pre, |g, x| g * if x > 0.0 { 1.0 } else { 0.0 });
        let (mut ga, mut gb) = (Tensor::zeros(6, 1), Tensor::zeros(1, 3));
        mask_grad.matmul_nt_into(&b, &mut ga);
        a.matmul_tn_into(&mask_grad, &mut gb);
        assert_eq!(bits(g.value(y)), bits(&pre.relu()));
        assert_eq!(bits(g.grad(an).unwrap()), bits(&ga));
        assert_eq!(bits(g.grad(bn).unwrap()), bits(&gb));
    }

    #[test]
    fn grad_add_and_mul() {
        let other = sample_input().scale(0.7);
        finite_diff_check(
            sample_input(),
            move |g, x| {
                let o = g.leaf(other.clone());
                let s = g.add(x, o);
                let m = g.mul(s, x);
                g.mean_all(m)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_bias() {
        let x = sample_input();
        finite_diff_check(
            Tensor::from_rows(&[&[0.1, -0.2, 0.3]]),
            move |g, b| {
                let x = g.leaf(x.clone());
                let y = g.add_bias(x, b);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat() {
        let other = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        finite_diff_check(
            sample_input(),
            move |g, x| {
                let o = g.leaf(other.clone());
                let y = g.concat_cols(x, o);
                let y = g.sigmoid(y);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    fn plan(idx: &[u32], out_rows: usize) -> Arc<ScatterPlan> {
        Arc::new(ScatterPlan::new(idx, out_rows))
    }

    #[test]
    fn grad_gather_scatter() {
        finite_diff_check(
            sample_input(),
            |g, x| {
                let gathered = g.gather(x, &[0, 2, 2, 1]);
                let agg = g.scatter_add_with_plan(gathered, plan(&[0, 0, 1, 1], 2));
                g.mean_all(agg)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_row_blocks() {
        let input = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        finite_diff_check(
            input,
            |g, x| {
                let y = g.mean_row_blocks(x, 2);
                g.mean_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_segment_reduce_sum_and_mean() {
        for mean in [false, true] {
            finite_diff_check(
                sample_input(),
                move |g, x| {
                    let index = SegmentIndex::new(vec![0, 2, 3], vec![0, 2, 1]);
                    let y = g.segment_reduce(x, Arc::new(index), mean);
                    let y = g.sigmoid(y);
                    g.mean_all(y)
                },
                1e-2,
            );
        }
    }

    #[test]
    fn fused_and_sparse_paths_agree_in_autograd() {
        // The SA (gather+scatter) and FA (fused) formulations of the same
        // aggregation must produce identical values AND gradients.
        let x = sample_input();
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xn = g.param(x.clone(), 0);
            let y = if fused {
                let index = SegmentIndex::new(vec![0, 2, 4], vec![0, 1, 1, 2]);
                g.segment_reduce(xn, Arc::new(index), false)
            } else {
                let gathered = g.gather(xn, &[0, 1, 1, 2]);
                g.scatter_add_with_plan(gathered, plan(&[0, 0, 1, 1], 2))
            };
            let loss = g.mean_all(y);
            g.backward(loss);
            (g.value(y).clone(), g.grad(xn).unwrap().clone())
        };
        let (v_sa, g_sa) = run(false);
        let (v_fa, g_fa) = run(true);
        assert!(v_sa.max_abs_diff(&v_fa) < 1e-6);
        assert!(g_sa.max_abs_diff(&g_fa) < 1e-6);
    }

    #[test]
    fn grad_sigmoid() {
        finite_diff_check(
            sample_input(),
            |g, x| {
                let s = g.sigmoid(x);
                g.mean_all(s)
            },
            1e-2,
        );
    }

    #[test]
    fn sigmoid_saturates_correctly() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[-100.0, 0.0, 100.0]]));
        let s = g.sigmoid(x);
        let v = g.value(s);
        assert!(v.get(0, 0) < 1e-6);
        assert!((v.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(v.get(0, 2) > 1.0 - 1e-6);
    }

    #[test]
    fn grad_scatter_softmax() {
        finite_diff_check(
            sample_input(),
            |g, x| {
                let sm = g.scatter_softmax_with_plan(x, plan(&[0, 0, 1], 2));
                // Weighted-sum readout so the loss depends on all rows.
                let w = g.leaf(Tensor::from_rows(&[
                    &[1.0, -2.0, 0.5],
                    &[0.3, 1.1, -0.7],
                    &[2.0, 0.0, 1.0],
                ]));
                let m = g.mul(sm, w);
                g.mean_all(m)
            },
            1e-2,
        );
    }

    /// Two roots of two types over [`sample_input`]'s three rows: root 0
    /// has two instances of type 0 and none of type 1, root 1 one of
    /// each.
    fn hierarchy() -> Arc<HierarchyIndex> {
        let instances = SegmentIndex::new(vec![0, 2, 3, 5, 6], vec![0, 1, 2, 0, 2, 1]);
        Arc::new(HierarchyIndex::new(vec![0, 2, 2, 3, 4], instances, 2))
    }

    #[test]
    fn grad_hierarchical_attention_pool() {
        finite_diff_check(
            sample_input(),
            move |g, x| {
                let pooled = g.hierarchical_attention_pool(x, hierarchy());
                // Weighted read-out so the loss depends on every column
                // of both roots differently.
                let w = g.leaf(Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[0.3, 1.1, -0.7]]));
                let m = g.mul(pooled, w);
                g.mean_all(m)
            },
            1e-2,
        );
    }

    #[test]
    fn scatter_softmax_singleton_group_has_zero_gradient() {
        // A singleton group's softmax is constant 1, so gradients must
        // vanish there.
        let mut g = Graph::new();
        let x = g.param(Tensor::from_rows(&[&[3.0], &[1.0]]), 0);
        let sm = g.scatter_softmax_with_plan(x, plan(&[0, 1], 2));
        let loss = g.mean_all(sm);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert!(grad.get(0, 0).abs() < 1e-6);
        assert!(grad.get(1, 0).abs() < 1e-6);
    }

    #[test]
    fn grad_cross_entropy() {
        finite_diff_check(sample_input(), |g, x| g.cross_entropy(x, &[2, 0, 1]), 1e-2);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let mut g = Graph::new();
        let logits = g.leaf(Tensor::from_rows(&[&[100.0, 0.0], &[0.0, 100.0]]));
        let loss = g.cross_entropy(logits, &[0, 1]);
        assert!(g.value(loss).get(0, 0) < 1e-4);
    }

    #[test]
    fn grads_accumulate_across_reuse() {
        // x used twice must receive the sum of both paths' gradients.
        let mut g = Graph::new();
        let x = g.param(Tensor::from_rows(&[&[1.0]]), 0);
        let y = g.add(x, x);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn collect_grads_targets_correct_slot() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_rows(&[&[2.0]]), 0);
        let b = g.param(Tensor::from_rows(&[&[3.0]]), 1);
        let y = g.mul(a, b);
        let loss = g.mean_all(y);
        g.backward(loss);
        let mut sink = vec![Tensor::zeros(1, 1), Tensor::zeros(1, 1)];
        g.collect_grads(&mut sink);
        assert_eq!(sink[0].get(0, 0), 3.0);
        assert_eq!(sink[1].get(0, 0), 2.0);
    }

    #[test]
    fn a_node_feeding_two_matmuls_gets_exact_gradients_without_transposes() {
        // x feeds two matmuls; each backward reads x and its weight in
        // place, so the pass draws the gradients and nothing else.
        let w = Tensor::from_rows(&[&[0.2, -0.5], &[1.0, 0.3], &[-0.8, 0.6]]);
        let x = Tensor::from_rows(&[
            &[0.5, -1.2, 2.0],
            &[1.5, 0.3, -0.7],
            &[-0.4, 0.9, 1.1],
            &[0.8, -0.1, 0.6],
            &[-1.3, 0.2, 0.4],
        ]);
        let (wv, xv) = (w.clone(), x.clone());
        // A new thread has nothing parked, so every draw is counted.
        let (forward, pass, grads) = std::thread::scope(|s| {
            s.spawn(move || {
                let mut g = Graph::new();
                let xn = g.param(xv, 0);
                let w1 = g.param(wv.clone(), 1);
                let w2 = g.param(wv.scale(0.5), 2);
                let y1 = g.matmul(xn, w1);
                let y2 = g.matmul(xn, w2);
                let s = g.add(y1, y2);
                let loss = g.mean_all(s);
                let forward = g.pool.allocated;
                g.backward(loss);
                let grads = [xn, w1, w2].map(|n| g.grad(n).map(bits));
                (forward, g.pool.allocated, grads)
            })
            .join()
            .expect("tape thread")
        });
        assert!(grads.iter().all(Option::is_some));
        // The seed scalar, the sum's gradient and its copy for `y1`, and
        // per matmul one gradient per operand.
        let floats = 1 + 2 * 5 * 2 + 2 * (x.len() + w.len());
        assert_eq!(
            pass - forward,
            floats * 4,
            "backward drew a buffer beyond the gradients"
        );

        finite_diff_check(
            x,
            move |g, x| {
                let w1 = g.leaf(w.clone());
                let w2 = g.leaf(w.scale(0.5));
                let y1 = g.matmul(x, w1);
                let y2 = g.matmul(x, w2);
                let s = g.add(y1, y2);
                g.mean_all(s)
            },
            1e-2,
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// `x → segment_reduce → add → matmul(w)` with `x` a leaf or a
    /// parameter; returns the tape and its `(x, w)` nodes after backward.
    fn gcn_like_tape(x: Tensor, w: Tensor, x_is_param: bool) -> (Graph<'static>, NodeId, NodeId) {
        let rows = x.rows();
        let mut g = Graph::new();
        let xn = if x_is_param { g.param(x, 1) } else { g.leaf(x) };
        let wn = g.param(w, 0);
        let index = SegmentIndex::new((0..=rows).collect(), (0..rows as u32).rev().collect());
        let a = g.segment_reduce(xn, Arc::new(index), false);
        let s = g.add(xn, a);
        let y = g.matmul(s, wn);
        let targets: Vec<usize> = (0..rows).map(|r| r % 2).collect();
        let loss = g.cross_entropy(y, &targets);
        g.backward(loss);
        (g, xn, wn)
    }

    fn weights() -> Tensor {
        Tensor::from_rows(&[&[0.2, -0.5], &[1.0, 0.3], &[-0.8, 0.6]])
    }

    #[test]
    fn leaves_get_no_gradient_and_parameters_the_same_bits() {
        let (with_leaf, x, w) = gcn_like_tape(sample_input(), weights(), false);
        assert!(with_leaf.grad(x).is_none(), "a leaf needs no gradient");
        let (with_param, xp, wp) = gcn_like_tape(sample_input(), weights(), true);
        assert!(with_param.grad(xp).is_some());
        assert_eq!(
            bits(with_leaf.grad(w).unwrap()),
            bits(with_param.grad(wp).unwrap())
        );
        // Interior gradients are gone once propagated.
        assert!(
            (0..with_param.len()).all(|i| with_param.nodes[i].grad.is_none()
                || matches!(with_param.nodes[i].op, Op::Param { .. }))
        );
    }

    #[test]
    fn a_second_tape_of_the_same_shape_allocates_nothing() {
        // Whatever an earlier test on this thread parked is not ours.
        PARKED.with(|p| p.borrow_mut().clear());
        let (first, _, w) = gcn_like_tape(sample_input(), weights(), false);
        let want = bits(first.grad(w).unwrap());
        assert!(first.pool.allocated > 0);
        drop(first);
        let (second, _, w) = gcn_like_tape(sample_input(), weights(), false);
        assert_eq!(
            second.pool.allocated, 0,
            "every draw came off the free list"
        );
        assert_eq!(bits(second.grad(w).unwrap()), want);
        drop(second);

        // A third tape with other shapes is still right, and what it
        // parks is only what it held: no buffer of the old shapes stays.
        let x = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[1.5, 0.75], &[-0.5, 1.0]]);
        let w4 = Tensor::from_rows(&[&[0.3, -0.2, 0.9, 0.1, -0.4], &[0.7, 0.6, -0.1, 0.2, 0.8]]);
        let fresh = std::thread::scope(|s| {
            // A new thread has an empty parking spot: the reference run.
            s.spawn(|| {
                let (g, _, w) = gcn_like_tape(x.clone(), w4.clone(), false);
                bits(g.grad(w).unwrap())
            })
            .join()
            .expect("reference tape")
        });
        let (third, _, w) = gcn_like_tape(x, w4, false);
        assert!(third.pool.allocated > 0);
        assert_eq!(bits(third.grad(w).unwrap()), fresh);
        drop(third);
        let parked: Vec<usize> = PARKED.with(|p| p.borrow().iter().map(Vec::len).collect());
        // Lengths the 4×2 / 2×5 tape holds: x and its sums (8), w and
        // its gradient (10), logits (20), scalars (1).
        assert!(
            parked.iter().all(|len| [8, 10, 20, 1].contains(len)),
            "stale buffers survived: {parked:?}"
        );
    }

    #[test]
    fn two_live_tapes_share_no_buffer() {
        let (solo, _, w) = gcn_like_tape(sample_input(), weights(), false);
        let want = bits(solo.grad(w).unwrap());
        drop(solo);
        // `a` adopts the parked list; `b`, built while `a` lives, must
        // not see any of it.
        let (a, _, wa) = gcn_like_tape(sample_input(), weights(), false);
        let (b, _, wb) = gcn_like_tape(sample_input().scale(2.0), weights(), false);
        assert_eq!(a.pool.allocated, 0);
        let ptrs = |g: &Graph| -> Vec<*const f32> {
            let values = (0..g.len()).map(|i| g.value(NodeId(i)));
            let grads = g.nodes.iter().filter_map(|n| n.grad.as_ref());
            values.chain(grads).map(|t| t.data().as_ptr()).collect()
        };
        let (pa, pb) = (ptrs(&a), ptrs(&b));
        assert!(pa.iter().all(|p| !pb.contains(p)));
        assert_eq!(bits(a.grad(wa).unwrap()), want);
        assert_ne!(bits(b.grad(wb).unwrap()), want);
    }

    #[test]
    fn lent_and_shared_leaves_are_read_in_place_and_never_parked() {
        let (lent, shared) = (sample_input(), Arc::new(sample_input().scale(2.0)));
        let want = {
            let (with_copies, _, w) = gcn_like_tape(sample_input(), weights(), false);
            bits(with_copies.grad(w).unwrap())
        };
        PARKED.with(|p| p.borrow_mut().clear());
        let mut g = Graph::new();
        let (x, s) = (g.leaf(&lent), g.leaf(Arc::clone(&shared)));
        assert_eq!(g.value(x).data().as_ptr(), lent.data().as_ptr());
        assert_eq!(g.value(s).data().as_ptr(), shared.data().as_ptr());
        let wn = g.param(weights(), 0);
        let index = SegmentIndex::new(vec![0, 1, 2, 3], vec![2, 1, 0]);
        let a = g.segment_reduce(x, Arc::new(index), false);
        let sum = g.add(x, a);
        let y = g.matmul(sum, wn);
        let loss = g.cross_entropy(y, &[0, 1, 0]);
        g.backward(loss);
        assert_eq!(
            bits(g.grad(wn).unwrap()),
            want,
            "a lent leaf gives a copy's bits"
        );
        drop(g);
        let parked = PARKED.with(|p| p.borrow().iter().map(|b| b.as_ptr()).collect::<Vec<_>>());
        assert!(!parked.contains(&lent.data().as_ptr()));
        assert!(!parked.contains(&shared.data().as_ptr()));
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "the tape let go of its share"
        );
    }

    #[test]
    #[should_panic(expected = "a collapsed suffix must need no gradient")]
    fn collapsing_a_suffix_that_needs_a_gradient_panics() {
        let mut g = Graph::new();
        let x = g.leaf(sample_input());
        let w = g.param(weights(), 0);
        let mark = g.len();
        let y = g.matmul(x, w);
        g.collapse_into_leaf(mark, y);
    }

    #[test]
    fn a_collapsed_suffix_is_one_leaf_and_its_buffers_serve_the_next_draws() {
        let mut g = Graph::new();
        let x = g.leaf(sample_input());
        let mark = g.len();
        let pooled = g.hierarchical_attention_pool(x, hierarchy());
        let activated = g.sigmoid(pooled);
        let (want_pooled, want) = (bits(g.value(pooled)), bits(g.value(activated)));
        let allocated = g.allocated_bytes();

        let (leaf, shared) = g.collapse_into_leaf(mark, activated);
        assert_eq!((leaf, g.len()), (NodeId(mark), mark + 1));
        assert!(matches!(g.nodes[leaf.0].op, Op::Leaf));
        assert_eq!(bits(g.value(leaf)), want, "the leaf holds the node's value");
        assert_eq!(g.value(leaf).data().as_ptr(), shared.data().as_ptr());

        // The pooled value and the released scratch are on the list: the
        // same op again draws both from it.
        let again = g.hierarchical_attention_pool(x, hierarchy());
        assert_eq!(g.allocated_bytes(), allocated);
        assert_eq!(bits(g.value(again)), want_pooled);
    }

    #[test]
    fn backward_state_is_kept_only_for_a_backward_that_will_run() {
        let record = |g: &mut Graph, x: NodeId| {
            let pooled = g.hierarchical_attention_pool(x, hierarchy());
            let loss = g.cross_entropy(pooled, &[2, 0]);
            let kept = matches!(g.nodes[loss.0].op, Op::CrossEntropy { probs: Some(_), .. });
            (kept, loss)
        };
        // No buffer of the tape is instance-sized (4 instances × 3): the
        // pool keeps nothing and draws only its output and scratch.
        let instance_sized = |g: &Graph| {
            let values = (0..g.len()).map(|i| g.value(NodeId(i)).len());
            values
                .chain(g.pool.released.iter().map(Vec::len))
                .any(|len| len == 12)
        };
        let mut over_leaf = Graph::new();
        let x = over_leaf.leaf(sample_input());
        let (probs_kept, _) = record(&mut over_leaf, x);
        assert!(!probs_kept);
        // The probabilities (2×3) went straight back.
        let released: Vec<usize> = over_leaf.pool.released.iter().map(Vec::len).collect();
        assert!(released.contains(&6));
        assert!(!instance_sized(&over_leaf));

        let mut over_param = Graph::new();
        let x = over_param.param(sample_input(), 0);
        let (probs_kept, loss) = record(&mut over_param, x);
        assert!(probs_kept);
        over_param.backward(loss);
        // Backward took them.
        assert!(over_param
            .nodes
            .iter()
            .all(|n| !matches!(n.op, Op::CrossEntropy { probs: Some(_), .. })));
        assert!(!instance_sized(&over_param));
    }

    /// Sum, mean (with an empty segment) and the attention pool, each
    /// recorded under SA, SA+FA and HA over a parameter: the same value
    /// and gradient bits, from tapes that differ in what they write.
    #[test]
    fn the_three_strategies_record_the_same_bits() {
        let x: Vec<f32> = (0..57)
            .map(|i| ((i * 37) % 23) as f32 * 0.37 - 4.0)
            .collect();
        let segments = Arc::new(SegmentIndex::new(vec![0, 2, 2, 5], vec![0, 2, 1, 1, 0]));
        for op in ["sum", "mean", "pool"] {
            let run = |strategy| {
                let mut g = Graph::with_strategy(strategy);
                let xn = g.param(Tensor::from_vec(3, 19, x.clone()), 0);
                let y = match op {
                    "pool" => g.hierarchical_attention_pool(xn, hierarchy()),
                    _ => g.segment_reduce(xn, Arc::clone(&segments), op == "mean"),
                };
                let rows = g.value(y).rows();
                let w = g.leaf(Tensor::from_vec(rows, 19, x[..rows * 19].to_vec()));
                let m = g.mul(y, w);
                let loss = g.mean_all(m);
                g.backward(loss);
                (bits(g.value(y)), bits(g.grad(xn).unwrap()), g.len())
            };
            let [sa, safa, ha] = [Strategy::Sa, Strategy::SaFa, Strategy::Ha].map(run);
            assert_eq!((&sa.0, &sa.1), (&ha.0, &ha.1), "{op}: SA");
            assert_eq!((&safa.0, &safa.1), (&ha.0, &ha.1), "{op}: SA+FA");
            assert!(sa.2 > safa.2, "{op}: SA records the sparse ops");
            if op == "pool" {
                assert!(safa.2 > ha.2, "{op}: SA+FA records the pool's chain");
            } else {
                assert_eq!(safa.2, ha.2, "{op}: SA+FA and HA record the same ops");
            }
        }
    }

    /// HA reads the fused kernels only: recording it builds none of the
    /// plans an SA tape caches on the index.
    #[test]
    fn ha_builds_no_scatter_plan() {
        let index = Arc::new(SegmentIndex::new(vec![0, 2, 3], vec![0, 2, 1]));
        let bytes = index.heap_bytes();
        let mut g = Graph::new();
        let x = g.leaf(sample_input());
        g.segment_reduce(x, Arc::clone(&index), true);
        assert_eq!(index.heap_bytes(), bytes);
        let mut g = Graph::with_strategy(Strategy::Sa);
        let x = g.leaf(sample_input());
        g.segment_reduce(x, Arc::clone(&index), true);
        assert!(
            index.heap_bytes() > bytes,
            "SA caches its plans on the index"
        );
    }

    #[test]
    fn two_layer_training_step_decreases_loss() {
        // Tiny end-to-end sanity check: one gradient step on a 2-layer MLP
        // reduces the loss on a fixed batch.
        let x = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let targets = [0usize, 1, 0];
        let mut w1 = Tensor::from_rows(&[&[0.3, -0.2, 0.5], &[-0.4, 0.1, 0.2]]);
        let mut w2 = Tensor::from_rows(&[&[0.2, -0.3], &[0.5, 0.4], &[-0.1, 0.3]]);

        let run = |w1: &Tensor, w2: &Tensor| {
            let mut g = Graph::new();
            let x = g.leaf(x.clone());
            let w1n = g.param(w1.clone(), 0);
            let w2n = g.param(w2.clone(), 1);
            let h = g.matmul_relu(x, w1n);
            let logits = g.matmul(h, w2n);
            let loss = g.cross_entropy(logits, &targets);
            g.backward(loss);
            let mut sink = vec![
                Tensor::zeros(w1.rows(), w1.cols()),
                Tensor::zeros(w2.rows(), w2.cols()),
            ];
            g.collect_grads(&mut sink);
            (g.value(loss).get(0, 0), sink)
        };

        let (loss0, grads) = run(&w1, &w2);
        w1.zip_inplace(&grads[0], |w, g| w - 0.5 * g);
        w2.zip_inplace(&grads[1], |w, g| w - 0.5 * g);
        let (loss1, _) = run(&w1, &w2);
        assert!(loss1 < loss0, "loss must decrease: {loss0} -> {loss1}");
    }
}
