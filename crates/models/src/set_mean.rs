//! The Aggregation and Update that P-GNN and JK-Net share. In the paper's
//! terms (§3.2) both are the INHA pattern with `k` neighbor sets per
//! vertex, and they differ only in NeighborSelection: anchor-sets or hop
//! shells. Aggregation takes the mean of each (root, set) segment, then a
//! dense block-mean over each root's `k` set features; Update is
//! `[h ‖ a]·W`, with a ReLU after layer 1.

use crate::memo::InputAggregate;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet, SegmentIndex};
use std::sync::Arc;

/// Two such layers over a selection given as segments: root-major,
/// set-minor, `k` segments per root.
pub(crate) struct SetMeanLayers {
    hidden: usize,
    /// Sets per root.
    k: usize,
    /// Per-(root, set) segments; `None` until selected.
    sets: Option<Arc<SegmentIndex>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl SetMeanLayers {
    pub(crate) fn new(hidden: usize, in_dim: usize, classes: usize, k: usize) -> Self {
        Self {
            hidden,
            k,
            sets: None,
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// Whether a selection is installed (it is built once).
    pub(crate) fn is_selected(&self) -> bool {
        self.sets.is_some()
    }

    /// Installs the selection and forgets layer 1's memoised aggregate.
    pub(crate) fn select(&mut self, off: Vec<usize>, src: Vec<u32>) {
        self.sets = Some(Arc::new(SegmentIndex::new(off, src)));
        self.input.clear();
    }

    /// The selection's segment offsets and sources.
    pub(crate) fn segments(&self) -> (&[usize], &[u32]) {
        let sets = self.sets.as_ref().expect("selection ran");
        (sets.offsets(), sets.src())
    }

    /// Aggregation: `[h ‖ a]`, parameter-free — over the feature leaf it
    /// is recorded once (`crate::memo`).
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        let sets = g.segment_reduce(h, self.sets.clone().expect("selection ran"), true);
        let a = g.mean_row_blocks(sets, self.k);
        g.concat_cols(h, a)
    }

    pub(crate) fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let w1 = g.param(params.value(self.w1).clone(), self.w1);
        let w2 = g.param(params.value(self.w2).clone(), self.w2);
        let c1 = self.input.record(g, feats, |g, h| self.aggregate(g, h));
        let h1 = g.matmul_relu(c1, w1);
        let c2 = self.aggregate(g, h1);
        g.matmul(c2, w2)
    }

    pub(crate) fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        self.w1 = params.register(xavier_uniform(rng, in_dim * 2, self.hidden));
        self.w2 = params.register(xavier_uniform(rng, self.hidden * 2, classes));
    }
}
