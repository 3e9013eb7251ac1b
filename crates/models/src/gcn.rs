//! GCN (Kipf & Welling) — the paper's DNFA representative.
//!
//! Per the NAU program of Figure 7: Aggregation is a flat sum of direct
//! (1-hop) neighbors' features; Update is `ReLU(W · (h + a))`. The
//! NeighborSelection stage is the input graph itself — no HDGs are built
//! (Table 4 reports 0 % selection time for GCN).
//!
//! `h + a` has no parameter, so over the feature matrix it is the same
//! tensor every epoch: layer 1's is recorded by the first `forward` and
//! is a leaf from then on (`crate::memo`). That first recording is
//! Aggregation-stage work and stays in `forward`; `selection` only
//! takes the graph's CSC arrays, which is why its share stays at 0 %.

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet};
use std::sync::Arc;

/// A two-layer GCN.
pub struct Gcn {
    hidden: usize,
    /// CSC of the input graph, shared with the tape per layer.
    in_off: Arc<Vec<usize>>,
    in_src: Arc<Vec<u32>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl Gcn {
    /// Creates a GCN with the given hidden width for a dataset with
    /// `in_dim` features and `classes` labels.
    pub fn new(hidden: usize, in_dim: usize, classes: usize) -> Self {
        Self {
            hidden,
            in_off: Arc::new(Vec::new()),
            in_src: Arc::new(Vec::new()),
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// Aggregation: `h` plus the fused flat sum over its in-neighbors.
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        let a = g.segment_reduce(h, self.in_off.clone(), self.in_src.clone(), false);
        g.add(h, a)
    }

    /// Update: ReLU(W * (h + a)) — Figure 7's GCNLayer.
    fn update(&self, g: &mut Graph, s: NodeId, w: NodeId, relu: bool) -> NodeId {
        let out = g.matmul(s, w);
        if relu {
            g.relu(out)
        } else {
            out
        }
    }
}

impl Model for Gcn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        // DNFA: the input graph captures the dependencies; just cache its
        // CSC arrays for the fused kernels.
        if self.in_off.is_empty() {
            self.in_off = Arc::new(ds.graph.in_offsets().to_vec());
            self.in_src = Arc::new(ds.graph.in_sources().to_vec());
            self.input.clear();
        }
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let w1 = g.param(params.value(self.w1).clone(), self.w1);
        let w2 = g.param(params.value(self.w2).clone(), self.w2);
        let s1 = self.input.record(g, feats, |g, h| self.aggregate(g, h));
        let h1 = self.update(g, s1, w1, true);
        let s2 = self.aggregate(g, h1);
        self.update(g, s2, w2, false)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        self.w1 = params.register(xavier_uniform(rng, in_dim, self.hidden));
        self.w2 = params.register(xavier_uniform(rng, self.hidden, classes));
    }

    fn name(&self) -> &'static str {
        "GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::community;

    #[test]
    fn gcn_trains_to_high_accuracy_on_separable_communities() {
        let ds = community(300, 3, 8, 1, 16, 7);
        let model = Gcn::new(16, ds.feature_dim(), ds.num_classes);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 40,
                lr: 0.02,
                seed: 3,
            },
        );
        let stats = tr.run(&ds);
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(last.loss < first.loss, "loss decreases");
        assert!(
            last.accuracy > 0.9,
            "separable communities must be learnable, got {}",
            last.accuracy
        );
    }

    #[test]
    fn gcn_selection_time_is_negligible() {
        // Table 4's "GCN: 0 % selection", without a clock: selection
        // takes the graph's CSC arrays, once, and does nothing else — in
        // particular it does not compute layer 1's aggregate, which is
        // Aggregation-stage work and belongs to the first `forward`.
        let ds = community(200, 2, 6, 1, 8, 1);
        let mut m = Gcn::new(8, ds.feature_dim(), ds.num_classes);
        m.selection(&ds, 0);
        assert_eq!(m.in_off[..], *ds.graph.in_offsets());
        assert_eq!(m.in_src[..], *ds.graph.in_sources());
        assert!(!m.input.is_recorded());
        let (off, src) = (m.in_off.clone(), m.in_src.clone());
        m.selection(&ds, 1);
        m.selection(&ds, 9);
        assert!(Arc::ptr_eq(&off, &m.in_off) && Arc::ptr_eq(&src, &m.in_src));
    }
}
