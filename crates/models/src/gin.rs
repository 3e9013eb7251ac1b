//! GIN (Xu et al., "How Powerful are Graph Neural Networks?") — the
//! second DNFA representative the paper's §2.2 names.
//!
//! Each layer computes `h' = MLP((1 + ε) · h + Σ_{u∈N(v)} h_u)` with a
//! learnable scalar ε and a two-layer MLP. Like GCN, NeighborSelection
//! is the input graph itself and aggregation is a flat fused sum — the
//! parameter-free part of the layer (ε belongs to Update), so over the
//! feature matrix it is recorded once (`crate::memo`).

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet, SegmentIndex, Tensor};
use std::sync::Arc;

/// A two-layer GIN.
pub struct Gin {
    hidden: usize,
    /// CSC of the input graph, shared with the graph and the tape.
    in_csc: Option<Arc<SegmentIndex>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    /// Parameter slots: per layer `(eps, w1, w2)`.
    slots: Vec<(usize, usize, usize)>,
    dims: (usize, usize),
}

impl Gin {
    /// Creates a GIN with the given hidden width.
    pub fn new(hidden: usize, in_dim: usize, classes: usize) -> Self {
        Self {
            hidden,
            in_csc: None,
            input: InputAggregate::default(),
            slots: Vec::new(),
            dims: (in_dim, classes),
        }
    }

    /// Aggregation: flat fused sum over direct neighbors.
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        let csc = self.in_csc.clone().expect("selection ran");
        g.segment_reduce(h, csc, false)
    }

    /// Update: `MLP((1 + ε) ⊙ h + a)`.
    fn update(
        &self,
        g: &mut Graph,
        h: NodeId,
        a: NodeId,
        (eps, w1, w2): (NodeId, NodeId, NodeId),
        relu_out: bool,
    ) -> NodeId {
        // (1 + ε) ⊙ h + a, with ε a learnable 1×d row (the per-feature
        // generalization of GIN's scalar ε). The row is broadcast to h's
        // shape by adding it onto a zero tensor, then applied
        // elementwise.
        let eps_h = {
            let zero = g.leaf(Tensor::zeros(self.value_rows(g, h), self.value_cols(g, h)));
            let eps_mat = g.add_bias(zero, eps);
            g.mul(eps_mat, h)
        };
        let s = g.add(h, eps_h);
        let s = g.add(s, a);
        // Two-layer MLP.
        let m = g.matmul_relu(s, w1);
        if relu_out {
            g.matmul_relu(m, w2)
        } else {
            g.matmul(m, w2)
        }
    }

    fn value_rows(&self, g: &Graph, n: NodeId) -> usize {
        g.value(n).rows()
    }

    fn value_cols(&self, g: &Graph, n: NodeId) -> usize {
        g.value(n).cols()
    }
}

impl Model for Gin {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        if self.in_csc.is_none() {
            self.in_csc = Some(ds.graph.in_index());
            self.input.clear();
        }
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let mut h = feats;
        for (li, &(e, w1, w2)) in self.slots.iter().enumerate() {
            let en = g.param(params.value(e).clone(), e);
            let w1n = g.param(params.value(w1).clone(), w1);
            let w2n = g.param(params.value(w2).clone(), w2);
            let a = if li == 0 {
                self.input.record(g, h, |g, h| self.aggregate(g, h))
            } else {
                self.aggregate(g, h)
            };
            h = self.update(g, h, a, (en, w1n, w2n), li + 1 < self.slots.len());
        }
        h
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        let widths = [(in_dim, self.hidden), (self.hidden, classes)];
        for &(din, dout) in &widths {
            // Per-feature ε row (generalizing GIN's scalar ε), zero-init.
            let e = params.register(Tensor::zeros(1, din));
            let w1 = params.register(xavier_uniform(rng, din, self.hidden));
            let w2 = params.register(xavier_uniform(rng, self.hidden, dout));
            self.slots.push((e, w1, w2));
        }
    }

    fn name(&self) -> &'static str {
        "GIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::community;

    #[test]
    fn gin_trains_on_communities() {
        let ds = community(250, 3, 8, 1, 16, 41);
        let model = Gin::new(16, ds.feature_dim(), ds.num_classes);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 35,
                lr: 0.02,
                seed: 12,
            },
        );
        let stats = tr.run(&ds);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        assert!(
            stats.last().unwrap().accuracy > 0.85,
            "got {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn epsilon_is_learnable() {
        // After training, at least one ε entry must have moved off zero.
        let ds = community(150, 2, 6, 1, 8, 42);
        let model = Gin::new(8, ds.feature_dim(), ds.num_classes);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 10,
                lr: 0.05,
                seed: 13,
            },
        );
        tr.run(&ds);
        let eps_slot = tr.model.slots[0].0;
        let eps = tr.params.value(eps_slot);
        assert!(
            eps.data().iter().any(|&x| x.abs() > 1e-4),
            "ε stayed exactly zero"
        );
    }
}
