//! G-GCN (Marcheggiani & Titov, gated graph convolution for semantic
//! role labeling) — the third DNFA representative of the paper's §2.2.
//!
//! Each neighbor's message is modulated by a learned scalar *edge gate*:
//! `h'_v = ReLU(W · (h_v + Σ_{u∈N(v)} σ(h_u · w_g) ⊙ (h_u)))`. Gates let
//! the model down-weight uninformative neighbors; structurally it is
//! still direct-neighbor flat aggregation, so NeighborSelection is the
//! input graph.
//!
//! Unlike GCN's and GIN's, this aggregation is not recorded once per
//! selection (`crate::memo`): the gate `w_g` is a parameter, so even
//! layer 1's sum over the feature matrix changes with every step.

use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet, ScatterPlan};
use std::sync::Arc;

/// A two-layer gated GCN.
pub struct GGcn {
    hidden: usize,
    /// The input graph's CSC plans, cached on its index: the per-edge
    /// gather (index = the CSC sources, destinations = vertices; doubles
    /// as the backward-scatter plan) and the destination scatter-add.
    plans: Option<(Arc<ScatterPlan>, Arc<ScatterPlan>)>,
    /// Parameter slots per layer: `(w_gate, w)`.
    slots: Vec<(usize, usize)>,
    dims: (usize, usize),
}

impl GGcn {
    /// Creates a gated GCN with the given hidden width.
    pub fn new(hidden: usize, in_dim: usize, classes: usize) -> Self {
        Self {
            hidden,
            plans: None,
            slots: Vec::new(),
            dims: (in_dim, classes),
        }
    }

    fn layer(&self, g: &mut Graph, h: NodeId, w_gate: NodeId, w: NodeId, relu_out: bool) -> NodeId {
        let (gather_plan, dst_plan) = self.plans.clone().expect("selection ran");
        // Per-vertex scalar gates g_u = σ(h_u · w_gate) ∈ (0, 1)^{n×1}.
        let scores = g.matmul(h, w_gate);
        let gates = g.sigmoid(scores);
        // Gated messages: gather source rows and gates per edge, apply,
        // then reduce per destination. (The gating makes the per-edge
        // weight data-dependent, so the fused constant-weight kernel
        // does not apply — this is the sparse path by necessity.) Both
        // gathers and the scatter run through plans cached at selection.
        let msg = g.gather_with_plan(h, gather_plan.clone());
        let edge_gate = g.gather_with_plan(gates, gather_plan);
        // Broadcast the 1-column gate across the feature width through
        // matmul with a ones row: (E×1)·(1×d) = E×d.
        let d = g.value(h).cols();
        let ones_row = g.leaf(flexgraph_tensor::Tensor::ones(1, d));
        let gate_wide = g.matmul(edge_gate, ones_row);
        let gated = g.mul(msg, gate_wide);
        let agg = g.scatter_add_with_plan(gated, dst_plan);
        // Update: ReLU(W · (h + agg)).
        let s = g.add(h, agg);
        if relu_out {
            g.matmul_relu(s, w)
        } else {
            g.matmul(s, w)
        }
    }
}

impl Model for GGcn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        if self.plans.is_none() {
            self.plans = Some(ds.graph.in_index().sparse_plans(ds.graph.num_vertices()));
        }
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let mut h = feats;
        for (li, &(wg, w)) in self.slots.iter().enumerate() {
            let wgn = g.param(params.value(wg).clone(), wg);
            let wn = g.param(params.value(w).clone(), w);
            h = self.layer(g, h, wgn, wn, li + 1 < self.slots.len());
        }
        h
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        for &(din, dout) in &[(in_dim, self.hidden), (self.hidden, classes)] {
            let wg = params.register(xavier_uniform(rng, din, 1));
            let w = params.register(xavier_uniform(rng, din, dout));
            self.slots.push((wg, w));
        }
    }

    fn name(&self) -> &'static str {
        "G-GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::community;

    #[test]
    fn ggcn_trains_on_communities() {
        let ds = community(250, 3, 8, 1, 16, 51);
        let model = GGcn::new(16, ds.feature_dim(), ds.num_classes);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 35,
                lr: 0.02,
                seed: 14,
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
    fn gates_stay_in_unit_interval() {
        use flexgraph_tensor::Graph as Tape;
        let ds = community(80, 2, 5, 1, 8, 52);
        let mut model = GGcn::new(8, ds.feature_dim(), ds.num_classes);
        let mut params = ParamSet::new();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        model.init_params(&mut params, &mut rng);
        model.selection(&ds, 0);
        let mut g = Tape::new();
        let feats = g.leaf(&ds.features);
        let wg = g.param(params.value(model.slots[0].0).clone(), model.slots[0].0);
        let scores = g.matmul(feats, wg);
        let gates = g.sigmoid(scores);
        let v = g.value(gates);
        assert!(v.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}
