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
    in_off: Arc<Vec<usize>>,
    in_src: Arc<Vec<u32>>,
    /// Cached plan for the per-edge gathers (index = `in_src`,
    /// destinations = vertices); doubles as the backward-scatter plan.
    gather_plan: Option<Arc<ScatterPlan>>,
    /// Cached plan for the destination scatter-add — the input graph's
    /// in-edge plan, shared across both layers and every epoch.
    dst_plan: Option<Arc<ScatterPlan>>,
    /// Parameter slots per layer: `(w_gate, w)`.
    slots: Vec<(usize, usize)>,
    dims: (usize, usize),
}

impl GGcn {
    /// Creates a gated GCN with the given hidden width.
    pub fn new(hidden: usize, in_dim: usize, classes: usize) -> Self {
        Self {
            hidden,
            in_off: Arc::new(Vec::new()),
            in_src: Arc::new(Vec::new()),
            gather_plan: None,
            dst_plan: None,
            slots: Vec::new(),
            dims: (in_dim, classes),
        }
    }

    fn layer(&self, g: &mut Graph, h: NodeId, w_gate: NodeId, w: NodeId, relu_out: bool) -> NodeId {
        let gather_plan = self.gather_plan.clone().expect("selection ran");
        let dst_plan = self.dst_plan.clone().expect("selection ran");
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
        let out = g.matmul(s, w);
        if relu_out {
            g.relu(out)
        } else {
            out
        }
    }
}

impl Model for GGcn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        if self.in_off.is_empty() {
            self.in_off = Arc::new(ds.graph.in_offsets().to_vec());
            self.in_src = Arc::new(ds.graph.in_sources().to_vec());
            let n = ds.graph.num_vertices();
            self.gather_plan = Some(Arc::new(ScatterPlan::new(&self.in_src, n)));
            self.dst_plan = Some(ds.graph.in_scatter_plan());
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
        let feats = g.leaf(ds.features.clone());
        let wg = g.param(params.value(model.slots[0].0).clone(), model.slots[0].0);
        let scores = g.matmul(feats, wg);
        let gates = g.sigmoid(scores);
        let v = g.value(gates);
        assert!(v.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}
