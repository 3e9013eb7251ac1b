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
//!
//! Past layer 1 the order of the two stages is chosen by width. The sum
//! is linear, so the linear part of Update commutes with it:
//! `(h + a(h)) · W = h·W + a(h·W)`. When `W` narrows, the layer is
//! recorded multiply-first and Aggregation — forward and backward —
//! walks the edges at the layer's output width (§4.2's "move fewer
//! floats through Aggregation"). Equal in ℝ, not in `f32` (DESIGN §5).

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

    /// The output layer (no ReLU): Aggregation runs at the narrower of
    /// the layer's two widths. A pure function of the shapes — layer 1
    /// does not come here, its aggregate-first order is what the memo
    /// keeps.
    fn output_layer(&self, g: &mut Graph, h: NodeId, w: NodeId) -> NodeId {
        if g.value(w).cols() < g.value(h).cols() {
            let hw = g.matmul(h, w);
            self.aggregate(g, hw)
        } else {
            let s = self.aggregate(g, h);
            self.update(g, s, w, false)
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
        self.output_layer(g, h1, w2)
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
    use flexgraph_tensor::{set_thread_override, Tensor};

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

    /// Both layers the way Figure 7 spells GCNLayer, sum first then
    /// multiply: what `forward` recorded at every width before the
    /// output layer's order followed its shapes.
    struct AggregateFirst(Gcn);

    impl Model for AggregateFirst {
        fn selection(&mut self, ds: &Dataset, epoch: u64) {
            self.0.selection(ds, epoch);
        }

        fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
            let m = &self.0;
            let w1 = g.param(params.value(m.w1).clone(), m.w1);
            let w2 = g.param(params.value(m.w2).clone(), m.w2);
            let s1 = m.input.record(g, feats, |g, h| m.aggregate(g, h));
            let h1 = m.update(g, s1, w1, true);
            let s2 = m.aggregate(g, h1);
            m.update(g, s2, w2, false)
        }

        fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
            self.0.init_params(params, rng);
        }

        fn name(&self) -> &'static str {
            "GCN (aggregate first)"
        }
    }

    const CFG: TrainConfig = TrainConfig {
        epochs: 5,
        lr: 0.01,
        seed: 7,
    };

    /// Hidden 32 → 4 classes: the output layer narrows.
    fn narrowing() -> (Dataset, impl Fn() -> Gcn) {
        let ds = community(240, 4, 8, 1, 16, 5);
        let (in_dim, classes) = (ds.feature_dim(), ds.num_classes);
        (ds, move || Gcn::new(32, in_dim, classes))
    }

    #[test]
    fn multiply_first_agrees_with_aggregate_first_within_rounding() {
        let (ds, build) = narrowing();
        let mut reordered = Trainer::new(build(), CFG);
        let mut oracle = Trainer::new(AggregateFirst(build()), CFG);
        let (got, want) = (reordered.infer(&ds), oracle.infer(&ds));
        let scale = want.data().iter().fold(0f32, |m, v| m.max(v.abs()));
        assert!(got.max_abs_diff(&want) <= 1e-4 * scale, "logits");

        let (got, want) = (reordered.run(&ds), oracle.run(&ds));
        for (a, b) in got.iter().zip(&want) {
            assert!((a.loss - b.loss).abs() <= 1e-4, "{} vs {}", a.loss, b.loss);
        }
        assert!(got[4].loss < got[0].loss && want[4].loss < want[0].loss);
    }

    /// Every value on a freshly recorded tape, in recording order. A
    /// `NodeId` is a position, so a scratch tape of as many leaves mints
    /// them.
    fn tape_values<M: Model>(model: M, ds: &Dataset) -> Vec<Tensor> {
        let (g, _, _) = Trainer::new(model, CFG).forward_pass(ds, 0);
        let mut mint = Graph::new();
        (0..g.len())
            .map(|_| g.value(mint.leaf(Tensor::zeros(0, 0))).clone())
            .collect()
    }

    #[test]
    fn aggregation_runs_at_the_output_width_only_when_the_layer_narrows() {
        let (ds, build) = narrowing();
        let (v, classes) = (ds.graph.num_vertices(), ds.num_classes);
        let shapes = |tape: Vec<Tensor>| -> Vec<_> { tape.iter().map(Tensor::shape).collect() };
        let reordered = shapes(tape_values(build(), &ds));
        // feats, w1, w2, layer 1's four nodes, then h1·W, its edge sum
        // and the add: nothing `V × hidden` after the ReLU.
        assert_eq!(reordered[6], (v, 32));
        assert_eq!(reordered[7..], [(v, classes); 3]);
        let first = shapes(tape_values(AggregateFirst(build()), &ds));
        assert_eq!(first[7..], [(v, 32), (v, 32), (v, classes)]);

        // Equal widths: node for node the aggregate-first tape.
        let ds = community(120, 8, 6, 1, 8, 3);
        assert_eq!((ds.feature_dim(), ds.num_classes), (8, 8));
        assert_eq!(
            tape_values(Gcn::new(8, 8, 8), &ds),
            tape_values(AggregateFirst(Gcn::new(8, 8, 8)), &ds)
        );
    }

    #[test]
    fn multiply_first_loss_bits_do_not_depend_on_the_thread_count() {
        let (ds, build) = narrowing();
        let bits = |threads| -> Vec<u32> {
            set_thread_override(Some(threads));
            let stats = Trainer::new(build(), CFG).run(&ds);
            stats.iter().map(|s| s.loss.to_bits()).collect()
        };
        let serial = bits(1);
        for threads in [2, 4] {
            assert_eq!(bits(threads), serial, "threads = {threads}");
        }
        set_thread_override(None);
    }
}
