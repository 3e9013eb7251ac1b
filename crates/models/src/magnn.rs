//! MAGNN (Fu et al.) — the paper's INHA representative.
//!
//! NeighborSelection finds metapath instances (Figure 5's `magann_nbr`)
//! once for the whole training run — the HDGs never change across epochs
//! (§3.2). Aggregation is hierarchical: instance features are the mean
//! of their member vertices, metapath-type features the
//! attention-weighted sum of their instances (Figure 7's
//! `scatter_softmax`), and the neighborhood representation the mean over
//! types (Figure 10). All three levels are one tape op over the HDG's own
//! index (`Hdg::hierarchy`, `Graph::hierarchical_attention_pool`): no
//! array is copied, no instance or group tensor is written, and selection
//! builds no scatter plan. Update
//! is `ReLU(W · a)` (Figure 7's MAGNNLayer uses only the neighborhood
//! representation).
//!
//! The Aggregation stage has no parameter, so layer 1's — over the
//! feature matrix — is the same every epoch: the first `forward` after
//! selection runs it and collapses it into a leaf, and it is a leaf copy
//! from then on (`crate::memo`). No pass holds an instance-sized
//! tensor: the pool's backward recomputes each group's means and
//! attention weights in scratch instead of keeping them.

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_graph::metapath::Metapath;
use flexgraph_hdg::build::from_metapaths;
use flexgraph_tensor::{xavier_uniform, Graph, HierarchyIndex, NodeId, ParamSet};
use std::sync::Arc;

/// A two-layer MAGNN.
pub struct Magnn {
    hidden: usize,
    metapaths: Vec<Metapath>,
    max_per_path: usize,
    /// Leaves → instances → (root, type) groups → roots: the HDG's own
    /// index; `None` until selected.
    hierarchy: Option<Arc<HierarchyIndex>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl Magnn {
    /// Creates a MAGNN over the given metapaths. `max_per_path` caps
    /// instances per (root, metapath); 0 = unlimited.
    pub fn new(
        hidden: usize,
        in_dim: usize,
        classes: usize,
        metapaths: Vec<Metapath>,
        max_per_path: usize,
    ) -> Self {
        Self {
            hidden,
            metapaths,
            max_per_path,
            hierarchy: None,
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// Hierarchical aggregation, bottom-up (§3.2 Figure 6); reads `h`
    /// and the HDG only.
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        let hierarchy = self.hierarchy.clone().expect("selection ran");
        g.hierarchical_attention_pool(h, hierarchy)
    }

    /// Update: ReLU(W * a).
    fn update(&self, g: &mut Graph, a: NodeId, w: NodeId, relu: bool) -> NodeId {
        let out = g.matmul(a, w);
        if relu {
            g.relu(out)
        } else {
            out
        }
    }
}

impl Model for Magnn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        // Deterministic selection: built once, reused the whole run.
        if self.hierarchy.is_some() {
            return;
        }
        let typed = ds.typed();
        let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
        let hdg = from_metapaths(&typed, roots, &self.metapaths, self.max_per_path);
        self.hierarchy = Some(Arc::clone(hdg.hierarchy()));
        self.input.clear();
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let w1 = g.param(params.value(self.w1).clone(), self.w1);
        let w2 = g.param(params.value(self.w2).clone(), self.w2);
        let a1 = self.input.record(g, feats, |g, h| self.aggregate(g, h));
        let h1 = self.update(g, a1, w1, true);
        let a2 = self.aggregate(g, h1);
        self.update(g, a2, w2, false)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        self.w1 = params.register(xavier_uniform(rng, in_dim, self.hidden));
        self.w2 = params.register(xavier_uniform(rng, self.hidden, classes));
    }

    fn name(&self) -> &'static str {
        "MAGNN"
    }
}

/// The 6 three-vertex metapaths used in the paper's evaluation setup
/// over our IMDB-like typing (0 = movie, 1 = director, 2 = actor):
/// M-D-M, M-A-M, D-M-D, D-M-A, A-M-A, A-M-D.
pub fn imdb_metapaths() -> Vec<Metapath> {
    vec![
        Metapath::new(vec![0, 1, 0]),
        Metapath::new(vec![0, 2, 0]),
        Metapath::new(vec![1, 0, 1]),
        Metapath::new(vec![1, 0, 2]),
        Metapath::new(vec![2, 0, 2]),
        Metapath::new(vec![2, 0, 1]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::hetero_imdb;
    use flexgraph_tensor::Strategy;

    #[test]
    fn magnn_trains_on_imdb_like_graph() {
        let ds = hetero_imdb(300, 3, 3, 16, 5);
        let model = Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 20);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 40,
                lr: 0.02,
                seed: 2,
            },
        );
        let stats = tr.run(&ds);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        // MAGNN only sees neighborhood features (no self term), so the
        // bar is lower than GCN's — but must beat chance (1/3) clearly.
        assert!(
            stats.last().unwrap().accuracy > 0.5,
            "got {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn fused_attention_trains_to_the_same_loss_bits_as_the_three_op_chain() {
        let ds = hetero_imdb(200, 3, 3, 16, 4);
        let model = || Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
        let cfg = TrainConfig {
            epochs: 5,
            lr: 0.01,
            seed: 7,
        };
        let bits = |stats: Vec<crate::EpochStats>| -> Vec<u32> {
            stats.iter().map(|s| s.loss.to_bits()).collect()
        };
        let fused = bits(Trainer::new(model(), cfg).run(&ds));
        // SA+FA records the aggregation as Figure 7's UDF list spells it.
        let mut unfused = Trainer::new(model(), cfg).with_strategy(Strategy::SaFa);
        let unfused = bits(unfused.run(&ds));
        assert_eq!(fused, unfused);
        assert!(f32::from_bits(fused[4]) < f32::from_bits(fused[0]));
    }

    #[test]
    fn selection_runs_once_for_whole_training() {
        let ds = hetero_imdb(100, 2, 2, 8, 1);
        let mut m = Magnn::new(8, 8, 2, imdb_metapaths(), 10);
        m.selection(&ds, 0);
        let hierarchy = m.hierarchy.clone().unwrap();
        m.selection(&ds, 1);
        m.selection(&ds, 7);
        assert!(
            Arc::ptr_eq(&hierarchy, m.hierarchy.as_ref().unwrap()),
            "HDGs cached across epochs"
        );
    }

    /// One selection + forward + backward, no optimizer step.
    fn tape(tr: &mut Trainer<Magnn>, ds: &Dataset) -> (Graph, NodeId) {
        let (mut g, logits, _) = tr.forward_pass(ds, 0);
        let loss = g.cross_entropy(logits, &ds.labels);
        g.backward(loss);
        (g, logits)
    }

    #[test]
    fn after_the_first_forward_layer_one_aggregation_is_one_leaf() {
        let ds = hetero_imdb(200, 3, 3, 16, 4);
        let model = Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
        let mut tr = Trainer::new(model, TrainConfig::default());
        let (first, logits) = tape(&mut tr, &ds);
        assert!(tr.model.input.is_recorded());
        let (len, want) = (first.len(), first.value(logits).clone());
        drop(first);
        for pass in 2..=3 {
            let (g, logits) = tape(&mut tr, &ds);
            // The recording collapsed into the same one leaf that every
            // later pass copies the memo into, with the same logits (no
            // step ran in between)…
            assert_eq!(g.len(), len, "pass {pass}");
            assert_eq!(g.value(logits), &want, "pass {pass}");
            // …in a buffer off the free list, like every other.
            assert_eq!(g.allocated_bytes(), 0, "pass {pass}");
        }
    }

    #[test]
    fn a_rebuilt_selection_records_the_aggregate_again() {
        let ds = hetero_imdb(100, 2, 2, 8, 1);
        let model = Magnn::new(8, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 10);
        let mut tr = Trainer::new(model, TrainConfig::default());
        tape(&mut tr, &ds); // Records the aggregate.
        let (memoised, logits) = tape(&mut tr, &ds);
        let want = memoised.value(logits).clone();
        drop(memoised);
        tr.model.hierarchy = None; // The next selection builds its HDGs anew…
        tr.model.selection(&ds, 0);
        assert!(!tr.model.input.is_recorded(), "…and forgets the aggregate");
        for pass in ["recorded again", "memoised again"] {
            let (g, logits) = tape(&mut tr, &ds);
            assert!(tr.model.input.is_recorded(), "{pass}");
            assert_eq!(g.value(logits), &want, "{pass}");
            assert_eq!(g.allocated_bytes(), 0, "{pass}");
        }
    }

    #[test]
    fn instance_cap_bounds_hdg_size() {
        let ds = hetero_imdb(100, 4, 2, 8, 3);
        let mut uncapped = Magnn::new(8, 8, 2, imdb_metapaths(), 0);
        let mut capped = Magnn::new(8, 8, 2, imdb_metapaths(), 2);
        uncapped.selection(&ds, 0);
        capped.selection(&ds, 0);
        let instances = |m: &Magnn| m.hierarchy.as_ref().unwrap().num_instances();
        assert!(instances(&capped) <= instances(&uncapped));
    }
}
