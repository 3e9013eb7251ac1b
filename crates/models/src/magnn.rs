//! MAGNN (Fu et al.) — the paper's INHA representative.
//!
//! NeighborSelection finds metapath instances (Figure 5's `magann_nbr`)
//! once for the whole training run — the HDGs never change across epochs
//! (§3.2). Aggregation is hierarchical: instance features are the mean
//! of their member vertices (fused), metapath-type features the
//! attention-weighted sum of their instances — Figure 7's
//! `scatter_softmax`, recorded as one fused softmax-pool op — or, with
//! [`Magnn::attention`] off, their plain segment mean, and the
//! neighborhood representation the dense block-mean over types (Figure
//! 10). Update is `ReLU(W · a)` (Figure 7's MAGNNLayer uses only the
//! neighborhood representation).
//!
//! The Aggregation stage has no parameter, so layer 1's — leaves →
//! instances → types → root over the feature matrix, the two
//! instance-sized tensors of the epoch — is the same every epoch: it is
//! recorded by the first `forward` after selection and is a leaf from
//! then on (`crate::memo`).

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_graph::metapath::Metapath;
use flexgraph_hdg::build::from_metapaths;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet, ScatterPlan};
use std::sync::Arc;

/// A two-layer MAGNN.
pub struct Magnn {
    hidden: usize,
    metapaths: Vec<Metapath>,
    max_per_path: usize,
    /// Use attention (scatter-softmax weighting) at the instance →
    /// type level, as in the paper's Figure 7 UDF list
    /// `[scatter_mean, scatter_softmax, scatter_mean]`; `false` falls
    /// back to a plain mean.
    pub attention: bool,
    built: bool,
    inst_off: Arc<Vec<usize>>,
    leaf_src: Arc<Vec<u32>>,
    group_off: Arc<Vec<usize>>,
    inst_ranks: Arc<Vec<u32>>,
    /// Cached scatter plan over the instance → group index (the omitted
    /// `Dst` array), shared by the attention softmax and the weighted
    /// sum of both layers, every epoch.
    group_plan: Option<Arc<ScatterPlan>>,
    num_groups: usize,
    num_types: usize,
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
        let num_types = metapaths.len();
        Self {
            hidden,
            metapaths,
            max_per_path,
            attention: true,
            built: false,
            inst_off: Arc::new(Vec::new()),
            leaf_src: Arc::new(Vec::new()),
            group_off: Arc::new(Vec::new()),
            inst_ranks: Arc::new(Vec::new()),
            group_plan: None,
            num_groups: 0,
            num_types,
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// Hierarchical aggregation, bottom-up (§3.2 Figure 6); reads `h`
    /// and the HDG only.
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        // Leaves → instances (fused mean)…
        let inst = g.segment_reduce(h, self.inst_off.clone(), self.leaf_src.clone(), true);
        // …instances → metapath types: attention-weighted sum (Figure
        // 7's scatter_softmax → mul → scatter_add, fused into one op) or
        // a plain segment mean…
        let groups = if self.attention {
            let plan = self.group_plan.clone().expect("selection ran");
            g.scatter_softmax_pool_with_plan(inst, plan)
        } else {
            g.segment_reduce(inst, self.group_off.clone(), self.inst_ranks.clone(), true)
        };
        // …types → root (dense reshape + block mean, Figure 10).
        g.mean_row_blocks(groups, self.num_types)
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
        if self.built {
            return;
        }
        let typed = ds.typed();
        let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
        let hdg = from_metapaths(&typed, roots, &self.metapaths, self.max_per_path);
        self.inst_off = Arc::new(hdg.inst_offsets().to_vec());
        self.leaf_src = Arc::new(hdg.leaf_sources().to_vec());
        self.group_off = Arc::new(hdg.group_offsets().to_vec());
        self.inst_ranks = Arc::new((0..hdg.num_instances() as u32).collect());
        self.group_plan = Some(hdg.group_scatter_plan());
        self.num_groups = hdg.num_groups();
        self.input.clear();
        self.built = true;
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

    /// The instance → type level the way Figure 7's UDF list spells it:
    /// three tape ops for attention, a sparse `scatter_mean` otherwise.
    struct Unfused(Magnn);

    impl Unfused {
        fn layer(&self, g: &mut Graph, h: NodeId, w: NodeId, relu: bool) -> NodeId {
            let m = &self.0;
            let inst = g.segment_reduce(h, m.inst_off.clone(), m.leaf_src.clone(), true);
            let plan = m.group_plan.clone().expect("selection ran");
            let groups = if m.attention {
                let weights = g.scatter_softmax_with_plan(inst, plan.clone());
                let weighted = g.mul(weights, inst);
                g.scatter_add_with_plan(weighted, plan)
            } else {
                g.scatter_mean_with_plan(inst, plan)
            };
            let a = g.mean_row_blocks(groups, m.num_types);
            let out = g.matmul(a, w);
            if relu {
                g.relu(out)
            } else {
                out
            }
        }
    }

    impl Model for Unfused {
        fn selection(&mut self, ds: &Dataset, epoch: u64) {
            self.0.selection(ds, epoch);
        }

        fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
            let w1 = g.param(params.value(self.0.w1).clone(), self.0.w1);
            let w2 = g.param(params.value(self.0.w2).clone(), self.0.w2);
            let h1 = self.layer(g, feats, w1, true);
            self.layer(g, h1, w2, false)
        }

        fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
            self.0.init_params(params, rng);
        }

        fn name(&self) -> &'static str {
            "MAGNN (unfused)"
        }
    }

    #[test]
    fn fused_attention_trains_to_the_same_loss_bits_as_the_three_op_chain() {
        let ds = hetero_imdb(200, 3, 3, 16, 4);
        for attention in [true, false] {
            let model = || {
                let mut m = Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
                m.attention = attention;
                m
            };
            let cfg = TrainConfig {
                epochs: 5,
                lr: 0.01,
                seed: 7,
            };
            let bits = |stats: Vec<crate::EpochStats>| -> Vec<u32> {
                stats.iter().map(|s| s.loss.to_bits()).collect()
            };
            let fused = bits(Trainer::new(model(), cfg).run(&ds));
            let unfused = bits(Trainer::new(Unfused(model()), cfg).run(&ds));
            assert_eq!(fused, unfused, "attention = {attention}");
            assert!(f32::from_bits(fused[4]) < f32::from_bits(fused[0]));
        }
    }

    #[test]
    fn selection_runs_once_for_whole_training() {
        let ds = hetero_imdb(100, 2, 2, 8, 1);
        let mut m = Magnn::new(8, 8, 2, imdb_metapaths(), 10);
        m.selection(&ds, 0);
        let off = m.inst_off.clone();
        m.selection(&ds, 1);
        m.selection(&ds, 7);
        assert!(Arc::ptr_eq(&off, &m.inst_off), "HDGs cached across epochs");
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
        let (len, want) = (first.len(), first.value(logits).clone());
        drop(first);
        for pass in 2..=3 {
            let (g, logits) = tape(&mut tr, &ds);
            // segment_reduce, softmax-pool and mean_row_blocks — the two
            // instance-sized tensors of layer 1 among them — gave way to
            // one leaf, with the same logits (no step ran in between)…
            assert_eq!(len - g.len(), 3 - 1, "pass {pass}");
            assert_eq!(g.value(logits), &want, "pass {pass}");
            // …whose buffer came off the free list, like every other.
            assert_eq!(g.free_list_misses(), 0, "pass {pass}");
        }
    }

    #[test]
    fn a_rebuilt_selection_records_the_aggregate_again() {
        let ds = hetero_imdb(100, 2, 2, 8, 1);
        let model = Magnn::new(8, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 10);
        let mut tr = Trainer::new(model, TrainConfig::default());
        let recorded = tape(&mut tr, &ds).0.len();
        let memoised = tape(&mut tr, &ds).0.len();
        assert!(memoised < recorded);
        tr.model.built = false; // The next selection builds its HDGs anew.
        assert_eq!(tape(&mut tr, &ds).0.len(), recorded);
        assert_eq!(tape(&mut tr, &ds).0.len(), memoised);
    }

    #[test]
    fn instance_cap_bounds_hdg_size() {
        let ds = hetero_imdb(100, 4, 2, 8, 3);
        let mut uncapped = Magnn::new(8, 8, 2, imdb_metapaths(), 0);
        let mut capped = Magnn::new(8, 8, 2, imdb_metapaths(), 2);
        uncapped.selection(&ds, 0);
        capped.selection(&ds, 0);
        assert!(capped.inst_off.len() <= uncapped.inst_off.len());
    }
}
