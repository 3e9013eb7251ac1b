//! PinSage (Ying et al.) — the paper's INFA representative.
//!
//! NeighborSelection is the importance-based UDF of Figure 5: top-k
//! visited vertices over random walks, re-run per epoch (the HDGs are
//! stochastic). Aggregation is a flat sum over the selected neighbors;
//! Update is `ReLU(W · [h | a])` (Figure 7's PinSageLayer concatenates).
//!
//! Layer 1's aggregate is *not* kept across epochs the way the
//! static-selection models keep theirs (`crate::memo`): it is
//! parameter-free here too, but the neighbor lists it sums over are new
//! every epoch, so there is nothing to reuse.

use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_graph::walk::WalkConfig;
use flexgraph_hdg::build::from_importance_walks;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet};
use std::sync::Arc;

/// A two-layer PinSage.
pub struct PinSage {
    hidden: usize,
    /// Walk parameters (paper defaults: 10 traces × 3 hops, top-10).
    pub walk: WalkConfig,
    seed: u64,
    built_for_epoch: Option<u64>,
    /// Flat-HDG CSC: per-root neighbor lists (group offsets + leaves).
    off: Arc<Vec<usize>>,
    src: Arc<Vec<u32>>,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl PinSage {
    /// Creates a PinSage model with paper-default walk parameters.
    pub fn new(hidden: usize, in_dim: usize, classes: usize, seed: u64) -> Self {
        Self {
            hidden,
            walk: WalkConfig::default(),
            seed,
            built_for_epoch: None,
            off: Arc::new(Vec::new()),
            src: Arc::new(Vec::new()),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// The selection result as CSC arrays: per-root segment offsets into
    /// the flat selected-neighbor list (golden fixtures, diagnostics).
    pub fn selection_arrays(&self) -> (&[usize], &[u32]) {
        (&self.off, &self.src)
    }

    fn layer(&self, g: &mut Graph, h: NodeId, w: NodeId, relu: bool) -> NodeId {
        let a = g.segment_reduce(h, self.off.clone(), self.src.clone(), false);
        // Update: ReLU(W * CONCAT(h, a)).
        let cat = g.concat_cols(h, a);
        let out = g.matmul(cat, w);
        if relu {
            g.relu(out)
        } else {
            out
        }
    }
}

impl Model for PinSage {
    fn selection(&mut self, ds: &Dataset, epoch: u64) {
        // Stochastic selection: rebuild once per epoch, shared by both
        // layers (§3.2: "HDGs can be cached and shared among layers").
        if self.built_for_epoch == Some(epoch) {
            return;
        }
        let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
        let hdg = from_importance_walks(&ds.graph, roots, &self.walk, self.seed ^ epoch);
        // Flat HDG: group offsets index straight into the leaf array.
        self.off = Arc::new(hdg.group_offsets().to_vec());
        self.src = Arc::new(hdg.leaf_sources().to_vec());
        self.built_for_epoch = Some(epoch);
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let w1 = g.param(params.value(self.w1).clone(), self.w1);
        let w2 = g.param(params.value(self.w2).clone(), self.w2);
        let h1 = self.layer(g, feats, w1, true);
        self.layer(g, h1, w2, false)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        self.w1 = params.register(xavier_uniform(rng, in_dim * 2, self.hidden));
        self.w2 = params.register(xavier_uniform(rng, self.hidden * 2, classes));
    }

    fn name(&self) -> &'static str {
        "PinSage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::community;

    #[test]
    fn pinsage_trains_on_communities() {
        let ds = community(250, 3, 8, 1, 16, 11);
        let model = PinSage::new(16, ds.feature_dim(), ds.num_classes, 5);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 30,
                lr: 0.02,
                seed: 4,
            },
        );
        let stats = tr.run(&ds);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        assert!(
            stats.last().unwrap().accuracy > 0.8,
            "got {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn selection_reruns_per_epoch_but_not_per_layer() {
        let ds = community(150, 2, 5, 1, 8, 2);
        let mut m = PinSage::new(8, ds.feature_dim(), ds.num_classes, 1);
        m.selection(&ds, 0);
        let off0 = m.off.clone();
        // Same epoch: cached.
        m.selection(&ds, 0);
        assert!(Arc::ptr_eq(&off0, &m.off), "same-epoch selection is cached");
        // New epoch: rebuilt (stochastic walks differ).
        m.selection(&ds, 1);
        assert!(!Arc::ptr_eq(&off0, &m.off), "new epoch rebuilds HDGs");
    }

    #[test]
    fn neighbor_lists_respect_top_k() {
        let ds = community(100, 2, 6, 1, 4, 8);
        let mut m = PinSage::new(4, 4, 2, 3);
        m.walk.top_k = 5;
        m.selection(&ds, 0);
        for r in 0..100 {
            let deg = m.off[r + 1] - m.off[r];
            assert!(deg <= 5, "root {r} has {deg} neighbors");
        }
    }
}
