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
use flexgraph_graph::walk::{importance_selection, WalkConfig};
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet, SegmentIndex};
use std::sync::Arc;

/// A two-layer PinSage.
pub struct PinSage {
    hidden: usize,
    /// Walk parameters (paper defaults: 10 traces × 3 hops, top-10).
    pub walk: WalkConfig,
    seed: u64,
    built_for_epoch: Option<u64>,
    /// The flat HDG as CSC: every vertex's neighbor list, as the walker
    /// wrote it; `None` until selected.
    neighbors: Option<Arc<SegmentIndex>>,
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
            neighbors: None,
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// The selection result as CSC arrays: per-root segment offsets into
    /// the flat selected-neighbor list (golden fixtures, diagnostics).
    pub fn selection_arrays(&self) -> (&[usize], &[u32]) {
        let n = self.neighbors.as_ref().expect("selection ran");
        (n.offsets(), n.src())
    }

    fn layer(&self, g: &mut Graph, h: NodeId, w: NodeId, relu: bool) -> NodeId {
        let neighbors = self.neighbors.clone().expect("selection ran");
        let a = g.segment_reduce(h, neighbors, false);
        // Update: ReLU(W * CONCAT(h, a)).
        let cat = g.concat_cols(h, a);
        if relu {
            g.matmul_relu(cat, w)
        } else {
            g.matmul(cat, w)
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
        let roots = 0..ds.graph.num_vertices() as u32;
        let (off, src) = importance_selection(&ds.graph, roots, &self.walk, self.seed ^ epoch);
        self.neighbors = Some(Arc::new(SegmentIndex::new(off, src)));
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
        let first = m.neighbors.clone().unwrap();
        let same = |m: &PinSage| Arc::ptr_eq(&first, m.neighbors.as_ref().unwrap());
        // Same epoch: cached.
        m.selection(&ds, 0);
        assert!(same(&m), "same-epoch selection is cached");
        // New epoch: rebuilt (stochastic walks differ).
        m.selection(&ds, 1);
        assert!(!same(&m), "new epoch rebuilds HDGs");
    }

    #[test]
    fn neighbor_lists_respect_top_k() {
        let ds = community(100, 2, 6, 1, 4, 8);
        let mut m = PinSage::new(4, 4, 2, 3);
        m.walk.top_k = 5;
        m.selection(&ds, 0);
        let (off, _) = m.selection_arrays();
        for r in 0..100 {
            let deg = off[r + 1] - off[r];
            assert!(deg <= 5, "root {r} has {deg} neighbors");
        }
    }
}
