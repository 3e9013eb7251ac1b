//! P-GNN (You et al.) — the first INHA extension the paper sketches in
//! §3.2: each vertex's "neighbors" are `k` anchor-sets of vertices; the
//! Aggregation stage first reduces each anchor-set, then combines the
//! `k` anchor-set features into the neighborhood representation — the
//! same bottom-up pattern as MAGNN, so the HDGs have three levels.

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_graph::VertexId;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A two-layer P-GNN with `k` shared random anchor-sets.
pub struct Pgnn {
    hidden: usize,
    /// Number of anchor-sets.
    pub num_anchor_sets: usize,
    /// Vertices per anchor-set.
    pub anchor_size: usize,
    seed: u64,
    built: bool,
    /// Per-(root, set) segment offsets over the flattened anchor lists.
    off: Arc<Vec<usize>>,
    src: Arc<Vec<u32>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl Pgnn {
    /// Creates a P-GNN with `k` anchor-sets of `size` vertices each.
    pub fn new(
        hidden: usize,
        in_dim: usize,
        classes: usize,
        k: usize,
        size: usize,
        seed: u64,
    ) -> Self {
        assert!(
            k >= 1 && size >= 1,
            "anchor-set configuration must be non-empty"
        );
        Self {
            hidden,
            num_anchor_sets: k,
            anchor_size: size,
            seed,
            built: false,
            off: Arc::new(Vec::new()),
            src: Arc::new(Vec::new()),
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// Aggregation: `[h ‖ a]`, the vertex's own feature beside the
    /// anchor view; parameter-free — over the feature leaf it is
    /// recorded once (`crate::memo`).
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        // Anchor-set level: mean per (root, set) — the sets are shared,
        // but each root owns its instance in the HDG; the segment layout
        // encodes exactly that.
        let sets = g.segment_reduce(h, self.off.clone(), self.src.clone(), true);
        // Schema level: dense block-mean over the k sets per root.
        let a = g.mean_row_blocks(sets, self.num_anchor_sets);
        g.concat_cols(h, a)
    }

    /// Update: ReLU(W * [h ‖ a]).
    fn update(&self, g: &mut Graph, cat: NodeId, w: NodeId, relu: bool) -> NodeId {
        let out = g.matmul(cat, w);
        if relu {
            g.relu(out)
        } else {
            out
        }
    }
}

impl Model for Pgnn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        if self.built {
            return;
        }
        let n = ds.graph.num_vertices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        let sets: Vec<Vec<VertexId>> = (0..self.num_anchor_sets)
            .map(|_| {
                all.choose_multiple(&mut rng, self.anchor_size.min(n))
                    .copied()
                    .collect()
            })
            .collect();
        // Flatten (root-major, set-minor); every root shares the sets.
        let mut off = Vec::with_capacity(n * self.num_anchor_sets + 1);
        let mut src = Vec::new();
        off.push(0usize);
        for _root in 0..n {
            for set in &sets {
                src.extend(set.iter().copied());
                off.push(src.len());
            }
        }
        self.off = Arc::new(off);
        self.src = Arc::new(src);
        self.input.clear();
        self.built = true;
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        let w1 = g.param(params.value(self.w1).clone(), self.w1);
        let w2 = g.param(params.value(self.w2).clone(), self.w2);
        let c1 = self.input.record(g, feats, |g, h| self.aggregate(g, h));
        let h1 = self.update(g, c1, w1, true);
        let c2 = self.aggregate(g, h1);
        self.update(g, c2, w2, false)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        let (in_dim, classes) = self.dims;
        self.w1 = params.register(xavier_uniform(rng, in_dim * 2, self.hidden));
        self.w2 = params.register(xavier_uniform(rng, self.hidden * 2, classes));
    }

    fn name(&self) -> &'static str {
        "P-GNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::gen::community;

    #[test]
    fn pgnn_trains() {
        let ds = community(200, 2, 6, 1, 12, 13);
        let model = Pgnn::new(12, ds.feature_dim(), ds.num_classes, 4, 8, 3);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 30,
                lr: 0.02,
                seed: 6,
            },
        );
        let stats = tr.run(&ds);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        assert!(stats.last().unwrap().accuracy > 0.7);
    }

    #[test]
    fn anchor_layout_is_root_major() {
        let ds = community(50, 2, 4, 1, 4, 1);
        let mut m = Pgnn::new(4, 4, 2, 3, 5, 9);
        m.selection(&ds, 0);
        assert_eq!(m.off.len(), 50 * 3 + 1);
        // Every root sees identical sets: segment sizes repeat with
        // period k.
        for r in 1..50 {
            for s in 0..3 {
                let a = m.off[s + 1] - m.off[s];
                let b = m.off[r * 3 + s + 1] - m.off[r * 3 + s];
                assert_eq!(a, b);
            }
        }
    }
}
