//! P-GNN (You et al.) — the first INHA extension the paper sketches in
//! §3.2: each vertex's "neighbors" are `k` anchor-sets of vertices; the
//! Aggregation stage first reduces each anchor-set, then combines the
//! `k` anchor-set features into the neighborhood representation — the
//! same bottom-up pattern as MAGNN, so the HDGs have three levels. Its
//! Aggregation and Update are JK-Net's (`crate::set_mean`); only the
//! selection is P-GNN's own.

use crate::set_mean::SetMeanLayers;
use crate::train::Model;
use flexgraph_graph::gen::Dataset;
use flexgraph_graph::VertexId;
use flexgraph_tensor::{Graph, NodeId, ParamSet};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A two-layer P-GNN with `k` shared random anchor-sets.
pub struct Pgnn {
    /// Number of anchor-sets.
    pub num_anchor_sets: usize,
    /// Vertices per anchor-set.
    pub anchor_size: usize,
    seed: u64,
    pub(crate) layers: SetMeanLayers,
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
            num_anchor_sets: k,
            anchor_size: size,
            seed,
            layers: SetMeanLayers::new(hidden, in_dim, classes, k),
        }
    }
}

impl Model for Pgnn {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        if self.layers.is_selected() {
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
        // Flatten (root-major, set-minor): every root owns its instance
        // of the shared sets in the HDG, and the segment layout encodes
        // exactly that.
        let mut off = Vec::with_capacity(n * self.num_anchor_sets + 1);
        let mut src = Vec::new();
        off.push(0usize);
        for _root in 0..n {
            for set in &sets {
                src.extend(set.iter().copied());
                off.push(src.len());
            }
        }
        self.layers.select(off, src);
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        self.layers.forward(g, feats, params)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        self.layers.init_params(params, rng);
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
        let (off, _) = m.layers.segments();
        assert_eq!(off.len(), 50 * 3 + 1);
        // Every root sees identical sets: segment sizes repeat with
        // period k.
        for r in 1..50 {
            for s in 0..3 {
                let a = off[s + 1] - off[s];
                let b = off[r * 3 + s + 1] - off[r * 3 + s];
                assert_eq!(a, b);
            }
        }
    }
}
