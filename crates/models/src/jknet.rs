//! JK-Net (Xu et al.) — the second INHA extension of §3.2: the `i`-th
//! "neighbor" of a vertex is the set of vertices at exact hop distance
//! `i`. Aggregation first reduces each hop shell, then combines the `k`
//! shell features — expressed through the same hierarchical HDG pattern
//! as MAGNN and P-GNN.

use crate::memo::InputAggregate;
use crate::train::Model;
use flexgraph_graph::bfs::HopScratch;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{xavier_uniform, Graph, NodeId, ParamSet};
use std::sync::Arc;

/// A JK-Net layer stack over `k` hop shells.
pub struct JkNet {
    hidden: usize,
    /// Number of hop shells (the model's `k`).
    pub hops: usize,
    built: bool,
    /// Per-(root, shell) segment offsets over the flattened shells.
    off: Arc<Vec<usize>>,
    src: Arc<Vec<u32>>,
    /// Layer 1's aggregate over the feature leaf.
    pub(crate) input: InputAggregate,
    w1: usize,
    w2: usize,
    dims: (usize, usize),
}

impl JkNet {
    /// Creates a JK-Net aggregating `hops` shells.
    pub fn new(hidden: usize, in_dim: usize, classes: usize, hops: usize) -> Self {
        assert!(hops >= 1, "need at least one hop shell");
        Self {
            hidden,
            hops,
            built: false,
            off: Arc::new(Vec::new()),
            src: Arc::new(Vec::new()),
            input: InputAggregate::default(),
            w1: usize::MAX,
            w2: usize::MAX,
            dims: (in_dim, classes),
        }
    }

    /// The selection result as CSC arrays: `hops` segments per root over
    /// the flattened hop shells (golden fixtures, diagnostics).
    pub fn selection_arrays(&self) -> (&[usize], &[u32]) {
        (&self.off, &self.src)
    }

    /// Aggregation: `[h ‖ a]`, parameter-free — over the feature leaf
    /// it is recorded once (`crate::memo`).
    fn aggregate(&self, g: &mut Graph, h: NodeId) -> NodeId {
        // Shell level: mean per (root, hop-shell).
        let shells = g.segment_reduce(h, self.off.clone(), self.src.clone(), true);
        // Schema level: dense block-mean over the k shells (the
        // "jumping knowledge" combination, here mean-pooled).
        let a = g.mean_row_blocks(shells, self.hops);
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

impl Model for JkNet {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        // Shells are deterministic: build once — a k-level walk per
        // root, all in one scratch.
        if self.built {
            return;
        }
        let n = ds.graph.num_vertices();
        let mut off = Vec::with_capacity(n * self.hops + 1);
        let mut src: Vec<u32> = Vec::new();
        off.push(0usize);
        let mut scratch = HopScratch::new();
        for v in 0..n as u32 {
            let shells = scratch
                .shells(&ds.graph, v, self.hops)
                .unwrap_or_else(|e| match e {});
            for shell in shells {
                src.extend(shell);
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
        "JK-Net"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use flexgraph_graph::bfs::hop_shells;
    use flexgraph_graph::gen::community;

    #[test]
    fn jknet_trains() {
        let ds = community(200, 2, 6, 1, 12, 21);
        let model = JkNet::new(12, ds.feature_dim(), ds.num_classes, 2);
        let mut tr = Trainer::new(
            model,
            TrainConfig {
                epochs: 30,
                lr: 0.02,
                seed: 8,
            },
        );
        let stats = tr.run(&ds);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
        assert!(stats.last().unwrap().accuracy > 0.75);
    }

    #[test]
    fn shell_layout_matches_bfs() {
        let ds = community(60, 2, 4, 1, 4, 2);
        let mut m = JkNet::new(4, 4, 2, 2);
        m.selection(&ds, 0);
        assert_eq!(m.off.len(), 60 * 2 + 1);
        // Shell segments of root 0 match hop_shells directly.
        let shells = hop_shells(&ds.graph, 0, 2);
        assert_eq!(m.off[1] - m.off[0], shells[0].len());
        assert_eq!(m.off[2] - m.off[1], shells[1].len());
    }
}
