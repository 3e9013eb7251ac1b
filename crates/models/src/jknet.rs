//! JK-Net (Xu et al.) — the second INHA extension of §3.2: the `i`-th
//! "neighbor" of a vertex is the set of vertices at exact hop distance
//! `i`. Aggregation first reduces each hop shell, then combines the `k`
//! shell features; it and Update are P-GNN's (`crate::set_mean`), and
//! only the selection is JK-Net's own.

use crate::set_mean::SetMeanLayers;
use crate::train::Model;
use flexgraph_graph::bfs::HopScratch;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{Graph, NodeId, ParamSet};

/// A JK-Net layer stack over `k` hop shells.
pub struct JkNet {
    /// Number of hop shells (the model's `k`).
    pub hops: usize,
    pub(crate) layers: SetMeanLayers,
}

impl JkNet {
    /// Creates a JK-Net aggregating `hops` shells.
    pub fn new(hidden: usize, in_dim: usize, classes: usize, hops: usize) -> Self {
        assert!(hops >= 1, "need at least one hop shell");
        Self {
            hops,
            layers: SetMeanLayers::new(hidden, in_dim, classes, hops),
        }
    }

    /// The selection result as CSC arrays: `hops` segments per root over
    /// the flattened hop shells (golden fixtures, diagnostics).
    pub fn selection_arrays(&self) -> (&[usize], &[u32]) {
        self.layers.segments()
    }
}

impl Model for JkNet {
    fn selection(&mut self, ds: &Dataset, _epoch: u64) {
        // Shells are deterministic: build once — a k-level walk per
        // root, all in one scratch.
        if self.layers.is_selected() {
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
        self.layers.select(off, src);
    }

    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
        self.layers.forward(g, feats, params)
    }

    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
        self.layers.init_params(params, rng);
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
        let (off, _) = m.selection_arrays();
        assert_eq!(off.len(), 60 * 2 + 1);
        // Shell segments of root 0 match hop_shells directly.
        let shells = hop_shells(&ds.graph, 0, 2);
        assert_eq!(off[1] - off[0], shells[0].len());
        assert_eq!(off[2] - off[1], shells[1].len());
    }
}
