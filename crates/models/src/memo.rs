//! Layer 1's aggregation, recorded once per selection (DESIGN §5).
//!
//! A static-selection model's Aggregation stage has no parameter, so over
//! the feature leaf it yields the same tensor every epoch — §3.2's "paid
//! once, reused every epoch", one stage after NeighborSelection. The
//! first `forward` after a (re)build runs the stage on the tape and
//! collapses the sub-tape into one leaf (`Graph::collapse_into_leaf`):
//! its other buffers go back to the free list for layer 2 before the
//! pass draws any more, and its value moves into an `Arc` the memo keeps.
//! Every later `forward` records a leaf sharing that `Arc` — no copy —
//! and goes straight to Update. Every pass's tape therefore has the same
//! shape, and the first peaks where the others do. Exact by
//! construction: it is the tensor the same ops would produce again, and
//! no node of the collapsed or skipped sub-tape ever needed a gradient.
//! PinSage (re-selects every epoch) and G-GCN (parameterised gates) do
//! not use it.

use flexgraph_tensor::{Graph, NodeId, Tensor};
use std::sync::{Arc, OnceLock};

/// The memo of one model: the shape of the feature leaf it was recorded
/// from, and the aggregate's value.
#[derive(Default)]
pub(crate) struct InputAggregate(OnceLock<((usize, usize), Arc<Tensor>)>);

impl InputAggregate {
    /// Forgets the value; `selection` calls this whenever it (re)builds.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }

    #[cfg(test)]
    pub(crate) fn is_recorded(&self) -> bool {
        self.0.get().is_some()
    }

    /// The node holding `aggregate(g, feats)`, always a leaf sharing the
    /// memo's value: the first time, `aggregate`'s recording collapsed
    /// into it (its other buffers back on the free list).
    ///
    /// # Panics
    ///
    /// Panics if `feats` is not shaped like the leaf the memo was
    /// recorded from: a model instance is bound to one dataset (see
    /// [`crate::Model::forward`]).
    pub(crate) fn record(
        &self,
        g: &mut Graph,
        feats: NodeId,
        aggregate: impl FnOnce(&mut Graph, NodeId) -> NodeId,
    ) -> NodeId {
        let shape = g.value(feats).shape();
        match self.0.get() {
            Some((recorded_from, value)) => {
                assert_eq!(
                    shape, *recorded_from,
                    "feature leaf shape differs from the one layer 1's aggregate was memoised from"
                );
                g.leaf(Arc::clone(value))
            }
            None => {
                let mark = g.len();
                let a = aggregate(g, feats);
                let (leaf, value) = g.collapse_into_leaf(mark, a);
                // A racing recorder computed the same tensor.
                let _ = self.0.set((shape, value));
                leaf
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magnn::imdb_metapaths;
    use crate::train::{Model, TrainConfig, Trainer};
    use crate::{Gcn, Gin, JkNet, Magnn, Pgnn, PinSage};
    use flexgraph_graph::gen::{community, hetero_imdb, Dataset};
    use flexgraph_tensor::ParamSet;

    /// The oracle: the same model with its memo cleared ahead of every
    /// `forward`, so `aggregate` is recorded on every epoch's tape —
    /// what each model did before the memo existed.
    struct EveryEpoch<M> {
        model: M,
        memo: fn(&mut M) -> &mut InputAggregate,
    }

    impl<M: Model> Model for EveryEpoch<M> {
        fn selection(&mut self, ds: &Dataset, epoch: u64) {
            self.model.selection(ds, epoch);
            (self.memo)(&mut self.model).clear();
        }

        fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId {
            self.model.forward(g, feats, params)
        }

        fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng) {
            self.model.init_params(params, rng);
        }

        fn name(&self) -> &'static str {
            self.model.name()
        }
    }

    /// Five epochs, then every other `Trainer` entry point, memoised
    /// against the oracle: same bits throughout.
    fn assert_memo_is_exact<M: Model>(
        ds: &Dataset,
        build: impl Fn() -> M,
        memo: fn(&mut M) -> &mut InputAggregate,
    ) {
        let cfg = TrainConfig {
            epochs: 5,
            lr: 0.01,
            seed: 7,
        };
        let mut memoised = Trainer::new(build(), cfg);
        let mut oracle = Trainer::new(
            EveryEpoch {
                model: build(),
                memo,
            },
            cfg,
        );
        let name = memoised.model.name();
        let losses = |stats: Vec<crate::EpochStats>| -> Vec<u32> {
            stats.iter().map(|s| s.loss.to_bits()).collect()
        };
        let got = losses(memoised.run(ds));
        assert_eq!(got, losses(oracle.run(ds)), "{name}: epoch losses");
        assert!(f32::from_bits(got[4]) < f32::from_bits(got[0]), "{name}");
        assert!(memo(&mut memoised.model).is_recorded(), "{name}");

        assert_eq!(memoised.infer(ds), oracle.infer(ds), "{name}: infer");
        let idx: Vec<u32> = (0..ds.graph.num_vertices() as u32).step_by(3).collect();
        assert_eq!(
            memoised.evaluate(ds, &idx),
            oracle.evaluate(ds, &idx),
            "{name}: evaluate"
        );
        let (a, b) = (
            memoised.epoch_masked(ds, 5, &idx),
            oracle.epoch_masked(ds, 5, &idx),
        );
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{name}: epoch_masked");
        assert_eq!(a.accuracy, b.accuracy, "{name}: epoch_masked");
    }

    #[test]
    fn magnn_memo_is_exact() {
        let ds = hetero_imdb(200, 3, 3, 16, 4);
        let build = || Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
        assert_memo_is_exact(&ds, build, |m| &mut m.input);
    }

    #[test]
    fn gcn_memo_is_exact() {
        let ds = community(200, 3, 6, 1, 12, 5);
        let build = || Gcn::new(12, ds.feature_dim(), ds.num_classes);
        assert_memo_is_exact(&ds, build, |m| &mut m.input);
    }

    #[test]
    fn gin_memo_is_exact() {
        let ds = community(200, 3, 6, 1, 12, 6);
        let build = || Gin::new(12, ds.feature_dim(), ds.num_classes);
        assert_memo_is_exact(&ds, build, |m| &mut m.input);
    }

    #[test]
    fn jknet_memo_is_exact() {
        let ds = community(150, 2, 6, 1, 12, 21);
        let build = || JkNet::new(12, ds.feature_dim(), ds.num_classes, 2);
        assert_memo_is_exact(&ds, build, |m| &mut m.layers.input);
    }

    #[test]
    fn pgnn_memo_is_exact() {
        let ds = community(150, 2, 6, 1, 12, 13);
        let build = || Pgnn::new(12, ds.feature_dim(), ds.num_classes, 4, 8, 3);
        assert_memo_is_exact(&ds, build, |m| &mut m.layers.input);
    }

    /// After a warm-up epoch, a pass's feature leaf is `ds.features`
    /// itself and its layer-1 leaf the memo's value: neither is a copy.
    fn assert_leaves_are_not_copies<M: Model>(
        ds: &Dataset,
        model: M,
        memo: Option<fn(&mut M) -> &mut InputAggregate>,
    ) {
        let mut tr = Trainer::new(model, TrainConfig::default());
        let name = tr.model.name();
        tr.epoch(ds, 0);
        let (g, _, _) = tr.forward_pass(ds, 1);
        // A `NodeId` is a position, so a scratch tape of as many leaves
        // mints them.
        let mut mint = Graph::new();
        let ptrs: Vec<*const f32> = (0..g.len())
            .map(|_| g.value(mint.leaf(Tensor::zeros(0, 0))).data().as_ptr())
            .collect();
        assert_eq!(ptrs[0], ds.features.data().as_ptr(), "{name}: feature leaf");
        if let Some(memo) = memo {
            let (_, value) = memo(&mut tr.model).0.get().expect("recorded");
            assert!(
                ptrs.contains(&value.data().as_ptr()),
                "{name}: layer-1 leaf"
            );
        }
    }

    #[test]
    fn passes_lend_the_features_and_share_the_memo() {
        let ds = community(150, 3, 6, 1, 12, 5);
        let (d, c) = (ds.feature_dim(), ds.num_classes);
        assert_leaves_are_not_copies(&ds, Gcn::new(12, d, c), Some(|m| &mut m.input));
        assert_leaves_are_not_copies(&ds, Gin::new(12, d, c), Some(|m| &mut m.input));
        let jknet = JkNet::new(12, d, c, 2);
        assert_leaves_are_not_copies(&ds, jknet, Some(|m| &mut m.layers.input));
        let pgnn = Pgnn::new(12, d, c, 4, 8, 3);
        assert_leaves_are_not_copies(&ds, pgnn, Some(|m| &mut m.layers.input));
        assert_leaves_are_not_copies(&ds, PinSage::new(12, d, c, 3), None);
        let ds = hetero_imdb(120, 3, 3, 16, 4);
        let magnn = Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
        assert_leaves_are_not_copies(&ds, magnn, Some(|m| &mut m.input));
    }

    #[test]
    #[should_panic(expected = "feature leaf shape differs")]
    fn a_leaf_of_another_shape_is_refused() {
        let ds = community(60, 2, 4, 1, 8, 2);
        let tr = {
            let model = Gcn::new(8, ds.feature_dim(), ds.num_classes);
            let mut tr = Trainer::new(model, TrainConfig::default());
            tr.epoch(&ds, 0);
            tr
        };
        let mut g = Graph::new();
        let other = g.leaf(Tensor::zeros(ds.graph.num_vertices() + 1, ds.feature_dim()));
        tr.model.forward(&mut g, other, &tr.params);
    }
}
