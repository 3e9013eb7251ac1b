//! The model trait and the training loop.

use flexgraph_engine::StageTimes;
use flexgraph_graph::gen::Dataset;
use flexgraph_tensor::{Adam, Graph, NodeId, Optimizer, ParamSet, Strategy, Tensor};
use std::time::{Duration, Instant};

/// A NAU-expressed GNN model, trainable end-to-end.
///
/// `selection` runs the NeighborSelection stage (building / refreshing
/// HDGs according to the model's reuse policy); `forward` records the
/// Aggregation + Update stages of all layers onto an autograd tape and
/// returns the logits node. The trainer owns parameters and timing.
pub trait Model {
    /// Runs NeighborSelection for `epoch`. Must be cheap when the model's
    /// reuse policy says the cached HDGs are still valid.
    fn selection(&mut self, ds: &Dataset, epoch: u64);

    /// Records the forward pass onto the tape; returns the logits node.
    ///
    /// `feats` is a leaf holding the feature matrix of the dataset last
    /// passed to [`Model::selection`]: the HDGs a model caches, and the
    /// layer-1 aggregate a static-selection model records once per
    /// selection, are only valid for that dataset. A model instance is
    /// bound to one dataset for its whole life.
    fn forward(&self, g: &mut Graph, feats: NodeId, params: &ParamSet) -> NodeId;

    /// Registers this model's parameters (called once by the trainer).
    fn init_params(&mut self, params: &mut ParamSet, rng: &mut rand::rngs::StdRng);

    /// A short display name.
    fn name(&self) -> &'static str;
}

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed for parameter init.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            lr: 0.01,
            seed: 17,
        }
    }
}

/// Per-epoch measurements.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Mean cross-entropy over all vertices.
    pub loss: f32,
    /// Training accuracy (argmax vs labels).
    pub accuracy: f64,
    /// Stage wall times (selection covers NeighborSelection; aggregation
    /// covers the recorded forward + backward; update covers the
    /// optimizer step).
    pub times: StageTimes,
    /// Bytes the epoch's tape drew from the allocator
    /// ([`Graph::allocated_bytes`]): its footprint on a thread with no
    /// tape's buffers parked, 0 when the previous epoch's tape on the
    /// same thread had the same shapes.
    pub tape_bytes: usize,
}

/// Owns the parameters and optimizer for one model.
pub struct Trainer<M: Model> {
    /// The model.
    pub model: M,
    /// Its parameters.
    pub params: ParamSet,
    opt: Adam,
    cfg: TrainConfig,
    strategy: Strategy,
}

impl<M: Model> Trainer<M> {
    /// Creates a trainer, initializing the model's parameters.
    pub fn new(mut model: M, cfg: TrainConfig) -> Self {
        use rand::SeedableRng;
        let mut params = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        model.init_params(&mut params, &mut rng);
        Self {
            model,
            params,
            opt: Adam::new(cfg.lr),
            cfg,
            strategy: Strategy::Ha,
        }
    }

    /// Records every later epoch's aggregation under `strategy` (HA
    /// unless set): the same model and bits, other tensors on the tape.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// NeighborSelection for `epoch`, then the forward pass on a fresh
    /// tape over the feature leaf: the tape, its logits node, and the
    /// selection's wall time.
    pub(crate) fn forward_pass(&mut self, ds: &Dataset, epoch: u64) -> (Graph, NodeId, Duration) {
        let t0 = Instant::now();
        self.model.selection(ds, epoch);
        let selection = t0.elapsed();

        let mut g = Graph::with_strategy(self.strategy);
        let feats = g.leaf_copy(&ds.features);
        let logits = self.model.forward(&mut g, feats, &self.params);
        (g, logits, selection)
    }

    /// Runs one full epoch (selection → forward → loss → backward →
    /// step) and reports measurements.
    pub fn epoch(&mut self, ds: &Dataset, epoch: u64) -> EpochStats {
        let t0 = Instant::now();
        let (mut g, logits, selection) = self.forward_pass(ds, epoch);
        let loss_node = g.cross_entropy(logits, &ds.labels);
        g.backward(loss_node);
        let aggregation = t0.elapsed() - selection;

        let t2 = Instant::now();
        self.params.zero_grads();
        g.collect_grads(self.params.grads_mut());
        self.opt.step(&mut self.params);
        let update = t2.elapsed();

        let loss = g.value(loss_node).get(0, 0);
        let accuracy = accuracy(g.value(logits), &ds.labels);
        EpochStats {
            loss,
            accuracy,
            times: StageTimes {
                selection,
                aggregation,
                update,
            },
            tape_bytes: g.allocated_bytes(),
        }
    }

    /// Trains for the configured number of epochs.
    pub fn run(&mut self, ds: &Dataset) -> Vec<EpochStats> {
        (0..self.cfg.epochs as u64)
            .map(|e| self.epoch(ds, e))
            .collect()
    }

    /// One epoch with the supervised loss restricted to `train_idx`
    /// (transductive training: the aggregation still sees every vertex,
    /// only the cross-entropy is masked). Reported loss/accuracy cover
    /// the training vertices.
    pub fn epoch_masked(&mut self, ds: &Dataset, epoch: u64, train_idx: &[u32]) -> EpochStats {
        let t0 = Instant::now();
        let (mut g, logits, selection) = self.forward_pass(ds, epoch);
        let masked_logits = g.gather(logits, train_idx);
        let masked_labels: Vec<usize> = train_idx.iter().map(|&i| ds.labels[i as usize]).collect();
        let loss_node = g.cross_entropy(masked_logits, &masked_labels);
        g.backward(loss_node);
        let aggregation = t0.elapsed() - selection;

        let t2 = Instant::now();
        self.params.zero_grads();
        g.collect_grads(self.params.grads_mut());
        self.opt.step(&mut self.params);
        let update = t2.elapsed();

        EpochStats {
            loss: g.value(loss_node).get(0, 0),
            accuracy: accuracy(g.value(masked_logits), &masked_labels),
            times: StageTimes {
                selection,
                aggregation,
                update,
            },
            tape_bytes: g.allocated_bytes(),
        }
    }

    /// Accuracy over a held-out index set with the current parameters.
    pub fn evaluate(&mut self, ds: &Dataset, idx: &[u32]) -> f64 {
        let logits = self.infer(ds);
        let pred = logits.argmax_rows();
        let correct = idx
            .iter()
            .filter(|&&i| pred[i as usize] == ds.labels[i as usize])
            .count();
        correct as f64 / idx.len().max(1) as f64
    }

    /// Forward-only inference: logits for the current parameters.
    pub fn infer(&mut self, ds: &Dataset) -> Tensor {
        let (g, logits, _) = self.forward_pass(ds, u64::MAX);
        g.value(logits).clone()
    }

    /// The optimizer, for checkpointing its state alongside parameters.
    pub fn optimizer(&self) -> &Adam {
        &self.opt
    }

    /// Mutable optimizer access, for restoring checkpointed state.
    pub fn optimizer_mut(&mut self) -> &mut Adam {
        &mut self.opt
    }

    /// Split mutable borrow of parameters and optimizer together — the
    /// shape [`crate::checkpoint::restore_full`] needs.
    pub fn params_and_optimizer_mut(&mut self) -> (&mut ParamSet, &mut Adam) {
        (&mut self.params, &mut self.opt)
    }

    /// Total wall time of `run` broken into stages.
    pub fn total_times(stats: &[EpochStats]) -> StageTimes {
        let mut acc = StageTimes {
            selection: Duration::ZERO,
            aggregation: Duration::ZERO,
            update: Duration::ZERO,
        };
        for s in stats {
            acc.add(&s.times);
        }
        acc
    }
}

/// Fraction of rows whose argmax matches the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let pred = logits.argmax_rows();
    let correct = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }
}
