//! `train_gcn_reddit`, `train_pinsage_twitter`, `train_magnn_imdb`:
//! single-machine training epochs, one per NAU category of the paper
//! (DNFA / INFA / INHA).

use crate::harness::{Fnv, Size, Traced, Workload};
use crate::metrics::Metrics;
use crate::span::Recorder;
use flexgraph::graph::gen::{community, hetero_imdb, rmat, Dataset};
use flexgraph::graph::metapath::find_instances_all;
use flexgraph::graph::walk::{importance_neighbors_all, WalkConfig};
use flexgraph::hdg::build::{from_importance_walks, from_metapaths};
use flexgraph::models::magnn::imdb_metapaths;
use flexgraph::models::train::accuracy;
use flexgraph::models::{Gcn, Magnn, Model, PinSage, TrainConfig, Trainer};
use flexgraph::tensor::scatter::{scatter_add_with_plan, scatter_softmax_with_plan};
use flexgraph::tensor::{segment_reduce, xavier_uniform, Graph, Optimizer, Reduce, Tensor};
use rand::SeedableRng;
use std::marker::PhantomData;

const HIDDEN: usize = 64;
/// MAGNN's per-(root, metapath) instance cap.
const INSTANCE_CAP: usize = 30;
const PROBE_REPS: usize = 5;

/// What differs between the three training workloads: the inputs, the
/// model, and the kernels worth probing at that model's shapes.
pub trait TrainModel: Model + Sized {
    fn dataset(seed: u64, size: Size) -> Dataset;
    fn build(ds: &Dataset, seed: u64) -> Self;
    fn probes(ds: &Dataset, seed: u64, rec: &Recorder, m: &mut Metrics);
}

impl TrainModel for Gcn {
    fn dataset(seed: u64, size: Size) -> Dataset {
        match size {
            Size::Full => community(8192, 16, 22, 6, 64, seed),
            Size::Tiny => community(256, 4, 6, 2, 16, seed),
        }
    }

    fn build(ds: &Dataset, _seed: u64) -> Self {
        Gcn::new(HIDDEN, ds.feature_dim(), ds.num_classes)
    }

    fn probes(ds: &Dataset, seed: u64, rec: &Recorder, m: &mut Metrics) {
        let g = &ds.graph;
        probe_segment_reduce(
            &ds.features,
            g.in_offsets(),
            g.in_sources(),
            Reduce::Sum,
            rec,
            m,
        );
        probe_matmul(&ds.features, HIDDEN, seed, rec, m);
    }
}

impl TrainModel for PinSage {
    fn dataset(seed: u64, size: Size) -> Dataset {
        match size {
            Size::Full => rmat(14, 20, 5, 50, seed, "twitter-like"),
            Size::Tiny => rmat(8, 6, 3, 8, seed, "twitter-like"),
        }
    }

    fn build(ds: &Dataset, seed: u64) -> Self {
        PinSage::new(HIDDEN, ds.feature_dim(), ds.num_classes, seed ^ 0x77a1)
    }

    fn probes(ds: &Dataset, seed: u64, rec: &Recorder, m: &mut Metrics) {
        let g = &ds.graph;
        let cfg = WalkConfig::default();
        let roots: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let (_, walk_s) = rec.probe("graph.walk.importance", 3, || {
            importance_neighbors_all(g, &cfg, seed)
        });
        let (hdg, build_s) = rec.probe("hdg.build.importance_walks", 3, || {
            from_importance_walks(g, roots.clone(), &cfg, seed)
        });
        m.set("graph.walk.importance_s", walk_s);
        // The builder runs the walk itself; its own share is the rest.
        m.set("hdg.build.importance_walks_s", (build_s - walk_s).max(0.0));
        m.set("hdg.bytes", hdg.heap_bytes() as f64);
        probe_segment_reduce(
            &ds.features,
            hdg.group_offsets(),
            hdg.leaf_sources(),
            Reduce::Sum,
            rec,
            m,
        );
        // Layer 1 multiplies [h ‖ a]: twice the input width.
        let cat = ds.features.concat_cols(&ds.features);
        probe_matmul(&cat, HIDDEN, seed, rec, m);
    }
}

impl TrainModel for Magnn {
    fn dataset(seed: u64, size: Size) -> Dataset {
        match size {
            Size::Full => hetero_imdb(2000, 3, 4, 64, seed),
            Size::Tiny => hetero_imdb(96, 3, 3, 8, seed),
        }
    }

    fn build(ds: &Dataset, _seed: u64) -> Self {
        Magnn::new(
            HIDDEN,
            ds.feature_dim(),
            ds.num_classes,
            imdb_metapaths(),
            INSTANCE_CAP,
        )
    }

    fn probes(ds: &Dataset, seed: u64, rec: &Recorder, m: &mut Metrics) {
        let typed = ds.typed();
        let paths = imdb_metapaths();
        let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
        let (_, search_s) = rec.probe("graph.metapath.search", 3, || {
            find_instances_all(&typed, &paths, INSTANCE_CAP)
        });
        let (hdg, build_s) = rec.probe("hdg.build.metapaths", 3, || {
            from_metapaths(&typed, roots.clone(), &paths, INSTANCE_CAP)
        });
        m.set("graph.metapath.search_s", search_s);
        m.set("hdg.build.metapaths_s", (build_s - search_s).max(0.0));
        m.set("hdg.bytes", hdg.heap_bytes() as f64);
        let inst = probe_segment_reduce(
            &ds.features,
            hdg.inst_offsets(),
            hdg.leaf_sources(),
            Reduce::Mean,
            rec,
            m,
        );
        let plan = hdg.group_scatter_plan();
        let (_, softmax_s) = rec.probe("tensor.scatter.softmax", PROBE_REPS, || {
            scatter_softmax_with_plan(&inst, &plan)
        });
        let (_, add_s) = rec.probe("tensor.scatter.add", PROBE_REPS, || {
            scatter_add_with_plan(&inst, &plan)
        });
        m.set("tensor.scatter.softmax_s", softmax_s);
        m.set("tensor.scatter.add_s", add_s);
        probe_matmul(&ds.features, HIDDEN, seed, rec, m);
    }
}

/// Fused leaf aggregation at the workload's segment shape; moves
/// (E + V)·d floats through memory.
fn probe_segment_reduce(
    feats: &Tensor,
    offsets: &[usize],
    src: &[u32],
    kind: Reduce,
    rec: &Recorder,
    m: &mut Metrics,
) -> Tensor {
    let (out, s) = rec.probe("tensor.fusion.segment_reduce", PROBE_REPS, || {
        segment_reduce(feats, offsets, src, kind)
    });
    let bytes = (src.len() + offsets.len() - 1) * feats.cols() * 4;
    m.set("tensor.fusion.segment_reduce_s", s);
    m.set("tensor.fusion.segment_reduce_gbps", bytes as f64 / s / 1e9);
    out
}

/// The first layer's dense product, `(V, in) · (in, hidden)`.
fn probe_matmul(x: &Tensor, hidden: usize, seed: u64, rec: &Recorder, m: &mut Metrics) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x3a7);
    let w = xavier_uniform(&mut rng, x.cols(), hidden);
    let (_, s) = rec.probe("tensor.matmul", PROBE_REPS, || x.matmul(&w));
    m.set("tensor.matmul_s", s);
    m.set(
        "tensor.matmul_gflops",
        2.0 * (x.rows() * x.cols() * hidden) as f64 / s / 1e9,
    );
}

pub struct Train<M> {
    ds: Dataset,
    seed: u64,
    model: PhantomData<M>,
}

impl<M: TrainModel> Train<M> {
    pub fn generate(seed: u64, size: Size) -> Self {
        Train {
            ds: M::dataset(seed, size),
            seed,
            model: PhantomData,
        }
    }
}

pub struct TrainState<M: Model> {
    trainer: Trainer<M>,
    /// Loss of the warm-up epoch, then of every op, in order.
    losses: Vec<f32>,
}

/// `Trainer::epoch` taken apart over the same public calls, in the same
/// order, so its loss bits must equal the undecomposed call's.
fn decomposed_epoch<M: Model>(
    tr: &mut Trainer<M>,
    ds: &Dataset,
    epoch: u64,
    rec: &Recorder,
) -> f32 {
    rec.span("models.selection", || tr.model.selection(ds, epoch));
    let mut g = Graph::new();
    let (logits, loss_node) = rec.span("tensor.autograd.forward", || {
        let feats = g.leaf(ds.features.clone());
        let logits = tr.model.forward(&mut g, feats, &tr.params);
        (logits, g.cross_entropy(logits, &ds.labels))
    });
    rec.span("tensor.autograd.backward", || g.backward(loss_node));
    rec.span("tensor.optim.step", || {
        tr.params.zero_grads();
        g.collect_grads(tr.params.grads_mut());
        let (params, opt) = tr.params_and_optimizer_mut();
        opt.step(params);
    });
    let loss = g.value(loss_node).get(0, 0);
    rec.span("models.accuracy", || accuracy(g.value(logits), &ds.labels));
    loss
}

impl<M: TrainModel> Workload for Train<M> {
    type State = TrainState<M>;
    type Out = f32;

    fn digest(&self, _st: &Self::State, h: &mut Fnv) {
        let g = &self.ds.graph;
        h.usizes(g.out_offsets());
        h.usizes(g.in_offsets());
        h.u32s(g.in_sources());
        h.f32s(self.ds.features.data());
        h.usizes(&self.ds.labels);
        h.bytes(self.ds.types.as_deref().unwrap_or(&[]));
    }

    /// Trainer construction and the warm-up epoch, which carries any
    /// one-time NeighborSelection (MAGNN's metapath search).
    fn setup(&self, rec: &Recorder) -> Self::State {
        let cfg = TrainConfig {
            epochs: 0,
            lr: 0.01,
            seed: self.seed ^ 0x7e57,
        };
        let mut trainer = rec.span("models.trainer_new", || {
            Trainer::new(M::build(&self.ds, self.seed), cfg)
        });
        // The end-to-end run makes the call a user makes; the traced
        // run needs the warm-up epoch's selection under its own span.
        let loss = if rec.is_on() {
            decomposed_epoch(&mut trainer, &self.ds, 0, rec)
        } else {
            trainer.epoch(&self.ds, 0).loss
        };
        TrainState {
            trainer,
            losses: vec![loss],
        }
    }

    fn op(&self, st: &mut Self::State, i: u64) -> f32 {
        st.trainer.epoch(&self.ds, i + 1).loss
    }

    fn traced_op(&self, st: &mut Self::State, i: u64, rec: &Recorder) -> f32 {
        decomposed_epoch(&mut st.trainer, &self.ds, i + 1, rec)
    }

    fn check(&self, st: &mut Self::State, _i: u64, loss: f32) -> Result<(), String> {
        st.losses.push(loss);
        if loss.is_finite() {
            Ok(())
        } else {
            Err(format!("loss is {loss}"))
        }
    }

    fn verify(&self, st: &mut Self::State) -> Result<(), String> {
        let (first, last) = (st.losses[0], *st.losses.last().expect("warm-up loss"));
        if last < first {
            Ok(())
        } else {
            Err(format!("loss did not fall: first {first}, last {last}"))
        }
    }

    fn verify_twin(&self, plain: &Self::State, traced: &Self::State) -> Result<(), String> {
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let n = plain.losses.len().min(traced.losses.len());
        if bits(&plain.losses[..n]) == bits(&traced.losses[..n]) {
            Ok(())
        } else {
            Err(format!("loss bits differ within the first {n} epochs"))
        }
    }

    fn layers(&self, _st: &mut Self::State, t: &mut Traced<'_>) {
        let (rec, m) = (t.rec, &mut t.metrics);
        let per_op = rec.op_self_medians();
        let of = |name: &str| per_op.get(name).copied().unwrap_or(0.0);
        m.set("models.selection_s", of("models.selection"));
        m.set("models.selection_setup_s", rec.median_s("models.selection"));
        m.set("tensor.autograd.forward_s", of("tensor.autograd.forward"));
        m.set("tensor.autograd.backward_s", of("tensor.autograd.backward"));
        m.set("tensor.optim.step_s", of("tensor.optim.step"));
        // The root span's self time: tape drop, loss read-out.
        m.set("models.epoch.unattributed_s", of("op"));
        M::probes(&self.ds, self.seed, rec, m);
    }
}
