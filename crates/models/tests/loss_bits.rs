//! The loss bits of the first training epochs, pinned.
//!
//! Every kernel under a training epoch promises the same bits at any
//! thread count and from either SIMD backend; this file holds those
//! bits fixed across commits too. The constants were computed before
//! the segment walk kept its accumulators in registers and GCN's
//! aggregation backward learned to pull, so a change that moves a bit
//! anywhere in an epoch fails here. MAGNN runs the benchmark's
//! `train_magnn_imdb` inputs at seed 1; GCN a quarter-size
//! `train_gcn_reddit` graph at the same widths; PinSage, whose index
//! (and so its transpose) is new every epoch, a small graph.

use flexgraph_graph::gen::{community, hetero_imdb, Dataset};
use flexgraph_models::magnn::imdb_metapaths;
use flexgraph_models::{Gcn, Magnn, Model, PinSage, TrainConfig, Trainer};
use flexgraph_tensor::set_thread_override;
use std::sync::Mutex;

/// The thread override is process-wide; the tests take turns.
static THREADS: Mutex<()> = Mutex::new(());

/// `f32::to_bits` of each epoch's loss, for every thread count.
fn assert_loss_bits<M: Model>(ds: &Dataset, model: impl Fn() -> M, seed: u64, want: &[u32]) {
    let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        let cfg = TrainConfig {
            epochs: 0,
            lr: 0.01,
            seed,
        };
        let mut tr = Trainer::new(model(), cfg);
        let got: Vec<u32> = (0..want.len() as u64)
            .map(|epoch| tr.epoch(ds, epoch).loss.to_bits())
            .collect();
        assert_eq!(got, want, "{}, {threads} threads", tr.model.name());
    }
    set_thread_override(None);
}

#[test]
fn magnn_loss_bits_are_pinned() {
    let ds = hetero_imdb(2000, 3, 4, 64, 1);
    let model = || Magnn::new(64, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 30);
    let want = [0x3faff93d, 0x3fab1526, 0x3fa6126a, 0x3fa0d77b, 0x3f9b69ac];
    assert_loss_bits(&ds, model, 1 ^ 0x7e57, &want);
}

#[test]
fn gcn_loss_bits_are_pinned() {
    let ds = community(2048, 16, 8, 8, 64, 1);
    let model = || Gcn::new(64, ds.feature_dim(), ds.num_classes);
    let want = [0x41dbf8ed, 0x41c18c72, 0x4183c2d9, 0x4130a528, 0x40f6dd4d];
    assert_loss_bits(&ds, model, 1 ^ 0x7e57, &want);
}

#[test]
fn pinsage_loss_bits_are_pinned() {
    let ds = community(600, 4, 10, 3, 24, 2);
    let model = || PinSage::new(40, ds.feature_dim(), ds.num_classes, 9);
    assert_loss_bits(&ds, model, 2, &[0x418c58e1, 0x408262b2, 0x406ea922]);
}
