//! One model, three recordings: SA, SA+FA and HA train to the same bits.
//!
//! `Trainer::with_strategy` changes which tensors an epoch's tape writes
//! — one gathered row per edge under SA, MAGNN's instance and group
//! tensors under SA and SA+FA — but not the order in which any output
//! row or gradient row is accumulated. So every epoch's loss, and the
//! trained parameters and last gradients, have the same bits under all
//! three strategies, at 1 and at 4 threads (a loss alone can round a
//! one-ulp difference away). The SA
//! and SA+FA legs run the planned scatter kernels; the scalar-backend CI
//! job runs this file too, so their scalar twins are held to the same
//! bits.

use flexgraph_graph::gen::{community, hetero_imdb, Dataset};
use flexgraph_models::magnn::imdb_metapaths;
use flexgraph_models::{Gcn, Magnn, Model, PinSage, TrainConfig, Trainer};
use flexgraph_tensor::{set_thread_override, Strategy};
use std::sync::Mutex;

/// The thread override is process-wide; the tests take turns.
static THREADS: Mutex<()> = Mutex::new(());

/// Trains `epochs` epochs under each strategy at 1 and 4 threads and
/// asserts one sequence of bits: every epoch's loss, then each
/// parameter and its last gradient.
fn assert_strategies_agree<M: Model>(ds: &Dataset, model: impl Fn() -> M, epochs: u64) {
    let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: 11,
    };
    let mut want: Option<Vec<u32>> = None;
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        for strategy in [Strategy::Sa, Strategy::SaFa, Strategy::Ha] {
            let mut tr = Trainer::new(model(), cfg).with_strategy(strategy);
            let mut got: Vec<u32> = (0..epochs)
                .map(|epoch| tr.epoch(ds, epoch).loss.to_bits())
                .collect();
            for i in 0..tr.params.len() {
                let (value, grad) = (tr.params.value(i).data(), tr.params.grad(i).data());
                got.extend(value.iter().chain(grad).map(|x| x.to_bits()));
            }
            let want = want.get_or_insert_with(|| got.clone());
            let first = got.iter().zip(want.iter()).position(|(g, w)| g != w);
            let name = tr.model.name();
            assert_eq!(first, None, "{name} under {strategy:?}, {threads} threads");
        }
    }
    set_thread_override(None);
}

#[test]
fn gcn_trains_to_the_same_bits_under_every_strategy() {
    let ds = community(400, 4, 8, 2, 24, 3);
    assert_strategies_agree(&ds, || Gcn::new(16, ds.feature_dim(), ds.num_classes), 4);
}

#[test]
fn pinsage_trains_to_the_same_bits_under_every_strategy() {
    let ds = community(300, 3, 8, 2, 20, 4);
    let model = || PinSage::new(12, ds.feature_dim(), ds.num_classes, 5);
    assert_strategies_agree(&ds, model, 3);
}

#[test]
fn magnn_trains_to_the_same_bits_under_every_strategy() {
    let ds = hetero_imdb(300, 3, 3, 24, 6);
    let model = || Magnn::new(16, ds.feature_dim(), ds.num_classes, imdb_metapaths(), 12);
    assert_strategies_agree(&ds, model, 4);
}
