//! Quantized-accuracy suite (ISSUE 8): the bf16/int8 serving forward
//! against f32 on the golden fixtures.
//!
//! Three kinds of statement:
//!
//! * **Exactness** — the golden fixtures ([`flexgraph_models::golden`])
//!   were built so every intermediate value fits in ≤ 8 mantissa bits.
//!   On them, a correct bf16 pipeline is *bit-identical* to f32; any
//!   drift is a kernel bug, not rounding.
//! * **Bounded error** — with random (Xavier) weights, where rounding
//!   is real, the bf16 and int8 forwards must stay within a small
//!   multiple of the output magnitude. The bounds are deliberately
//!   loose (4–8× observed) so they gate against broken kernels, not
//!   against legitimate rounding.
//! * **Pinned bits** — with random weights, the served bits of every
//!   config are digests: a kernel refactor may not move them.
//!
//! Plus the per-config determinism leg in unit form: the quantized
//! `serve_one` is bitwise thread-invariant.

use flexgraph_engine::hybrid::AggrOp;
use flexgraph_engine::MemoryBudget;
use flexgraph_models::checkpoint;
use flexgraph_models::golden::{gcn_weights, graph_a, graph_cycle};
use flexgraph_serve::{
    serve_one, BatcherConfig, ModelSnapshot, QuantConfig, ServeModelConfig, Server, ServerConfig,
};
use flexgraph_tensor::{set_thread_override, ParamSet};

const INIT_SEED: u64 = 21;

fn golden_model() -> ServeModelConfig {
    ServeModelConfig {
        hops: 2,
        cap: 0, // uncapped: exact shells, exact sums
        seed: 0,
        op: AggrOp::Sum,
        in_dim: 2,
        hidden: 2,
        classes: 2,
    }
}

/// A snapshot at `quant` holding the golden GCN's hand-chosen integer
/// weights (restored via a checkpoint, the same path hot swap takes).
fn golden_snapshot(quant: QuantConfig) -> ModelSnapshot {
    let (w1, w2) = gcn_weights();
    let mut params = ParamSet::new();
    params.register(w1);
    params.register(w2);
    let bytes = checkpoint::save(&params);
    ModelSnapshot::init_quant(&golden_model(), INIT_SEED, quant)
        .with_checkpoint(&bytes)
        .expect("golden checkpoint restores")
}

#[test]
fn bf16_forward_is_bit_exact_on_golden_fixtures() {
    let model = golden_model();
    let budget = MemoryBudget::unlimited();
    let f32_snap = golden_snapshot(QuantConfig::F32);
    let bf16_snap = golden_snapshot(QuantConfig::Bf16);
    for ds in [graph_a(), graph_cycle()] {
        for v in 0..ds.graph.num_vertices() as u32 {
            let full = serve_one(&ds.graph, &ds.features, &f32_snap, &model, v, &budget).unwrap();
            let half = serve_one(&ds.graph, &ds.features, &bf16_snap, &model, v, &budget).unwrap();
            assert_eq!(
                full.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                half.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{}: vertex {v} bf16 != f32 on exact-arithmetic fixture (f32 {full:?}, bf16 {half:?})",
                ds.name
            );
        }
    }
}

#[test]
fn quant_error_is_bounded_with_random_weights() {
    // Xavier weights make rounding real; the served outputs must stay
    // within a bounded distance of f32. Bounds are relative to the
    // largest |output| so they track the fixture's scale.
    let model = golden_model();
    let budget = MemoryBudget::unlimited();
    let f32_snap = ModelSnapshot::init(&model, INIT_SEED);
    for (quant, rel_bound) in [(QuantConfig::Bf16, 0.05), (QuantConfig::Int8, 0.20)] {
        let q_snap = ModelSnapshot::init_quant(&model, INIT_SEED, quant);
        for ds in [graph_a(), graph_cycle()] {
            let mut max_err = 0.0f32;
            let mut max_out = 0.0f32;
            for v in 0..ds.graph.num_vertices() as u32 {
                let full =
                    serve_one(&ds.graph, &ds.features, &f32_snap, &model, v, &budget).unwrap();
                let q = serve_one(&ds.graph, &ds.features, &q_snap, &model, v, &budget).unwrap();
                for (a, b) in full.iter().zip(&q) {
                    max_err = max_err.max((a - b).abs());
                    max_out = max_out.max(a.abs());
                }
            }
            let bound = rel_bound * max_out.max(1.0);
            assert!(
                max_err <= bound,
                "{}: {} max_abs_err {max_err} exceeds {bound} (max |out| {max_out})",
                ds.name,
                quant.label()
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of each output's bits.
fn bits_digest<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for b in row.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Absolute serving bits under Xavier weights, pinned so a kernel
/// refactor cannot move them: `serve_one` over 64 vertices and one
/// 200-row server batch, per config (f32 as the control). The parity
/// suites compare two paths that would move together; this one
/// compares against numbers.
#[test]
fn quantized_serving_bits_are_pinned() {
    let ds = flexgraph_graph::gen::community(320, 3, 6, 2, 20, 11);
    let model = ServeModelConfig {
        hops: 2,
        cap: 8,
        seed: 5,
        op: AggrOp::Sum,
        in_dim: ds.feature_dim(),
        hidden: 24,
        classes: ds.num_classes,
    };
    let budget = MemoryBudget::unlimited();
    let pinned = [
        (
            QuantConfig::Bf16,
            0x2525_bb5d_5b34_1e18,
            0xe493_ce5a_065f_b929,
        ),
        (
            QuantConfig::Int8,
            0xe24a_dfb8_377a_97d9,
            0x4c42_65b2_88b7_cc1c,
        ),
        (
            QuantConfig::F32,
            0x15eb_7374_5939_a932,
            0x6cbc_5b1d_9dd7_7712,
        ),
    ];
    for (quant, want_solo, want_batch) in pinned {
        let snap = ModelSnapshot::init_quant(&model, INIT_SEED, quant);
        let solo: Vec<Vec<f32>> = (0..64u32)
            .map(|i| serve_one(&ds.graph, &ds.features, &snap, &model, i * 5, &budget).unwrap())
            .collect();
        let cfg = ServerConfig {
            batcher: BatcherConfig {
                max_batch: 256,
                max_delay: 1 << 20,
                queue_cap: 256,
            },
            model,
            quant,
            ..Default::default()
        };
        let server = Server::new(ds.graph.clone(), ds.features.clone(), cfg, snap);
        for v in 0..200u32 {
            server.submit((v * 7) % 320).unwrap();
        }
        let batch = server.flush().unwrap();
        assert_eq!(batch.len(), 200);
        assert_eq!(server.window_stats().batches, 1, "one batch");
        let got = (
            bits_digest(solo.iter().map(Vec::as_slice)),
            bits_digest(batch.iter().map(|r| r.output.as_slice())),
        );
        assert_eq!(
            got,
            (want_solo, want_batch),
            "{} serving bits moved",
            quant.label()
        );
    }
}

#[test]
fn quantized_serve_one_is_thread_invariant() {
    let ds = flexgraph_graph::gen::community(120, 3, 6, 2, 16, 5);
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let budget = MemoryBudget::unlimited();
    for quant in [QuantConfig::Bf16, QuantConfig::Int8] {
        let snap = ModelSnapshot::init_quant(&model, INIT_SEED, quant);
        let mut per_thread: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            per_thread.push(
                (0..ds.graph.num_vertices() as u32)
                    .map(|v| {
                        serve_one(&ds.graph, &ds.features, &snap, &model, v, &budget)
                            .unwrap()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect()
                    })
                    .collect(),
            );
        }
        set_thread_override(None);
        assert_eq!(
            per_thread[0],
            per_thread[1],
            "{} serve_one must not depend on FLEXGRAPH_THREADS",
            quant.label()
        );
    }
}
