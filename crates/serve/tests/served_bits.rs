//! Absolute serving bits under Xavier weights, pinned as digests: a
//! kernel refactor may not move them. The parity suites compare two
//! paths that would move together; this one compares against numbers.

use flexgraph_engine::hybrid::AggrOp;
use flexgraph_engine::MemoryBudget;
use flexgraph_serve::{
    serve_one, BatcherConfig, ModelSnapshot, ServeModelConfig, Server, ServerConfig,
};

const INIT_SEED: u64 = 21;

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

/// `serve_one` over 64 vertices and one 200-row server batch.
#[test]
fn served_bits_are_pinned() {
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
    let snap = ModelSnapshot::init(&model, INIT_SEED);
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
        (0x15eb_7374_5939_a932, 0x6cbc_5b1d_9dd7_7712),
        "serving bits moved"
    );
}
