//! bf16 cache storage buys capacity, measured on a served stream.
//!
//! DESIGN §13's cache arithmetic: a resident vertex costs
//! `4·(in_dim + classes)` bytes at f32 and half that in bf16 mode, so a
//! budget of 0.75× the hot set's f32 rows thrashes at f32 (room for
//! 0.75·H vertices) and holds the whole hot set in bf16 (1.5·H).
//! `cache.rs`'s unit tests count the entries that fit; this replays one
//! skewed request stream through an f32 and a bf16 server under that
//! budget and compares their warm-pass hit rates.

use flexgraph_engine::MemoryBudget;
use flexgraph_serve::{
    BatcherConfig, ModelSnapshot, QuantConfig, ServeModelConfig, Server, ServerConfig,
};

/// `requests` vertices of `0..n`: three in four from the hot set (the
/// first `n / 16` vertices), every fourth uniform over the graph.
fn skewed_stream(n: u32, requests: usize) -> Vec<u32> {
    let mut state = 99u64;
    (0..requests)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            if i % 4 == 0 {
                r % n
            } else {
                r % (n / 16)
            }
        })
        .collect()
}

#[test]
fn bf16_cache_out_hits_f32_under_one_byte_budget() {
    let n = 480;
    let ds = flexgraph_graph::gen::community(n, 4, 6, 2, 16, 29);
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let hot_f32_bytes = (n / 16) * (model.in_dim + model.classes) * 4;
    let cache_bytes = hot_f32_bytes * 3 / 4;
    let stream = skewed_stream(n as u32, 4 * n);

    let warm_hit_rate = |quant: QuantConfig| {
        let cfg = ServerConfig {
            batcher: BatcherConfig {
                max_batch: 32,
                max_delay: 64,
                queue_cap: stream.len() + 1,
            },
            model,
            cache_bytes,
            budget: MemoryBudget::unlimited(),
            quant,
        };
        let server = Server::new(
            ds.graph.clone(),
            ds.features.clone(),
            cfg,
            ModelSnapshot::init_quant(&model, 13, quant),
        );
        let pass = || {
            for &v in &stream {
                server.submit(v).unwrap();
                server.poll().unwrap();
            }
            server.flush().unwrap();
            server.take_window()
        };
        pass(); // Cold: fills the cache.
        let warm = pass();
        assert_eq!(warm.served, stream.len() as u64);
        warm.cache_hits as f64 / (warm.cache_hits + warm.cache_misses) as f64
    };

    let (f32_rate, bf16_rate) = (
        warm_hit_rate(QuantConfig::F32),
        warm_hit_rate(QuantConfig::Bf16),
    );
    assert!(
        bf16_rate > f32_rate,
        "under one {cache_bytes}-byte budget the bf16 cache must out-hit f32: \
         bf16 {bf16_rate:.4} vs f32 {f32_rate:.4}"
    );
}
