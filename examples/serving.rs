//! Serving: answer per-vertex requests from a model snapshot, check each
//! answer against a solo forward, then hot-swap a new checkpoint while
//! the server keeps its queue.
//!
//! Run with: `cargo run --release --example serving`

use flexgraph::engine::MemoryBudget;
use flexgraph::models::checkpoint;
use flexgraph::prelude::*;
use flexgraph::serve::serve_one;

fn main() {
    let ds = flexgraph::graph::gen::community(200, 3, 6, 1, 16, 7);
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let cfg = ServerConfig {
        model,
        ..Default::default()
    };
    let server = Server::new(
        ds.graph.clone(),
        ds.features.clone(),
        cfg,
        ModelSnapshot::init(&model, 42),
    );

    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let budget = MemoryBudget::unlimited();
    for round in 0..2 {
        for v in (0..ds.graph.num_vertices() as u32).step_by(7) {
            server.submit(v).unwrap();
        }
        let responses = server.flush().unwrap();
        let snap = server.snapshot();
        for r in &responses {
            let solo =
                serve_one(&ds.graph, &ds.features, &snap, &model, r.vertex, &budget).unwrap();
            assert_eq!(bits(&r.output), bits(&solo), "served == solo forward");
        }
        println!(
            "round {round}: {} responses from model v{}, every one bitwise equal to serve_one",
            responses.len(),
            server.current_version()
        );
        // Hot swap: the next round is served by a differently initialised
        // checkpoint; batches never mix versions.
        let next = checkpoint::save(ModelSnapshot::init(&model, 43 + round).params());
        server.swap_checkpoint(&next).unwrap();
    }
    let w = server.window_stats();
    println!(
        "window: {} served in {} batches, cache {} hits / {} misses",
        w.served, w.batches, w.cache_hits, w.cache_misses
    );
}
