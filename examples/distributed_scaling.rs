//! Distributed training across simulated shared-nothing workers: scaling
//! behaviour, pipeline processing, and communication accounting (the
//! machinery behind the paper's Figures 13 and 15). Epoch times are
//! virtual: the default NIC model priced on the event wheel.
//!
//! Run with: `cargo run --release --example distributed_scaling`

use flexgraph::dist::{make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::graph::gen::{reddit_like, ScaleFactor};
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::prelude::*;

fn main() {
    let ds = reddit_like(ScaleFactor(0.25));
    println!(
        "dataset: |V| = {}, |E| = {}\n",
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );

    let net = NetProfile::from_cost_model(&CostModel::default());
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>10}",
        "workers", "virtual time", "bytes moved", "messages", "pipeline"
    );
    for k in [1usize, 2, 4, 8] {
        let part = hash_partition(&ds.graph, k);
        let shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        for pipeline in [false, true] {
            let cfg = DistConfig {
                mode: DistMode::FlexGraph { pipeline },
                ..DistConfig::default()
            };
            let rep = virtual_epoch(&ds.graph, &shards, &cfg, &net).report;
            println!(
                "{:>8} {:>12.2?} {:>14} {:>12} {:>10}",
                k,
                rep.wall,
                rep.comm_bytes,
                rep.comm_messages,
                if pipeline { "on" } else { "off" }
            );
        }
    }

    println!(
        "\nPipelined epochs overlap partial aggregation with in-flight \
         messages — the paper's §7.7 effect."
    );
}
