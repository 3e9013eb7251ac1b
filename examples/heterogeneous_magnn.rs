//! MAGNN over a heterogeneous IMDB-like graph: metapath-defined indirect
//! neighbors with hierarchical aggregation (the paper's INHA category —
//! the model only FlexGraph could train at scale in Table 2).
//!
//! Run with: `cargo run --release --example heterogeneous_magnn`

use flexgraph::graph::gen::{imdb_like, ScaleFactor};
use flexgraph::hdg::build::from_metapaths;
use flexgraph::hdg::HdgStats;
use flexgraph::models::magnn::imdb_metapaths;
use flexgraph::prelude::*;

fn main() {
    let ds = imdb_like(ScaleFactor(0.5));
    let typed = ds.typed();
    println!(
        "heterogeneous graph: |V| = {} ({} movies / {} directors / {} actors), |E| = {}",
        ds.graph.num_vertices(),
        typed.type_histogram()[0],
        typed.type_histogram()[1],
        typed.type_histogram()[2],
        ds.graph.num_edges()
    );

    // Inspect the HDGs MAGNN's NeighborSelection builds (6 metapaths,
    // 3 vertices per instance — the paper's evaluation setup).
    let metapaths = imdb_metapaths();
    let roots: Vec<VertexId> = (0..ds.graph.num_vertices() as VertexId).collect();
    let hdg = from_metapaths(&typed, roots, &metapaths, 40);
    let stats = HdgStats::measure(&hdg, &ds.graph);
    println!(
        "HDGs: {} instances over {} metapath types; memory = {:.1}% of the input graph \
         ({:.1}% saved by the compact storage)",
        hdg.num_instances(),
        hdg.num_types(),
        stats.ratio_to_graph() * 100.0,
        stats.savings_ratio() * 100.0
    );

    // End-to-end training. The HDGs are built once and reused for the
    // whole run (deterministic metapath selection); each epoch's
    // aggregation is one fused tape op over them (hybrid execution).
    let model = Magnn::new(32, ds.feature_dim(), ds.num_classes, metapaths, 40);
    let mut trainer = Trainer::new(
        model,
        TrainConfig {
            epochs: 25,
            lr: 0.02,
            seed: 5,
        },
    );
    let stats = trainer.run(&ds);
    let last = stats.last().unwrap();
    println!(
        "trained MAGNN: loss {:.4}, accuracy {:.1}%",
        last.loss,
        last.accuracy * 100.0
    );
}
