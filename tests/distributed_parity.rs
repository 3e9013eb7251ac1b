//! Distributed execution must compute exactly what a single machine
//! computes — across worker counts, modes, pipeline settings, models,
//! and under injected communication faults.

use flexgraph::comm::CostModel;
use flexgraph::dist::{distributed_epoch, make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::engine::hybrid::{hierarchical_aggregate, AggrOp, AggrPlan, Strategy};
use flexgraph::engine::MemoryBudget;
use flexgraph::graph::gen::{community, hetero_imdb};
use flexgraph::graph::metapath::Metapath;
use flexgraph::graph::partition::{hash_partition, lp_partition};
use flexgraph::hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph::prelude::*;

fn flat_reference(ds: &Dataset) -> Tensor {
    flexgraph::tensor::fusion::segment_reduce(
        &ds.features,
        ds.graph.in_offsets(),
        ds.graph.in_sources(),
        flexgraph::tensor::fusion::Reduce::Sum,
    )
}

#[test]
fn gcn_parity_across_worker_counts() {
    let ds = community(240, 4, 6, 2, 8, 51);
    let want = flat_reference(&ds);
    for k in [1, 2, 3, 4, 8] {
        let part = hash_partition(&ds.graph, k);
        let shards = make_shards(240, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        for pipeline in [true, false] {
            let cfg = DistConfig {
                mode: DistMode::FlexGraph { pipeline },
                ..DistConfig::default()
            };
            let rep = distributed_epoch(&ds.graph, &shards, &cfg);
            assert!(
                rep.features.max_abs_diff(&want) < 1e-3,
                "k={k} pipeline={pipeline}"
            );
        }
    }
}

#[test]
fn magnn_parity_distributed_vs_single() {
    let ds = hetero_imdb(240, 2, 3, 8, 52);
    let typed = ds.typed();
    let mps = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let full_hdg = from_metapaths(
        &typed,
        (0..ds.graph.num_vertices() as u32).collect(),
        &mps,
        0,
    );
    let plan = AggrPlan {
        leaf_op: AggrOp::Sum,
        instance_op: AggrOp::Sum,
        schema_op: AggrOp::Mean,
    };
    let want = hierarchical_aggregate(
        &full_hdg,
        &ds.features,
        &plan,
        Strategy::Ha,
        &MemoryBudget::unlimited(),
    )
    .unwrap()
    .features;

    for k in [2, 4] {
        let part = lp_partition(&ds.graph, k, 5, 0.2, 9);
        let shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |roots| {
            from_metapaths(&typed, roots.to_vec(), &mps, 0)
        });
        let cfg = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Sum,
            plan,
            strategy: Strategy::Ha,
            ..DistConfig::default()
        };
        let rep = distributed_epoch(&ds.graph, &shards, &cfg);
        assert!(
            rep.features.max_abs_diff(&want) < 1e-3,
            "MAGNN distributed parity at k={k}"
        );
    }
}

#[test]
fn parity_survives_fault_injection_delays() {
    // Extra per-message delay (the fault-tolerance module's stand-in)
    // must never change results, only timing.
    let ds = community(160, 2, 5, 2, 8, 53);
    let want = flat_reference(&ds);
    let part = hash_partition(&ds.graph, 3);
    let shards = make_shards(160, &ds.features, &part, |roots| {
        from_direct_neighbors(&ds.graph, roots.to_vec())
    });
    // Delay comes from the cost model instead of the fault plan here,
    // priced on the virtual cluster: DistConfig owns the model.
    let cfg = DistConfig {
        mode: DistMode::FlexGraph { pipeline: true },
        cost_model: CostModel {
            alpha_us: 2_000.0,
            bytes_per_us: 1e6,
        },
        ..DistConfig::default()
    };
    let net = NetProfile::from_cost_model(&cfg.cost_model);
    let rep = virtual_epoch(&ds.graph, &shards, &cfg, &net).report;
    assert!(rep.features.max_abs_diff(&want) < 1e-3);
    assert!(rep.modeled_comm_us > 0.0);
}

#[test]
fn comm_traffic_scales_down_with_better_partitioning() {
    // A locality-aware partitioning must move fewer bytes than hash for
    // a community graph.
    let ds = community(300, 6, 8, 1, 16, 54);
    let mk = |part: &Partitioning| {
        let shards = make_shards(300, &ds.features, part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        let cfg = DistConfig::default();
        distributed_epoch(&ds.graph, &shards, &cfg).comm_bytes
    };
    let hash = mk(&hash_partition(&ds.graph, 4));
    let lp = mk(&lp_partition(&ds.graph, 4, 10, 0.15, 4));
    assert!(
        lp < hash,
        "LP partitioning must reduce sync traffic: {lp} vs {hash}"
    );
}
