//! The seam test (ISSUE 14): the same shards through both drivers of the
//! one worker — OS threads over the fabric, and the event wheel — must
//! agree on the feature bits *and* on every deterministic telemetry
//! field, for every mode. Only the nanoseconds may differ: measured on
//! threads, modeled on the virtual clock.

use flexgraph_comm::NetProfile;
use flexgraph_dist::{
    distributed_epoch, make_shards, virtual_epoch, DistConfig, DistMode, EpochReport, Shard,
};
use flexgraph_engine::hybrid::{AggrOp, AggrPlan};
use flexgraph_graph::gen::{community, hetero_imdb};
use flexgraph_graph::metapath::Metapath;
use flexgraph_graph::partition::hash_partition;
use flexgraph_graph::Graph;
use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph_obs::Stage;
use flexgraph_tensor::Tensor;

const MODES: [DistMode; 4] = [
    DistMode::FlexGraph { pipeline: true },
    DistMode::FlexGraph { pipeline: false },
    DistMode::EulerLike { batch_size: 16 },
    DistMode::DistDglLike {
        batch_size: 16,
        hops: 2,
    },
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Asserts the two reports agree on everything deterministic.
fn assert_same_epoch(threaded: &EpochReport, virt: &EpochReport, case: &str) {
    assert_eq!(bits(&threaded.features), bits(&virt.features), "{case}");
    assert_eq!(threaded.comm_bytes, virt.comm_bytes, "{case}: bytes");
    assert_eq!(threaded.comm_messages, virt.comm_messages, "{case}: msgs");
    let (a, b) = (&threaded.telemetry, &virt.telemetry);
    assert_eq!(a.fabric, b.fabric, "{case}: fabric counters");
    assert_eq!(a.partitions.len(), b.partitions.len(), "{case}");
    for (rank, ta) in &a.partitions {
        let tb = &b.partitions[rank];
        assert_eq!(ta.pipelined, tb.pipelined, "{case} rank {rank}");
        for stage in Stage::ALL {
            let (sa, sb) = (ta.stage(stage), tb.stage(stage));
            assert_eq!(
                (sa.work, sa.invocations),
                (sb.work, sb.invocations),
                "{case} rank {rank}: {} (work, invocations)",
                stage.name()
            );
        }
        assert_eq!(ta.comm, tb.comm, "{case} rank {rank}: comm counters");
        // A flat profile has no stragglers, so the virtual per-root
        // cost units are unscaled.
        assert_eq!(ta.roots, tb.roots, "{case} rank {rank}: root costs");
    }
}

/// Every mode × leaf op × Update on/off over one sharding.
fn sweep(graph: &Graph, shards: &[Shard], plan: AggrPlan, dim: usize, what: &str) {
    let flat = NetProfile::default();
    for mode in MODES {
        for leaf_op in [AggrOp::Sum, AggrOp::Mean] {
            for update_weight in [None, Some(Tensor::eye(dim).scale(0.5))] {
                let case = format!(
                    "{what} k={} {mode:?} {leaf_op:?} update={}",
                    shards.len(),
                    update_weight.is_some()
                );
                let cfg = DistConfig {
                    mode,
                    leaf_op,
                    plan,
                    update_weight,
                    ..DistConfig::default()
                };
                let threaded = distributed_epoch(graph, shards, &cfg);
                let virt = virtual_epoch(graph, shards, &cfg, &flat).report;
                assert_same_epoch(&threaded, &virt, &case);
                // The table is not vacuous: work was recorded.
                assert!(threaded.telemetry.work_total() > 0, "{case}");
            }
        }
    }
}

#[test]
fn both_drivers_agree_on_bits_and_deterministic_telemetry() {
    // Flat HDGs (GCN): slots are (root, type) groups.
    let flat = community(150, 3, 5, 2, 6, 77);
    // Multi-leaf instances (MAGNN): slots are instances.
    let hetero = hetero_imdb(120, 2, 3, 6, 52);
    let typed = hetero.typed();
    let metapaths = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let magnn_plan = AggrPlan {
        leaf_op: AggrOp::Sum,
        instance_op: AggrOp::Sum,
        schema_op: AggrOp::Mean,
    };
    for k in [1, 2, 4] {
        let g = &flat.graph;
        let shards = make_shards(
            g.num_vertices(),
            &flat.features,
            &hash_partition(g, k),
            |r| from_direct_neighbors(g, r.to_vec()),
        );
        sweep(g, &shards, AggrPlan::flat(AggrOp::Sum), 6, "gcn");

        let g = &hetero.graph;
        let shards = make_shards(
            g.num_vertices(),
            &hetero.features,
            &hash_partition(g, k),
            |r| from_metapaths(&typed, r.to_vec(), &metapaths, 0),
        );
        sweep(g, &shards, magnn_plan, 6, "magnn");
    }
}

/// `make_shards` output carries no graph of its own; the DistDGL-like
/// closure expansion reads the epoch's. (At the parent commit this
/// panicked inside a worker.)
#[test]
fn distdgl_like_runs_over_plain_shards_and_matches_flexgraph() {
    let ds = community(150, 3, 5, 2, 6, 77);
    let g = &ds.graph;
    let shards = make_shards(150, &ds.features, &hash_partition(g, 3), |r| {
        from_direct_neighbors(g, r.to_vec())
    });
    let flex = DistConfig::default();
    let distdgl = DistConfig {
        mode: DistMode::DistDglLike {
            batch_size: 16,
            hops: 2,
        },
        ..DistConfig::default()
    };
    let net = NetProfile::default();
    let want = distributed_epoch(g, &shards, &flex).features;
    let threaded = distributed_epoch(g, &shards, &distdgl).features;
    let virt = virtual_epoch(g, &shards, &distdgl, &net).report.features;
    assert!(threaded.max_abs_diff(&want) < 1e-4, "threaded");
    assert!(virt.max_abs_diff(&want) < 1e-4, "virtual");
}
