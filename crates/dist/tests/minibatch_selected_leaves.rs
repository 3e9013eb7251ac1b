//! DistDGL-like rounds over *selected* neighbourhoods (ISSUE 15): a
//! PinSage leaf is a vertex a 3-step importance walk visited, which can
//! lie outside the batch's 2-hop closure, so a round must fetch
//! closure ∪ leaf dependencies. (At the parent commit every case here
//! panicked in `RespRecv` on the first leaf the closure missed.)

use flexgraph_comm::NetProfile;
use flexgraph_dist::{
    distributed_epoch, leaf_sync_plans, make_shards, virtual_epoch, DistConfig, DistMode,
};
use flexgraph_graph::bfs::k_hop_closure;
use flexgraph_graph::gen::community;
use flexgraph_graph::partition::hash_partition;
use flexgraph_graph::walk::WalkConfig;
use flexgraph_hdg::build::from_importance_walks;
use flexgraph_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn distdgl_like_fetches_walk_leaves_outside_the_closure() {
    const HOPS: usize = 2;
    let ds = community(160, 4, 3, 1, 6, 23);
    let g = &ds.graph;
    let walk = WalkConfig::default();
    let net = NetProfile::default();
    for k in [2, 4] {
        let shards = make_shards(g.num_vertices(), &ds.features, &hash_partition(g, k), |r| {
            from_importance_walks(g, r.to_vec(), &walk, 13)
        });
        // The case is the one the bug needs: some worker depends on a
        // remote leaf that its roots' whole 2-hop closure does not hold.
        let escapes = shards
            .iter()
            .zip(leaf_sync_plans(&shards))
            .any(|(s, plan)| {
                let closure = k_hop_closure(g, &s.roots, HOPS);
                plan.remote_edges
                    .iter()
                    .any(|(_, leaf)| closure.binary_search(leaf).is_err())
            });
        assert!(escapes, "k={k}: no walk leaf escapes the closure");

        let flex = DistConfig::default();
        let distdgl = DistConfig {
            mode: DistMode::DistDglLike {
                batch_size: 16,
                hops: HOPS,
            },
            ..DistConfig::default()
        };
        let want = distributed_epoch(g, &shards, &flex).features;
        let threaded = distributed_epoch(g, &shards, &distdgl);
        let virt = virtual_epoch(g, &shards, &distdgl, &net).report;
        // One worker, two drivers: the same bits. Against FlexGraph mode
        // the sums associate differently (per-peer partials vs one
        // scatter per round), so that comparison is to rounding.
        assert!(
            bits(&threaded.features) == bits(&virt.features),
            "k={k}: drivers disagree"
        );
        assert_eq!(threaded.comm_bytes, virt.comm_bytes, "k={k}");
        assert!(threaded.features.max_abs_diff(&want) < 1e-4, "k={k}");
    }
}
