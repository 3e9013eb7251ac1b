//! Cross-crate property tests: random graphs and partitionings, checked
//! against reference semantics end-to-end.

use flexgraph::dist::{distributed_epoch, make_shards, DistConfig, DistMode};
use flexgraph::engine::hybrid::{
    hierarchical_aggregate, AggrOp, AggrPlan, Strategy as ExecStrategy,
};
use flexgraph::engine::MemoryBudget;
use flexgraph::graph::csr::graph_from_edges;
use flexgraph::graph::partition::{hash_partition, lp_partition};
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::prelude::{Graph, Tensor};
use proptest::prelude::*;

/// Strategy: a random directed graph with n in [2, 24] and arbitrary
/// edges, plus per-vertex features.
fn graph_and_feats() -> impl Strategy<Value = (Graph, Tensor)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4);
        let feats = proptest::collection::vec(-5.0f32..5.0, n * 3);
        (edges, feats).prop_map(move |(edges, feats)| {
            (graph_from_edges(n, &edges), Tensor::from_vec(n, 3, feats))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hdg_from_direct_neighbors_matches_in_degrees((g, _f) in graph_and_feats()) {
        let n = g.num_vertices() as u32;
        let hdg = from_direct_neighbors(&g, (0..n).collect());
        prop_assert_eq!(hdg.num_instances(), g.num_edges());
        for v in 0..n {
            prop_assert_eq!(hdg.instances_of_root(v as usize), g.in_degree(v));
        }
    }

    #[test]
    fn strategies_agree_on_random_graphs((g, f) in graph_and_feats()) {
        let n = g.num_vertices() as u32;
        let hdg = from_direct_neighbors(&g, (0..n).collect());
        let plan = AggrPlan::flat(AggrOp::Sum);
        let budget = MemoryBudget::unlimited();
        let sa = hierarchical_aggregate(&hdg, &f, &plan, ExecStrategy::Sa, &budget).unwrap();
        let ha = hierarchical_aggregate(&hdg, &f, &plan, ExecStrategy::Ha, &budget).unwrap();
        prop_assert!(sa.features.max_abs_diff(&ha.features) < 1e-3);
    }

    #[test]
    fn distributed_equals_local_on_random_graphs(
        (g, f) in graph_and_feats(),
        k in 1usize..4,
    ) {
        let n = g.num_vertices();
        let part = hash_partition(&g, k);
        let shards = make_shards(n, &f, &part, |roots| {
            from_direct_neighbors(&g, roots.to_vec())
        });
        let cfg = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            ..DistConfig::default()
        };
        let rep = distributed_epoch(&g, &shards, &cfg);
        let want = flexgraph::tensor::fusion::segment_reduce(
            &f,
            g.in_offsets(),
            g.in_sources(),
            flexgraph::tensor::fusion::Reduce::Sum,
        );
        prop_assert!(rep.features.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn partitioners_cover_every_vertex_exactly_once(
        (g, _f) in graph_and_feats(),
        k in 1usize..5,
    ) {
        for part in [hash_partition(&g, k), lp_partition(&g, k, 4, 0.3, 7)] {
            prop_assert_eq!(part.assignment.len(), g.num_vertices());
            let total: usize = part.members().iter().map(Vec::len).sum();
            prop_assert_eq!(total, g.num_vertices());
            prop_assert!(part.assignment.iter().all(|&p| (p as usize) < k));
        }
    }

    #[test]
    fn hdg_compact_storage_round_trips_dependencies((g, _f) in graph_and_feats()) {
        let n = g.num_vertices() as u32;
        let hdg = from_direct_neighbors(&g, (0..n).collect());
        // The COO expansion of the compact storage (the leaf level's
        // scatter plan) must list exactly the graph's edges (dst =
        // instance's root via group index).
        let inst_dst = hdg.hierarchy().instances().scatter_plan();
        let group_plan = hdg.group_scatter_plan();
        let group_of = group_plan.index();
        let mut got: Vec<(u32, u32)> = inst_dst
            .index()
            .iter()
            .zip(hdg.leaf_sources())
            .map(|(&i, &s)| (group_of[i as usize], s))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = g.edges().map(|(s, d)| (d, s)).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
