//! The leaf-sync plan is a property of the shard set (ISSUE 15): built by
//! the set's first epoch, the same allocation for every later epoch on
//! either driver and through clones, equal to a fresh `build_leaf_sync`,
//! and refused — not rebuilt — for anything that is not the whole set in
//! rank order; and each remote leaf edge is held once, in the receiver's
//! list from its owner. No clocks.

use flexgraph_comm::NetProfile;
use flexgraph_dist::{
    build_leaf_sync, distributed_epoch, leaf_sync_plans, make_shards, virtual_epoch, DistConfig,
    DistMode, LeafSync, Shard,
};
use flexgraph_engine::hybrid::AggrOp;
use flexgraph_graph::gen::{community, rmat, Dataset};
use flexgraph_graph::partition::hash_partition;
use flexgraph_hdg::build::from_direct_neighbors;
use flexgraph_tensor::Tensor;

fn dataset() -> Dataset {
    community(150, 3, 5, 2, 6, 77)
}

fn shards_of(ds: &Dataset, k: usize) -> Vec<Shard> {
    let g = &ds.graph;
    make_shards(g.num_vertices(), &ds.features, &hash_partition(g, k), |r| {
        from_direct_neighbors(g, r.to_vec())
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn epochs_on_both_drivers_read_one_plan_allocation() {
    let ds = dataset();
    let shards = shards_of(&ds, 4);
    let cfg = DistConfig::default();
    let net = NetProfile::default();

    distributed_epoch(&ds.graph, &shards, &cfg);
    let filled = leaf_sync_plans(&shards).as_ptr();
    for _ in 0..2 {
        distributed_epoch(&ds.graph, &shards, &cfg);
    }
    for _ in 0..3 {
        virtual_epoch(&ds.graph, &shards, &cfg, &net);
    }
    let plans = leaf_sync_plans(&shards);
    assert_eq!(plans.as_ptr(), filled, "no epoch replaced the set's plans");
    assert_eq!(plans, &build_leaf_sync(&shards)[..], "field for field");

    // Clones are the same set: same plans, and usable as a set.
    let cloned = shards.clone();
    assert_eq!(leaf_sync_plans(&cloned).as_ptr(), filled);
    let a = distributed_epoch(&ds.graph, &shards, &cfg);
    let b = distributed_epoch(&ds.graph, &cloned, &cfg);
    assert_eq!(bits(&a.features), bits(&b.features));

    // A second carving is a new set with plans of its own.
    let again = shards_of(&ds, 4);
    assert_ne!(leaf_sync_plans(&again).as_ptr(), filled);
    assert_eq!(leaf_sync_plans(&again), plans);
}

#[test]
fn cell_filling_and_cached_epochs_agree_bitwise() {
    let ds = dataset();
    let net = NetProfile::default();
    for mode in [
        DistMode::FlexGraph { pipeline: true },
        DistMode::FlexGraph { pipeline: false },
        DistMode::EulerLike { batch_size: 16 },
        DistMode::DistDglLike {
            batch_size: 16,
            hops: 2,
        },
    ] {
        for leaf_op in [AggrOp::Sum, AggrOp::Mean] {
            let cfg = DistConfig {
                mode,
                leaf_op,
                ..DistConfig::default()
            };
            // Fresh sets, so each driver's first epoch fills the cell.
            let (threaded, virt) = (shards_of(&ds, 3), shards_of(&ds, 3));
            let first = distributed_epoch(&ds.graph, &threaded, &cfg);
            let second = distributed_epoch(&ds.graph, &threaded, &cfg);
            let v_first = virtual_epoch(&ds.graph, &virt, &cfg, &net);
            let v_second = virtual_epoch(&ds.graph, &virt, &cfg, &net);
            let case = format!("{mode:?} {leaf_op:?}");
            assert_eq!(bits(&first.features), bits(&second.features), "{case}");
            assert_eq!(first.comm_bytes, second.comm_bytes, "{case}");
            assert_eq!(
                bits(&v_first.report.features),
                bits(&v_second.report.features),
                "{case}"
            );
            assert_eq!(v_first.event_log, v_second.event_log, "{case}");
            assert_eq!(
                bits(&first.features),
                bits(&v_first.report.features),
                "{case}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "whole shard set of one make_shards call")]
fn shards_of_two_carvings_are_not_a_set() {
    let ds = dataset();
    let (a, b) = (shards_of(&ds, 2), shards_of(&ds, 2));
    let mixed = vec![a[0].clone(), b[1].clone()];
    distributed_epoch(&ds.graph, &mixed, &DistConfig::default());
}

#[test]
#[should_panic(expected = "whole shard set of one make_shards call")]
fn a_sub_slice_is_not_a_set() {
    let ds = dataset();
    let shards = shards_of(&ds, 3);
    virtual_epoch(
        &ds.graph,
        &shards[..2],
        &DistConfig::default(),
        &NetProfile::default(),
    );
}

#[test]
#[should_panic(expected = "whole shard set of one make_shards call")]
fn a_reordered_slice_is_not_a_set() {
    let ds = dataset();
    let mut shards = shards_of(&ds, 3);
    shards.swap(0, 2);
    distributed_epoch(&ds.graph, &shards, &DistConfig::default());
}

/// Heap bytes of a plan, summed from its public fields: every vector's
/// capacity, the local index's arrays.
fn plan_bytes(p: &LeafSync) -> usize {
    use std::mem::size_of;
    let lists = |v: &Vec<Vec<(u32, u32)>>| {
        v.capacity() * size_of::<Vec<(u32, u32)>>()
            + v.iter().map(|l| l.capacity() * 8).sum::<usize>()
    };
    let raw = p.raw_rows.capacity() * size_of::<Vec<u32>>()
        + p.raw_rows.iter().map(|r| r.capacity() * 4).sum::<usize>();
    p.partial_rows.capacity() * size_of::<usize>()
        + raw
        + p.partial_to.capacity()
        + p.partial_from.capacity()
        + p.local.heap_bytes()
        + lists(&p.remote_by_owner)
        + p.slot_counts.capacity() * 4
        + p.root_slot_off.capacity() * size_of::<usize>()
}

#[test]
fn each_remote_leaf_edge_is_held_once() {
    let ds = rmat(12, 8, 4, 4, 5, "footprint");
    let g = &ds.graph;
    for k in [4, 16] {
        let shards = make_shards(g.num_vertices(), &ds.features, &hash_partition(g, k), |r| {
            from_direct_neighbors(g, r.to_vec())
        });
        for (shard, plan) in shards.iter().zip(leaf_sync_plans(&shards)) {
            // Per owner: the remote leaves of the HDG, one per leaf edge,
            // against the list's rows mapped back to vertices.
            for (o, (list, owner)) in plan.remote_by_owner.iter().zip(&shards).enumerate() {
                let of_owner = |&&leaf: &&u32| shard.owner[leaf as usize] as usize == o;
                let mut want: Vec<u32> = shard
                    .hdg
                    .leaf_sources()
                    .iter()
                    .filter(of_owner)
                    .copied()
                    .collect();
                if o == shard.rank {
                    want.clear();
                }
                let mut got: Vec<u32> = list
                    .iter()
                    .map(|&(_, row)| owner.roots[row as usize])
                    .collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "k={k}: rank {} from {o}", shard.rank);
            }
            let remote: usize = plan.remote_by_owner.iter().map(Vec::len).sum();
            let raw: usize = plan.raw_rows.iter().map(Vec::len).sum();
            let local = plan.local.src().len();
            let (slots, roots) = (plan.num_slots, shard.roots.len());
            let bound = 8 * remote + 4 * (local + raw) + 16 * (slots + roots);
            let bytes = plan_bytes(plan);
            assert!(
                bytes <= bound,
                "k={k} rank {}: {bytes} B > {bound} B",
                shard.rank
            );
        }
    }
}
