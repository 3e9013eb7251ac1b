//! The leaf-sync plan is a property of the shard set (ISSUE 15): built by
//! the set's first epoch, the same allocation for every later epoch on
//! either driver and through clones, equal to a fresh `build_leaf_sync`,
//! and refused — not rebuilt — for anything that is not the whole set in
//! rank order; and each remote leaf edge is held once, in the receiver's
//! list from its owner. Planning reads every HDG layout as it is: no
//! reader makes a shard build its flat view. No clocks.

use flexgraph_comm::NetProfile;
use flexgraph_dist::balance::{induced_graph, root_products};
use flexgraph_dist::{
    build_leaf_sync, distributed_epoch, leaf_sync_plans, make_shards, virtual_epoch, DistConfig,
    DistMode, LeafSync, Shard, SlotLevel,
};
use flexgraph_engine::hybrid::AggrOp;
use flexgraph_graph::gen::{community, hetero_imdb, rmat, Dataset};
use flexgraph_graph::metapath::Metapath;
use flexgraph_graph::partition::hash_partition;
use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph_hdg::SchemaTree;
use flexgraph_tensor::{SegmentIndex, Tensor};
use std::collections::BTreeSet;

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

/// `build_leaf_sync` edge by edge over each HDG's flat view: every leaf
/// edge pushed to its slot's local segment or its owner's list, lists
/// sorted whole, each message's rows deduplicated by sorting.
fn edge_by_edge_plans(shards: &[Shard]) -> Vec<LeafSync> {
    let k = shards.len();
    let row_of = |leaf: u32| {
        let owner = &shards[shards[0].owner[leaf as usize] as usize];
        owner.roots.binary_search(&leaf).expect("owned") as u32
    };
    let mut plans: Vec<LeafSync> = shards
        .iter()
        .map(|s| {
            let (hdg, t) = (&s.hdg, s.hdg.num_types());
            let flat = hdg.is_flat_instances();
            let num_slots = if flat {
                hdg.num_groups()
            } else {
                hdg.num_instances()
            };
            let (mut counts, mut local) = (vec![0u32; num_slots], vec![Vec::new(); num_slots]);
            let mut remote_by_owner = vec![Vec::new(); k];
            for g in 0..hdg.num_groups() {
                for i in hdg.group_instances(g / t, g % t) {
                    let slot = if flat { g } else { i };
                    for &leaf in hdg.instance_leaves(i) {
                        counts[slot] += 1;
                        match s.owner[leaf as usize] as usize {
                            o if o == s.rank => local[slot].push(row_of(leaf)),
                            o => remote_by_owner[o].push((slot as u32, row_of(leaf))),
                        }
                    }
                }
            }
            remote_by_owner.iter_mut().for_each(|l| l.sort_unstable());
            let mut offsets = vec![0];
            offsets.extend(local.iter().scan(0, |n, rows| {
                *n += rows.len();
                Some(*n)
            }));
            let roots = 0..=hdg.num_roots();
            LeafSync {
                level: if flat {
                    SlotLevel::Groups
                } else {
                    SlotLevel::Instances
                },
                num_slots,
                partial_rows: vec![0; k],
                raw_rows: vec![Vec::new(); k],
                partial_to: vec![true; k],
                partial_from: vec![true; k],
                local: SegmentIndex::new(offsets, local.concat()),
                remote_by_owner,
                slot_counts: counts,
                root_slot_off: roots
                    .map(|r| {
                        if flat {
                            r * t
                        } else {
                            hdg.group_offsets()[r * t]
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    for w in 0..k {
        for p in (0..k).filter(|&p| p != w) {
            let list = &plans[p].remote_by_owner[w];
            let mut slots: Vec<u32> = list.iter().map(|&(slot, _)| slot).collect();
            slots.dedup();
            let mut rows: Vec<u32> = list.iter().map(|&(_, row)| row).collect();
            rows.sort_unstable();
            rows.dedup();
            let use_partial = slots.len() <= rows.len();
            plans[w].partial_rows[p] = slots.len();
            plans[w].raw_rows[p] = rows;
            plans[w].partial_to[p] = use_partial;
            plans[p].partial_from[w] = use_partial;
        }
    }
    plans
}

/// Every shard's HDG heap bytes, in rank order.
fn hdg_bytes(shards: &[Shard]) -> Vec<usize> {
    shards.iter().map(|s| s.hdg.heap_bytes()).collect()
}

#[test]
fn prefix_tree_shards_plan_and_balance_without_a_flat_view() {
    let ds = hetero_imdb(120, 2, 3, 6, 52);
    let (typed, g) = (ds.typed(), &ds.graph);
    let metapaths = [Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let shards = make_shards(g.num_vertices(), &ds.features, &hash_partition(g, 4), |r| {
        from_metapaths(&typed, r.to_vec(), &metapaths, 0)
    });
    assert!(shards
        .iter()
        .all(|s| s.hdg.hierarchy().root_rows().is_some()));
    let before = hdg_bytes(&shards);
    let plans = leaf_sync_plans(&shards);
    let products: Vec<_> = shards.iter().map(|s| root_products(&s.hdg, 8)).collect();
    let hdgs: Vec<_> = shards.iter().map(|s| &*s.hdg).collect();
    let induced = induced_graph(g.num_vertices(), &hdgs);
    assert_eq!(hdg_bytes(&shards), before, "no reader built a flat view");

    // The oracles read the flat view, which these shards now build.
    assert_eq!(plans, &edge_by_edge_plans(&shards)[..]);
    assert!(hdg_bytes(&shards)
        .iter()
        .zip(&before)
        .all(|(view, tree)| view > tree));
    for (s, products) in shards.iter().zip(&products) {
        let t = s.hdg.num_types();
        for (r, row) in products.iter().enumerate() {
            for (ty, &p) in row.iter().enumerate() {
                let range = s.hdg.group_instances(r, ty);
                let leaves: usize = range.clone().map(|i| s.hdg.instance_leaves(i).len()).sum();
                let (n, m) = (range.len() as f64, leaves as f64 / range.len() as f64 * 8.0);
                assert_eq!(p, if range.is_empty() { 0.0 } else { n * m }, "{r} {ty}");
            }
            assert_eq!(row.len(), t);
        }
    }
    let mut want = BTreeSet::new();
    for s in &shards {
        for r in 0..s.hdg.num_roots() {
            let root = s.hdg.root_id(r);
            let leaves = s.hdg.root_leaf_sources(r).iter().filter(|&&l| l != root);
            want.extend(leaves.map(|&leaf| (root, leaf)));
        }
    }
    let got = (0..g.num_vertices() as u32)
        .flat_map(|v| induced.out_neighbors(v).iter().map(move |&u| (v, u)))
        .collect::<BTreeSet<_>>();
    assert_eq!(got, want);
}

#[test]
fn a_direct_neighbor_hdg_holds_no_instance_offsets() {
    let ds = dataset();
    let shards = shards_of(&ds, 4);
    let schema = SchemaTree::flat().heap_bytes();
    let counted = |s: &Shard| {
        let h = &s.hdg;
        4 * h.num_roots() + 8 * (h.num_groups() + 1) + 4 * h.leaf_sources().len() + schema
    };
    let held = |shards: &[Shard]| shards.iter().map(counted).collect::<Vec<_>>();
    assert_eq!(hdg_bytes(&shards), held(&shards));
    leaf_sync_plans(&shards);
    for _ in 0..2 {
        virtual_epoch(
            &ds.graph,
            &shards,
            &DistConfig::default(),
            &NetProfile::default(),
        );
    }
    assert_eq!(
        hdg_bytes(&shards),
        held(&shards),
        "after the plans and two epochs"
    );
}
