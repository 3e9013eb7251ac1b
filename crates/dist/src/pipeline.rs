//! Leaf-level synchronization with and without pipeline processing
//! (paper §5, "Pipeline processing", evaluated in §7.7).
//!
//! The bottom level of distributed aggregation needs leaf features that
//! live on other workers. Two execution modes:
//!
//! * **Unpipelined** (the dataflow baseline, e.g. Euler): every worker
//!   first ships the raw feature rows its peers depend on, waits until
//!   *all* remote rows have arrived, and only then aggregates.
//! * **Pipelined** (FlexGraph): the *sender* partially aggregates the
//!   rows it owns per destination instance and ships one combined row per
//!   instance (fewer, smaller messages); the *receiver* aggregates its
//!   local rows while the partials are still in flight, then folds the
//!   arriving partials in. Only valid for commutative reductions — for
//!   non-commutative UDFs FlexGraph still benefits from the message
//!   batching (§5), which both modes here share (one message per peer).
//!
//! This module holds what both modes are planned from — the per-worker
//! [`LeafSync`] and the wire-form encoders and folds; the step machine
//! that executes them is the `worker` module.
//!
//! The plan is a function of the HDGs and the ownership map and of
//! nothing else, so it is not an epoch's business: [`build_leaf_sync`]
//! is pure, a shard set caches its result
//! ([`crate::shard::leaf_sync_plans`]), and epochs read it. Each remote
//! leaf edge is stored once, in the receiver's list from its owner
//! ([`LeafSync::remote_by_owner`]): the owner encodes its partial sums
//! for that receiver from the receiver's list, so a worker's epoch reads
//! the whole set's plans. The plan also knows how many rows each message
//! will carry, which lets the encoders write every leaf message in one
//! pass into a buffer sized once ([`flexgraph_comm::RowWriter`]),
//! partial sums accumulated in place.

use crate::shard::Shard;
use flexgraph_comm::{decode_rows_with, RowWriter};
use flexgraph_graph::VertexId;
use flexgraph_tensor::{SegmentIndex, Tensor};
use std::ops::Range;

/// The granularity of the first reduction level.
///
/// For hierarchical HDGs (multi-leaf instances, e.g. MAGNN) partial
/// aggregation lands on *instances*. For flat HDGs (one leaf per
/// instance — GCN, PinSage) the instance level is an identity, so
/// partials land one level up, on the `(root, type)` *groups*: this is
/// the paper's GCN example, where a remote partition combines all of a
/// vertex's partial 1-hop neighbors into one assembled message per root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotLevel {
    /// Slots are neighbor instances.
    Instances,
    /// Slots are `(root, type)` groups.
    Groups,
}

/// The per-worker synchronization plan for the leaf level. It depends
/// only on the HDGs and the ownership map, so it is built once per
/// NeighborSelection — a shard set carries its plans
/// ([`crate::shard::leaf_sync_plans`]) — and read by every layer and
/// epoch.
#[derive(Debug, PartialEq)]
pub struct LeafSync {
    /// What the slots of the output tensor represent.
    pub level: SlotLevel,
    /// Number of slots (instances or groups).
    pub num_slots: usize,
    /// Per peer: the distinct slots of that peer's list from this worker
    /// — the row count of the partial-aggregate message to that peer.
    pub partial_rows: Vec<usize>,
    /// Per peer: the distinct local feature rows in that peer's list
    /// from this worker, ascending — the rows of the raw message to it.
    pub raw_rows: Vec<Vec<u32>>,
    /// Per peer: whether sender-side *partial aggregation* compresses
    /// this worker's traffic to that peer. Partials win when several
    /// local rows feed the same remote slot (flat models on dense
    /// graphs); raw deduped rows win when slots are small but vertices
    /// are shared (multi-leaf instances). Chosen at plan time; the
    /// pipelined mode keeps the *overlap* either way (§5: non-commutative
    /// cases "still benefit from the batching communication strategy").
    pub partial_to: Vec<bool>,
    /// Whether each *incoming* peer message carries slot-keyed partials
    /// (`true`) or vertex-keyed raw rows (`false`) in pipelined mode.
    pub partial_from: Vec<bool>,
    /// The locally owned leaves: one segment per slot, listing the
    /// local feature rows of its leaves in instance order. Every mode's
    /// local aggregation step is the fused fold over it
    /// (`fusion::segment_reduce_into`).
    pub local: SegmentIndex,
    /// Per owning peer: the leaf edges whose leaf that peer owns, as
    /// `(slot, feature row on the owner)` pairs sorted by slot, then row
    /// (rows ascend with vertex ids). The one copy of each remote leaf
    /// edge: the owner encodes its partial sums for this worker from it,
    /// and this worker folds the owner's raw rows through it.
    pub remote_by_owner: Vec<Vec<(u32, u32)>>,
    /// Total leaf count per slot (local + remote), for Mean.
    pub slot_counts: Vec<u32>,
    /// Per local root: starting slot; length `num_roots + 1`. Lets batch
    /// modes find the slot range of a root range.
    pub root_slot_off: Vec<usize>,
}

/// Builds the sync plans for all shards of a set (pure; the set's cell
/// caches the result, see [`crate::shard::leaf_sync_plans`]).
pub fn build_leaf_sync(shards: &[Shard]) -> Vec<LeafSync> {
    let k = shards.len();
    let mut plans: Vec<LeafSync> = shards.iter().map(|s| receive_side(s, k)).collect();
    // What `w` serves `p` is `p`'s list from `w`: size both wire forms
    // per (sender, receiver) pair and choose the smaller.
    for (w, shard) in shards.iter().enumerate() {
        let mut served = vec![false; shard.roots.len()];
        for p in (0..k).filter(|&p| p != w) {
            let list = &plans[p].remote_by_owner[w];
            let partial_rows = list.chunk_by(|a, b| a.0 == b.0).count();
            // Mark the rows the list reads, counting each once, then take
            // them in ascending order: the rows of the raw message.
            let mut mark =
                |&(_, row): &(u32, u32)| !std::mem::replace(&mut served[row as usize], true);
            let mut raw_rows = Vec::with_capacity(list.iter().filter(|e| mark(e)).count());
            raw_rows.extend(
                (0..served.len() as u32).filter(|&r| std::mem::take(&mut served[r as usize])),
            );
            let use_partial = partial_rows <= raw_rows.len();
            plans[w].partial_rows[p] = partial_rows;
            plans[w].raw_rows[p] = raw_rows;
            plans[w].partial_to[p] = use_partial;
            plans[p].partial_from[w] = use_partial;
        }
    }
    plans
}

/// One shard's plan up to what depends on its peers' lists: slots, the
/// local fold and the remote leaf edges it must receive. Every list is
/// allocated once, at its final size.
fn receive_side(s: &Shard, k: usize) -> LeafSync {
    let w = s.rank;
    let hdg = &s.hdg;
    let level = if hdg.is_flat_instances() {
        SlotLevel::Groups
    } else {
        SlotLevel::Instances
    };
    let num_slots = match level {
        SlotLevel::Groups => hdg.num_groups(),
        SlotLevel::Instances => hdg.num_instances(),
    };
    let t = hdg.num_types();
    let root_slot_off: Vec<usize> = (0..=hdg.num_roots())
        .map(|r| match level {
            SlotLevel::Groups => r * t,
            SlotLevel::Instances => hdg.hierarchy().group_start(r * t),
        })
        .collect();

    // Every walk is `for_each_instance`'s: no layout builds a flat view.
    let mut from_owner = vec![0usize; k];
    hdg.for_each_instance(|_, leaves| {
        for &leaf in leaves {
            from_owner[s.owner[leaf as usize] as usize] += 1;
        }
    });
    let n_local = std::mem::take(&mut from_owner[w]);
    let mut local_offsets = vec![0usize; num_slots + 1];
    let mut local_src = Vec::with_capacity(n_local);
    let mut remote_by_owner: Vec<Vec<(u32, u32)>> =
        from_owner.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut slot_counts = vec![0u32; num_slots];

    let mut i = 0;
    hdg.for_each_instance(|g, leaves| {
        let slot = match level {
            SlotLevel::Groups => g as u32,
            SlotLevel::Instances => i as u32,
        };
        i += 1;
        slot_counts[slot as usize] += leaves.len() as u32;
        for &leaf in leaves {
            let owner = s.owner[leaf as usize] as usize;
            let row = s.row_on_owner(leaf);
            if owner == w {
                local_offsets[slot as usize + 1] += 1;
                local_src.push(row);
            } else {
                remote_by_owner[owner].push((slot, row));
            }
        }
    });
    // Instances ascend by slot, so the lists are already grouped by
    // slot: ordering the rows within each slot's run sorts them, and
    // the local rows are segmented by counting each slot's.
    for list in &mut remote_by_owner {
        list.chunk_by_mut(|a, b| a.0 == b.0)
            .for_each(<[_]>::sort_unstable);
    }
    for slot in 0..num_slots {
        local_offsets[slot + 1] += local_offsets[slot];
    }
    LeafSync {
        level,
        num_slots,
        partial_rows: vec![0; k],
        raw_rows: vec![Vec::new(); k],
        partial_to: vec![true; k],
        partial_from: vec![true; k],
        local: SegmentIndex::new(local_offsets, local_src),
        remote_by_owner,
        slot_counts,
        root_slot_off,
    }
}

/// The remote leaf edges of a slot range as `(slot, leaf vertex)`
/// pairs: every owner's list merged, each row mapped to its vertex, and
/// sorted by slot, then leaf — the order the unpipelined and mini-batch
/// folds add them in.
pub(crate) fn remote_edges_in(
    sync: &LeafSync,
    shards: &[Shard],
    slots: Range<usize>,
) -> Vec<(u32, VertexId)> {
    let mut edges = Vec::new();
    for (list, owner) in sync.remote_by_owner.iter().zip(shards) {
        let bound = |s: usize| list.partition_point(|&(i, _)| (i as usize) < s);
        let run = &list[bound(slots.start)..bound(slots.end)];
        let vertex = |&(slot, row): &(u32, u32)| (slot, owner.roots[row as usize]);
        edges.extend(run.iter().map(vertex));
    }
    edges.sort_unstable();
    edges
}

/// Encodes worker `me`'s per-slot partial sums for peer `p` into one
/// message, reading `p`'s list from `me` in place; each sum accumulates
/// where it lies in the wire buffer.
pub(crate) fn encode_partials(
    syncs: &[LeafSync],
    me: usize,
    p: usize,
    local_feats: &Tensor,
    d: usize,
) -> bytes::Bytes {
    let mut w = RowWriter::with_rows(d, syncs[me].partial_rows[p]);
    let mut last = None;
    for &(slot, row) in &syncs[p].remote_by_owner[me] {
        let src = local_feats.row(row as usize);
        if last == Some(slot) {
            w.add_to_last(src);
        } else {
            w.push(slot, src);
            last = Some(slot);
        }
    }
    w.finish()
}

/// Encodes the deduplicated raw rows peer `p` depends on, keyed by
/// global vertex id (`roots[row]`).
pub(crate) fn encode_raw_rows(
    sync: &LeafSync,
    local_feats: &Tensor,
    roots: &[VertexId],
    p: usize,
    d: usize,
) -> bytes::Bytes {
    let rows = &sync.raw_rows[p];
    let mut w = RowWriter::with_rows(d, rows.len());
    for &r in rows {
        w.push(roots[r as usize], local_feats.row(r as usize));
    }
    w.finish()
}

/// Folds a vertex-keyed raw message from `owner` into the slot buffer
/// through the per-owner list. `offset_of` (row on the owner → payload
/// offset) and `flat` are the worker task's scratch: the table grows to
/// the largest owner's row count and is never cleared, since a message
/// rewrites every entry its fold reads.
pub(crate) fn fold_raw_rows(
    sync: &LeafSync,
    slots: &mut Tensor,
    payload: &bytes::Bytes,
    owner: &Shard,
    offset_of: &mut Vec<u32>,
    flat: &mut Vec<f32>,
) {
    offset_of.resize(offset_of.len().max(owner.roots.len()), u32::MAX);
    if cfg!(debug_assertions) {
        offset_of.fill(u32::MAX); // rows alias across owners: forget the last one's
    }
    flat.clear();
    let d = decode_rows_with(payload, |v, row| {
        offset_of[owner.row_on_owner(v) as usize] = flat.len() as u32;
        flat.extend_from_slice(row);
    });
    for &(slot, row) in &sync.remote_by_owner[owner.rank] {
        let off = offset_of[row as usize] as usize;
        debug_assert_ne!(off, u32::MAX as usize, "peer shipped every depended-on row");
        let dst = slots.row_mut(slot as usize);
        for (o, &x) in dst.iter_mut().zip(&flat[off..off + d]) {
            *o += x;
        }
    }
}

/// Divides summed slot features by the per-slot leaf counts (Mean
/// finalization; slots with no leaves stay zero).
pub fn finalize_mean(inst: &mut Tensor, counts: &[u32]) {
    for (i, &c) in counts.iter().enumerate() {
        if c > 1 {
            let inv = 1.0 / c as f32;
            for x in inst.row_mut(i) {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{leaf_sync_plans, make_shards};
    use crate::trainer::{threaded_attempt, DistConfig, DistMode};
    use crate::worker::EpochTask;
    use flexgraph_comm::try_decode_rows_with;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, segment_reduce_into, Reduce};
    use flexgraph_tensor::scatter::{gather_rows_serial, scatter_add_serial};
    use flexgraph_tensor::ScatterPlan;
    use proptest::prelude::*;

    /// Drives the worker task over a fabric in both leaf-sync modes on
    /// the sample graph with k workers and checks each shard's output
    /// against the single-machine fused reference.
    fn check_modes(k: usize) {
        let g = sample_graph();
        let n = 9;
        let d = 3;
        let feats = Tensor::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.7).sin()).collect());
        let part = hash_partition(&g, k);
        let shards = make_shards(n, &feats, &part, |roots| {
            from_direct_neighbors(&g, roots.to_vec())
        });
        let plans = leaf_sync_plans(&shards);

        // Single-machine reference: fused sum per root over in-edges.
        let reference = segment_reduce(&feats, g.in_offsets(), g.in_sources(), Reduce::Sum);

        for pipeline in [true, false] {
            let cfg = DistConfig {
                mode: DistMode::FlexGraph { pipeline },
                ..DistConfig::default()
            };
            let mut tasks = EpochTask::fleet(&g, &shards, plans, &cfg, 0);
            threaded_attempt(&mut tasks, &cfg);

            for ((shard, plan), task) in shards.iter().zip(plans).zip(&tasks) {
                // Flat HDG with a single type under a flat Sum plan:
                // slots ARE the roots, and the upper levels are identity.
                assert_eq!(plan.level, SlotLevel::Groups);
                let out = task.result().as_ref().expect("fault-free");
                for (r, &v) in shard.roots.iter().enumerate() {
                    let want = reference.row(v as usize);
                    let got = out.row(r);
                    for (a, b) in got.iter().zip(want) {
                        assert!(
                            (a - b).abs() < 1e-4,
                            "pipeline={pipeline} root {v}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn both_modes_match_single_machine_k2() {
        check_modes(2);
    }

    #[test]
    fn both_modes_match_single_machine_k4() {
        check_modes(4);
    }

    /// A plan over `num_slots` slots with `k` peers and no edges.
    fn blank(k: usize, level: SlotLevel, num_slots: usize) -> LeafSync {
        LeafSync {
            level,
            num_slots,
            partial_rows: vec![0; k],
            raw_rows: vec![Vec::new(); k],
            partial_to: vec![true; k],
            partial_from: vec![true; k],
            local: SegmentIndex::new(vec![0; num_slots + 1], Vec::new()),
            remote_by_owner: vec![Vec::new(); k],
            slot_counts: vec![0; num_slots],
            root_slot_off: vec![0],
        }
    }

    /// Each leaf edge of a shard as `(slot, leaf vertex)`, in instance
    /// order; the group of an instance is reconstructed from the group
    /// offsets.
    fn leaf_edges(shard: &Shard) -> Vec<(u32, VertexId)> {
        let hdg = &shard.hdg;
        let mut group_of = vec![0u32; hdg.num_instances()];
        for (g, w) in hdg.group_offsets().windows(2).enumerate() {
            group_of[w[0]..w[1]].fill(g as u32);
        }
        let mut edges = Vec::new();
        for i in 0..hdg.num_instances() {
            let slot = if hdg.is_flat_instances() {
                group_of[i]
            } else {
                i as u32
            };
            edges.extend(hdg.instance_leaves(i).iter().map(|&leaf| (slot, leaf)));
        }
        edges
    }

    /// The feature row of `leaf` on its owner, found by search.
    fn row_of(shards: &[Shard], leaf: VertexId) -> u32 {
        let owner = &shards[shards[0].owner[leaf as usize] as usize];
        owner.roots.binary_search(&leaf).expect("owned") as u32
    }

    /// The locally owned leaves of each shard as `(slot, local feature
    /// row)` pairs, leaf edge by leaf edge in instance order.
    fn local_edges(shards: &[Shard]) -> Vec<Vec<(u32, u32)>> {
        let local = |shard: &Shard| {
            let edges = leaf_edges(shard).into_iter();
            let owned =
                edges.filter(|&(_, leaf)| shard.owner[leaf as usize] as usize == shard.rank);
            owned
                .map(|(slot, leaf)| (slot, row_of(shards, leaf)))
                .collect()
        };
        shards.iter().map(local).collect()
    }

    /// The index the local fold walked through a scatter plan over the
    /// slots of `edges`: the plan's offsets, and its permutation mapped
    /// to the rows — each slot's rows in edge order.
    fn planned_index(edges: &[(u32, u32)], num_slots: usize) -> SegmentIndex {
        let slots: Vec<u32> = edges.iter().map(|&(slot, _)| slot).collect();
        let plan = ScatterPlan::new(&slots, num_slots);
        let rows = (0..num_slots).flat_map(|t| plan.segment(t));
        let rows = rows.map(|&e| edges[e as usize].1).collect();
        SegmentIndex::new(plan.offsets().to_vec(), rows)
    }

    /// The three lists a plan once kept for each remote leaf edge: the
    /// receiver's `(slot, leaf)` pairs in slot order, the same pairs
    /// split by owner, and the owner's `(slot, row)` pairs per receiver.
    #[derive(Default)]
    struct OldLists {
        slot_order: Vec<(u32, VertexId)>,
        by_owner: Vec<Vec<(u32, VertexId)>>,
        served: Vec<Vec<(u32, u32)>>,
    }

    /// `build_leaf_sync` as it was first written — every leaf edge
    /// pushed to three lists one by one, every list sorted whole, rows
    /// deduplicated by sorting, the local leaves grouped by a scatter
    /// plan — kept as the oracle for the counted, run-sorted,
    /// one-list construction. Returns the plans it implies and the old
    /// lists they were derived from.
    fn edge_by_edge_reference(shards: &[Shard]) -> (Vec<LeafSync>, Vec<OldLists>) {
        let k = shards.len();
        let local = local_edges(shards);
        let mut old: Vec<OldLists> = (0..k)
            .map(|_| OldLists {
                by_owner: vec![Vec::new(); k],
                served: vec![Vec::new(); k],
                ..OldLists::default()
            })
            .collect();
        let mut plans: Vec<LeafSync> = shards
            .iter()
            .map(|s| {
                let flat = s.hdg.is_flat_instances();
                let (level, num_slots) = if flat {
                    (SlotLevel::Groups, s.hdg.num_groups())
                } else {
                    (SlotLevel::Instances, s.hdg.num_instances())
                };
                let t = s.hdg.num_types();
                LeafSync {
                    root_slot_off: (0..=s.hdg.num_roots())
                        .map(|r| {
                            if flat {
                                r * t
                            } else {
                                s.hdg.group_offsets()[r * t]
                            }
                        })
                        .collect(),
                    ..blank(k, level, num_slots)
                }
            })
            .collect();
        for shard in shards {
            let w = shard.rank;
            for (slot, leaf) in leaf_edges(shard) {
                plans[w].slot_counts[slot as usize] += 1;
                let owner = shard.owner[leaf as usize] as usize;
                if owner != w {
                    old[w].slot_order.push((slot, leaf));
                    old[w].by_owner[owner].push((slot, leaf));
                    old[owner].served[w].push((slot, row_of(shards, leaf)));
                }
            }
        }
        for ((p, old), local) in plans.iter_mut().zip(&mut old).zip(&local) {
            old.served.iter_mut().for_each(|s| s.sort_unstable());
            old.slot_order.sort_unstable();
            for (owner, list) in old.by_owner.iter_mut().enumerate() {
                list.sort_unstable();
                p.remote_by_owner[owner] = list
                    .iter()
                    .map(|&(slot, leaf)| (slot, row_of(shards, leaf)))
                    .collect();
            }
            p.local = planned_index(local, p.num_slots);
        }
        for w in 0..k {
            for p in (0..k).filter(|&p| p != w) {
                let serve = &old[w].served[p];
                let mut slots: Vec<u32> = serve.iter().map(|&(s, _)| s).collect();
                slots.dedup();
                let mut rows: Vec<u32> = serve.iter().map(|&(_, r)| r).collect();
                rows.sort_unstable();
                rows.dedup();
                let use_partial = slots.len() <= rows.len();
                plans[w].partial_rows[p] = slots.len();
                plans[w].raw_rows[p] = rows;
                plans[w].partial_to[p] = use_partial;
                plans[p].partial_from[w] = use_partial;
            }
        }
        (plans, old)
    }

    /// The shard sets of a flat HDG (slots are groups, partial
    /// aggregates usually win) and of multi-leaf instances (slots are
    /// instances, raw rows often win), `k` shards each.
    fn flat_and_hetero_shards(k: usize) -> [Vec<Shard>; 2] {
        use flexgraph_graph::gen::{community, hetero_imdb};
        use flexgraph_graph::metapath::Metapath;
        use flexgraph_hdg::build::from_metapaths;
        let flat = community(150, 3, 5, 2, 6, 77);
        let hetero = hetero_imdb(120, 2, 3, 6, 52);
        let typed = hetero.typed();
        let metapaths = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
        let g = &flat.graph;
        let part = hash_partition(g, k);
        let flat = make_shards(g.num_vertices(), &flat.features, &part, |r| {
            from_direct_neighbors(g, r.to_vec())
        });
        let g = &hetero.graph;
        let part = hash_partition(g, k);
        let hetero = make_shards(g.num_vertices(), &hetero.features, &part, |r| {
            from_metapaths(&typed, r.to_vec(), &metapaths, 0)
        });
        [flat, hetero]
    }

    #[test]
    fn plans_equal_the_edge_by_edge_reference() {
        for k in [1, 2, 3, 5] {
            for (case, shards) in ["flat", "hetero"].iter().zip(flat_and_hetero_shards(k)) {
                let plans = build_leaf_sync(&shards);
                let (reference, old) = edge_by_edge_reference(&shards);
                assert_eq!(plans, reference, "{case} k={k}");
                for (w, (plan, mine)) in plans.iter().zip(&old).enumerate() {
                    for (owner, list) in plan.remote_by_owner.iter().enumerate() {
                        // The old per-owner list, re-keyed to rows, and
                        // what the owner used to serve this worker.
                        let rekeyed: Vec<(u32, u32)> = mine.by_owner[owner]
                            .iter()
                            .map(|&(slot, leaf)| (slot, row_of(&shards, leaf)))
                            .collect();
                        assert_eq!(list, &rekeyed, "{case} k={k} {w} from {owner}");
                        assert_eq!(list, &old[owner].served[w], "{case} k={k}");
                    }
                    // The merged walk is the old slot-ordered list, over
                    // every slot and over each root batch.
                    let all = remote_edges_in(plan, &shards, 0..plan.num_slots);
                    assert_eq!(all, mine.slot_order, "{case} k={k} rank {w}");
                    let offs = &plan.root_slot_off;
                    for lo in (0..offs.len() - 1).step_by(7) {
                        let hi = (lo + 7).min(offs.len() - 1);
                        let batch = remote_edges_in(plan, &shards, offs[lo]..offs[hi]);
                        let bound = |s: usize| all.partition_point(|&(i, _)| (i as usize) < s);
                        assert_eq!(batch, &all[bound(offs[lo])..bound(offs[hi])]);
                    }
                }
                if *case == "hetero" && k > 1 {
                    let raw = plans.iter().flat_map(|p| &p.partial_to).filter(|&&x| !x);
                    assert!(raw.count() > 0, "k={k}: the raw wire form is exercised");
                }
            }
        }
    }

    #[test]
    fn the_local_fold_matches_gather_then_scatter() {
        // Each local leaf edge reads its feature row and lands in its
        // slot: the fused fold over the plan's index must give the bits
        // of gathering one row per edge and scatter-adding them, and a
        // second fold adds into the first, as a second pass over the
        // edges would.
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for shards in flat_and_hetero_shards(3) {
            let plans = build_leaf_sync(&shards);
            for ((shard, plan), edges) in shards.iter().zip(&plans).zip(local_edges(&shards)) {
                let mut out = Tensor::zeros(plan.num_slots, shard.feats.cols());
                for passes in 1..=2 {
                    let (slots, rows): (Vec<u32>, Vec<u32>) =
                        edges.repeat(passes).into_iter().unzip();
                    let gathered = gather_rows_serial(&shard.feats, &rows);
                    segment_reduce_into(&mut out, &shard.feats, &plan.local, Reduce::Sum);
                    let reference = scatter_add_serial(&gathered, &slots, plan.num_slots);
                    assert_eq!(bits(&out), bits(&reference), "{passes} folds");
                }
            }
        }
    }

    /// A set whose rank 0 serves `lists[i]` to rank `i + 1` and nothing
    /// else: that is rank `i + 1`'s list from rank 0, and rank 0 sizes
    /// both wire forms from it.
    fn serving(lists: Vec<Vec<(u32, u32)>>) -> Vec<LeafSync> {
        let k = lists.len() + 1;
        let distinct = |mut xs: Vec<u32>| {
            xs.sort_unstable();
            xs.dedup();
            xs
        };
        let mut sender = blank(k, SlotLevel::Groups, 0);
        for (p, list) in lists.iter().enumerate() {
            sender.partial_rows[p + 1] =
                distinct(list.iter().map(|&(slot, _)| slot).collect()).len();
            sender.raw_rows[p + 1] = distinct(list.iter().map(|&(_, row)| row).collect());
        }
        let peers = lists.into_iter().map(|list| {
            let mut peer = blank(k, SlotLevel::Groups, 0);
            peer.remote_by_owner[0] = list;
            peer
        });
        std::iter::once(sender).chain(peers).collect()
    }

    /// The wire format written out longhand.
    fn wire(d: usize, ids: &[u32], flat: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(d as u32).to_le_bytes());
        for (i, id) in ids.iter().enumerate() {
            out.extend_from_slice(&id.to_le_bytes());
            for x in &flat[i * d..(i + 1) * d] {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// The two-step senders the one-pass encoders replaced: stage ids
    /// and an f32 matrix from the `(slot, row)` list served, then encode.
    fn two_step_partials(serve: &[(u32, u32)], feats: &Tensor, d: usize) -> Vec<u8> {
        let mut ids: Vec<u32> = Vec::new();
        let mut flat: Vec<f32> = Vec::new();
        for &(slot, row) in serve {
            let src = feats.row(row as usize);
            if ids.last() == Some(&slot) {
                let base = flat.len() - d;
                for (a, &x) in flat[base..].iter_mut().zip(src) {
                    *a += x;
                }
            } else {
                ids.push(slot);
                flat.extend_from_slice(src);
            }
        }
        wire(d, &ids, &flat)
    }

    fn two_step_raw_rows(
        serve: &[(u32, u32)],
        feats: &Tensor,
        roots: &[VertexId],
        d: usize,
    ) -> Vec<u8> {
        let mut rows: Vec<u32> = serve.iter().map(|&(_, r)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        let ids: Vec<u32> = rows.iter().map(|&r| roots[r as usize]).collect();
        let flat: Vec<f32> = rows
            .iter()
            .flat_map(|&r| feats.row(r as usize).to_vec())
            .collect();
        wire(d, &ids, &flat)
    }

    /// `(local rows, dim, features, per-peer serve lists)`.
    type ServeCase = (usize, usize, Vec<f32>, Vec<Vec<(u32, u32)>>);

    /// Slots ascend by gaps that are mostly zero, so single-row slots,
    /// long runs of one slot and empty peers all occur.
    fn serve_lists() -> impl Strategy<Value = ServeCase> {
        (1usize..12, 1usize..6).prop_flat_map(|(n, d)| {
            let entry = (prop_oneof![Just(0u32), Just(0u32), 0u32..4], 0..n as u32);
            let peer = proptest::collection::vec(entry, 0..60).prop_map(|gaps| {
                let mut slot = 0;
                let mut list: Vec<(u32, u32)> = gaps
                    .into_iter()
                    .map(|(gap, row)| {
                        slot += gap;
                        (slot, row)
                    })
                    .collect();
                list.sort_unstable();
                list
            });
            (
                proptest::collection::vec(-1e3f32..1e3, n * d),
                proptest::collection::vec(peer, 1..5),
            )
                .prop_map(move |(feats, serve)| (n, d, feats, serve))
        })
    }

    proptest! {
        #[test]
        fn one_pass_encoders_write_the_two_step_bytes((n, d, feats, serve) in serve_lists()) {
            let feats = Tensor::from_vec(n, d, feats);
            let roots: Vec<VertexId> = (0..n as u32).map(|r| 7 + 3 * r).collect();
            let syncs = serving(serve.clone());
            for (i, list) in serve.iter().enumerate() {
                let p = i + 1;
                // The sender reads the peer's list from it in place.
                let partials = encode_partials(&syncs, 0, p, &feats, d);
                prop_assert_eq!(partials.as_ref(), &two_step_partials(list, &feats, d)[..]);
                let raw = encode_raw_rows(&syncs[0], &feats, &roots, p, d);
                prop_assert_eq!(raw.as_ref(), &two_step_raw_rows(list, &feats, &roots, d)[..]);
                let rows = [syncs[0].partial_rows[p], syncs[0].raw_rows[p].len()];
                for (msg, rows) in [&partials, &raw].into_iter().zip(rows) {
                    let mut seen = 0;
                    prop_assert_eq!(try_decode_rows_with(msg, |_, _| seen += 1), Ok(d));
                    prop_assert_eq!(seen, rows);
                }
            }
        }
    }

    #[test]
    fn finalize_mean_divides() {
        let mut t = Tensor::from_rows(&[&[6.0], &[5.0], &[0.0]]);
        finalize_mean(&mut t, &[3, 1, 0]);
        assert_eq!(t, Tensor::from_rows(&[&[2.0], &[5.0], &[0.0]]));
    }
}
