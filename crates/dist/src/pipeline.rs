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
//! ([`crate::shard::leaf_sync_plans`]), and epochs read it. The plan
//! also knows how many rows each message will carry, which lets the
//! encoders write every leaf message in one pass into a buffer sized
//! once ([`flexgraph_comm::RowWriter`]), partial sums accumulated in
//! place.

use crate::shard::Shard;
use flexgraph_comm::{decode_rows_with, RowWriter};
use flexgraph_graph::VertexId;
use flexgraph_tensor::{ScatterPlan, Tensor};
use std::sync::Arc;

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
#[derive(Clone, Debug, PartialEq)]
pub struct LeafSync {
    /// What the slots of the output tensor represent.
    pub level: SlotLevel,
    /// Number of slots (instances or groups).
    pub num_slots: usize,
    /// Per peer: `(slot, local_feature_row)` pairs this worker must
    /// serve, sorted by slot.
    pub serve: Vec<Vec<(u32, u32)>>,
    /// Per peer: distinct slots in `serve` — the row count of the
    /// partial-aggregate message to that peer.
    pub partial_rows: Vec<usize>,
    /// Per peer: the distinct local feature rows in `serve`, ascending —
    /// the rows of the raw message to that peer.
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
    /// `(slot, local_feature_row)` pairs for locally-owned leaves.
    pub local_edges: Vec<(u32, u32)>,
    /// Scatter plan over the slot indices of `local_edges` — the
    /// slot-owned parallel fold both sync modes use for the local
    /// aggregation step.
    pub local_plan: Arc<ScatterPlan>,
    /// Feature row per `local_edges` position (the gather side of the
    /// planned fold).
    pub local_rows: Vec<u32>,
    /// `(slot, leaf_vertex)` pairs whose leaf lives remotely (consumed by
    /// the unpipelined receiver), sorted by slot.
    pub remote_edges: Vec<(u32, VertexId)>,
    /// `remote_edges` split by owning peer (consumed when folding raw
    /// rows in pipelined mode).
    pub remote_edges_by_owner: Vec<Vec<(u32, VertexId)>>,
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
    // What `w` needs from `owner` is what `owner` serves to `w`, re-keyed
    // to the owner's feature rows. Rows ascend with vertex ids, so the
    // lists stay sorted.
    for (w, shard) in shards.iter().enumerate() {
        for owner in (0..k).filter(|&o| o != w) {
            let serve = plans[w].remote_edges_by_owner[owner]
                .iter()
                .map(|&(slot, leaf)| (slot, shard.row_on_owner(leaf)))
                .collect();
            plans[owner].serve[w] = serve;
        }
    }
    // Size both wire forms per (sender, receiver) pair and choose the
    // smaller.
    for (w, shard) in shards.iter().enumerate() {
        let mut served = vec![false; shard.roots.len()];
        for p in (0..k).filter(|&p| p != w) {
            let serve = &plans[w].serve[p];
            let partial_rows = serve.chunk_by(|a, b| a.0 == b.0).count();
            for &(_, row) in serve {
                served[row as usize] = true;
            }
            let mut raw_rows = Vec::new();
            for (row, hit) in served.iter_mut().enumerate() {
                if std::mem::take(hit) {
                    raw_rows.push(row as u32);
                }
            }
            let use_partial = partial_rows <= raw_rows.len();
            plans[w].partial_rows[p] = partial_rows;
            plans[w].raw_rows[p] = raw_rows;
            plans[w].partial_to[p] = use_partial;
            plans[p].partial_from[w] = use_partial;
        }
    }
    plans
}

/// One shard's plan up to what depends on its peers' HDGs: slots, the
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
            SlotLevel::Instances => hdg.group_offsets()[r * t],
        })
        .collect();

    let mut from_owner = vec![0usize; k];
    for &leaf in hdg.leaf_sources() {
        from_owner[s.owner[leaf as usize] as usize] += 1;
    }
    let n_local = std::mem::take(&mut from_owner[w]);
    let mut local_edges = Vec::with_capacity(n_local);
    let mut remote_edges = Vec::with_capacity(from_owner.iter().sum());
    let mut remote_edges_by_owner: Vec<Vec<(u32, VertexId)>> =
        from_owner.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut slot_counts = vec![0u32; num_slots];

    let group_of = hdg.instance_group_index();
    for i in 0..hdg.num_instances() {
        let slot = match level {
            SlotLevel::Groups => group_of[i],
            SlotLevel::Instances => i as u32,
        };
        let leaves = hdg.instance_leaves(i);
        slot_counts[slot as usize] += leaves.len() as u32;
        for &leaf in leaves {
            let owner = s.owner[leaf as usize] as usize;
            if owner == w {
                local_edges.push((slot, s.row_on_owner(leaf)));
            } else {
                remote_edges.push((slot, leaf));
                remote_edges_by_owner[owner].push((slot, leaf));
            }
        }
    }
    // Instances ascend by slot, so the lists are already grouped by
    // slot: ordering the leaves within each slot's run sorts them.
    sort_within_slots(&mut remote_edges);
    for r in &mut remote_edges_by_owner {
        sort_within_slots(r);
    }
    let slot_idx: Vec<u32> = local_edges.iter().map(|&(slot, _)| slot).collect();
    LeafSync {
        level,
        num_slots,
        serve: vec![Vec::new(); k],
        partial_rows: vec![0; k],
        raw_rows: vec![Vec::new(); k],
        partial_to: vec![true; k],
        partial_from: vec![true; k],
        local_plan: Arc::new(ScatterPlan::new(&slot_idx, num_slots)),
        local_rows: local_edges.iter().map(|&(_, row)| row).collect(),
        local_edges,
        remote_edges,
        remote_edges_by_owner,
        slot_counts,
        root_slot_off,
    }
}

/// Sorts a `(slot, x)` list whose slots already ascend.
fn sort_within_slots(list: &mut [(u32, u32)]) {
    debug_assert!(list.windows(2).all(|w| w[0].0 <= w[1].0));
    for run in list.chunk_by_mut(|a, b| a.0 == b.0) {
        run.sort_unstable();
    }
}

/// Encodes per-slot partial sums for peer `p` into one message, each
/// sum accumulated where it lies in the wire buffer.
pub(crate) fn encode_partials(
    sync: &LeafSync,
    local_feats: &Tensor,
    p: usize,
    d: usize,
) -> bytes::Bytes {
    let mut w = RowWriter::with_rows(d, sync.partial_rows[p]);
    let mut last = None;
    for &(slot, row) in &sync.serve[p] {
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

/// Folds a vertex-keyed raw message from `from` into the slot buffer,
/// resolving slots through the per-owner remote-edge list. `offset_of`
/// (dense vertex → payload offset) and `flat` are the worker task's
/// scratch: the table is sized on first use and never cleared, since
/// owners are disjoint and a message rewrites every entry its fold reads.
pub(crate) fn fold_raw_rows(
    sync: &LeafSync,
    slots: &mut Tensor,
    payload: &bytes::Bytes,
    from: usize,
    offset_of: &mut Vec<u32>,
    flat: &mut Vec<f32>,
    num_vertices: usize,
) {
    offset_of.resize(num_vertices, u32::MAX);
    flat.clear();
    let d = decode_rows_with(payload, |v, row| {
        offset_of[v as usize] = flat.len() as u32;
        flat.extend_from_slice(row);
    });
    for &(slot, leaf) in &sync.remote_edges_by_owner[from] {
        let off = offset_of[leaf as usize] as usize;
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
    use flexgraph_comm::{try_decode_rows_with, ChaosSchedule};
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, Reduce};
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
            threaded_attempt(&mut tasks, ChaosSchedule::default(), &cfg);

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
            serve: vec![Vec::new(); k],
            partial_rows: vec![0; k],
            raw_rows: vec![Vec::new(); k],
            partial_to: vec![true; k],
            partial_from: vec![true; k],
            local_edges: Vec::new(),
            local_plan: Arc::new(ScatterPlan::new(&[], num_slots)),
            local_rows: Vec::new(),
            remote_edges: Vec::new(),
            remote_edges_by_owner: vec![Vec::new(); k],
            slot_counts: vec![0; num_slots],
            root_slot_off: vec![0],
        }
    }

    /// `build_leaf_sync` as it was first written — every leaf edge
    /// pushed to its lists one by one, every list sorted whole, rows
    /// deduplicated by sorting — kept as the oracle for the counted,
    /// run-sorted, transposed construction.
    fn edge_by_edge_reference(shards: &[Shard]) -> Vec<LeafSync> {
        let k = shards.len();
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
            let group_of = shard.hdg.instance_group_index();
            for i in 0..shard.hdg.num_instances() {
                let slot = match plans[w].level {
                    SlotLevel::Groups => group_of[i],
                    SlotLevel::Instances => i as u32,
                };
                for &leaf in shard.hdg.instance_leaves(i) {
                    plans[w].slot_counts[slot as usize] += 1;
                    let owner = shard.owner[leaf as usize] as usize;
                    let row = shards[owner].roots.binary_search(&leaf).expect("owned") as u32;
                    if owner == w {
                        plans[w].local_edges.push((slot, row));
                    } else {
                        plans[w].remote_edges.push((slot, leaf));
                        plans[w].remote_edges_by_owner[owner].push((slot, leaf));
                        plans[owner].serve[w].push((slot, row));
                    }
                }
            }
        }
        for p in &mut plans {
            p.serve.iter_mut().for_each(|s| s.sort_unstable());
            p.remote_edges.sort_unstable();
            p.remote_edges_by_owner
                .iter_mut()
                .for_each(|r| r.sort_unstable());
            let slot_idx: Vec<u32> = p.local_edges.iter().map(|&(s, _)| s).collect();
            p.local_rows = p.local_edges.iter().map(|&(_, r)| r).collect();
            p.local_plan = Arc::new(ScatterPlan::new(&slot_idx, p.num_slots));
        }
        for w in 0..k {
            for p in (0..k).filter(|&p| p != w) {
                let mut slots: Vec<u32> = plans[w].serve[p].iter().map(|&(s, _)| s).collect();
                slots.dedup();
                let mut rows: Vec<u32> = plans[w].serve[p].iter().map(|&(_, r)| r).collect();
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

    #[test]
    fn plans_equal_the_edge_by_edge_reference() {
        use flexgraph_graph::gen::{community, hetero_imdb};
        use flexgraph_graph::metapath::Metapath;
        use flexgraph_hdg::build::from_metapaths;
        // Flat HDGs: slots are groups, partial aggregates usually win.
        let flat = community(150, 3, 5, 2, 6, 77);
        // Multi-leaf instances: slots are instances, raw rows often win.
        let hetero = hetero_imdb(120, 2, 3, 6, 52);
        let typed = hetero.typed();
        let metapaths = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
        for k in [1, 2, 3, 5] {
            let g = &flat.graph;
            let part = hash_partition(g, k);
            let shards = make_shards(g.num_vertices(), &flat.features, &part, |r| {
                from_direct_neighbors(g, r.to_vec())
            });
            assert_eq!(build_leaf_sync(&shards), edge_by_edge_reference(&shards));

            let g = &hetero.graph;
            let part = hash_partition(g, k);
            let shards = make_shards(g.num_vertices(), &hetero.features, &part, |r| {
                from_metapaths(&typed, r.to_vec(), &metapaths, 0)
            });
            let plans = build_leaf_sync(&shards);
            assert_eq!(plans, edge_by_edge_reference(&shards));
            if k > 1 {
                let raw = plans.iter().flat_map(|p| &p.partial_to).filter(|&&x| !x);
                assert!(raw.count() > 0, "k={k}: the raw wire form is exercised");
            }
        }
    }

    /// A plan that serves `serve` and nothing else.
    fn serving(serve: Vec<Vec<(u32, u32)>>) -> LeafSync {
        let k = serve.len();
        let distinct = |mut xs: Vec<u32>| {
            xs.sort_unstable();
            xs.dedup();
            xs
        };
        LeafSync {
            partial_rows: serve
                .iter()
                .map(|s| distinct(s.iter().map(|&(slot, _)| slot).collect()).len())
                .collect(),
            raw_rows: serve
                .iter()
                .map(|s| distinct(s.iter().map(|&(_, row)| row).collect()))
                .collect(),
            serve,
            ..blank(k, SlotLevel::Groups, 0)
        }
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
    /// and an f32 matrix, then encode.
    fn two_step_partials(sync: &LeafSync, feats: &Tensor, p: usize, d: usize) -> Vec<u8> {
        let mut ids: Vec<u32> = Vec::new();
        let mut flat: Vec<f32> = Vec::new();
        for &(slot, row) in &sync.serve[p] {
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
        sync: &LeafSync,
        feats: &Tensor,
        roots: &[VertexId],
        p: usize,
        d: usize,
    ) -> Vec<u8> {
        let mut rows: Vec<u32> = sync.serve[p].iter().map(|&(_, r)| r).collect();
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
            let sync = serving(serve);
            for p in 0..sync.serve.len() {
                let partials = encode_partials(&sync, &feats, p, d);
                prop_assert_eq!(partials.as_ref(), &two_step_partials(&sync, &feats, p, d)[..]);
                let raw = encode_raw_rows(&sync, &feats, &roots, p, d);
                prop_assert_eq!(raw.as_ref(), &two_step_raw_rows(&sync, &feats, &roots, p, d)[..]);
                for (msg, rows) in [(&partials, sync.partial_rows[p]), (&raw, sync.raw_rows[p].len())] {
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
