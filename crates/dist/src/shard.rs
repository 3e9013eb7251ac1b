//! Per-worker shards of a partitioned dataset.
//!
//! FlexGraph replicates the (read-only) graph structure to every worker —
//! as the paper's DFS-backed storage layer does — while *features* are
//! sharded by vertex ownership: each worker holds the feature rows of the
//! vertices its partition owns, and every cross-partition feature access
//! goes through the comm fabric.
//!
//! The shards of one [`make_shards`] / [`make_shards_paged`] call are a
//! **set**: they share the ownership map, the vertex → feature-row table
//! and one cell holding the set's [`LeafSync`] plans. The plans depend
//! only on the HDGs and the ownership map, so they are built once — by
//! the first epoch that runs on the set ([`leaf_sync_plans`]) — and every
//! later layer and epoch reads them. A new NeighborSelection or an ADB
//! migration carves a new set, which is the only invalidation there is.

use crate::pipeline::{build_leaf_sync, LeafSync};
use flexgraph_graph::{Partitioning, VertexId};
use flexgraph_hdg::Hdg;
use flexgraph_store::ooc::{hdg_for, Neighborhood};
use flexgraph_store::{PagedGraph, StoreError};
use flexgraph_tensor::Tensor;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// One worker's slice of the problem.
#[derive(Clone)]
pub struct Shard {
    /// Worker rank.
    pub rank: usize,
    /// Owned vertices, ascending (both roots of the local HDGs and owners
    /// of the local feature rows).
    pub roots: Vec<VertexId>,
    /// HDGs of the owned roots.
    pub hdg: Arc<Hdg>,
    /// Feature rows of the owned vertices, in `roots` order.
    pub feats: Tensor,
    /// Global vertex → owning worker map (shared, read-only).
    pub owner: Arc<Vec<u32>>,
    /// Global vertex → feature row on its owner (shared, read-only).
    row_on_owner: Arc<Vec<u32>>,
    /// What the shards of one carving share; clones keep sharing it.
    set: Arc<ShardSet>,
}

/// Size and lazily built leaf-sync plans of one shard set.
struct ShardSet {
    k: usize,
    plans: OnceLock<Vec<LeafSync>>,
}

impl Shard {
    /// Local feature row index of an owned vertex.
    pub fn row_of(&self, v: VertexId) -> u32 {
        debug_assert_eq!(self.owner[v as usize] as usize, self.rank, "not owned");
        self.row_on_owner[v as usize]
    }

    /// Feature row of `v` on whichever worker owns it.
    pub(crate) fn row_on_owner(&self, v: VertexId) -> u32 {
        self.row_on_owner[v as usize]
    }
}

/// The leaf-sync plans of a shard set, one per rank: built by the first
/// call on the set with [`build_leaf_sync`], the same allocation ever
/// after (also through clones of the shards).
///
/// # Panics
///
/// Panics unless `shards` is the whole set of one [`make_shards`] /
/// [`make_shards_paged`] call in rank order — a sub-slice, a reordered
/// slice or a mix of two carvings has no plan of its own, and there is
/// deliberately no rebuild path behind this one.
pub fn leaf_sync_plans(shards: &[Shard]) -> &[LeafSync] {
    let set = &shards.first().expect("at least one shard").set;
    let whole = shards.len() == set.k
        && shards
            .iter()
            .enumerate()
            .all(|(i, s)| s.rank == i && Arc::ptr_eq(&s.set, set));
    assert!(
        whole,
        "an epoch runs on the whole shard set of one make_shards call, in rank order \
         (got ranks {:?} where the first shard's set has {} shards)",
        shards.iter().map(|s| s.rank).collect::<Vec<_>>(),
        set.k
    );
    set.plans.get_or_init(|| build_leaf_sync(shards))
}

/// Carves one shard per part of `part`; `build` returns the HDG and the
/// feature rows of a root set.
fn carve<E>(
    part: &Partitioning,
    mut build: impl FnMut(&[VertexId]) -> Result<(Hdg, Tensor), E>,
) -> Result<Vec<Shard>, E> {
    let owner: Arc<Vec<u32>> = Arc::new(part.assignment.clone());
    let members = part.members();
    let mut rows = vec![0u32; owner.len()];
    for roots in &members {
        for (i, &v) in roots.iter().enumerate() {
            rows[v as usize] = i as u32;
        }
    }
    let row_on_owner = Arc::new(rows);
    let set = Arc::new(ShardSet {
        k: members.len(),
        plans: OnceLock::new(),
    });
    members
        .into_iter()
        .enumerate()
        .map(|(rank, roots)| {
            let (hdg, feats) = build(&roots)?;
            Ok(Shard {
                rank,
                roots,
                hdg: Arc::new(hdg),
                feats,
                owner: owner.clone(),
                row_on_owner: row_on_owner.clone(),
                set: set.clone(),
            })
        })
        .collect()
}

/// Carves shards out of a dataset: one per part of `part`, with HDGs
/// built by `build_hdg` over each worker's root set.
pub fn make_shards(
    num_vertices: usize,
    feats: &Tensor,
    part: &Partitioning,
    build_hdg: impl Fn(&[VertexId]) -> Hdg,
) -> Vec<Shard> {
    assert_eq!(
        part.assignment.len(),
        num_vertices,
        "partitioning covers all vertices"
    );
    carve(part, |roots| {
        let hdg = build_hdg(roots);
        let mut local = Tensor::zeros(roots.len(), feats.cols());
        for (i, &v) in roots.iter().enumerate() {
            local.row_mut(i).copy_from_slice(feats.row(v as usize));
        }
        Ok::<_, Infallible>((hdg, local))
    })
    .unwrap_or_else(|never| match never {})
}

/// Carves shards out of a **paged** (out-of-core) graph: the structure
/// stays on disk behind the store's page cache, each worker's HDG is
/// built one shard at a time against it, and feature rows come from the
/// pure `feat_fn` — nothing graph-sized is ever resident. Shards come
/// out identical to [`make_shards`] over the rehydrated graph (same
/// roots, same HDG arrays, same feature rows), since the paged HDGs come
/// from `hdg::build`'s own selections run against the store — the
/// property the `paged_store_parity` suite pins.
pub fn make_shards_paged(
    pg: &PagedGraph,
    part: &Partitioning,
    nbr: &Neighborhood,
    feat_fn: &dyn Fn(VertexId) -> Vec<f32>,
    dim: usize,
) -> Result<Vec<Shard>, StoreError> {
    assert_eq!(
        part.assignment.len(),
        pg.num_vertices(),
        "partitioning covers all vertices"
    );
    carve(part, |roots| {
        let hdg = hdg_for(pg, roots.to_vec(), nbr)?;
        let mut local = Tensor::zeros(roots.len(), dim);
        for (i, &v) in roots.iter().enumerate() {
            let row = feat_fn(v);
            assert_eq!(row.len(), dim, "feat_fn returned a wrong-width row");
            local.row_mut(i).copy_from_slice(&row);
        }
        Ok((hdg, local))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;

    #[test]
    fn shards_partition_features_and_roots() {
        let g = sample_graph();
        let feats = Tensor::from_vec(9, 2, (0..18).map(|i| i as f32).collect());
        let part = hash_partition(&g, 3);
        let shards = make_shards(9, &feats, &part, |roots| {
            from_direct_neighbors(&g, roots.to_vec())
        });
        assert_eq!(shards.len(), 3);
        let total: usize = shards.iter().map(|s| s.roots.len()).sum();
        assert_eq!(total, 9);
        for s in &shards {
            for (i, &v) in s.roots.iter().enumerate() {
                assert_eq!(s.row_of(v), i as u32);
                assert_eq!(s.feats.row(i), feats.row(v as usize));
                assert_eq!(s.owner[v as usize] as usize, s.rank);
            }
            assert_eq!(s.hdg.num_roots(), s.roots.len());
        }
    }

    #[test]
    fn paged_shards_match_in_ram_shards() {
        let ds = flexgraph_graph::gen::rmat(6, 4, 3, 4, 17, "paged_shards");
        let g = &ds.graph;
        let dir = std::env::temp_dir().join("flexgraph-dist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paged_shards.fgps");
        flexgraph_store::write_graph(g, &path, 11).unwrap();
        let pg = PagedGraph::open(&path, flexgraph_engine::MemoryBudget::unlimited()).unwrap();

        let part = hash_partition(g, 4);
        let in_ram = make_shards(g.num_vertices(), &ds.features, &part, |roots| {
            from_direct_neighbors(g, roots.to_vec())
        });
        let feat_fn = |v: VertexId| ds.features.row(v as usize).to_vec();
        let paged = make_shards_paged(
            &pg,
            &part,
            &Neighborhood::Direct,
            &feat_fn,
            ds.features.cols(),
        )
        .unwrap();

        assert_eq!(in_ram.len(), paged.len());
        for (a, b) in in_ram.iter().zip(&paged) {
            assert_eq!(a.roots, b.roots);
            assert_eq!(a.feats.data(), b.feats.data(), "rank {}", a.rank);
            assert_eq!(a.hdg.leaf_sources(), b.hdg.leaf_sources());
            assert_eq!(a.hdg.inst_offsets(), b.hdg.inst_offsets());
            assert_eq!(a.hdg.group_offsets(), b.hdg.group_offsets());
            assert_eq!(a.owner, b.owner);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
