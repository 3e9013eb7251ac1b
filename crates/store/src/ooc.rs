//! Out-of-core HDG construction and the partitioned forward driver.
//!
//! Both builders *are* the in-RAM selections: `hdg::build`'s
//! `select_direct_neighbors` and `select_hop_shells` (and the walk under
//! the latter, `bfs::HopScratch`) are generic over `bfs::Adjacency`,
//! which [`PagedGraph`] implements by reading neighbors in place from
//! pinned segments. Same code, same schema, same push order, same leaf
//! order — so on any graph that fits both ways the HDGs (and therefore
//! every aggregation over them) are bitwise identical.
//!
//! [`forward_out_of_core`] then runs an engine forward pass one root
//! partition at a time: build the partition's HDG against the store,
//! remap its leaves onto the partition's sorted-unique leaf set,
//! materialize only those feature rows, aggregate, and concatenate.
//! The remap is order-preserving and features are supplied by a pure
//! per-vertex function, so every kernel sees the same values in the
//! same per-root order as the whole-graph in-RAM pass — bitwise parity,
//! regardless of partition size, cache budget, or thread count.

use crate::err::StoreError;
use crate::paged::PagedGraph;
use flexgraph_engine::{hierarchical_aggregate, AggrPlan, AggrResult, MemoryBudget, Strategy};
use flexgraph_graph::bfs::HopScratch;
use flexgraph_graph::csr::VertexId;
use flexgraph_hdg::build::{select_direct_neighbors, select_hop_shells};
use flexgraph_hdg::{Hdg, HdgBuilder};
use flexgraph_tensor::Tensor;

/// Which neighborhood the out-of-core builders materialize per root.
#[derive(Clone, Copy, Debug)]
pub enum Neighborhood {
    /// GCN-style direct in-neighbors (`hdg::build::from_direct_neighbors`).
    Direct,
    /// JK-Net-style exact-hop shells with the serving path's sampling
    /// cap (`hdg::build::from_hop_shells_capped`); `cap = 0` = uncapped.
    HopShells {
        /// Number of shells.
        k: usize,
        /// Per-shell sampling cap (0 = uncapped).
        cap: usize,
        /// Sampling seed.
        seed: u64,
    },
}

/// Exact-hop-distance shells `1..=k` from `root`, each sorted
/// ascending — `bfs::hop_shells` over the paged store: the same
/// depth-bounded frontier walk, reading out-neighbors from pinned
/// segments.
pub fn paged_hop_shells(
    pg: &PagedGraph,
    root: VertexId,
    k: usize,
) -> Result<Vec<Vec<VertexId>>, StoreError> {
    HopScratch::new().shells(pg, root, k)
}

/// The NeighborSelection of `roots` for `nbr`: the in-RAM selection,
/// run against the store.
fn select(
    pg: &PagedGraph,
    roots: Vec<VertexId>,
    nbr: &Neighborhood,
) -> Result<HdgBuilder, StoreError> {
    match *nbr {
        Neighborhood::Direct => select_direct_neighbors(pg, roots),
        Neighborhood::HopShells { k, cap, seed } => select_hop_shells(pg, roots, k, cap, seed),
    }
}

/// GCN-style HDG over the paged store — bitwise-identical to
/// `hdg::build::from_direct_neighbors` on the rehydrated graph.
pub fn hdg_from_direct_neighbors(pg: &PagedGraph, roots: Vec<VertexId>) -> Result<Hdg, StoreError> {
    hdg_for(pg, roots, &Neighborhood::Direct)
}

/// Capped hop-shell HDG over the paged store — bitwise-identical to
/// `hdg::build::from_hop_shells_capped` on the rehydrated graph.
pub fn hdg_from_hop_shells_capped(
    pg: &PagedGraph,
    roots: Vec<VertexId>,
    k: usize,
    cap: usize,
    seed: u64,
) -> Result<Hdg, StoreError> {
    hdg_for(pg, roots, &Neighborhood::HopShells { k, cap, seed })
}

/// Builds the HDG for `roots` with leaves in **global** vertex ids.
pub fn hdg_for(
    pg: &PagedGraph,
    roots: Vec<VertexId>,
    nbr: &Neighborhood,
) -> Result<Hdg, StoreError> {
    Ok(select(pg, roots, nbr)?.build())
}

/// One partition's built HDG with leaves remapped onto its private
/// feature-row space.
struct PartitionHdg {
    hdg: Hdg,
    /// Sorted-unique global leaf vertices; row `i` of the partition's
    /// feature matrix is vertex `needed[i]`.
    needed: Vec<VertexId>,
}

/// Builds the partition HDG with leaves remapped to local row indices.
/// The remap is monotone (sorted-unique), so leaf order inside every
/// instance and group is preserved — the aggregation kernels walk the
/// same per-root chains as over the global-id HDG.
fn partition_hdg(
    pg: &PagedGraph,
    roots: &[VertexId],
    nbr: &Neighborhood,
) -> Result<PartitionHdg, StoreError> {
    let mut b = select(pg, roots.to_vec(), nbr)?;
    let mut needed = b.leaves().to_vec();
    needed.sort_unstable();
    needed.dedup();
    for leaf in b.leaves_mut() {
        *leaf = needed.binary_search(leaf).expect("leaf in needed set") as VertexId;
    }
    Ok(PartitionHdg {
        hdg: b.build(),
        needed,
    })
}

/// Runs a full forward aggregation over the paged store, one partition
/// of `partition_size` roots at a time, holding only each partition's
/// HDG and leaf features in RAM. `feat_fn` supplies vertex features and
/// must be pure — row `v` must not depend on when or how often it is
/// asked. Returns the `(roots.len(), dim)` result, bitwise-identical to
/// [`hierarchical_aggregate`] over the in-RAM graph and full feature
/// matrix, with `peak_transient_bytes` the maximum over partitions.
///
/// Emits one `pgc` trace record (the cache counters for the whole
/// pass) when an `obs` session is active.
#[allow(clippy::too_many_arguments)]
pub fn forward_out_of_core(
    pg: &PagedGraph,
    roots: &[VertexId],
    nbr: &Neighborhood,
    partition_size: usize,
    feat_fn: &dyn Fn(VertexId) -> Vec<f32>,
    dim: usize,
    plan: &AggrPlan,
    strategy: Strategy,
    budget: &MemoryBudget,
) -> Result<AggrResult, StoreError> {
    assert!(partition_size > 0, "partition_size must be positive");
    let mut out = Tensor::zeros(roots.len(), dim);
    let mut peak = 0usize;
    for (p, chunk) in roots.chunks(partition_size).enumerate() {
        let part = partition_hdg(pg, chunk, nbr)?;
        let mut rows = Vec::with_capacity(part.needed.len() * dim);
        for &v in &part.needed {
            let row = feat_fn(v);
            assert_eq!(row.len(), dim, "feat_fn returned a wrong-width row");
            rows.extend_from_slice(&row);
        }
        let feats = Tensor::from_vec(part.needed.len(), dim, rows);
        let res = hierarchical_aggregate(&part.hdg, &feats, plan, strategy, budget)?;
        peak = peak.max(res.peak_transient_bytes);
        let base = p * partition_size;
        for r in 0..chunk.len() {
            out.row_mut(base + r).copy_from_slice(res.features.row(r));
        }
    }
    flexgraph_obs::emit_page_cache(&pg.cache_stats());
    Ok(AggrResult {
        features: out,
        peak_transient_bytes: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_graph;
    use flexgraph_engine::AggrOp;
    use flexgraph_graph::gen;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("flexgraph-store-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn paged_rmat(name: &str, scale: u32, seed: u64, segv: u32) -> (gen::Dataset, PagedGraph) {
        let ds = gen::rmat(scale, 5, 3, 4, seed, name);
        let path = tmp(&format!("{name}.fgps"));
        write_graph(&ds.graph, &path, segv).unwrap();
        let pg = PagedGraph::open(&path, MemoryBudget::unlimited()).unwrap();
        (ds, pg)
    }

    #[test]
    fn paged_hop_shells_match_in_ram_bfs() {
        let (ds, pg) = paged_rmat("ooc_shells", 7, 11, 25);
        for root in [0u32, 5, 77, 127] {
            let want = flexgraph_graph::bfs::hop_shells(&ds.graph, root, 3);
            let got = paged_hop_shells(&pg, root, 3).unwrap();
            assert_eq!(got, want, "root {root}");
        }
    }

    #[test]
    fn paged_hdgs_match_in_ram_builders() {
        let (ds, pg) = paged_rmat("ooc_hdg", 7, 3, 33);
        let roots: Vec<u32> = (0..ds.graph.num_vertices() as u32).step_by(9).collect();

        let want = flexgraph_hdg::build::from_direct_neighbors(&ds.graph, roots.clone());
        let got = hdg_from_direct_neighbors(&pg, roots.clone()).unwrap();
        assert_eq!(got.leaf_sources(), want.leaf_sources());
        assert_eq!(got.inst_offsets(), want.inst_offsets());
        assert_eq!(got.group_offsets(), want.group_offsets());

        let want = flexgraph_hdg::build::from_hop_shells_capped(&ds.graph, roots.clone(), 2, 3, 42);
        let got = hdg_from_hop_shells_capped(&pg, roots, 2, 3, 42).unwrap();
        assert_eq!(got.leaf_sources(), want.leaf_sources());
        assert_eq!(got.inst_offsets(), want.inst_offsets());
        assert_eq!(got.group_offsets(), want.group_offsets());
    }

    /// A repeated root is selected once per occurrence, in RAM and
    /// paged alike (one shared constructor, rank from the caller).
    #[test]
    fn duplicate_roots_each_get_their_own_instances() {
        let (ds, pg) = paged_rmat("ooc_dup", 7, 5, 29);
        let hub = (0..ds.graph.num_vertices() as u32)
            .max_by_key(|&v| ds.graph.in_degree(v))
            .unwrap();
        let roots = vec![hub, 3, hub];
        for nbr in [
            Neighborhood::Direct,
            Neighborhood::HopShells {
                k: 2,
                cap: 3,
                seed: 42,
            },
        ] {
            let got = hdg_for(&pg, roots.clone(), &nbr).unwrap();
            let solo = hdg_for(&pg, vec![hub], &nbr).unwrap();
            assert!(solo.num_instances() > 0);
            for r in [0, 2] {
                assert_eq!(got.instances_of_root(r), solo.num_instances(), "{nbr:?}");
                assert_eq!(got.root_leaf_sources(r), solo.leaf_sources(), "{nbr:?}");
            }
        }
    }

    #[test]
    fn partitioned_forward_is_bitwise_identical() {
        let (ds, pg) = paged_rmat("ooc_fwd", 7, 19, 21);
        let n = ds.graph.num_vertices();
        let roots: Vec<u32> = (0..n as u32).collect();
        let plan = AggrPlan::flat(AggrOp::Sum);
        let feat_fn = |v: VertexId| ds.features.row(v as usize).to_vec();

        for nbr in [
            Neighborhood::Direct,
            Neighborhood::HopShells {
                k: 2,
                cap: 4,
                seed: 7,
            },
        ] {
            let in_ram = match nbr {
                Neighborhood::Direct => {
                    flexgraph_hdg::build::from_direct_neighbors(&ds.graph, roots.clone())
                }
                Neighborhood::HopShells { k, cap, seed } => {
                    flexgraph_hdg::build::from_hop_shells_capped(
                        &ds.graph,
                        roots.clone(),
                        k,
                        cap,
                        seed,
                    )
                }
            };
            let want = hierarchical_aggregate(
                &in_ram,
                &ds.features,
                &plan,
                Strategy::SaFa,
                &MemoryBudget::unlimited(),
            )
            .unwrap();
            for part_size in [n, 17, 64] {
                let got = forward_out_of_core(
                    &pg,
                    &roots,
                    &nbr,
                    part_size,
                    &feat_fn,
                    ds.feature_dim(),
                    &plan,
                    Strategy::SaFa,
                    &MemoryBudget::unlimited(),
                )
                .unwrap();
                assert_eq!(
                    got.features.data(),
                    want.features.data(),
                    "partition size {part_size}, {nbr:?}"
                );
            }
        }
    }
}
