//! The SAGA-NN (GAS-like) baseline's neighbor selection (paper §2.3).
//!
//! NeuGraph's SAGA-NN splits a GNN layer into Scatter / ApplyEdge /
//! Gather / ApplyVertex. DGL, PyG and Euler all execute aggregation this
//! way: per-edge messages are *materialized* before reduction — which is
//! [`crate::hybrid`]'s SA strategy over the direct neighbors. This module
//! adds the part the paper calls out in §7.1: PinSage's random walks
//! "simulated with several graph propagation stages", which is where GAS
//! systems spend over 95 % of their epoch time.

use crate::memory::{EngineError, MemoryBudget};
use flexgraph_graph::walk::WalkConfig;
use flexgraph_graph::{Graph, VertexId};
use flexgraph_tensor::scatter::{scatter_add_with_plan, ScatterPlan};
use flexgraph_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of the GAS-simulated random-walk selection.
pub struct GasWalkOutcome {
    /// Top-k visited vertices per root (PinSage's "neighbors").
    pub neighbors: Vec<Vec<VertexId>>,
    /// Peak transient bytes (the per-hop edge message buffers).
    pub peak_transient_bytes: usize,
}

/// PinSage neighbor selection the GAS way (§7.1): every hop is a full
/// edge-centric propagation stage that materializes a per-edge walker
/// buffer, instead of FlexGraph's direct per-root adjacency hops.
///
/// Semantics match uniform random walks — each walker picks a uniform
/// out-edge per hop — but the *execution* sweeps all edges each hop and
/// allocates `|E| × num_traces` floats of "edge messages", reproducing
/// the cost profile the paper measures for DGL/PyTorch PinSage.
pub fn gas_walk_neighbors(
    graph: &Graph,
    cfg: &WalkConfig,
    seed: u64,
    budget: &MemoryBudget,
) -> Result<GasWalkOutcome, EngineError> {
    let n = graph.num_vertices();
    let e = graph.num_edges();
    let t = cfg.num_traces;
    let mut rng = StdRng::seed_from_u64(seed);

    let msg_bytes = e.max(1) * t * std::mem::size_of::<f32>();
    budget.check(msg_bytes)?;

    // walker_pos[origin * t + trace] = current vertex (u32::MAX = dead).
    let mut walker_pos: Vec<VertexId> = (0..n as VertexId)
        .flat_map(|v| std::iter::repeat_n(v, t))
        .collect();
    let mut visit_counts: Vec<std::collections::HashMap<VertexId, u32>> =
        vec![std::collections::HashMap::new(); n];

    // The per-edge destination index in CSR order (the COO index tensor
    // every propagation stage consumes).
    let mut dst_edge_order = vec![0u32; e.max(1)];
    let mut cursor = 0usize;
    for v in 0..n as VertexId {
        for &d in graph.out_neighbors(v) {
            dst_edge_order[cursor] = d;
            cursor += 1;
        }
    }
    // One plan for all (hop, trace) propagation stages — the stage index
    // never changes, so the sort is paid once.
    let stage_plan = ScatterPlan::new(&dst_edge_order, n.max(1));

    // Each (hop, trace) is one full Scatter → ApplyEdge → Gather
    // propagation stage over ALL edges: a per-edge message tensor is
    // allocated and written, then reduced by destination. This is the
    // execution shape of "simulating random walks with several graph
    // propagation stages of SAGA-NN" (§2.3/§7.1) and where GAS systems
    // spend >95 % of a PinSage epoch — FlexGraph's direct walks touch
    // only the vertices actually visited.
    for _hop in 0..cfg.n_hops {
        for trace in 0..t {
            // Scatter/ApplyEdge: one message row per edge.
            let mut edge_messages = vec![0.0f32; e.max(1)];
            for origin in 0..n {
                let w = origin * t + trace;
                let pos = walker_pos[w];
                if pos == VertexId::MAX {
                    continue;
                }
                let nbrs = graph.out_neighbors(pos);
                if nbrs.is_empty() {
                    walker_pos[w] = VertexId::MAX;
                    continue;
                }
                let c = rng.gen_range(0..nbrs.len());
                let dst = nbrs[c];
                let edge = graph.out_offsets()[pos as usize] + c;
                edge_messages[edge] += 1.0;
                walker_pos[w] = dst;
                *visit_counts[origin].entry(dst).or_insert(0) += 1;
            }
            // Gather: reduce the edge tensor into per-vertex counts.
            let msg_tensor = Tensor::from_vec(e.max(1), 1, edge_messages);
            let visit_tensor = scatter_add_with_plan(&msg_tensor, &stage_plan);
            std::hint::black_box(&visit_tensor);
        }
    }

    let neighbors = visit_counts
        .into_iter()
        .enumerate()
        .map(|(v, counts)| {
            let mut c: Vec<(VertexId, u32)> = counts
                .into_iter()
                .filter(|&(u, _)| u as usize != v)
                .collect();
            c.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            c.truncate(cfg.top_k);
            c.into_iter().map(|(u, _)| u).collect()
        })
        .collect();

    Ok(GasWalkOutcome {
        neighbors,
        peak_transient_bytes: msg_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::walk::importance_neighbors_all;

    #[test]
    fn gas_walks_produce_valid_neighbor_sets() {
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 20,
            n_hops: 3,
            top_k: 3,
        };
        let out = gas_walk_neighbors(&g, &cfg, 5, &MemoryBudget::unlimited()).unwrap();
        assert_eq!(out.neighbors.len(), 9);
        for (v, nbrs) in out.neighbors.iter().enumerate() {
            assert!(nbrs.len() <= 3);
            assert!(!nbrs.contains(&(v as VertexId)));
        }
        assert!(out.peak_transient_bytes >= g.num_edges() * 20 * 4);
    }

    #[test]
    fn gas_walks_and_direct_walks_agree_statistically() {
        // Both implementations sample the same uniform-walk process. On a
        // hub graph where every walk from a leaf must pass the hub, the
        // top-1 selection is unambiguous and must coincide exactly.
        let mut b = flexgraph_graph::GraphBuilder::new(7);
        for v in 1..7u32 {
            b.add_undirected(0, v);
        }
        let g = b.build();
        let cfg = WalkConfig {
            num_traces: 200,
            n_hops: 2,
            top_k: 1,
        };
        let gas = gas_walk_neighbors(&g, &cfg, 1, &MemoryBudget::unlimited()).unwrap();
        let direct = importance_neighbors_all(&g, &cfg, 1);
        for v in 1..7usize {
            assert_eq!(gas.neighbors[v].first(), Some(&0), "gas leaf {v} picks hub");
            assert_eq!(direct[v].first(), Some(&0), "direct leaf {v} picks hub");
        }
    }

    #[test]
    fn gas_walks_respect_budget() {
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 100,
            n_hops: 1,
            top_k: 1,
        };
        let r = gas_walk_neighbors(&g, &cfg, 0, &MemoryBudget { bytes: 16 });
        assert!(matches!(r, Err(EngineError::Oom { .. })));
    }
}
