//! Breadth-first traversal utilities.
//!
//! Used in three places: the ADB balancer's migration-candidate selection
//! walks partitions in BFS order (paper §5), JK-Net's "neighbors" are
//! exact-hop-distance shells (§3.2), and the mini-batch baseline expands
//! full k-hop neighborhoods (§7.1).

use crate::csr::{Graph, VertexId};
use std::collections::VecDeque;
use std::convert::Infallible;

/// Vertices in BFS order from `seed`, restricted to `allowed` (when
/// given). Unreachable vertices are omitted.
pub fn bfs_order(g: &Graph, seed: VertexId, allowed: Option<&[bool]>) -> Vec<VertexId> {
    let n = g.num_vertices();
    let ok = |v: VertexId| allowed.is_none_or(|a| a[v as usize]);
    if !ok(seed) {
        return Vec::new();
    }
    let mut seen = vec![false; n];
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    seen[seed as usize] = true;
    q.push_back(seed);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for &u in g.out_neighbors(v) {
            if !seen[u as usize] && ok(u) {
                seen[u as usize] = true;
                q.push_back(u);
            }
        }
    }
    order
}

/// Hop distance from `seed` to every vertex (`u32::MAX` = unreachable).
/// A whole-graph BFS; the hop-shell walk below is tested against it.
pub fn hop_distances(g: &Graph, seed: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    dist[seed as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(seed);
    while let Some(v) = q.pop_front() {
        let d = dist[v as usize];
        for &u in g.out_neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// The adjacency NeighborSelection runs over: one vertex's out- or
/// in-neighbours, fallibly. The in-RAM [`Graph`] cannot fail
/// (`Error = Infallible`); a paged store fails with its own error, and
/// the selection passes that error through.
pub trait Adjacency {
    /// What a neighbour lookup can fail with.
    type Error;

    /// Number of vertices; ids handed to `visit` are below it.
    fn num_vertices(&self) -> usize;

    /// Calls `visit` on every out-neighbour of `v`.
    fn for_each_out(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), Self::Error>;

    /// Calls `visit` on every in-neighbour of `v`, in stored order.
    fn for_each_in(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), Self::Error>;
}

impl Adjacency for Graph {
    type Error = Infallible;

    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn for_each_out(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), Infallible> {
        self.out_neighbors(v).iter().copied().for_each(visit);
        Ok(())
    }

    fn for_each_in(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), Infallible> {
        self.in_neighbors(v).iter().copied().for_each(visit);
        Ok(())
    }
}

/// Reusable state of the hop-shell walk, so that selecting for a batch
/// of roots allocates and clears nothing of size |V| per root.
///
/// `stamp[v] == epoch` means the current walk has reached `v`; starting
/// a walk bumps `epoch`, which un-visits every vertex at once. The
/// array (4·|V| bytes) is allocated on first use and zeroed again only
/// when the 32-bit epoch wraps.
#[derive(Default)]
pub struct HopScratch {
    stamp: Vec<u32>,
    epoch: u32,
    edges_scanned: u64,
    /// The level being expanded and the one being filled; both keep
    /// their capacity from walk to walk.
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
}

impl HopScratch {
    /// An empty scratch; it sizes itself to the first graph it walks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adjacency entries read by every walk so far — the walk's work,
    /// which is bounded by the degrees inside the `(k-1)`-hop ball of
    /// the seed, not by the graph.
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned
    }

    /// Lends `visit(i, shell)` the vertices at exactly hop distance
    /// `i + 1` from `seed` for `i` in `0..k`: each shell in ascending id
    /// order, empty once the reachable set is exhausted. A frontier walk
    /// that stops after `k` levels, in buffers the scratch keeps.
    ///
    /// A seed outside the graph is left to `g` to reject.
    pub fn for_each_shell<A: Adjacency>(
        &mut self,
        g: &A,
        seed: VertexId,
        k: usize,
        mut visit: impl FnMut(usize, &[VertexId]),
    ) -> Result<(), A::Error> {
        let n = g.num_vertices();
        if self.stamp.len() < n {
            self.stamp = vec![0; n];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        if let Some(s) = self.stamp.get_mut(seed as usize) {
            *s = epoch;
        }
        self.frontier.clear();
        self.frontier.push(seed);
        for depth in 0..k {
            self.next.clear();
            for &v in &self.frontier {
                g.for_each_out(v, |u| {
                    self.edges_scanned += 1;
                    let s = &mut self.stamp[u as usize];
                    if *s != epoch {
                        *s = epoch;
                        self.next.push(u);
                    }
                })?;
            }
            // Each sorted shell is the next level's frontier.
            self.next.sort_unstable();
            visit(depth, &self.next);
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        Ok(())
    }

    /// [`HopScratch::for_each_shell`], collected: `k` owned shells.
    pub fn shells<A: Adjacency>(
        &mut self,
        g: &A,
        seed: VertexId,
        k: usize,
    ) -> Result<Vec<Vec<VertexId>>, A::Error> {
        let mut shells = Vec::with_capacity(k);
        self.for_each_shell(g, seed, k, |_, shell| shells.push(shell.to_vec()))?;
        Ok(shells)
    }
}

/// The vertices at exactly hop distance `1..=k` from `seed`, one shell per
/// hop (JK-Net's k "neighbors"), each in ascending id order. Callers
/// selecting for many roots reuse one [`HopScratch`] instead.
pub fn hop_shells(g: &Graph, seed: VertexId, k: usize) -> Vec<Vec<VertexId>> {
    HopScratch::new()
        .shells(g, seed, k)
        .unwrap_or_else(|e| match e {})
}

/// All vertices within `k` hops of any seed (including the seeds), the
/// mini-batch expansion that explodes on dense graphs (paper §7.1).
pub fn k_hop_closure(g: &Graph, seeds: &[VertexId], k: usize) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    for &s in seeds {
        if dist[s as usize] == u32::MAX {
            dist[s as usize] = 0;
            q.push_back(s);
        }
    }
    let mut out = Vec::new();
    while let Some(v) = q.pop_front() {
        out.push(v);
        let d = dist[v as usize];
        if d as usize >= k {
            continue;
        }
        for &u in g.in_neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d + 1;
                q.push_back(u);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{graph_from_edges, sample_graph, GraphBuilder};
    use crate::gen;
    use proptest::prelude::*;

    fn path_graph() -> Graph {
        graph_from_edges(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        )
    }

    #[test]
    fn bfs_order_visits_reachable_once() {
        let g = path_graph();
        let order = bfs_order(&g, 2, None);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "no vertex repeats");
    }

    #[test]
    fn bfs_respects_allowed_mask() {
        let g = path_graph();
        let allowed = vec![true, true, false, true, true];
        let order = bfs_order(&g, 0, Some(&allowed));
        assert_eq!(order, vec![0, 1], "blocked vertex 2 cuts the path");
    }

    #[test]
    fn bfs_from_disallowed_seed_is_empty() {
        let g = path_graph();
        let allowed = vec![false; 5];
        assert!(bfs_order(&g, 0, Some(&allowed)).is_empty());
    }

    #[test]
    fn hop_distances_on_path() {
        let g = path_graph();
        assert_eq!(hop_distances(&g, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hop_shells_partition_reachable_vertices() {
        let g = sample_graph();
        let shells = hop_shells(&g, 0, 3);
        // Shell 1 = N(A) = {D,E,F,H}.
        let mut s1 = shells[0].clone();
        s1.sort_unstable();
        assert_eq!(s1, vec![3, 4, 5, 7]);
        // Shells are disjoint.
        let mut all: Vec<_> = shells.iter().flatten().copied().collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len);
    }

    /// The oracle: shells read off the whole-graph distance array, in
    /// vertex order — what `hop_shells` was before it became a bounded
    /// walk.
    fn shells_from_distances(g: &Graph, seed: VertexId, k: usize) -> Vec<Vec<VertexId>> {
        let mut shells = vec![Vec::new(); k];
        for (v, &d) in hop_distances(g, seed).iter().enumerate() {
            if d >= 1 && (d as usize) <= k {
                shells[d as usize - 1].push(v as VertexId);
            }
        }
        shells
    }

    /// `g` with a self-loop added on every third vertex.
    fn with_self_loops(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new(g.num_vertices());
        for (s, d) in g.edges() {
            b.add_edge(s, d);
        }
        for v in (0..g.num_vertices() as VertexId).step_by(3) {
            b.add_edge(v, v);
        }
        b.build()
    }

    /// Every root of `g`, every `k` in `0..=4`, through one scratch.
    fn assert_matches_oracle(g: &Graph, scratch: &mut HopScratch) {
        for seed in 0..g.num_vertices() as VertexId {
            for k in 0..=4 {
                let got = scratch.shells(g, seed, k).unwrap();
                assert_eq!(got, shells_from_distances(g, seed, k), "seed {seed} k {k}");
                assert_eq!(hop_shells(g, seed, k), got);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// R-MAT graphs have isolated vertices (empty shells from the
        /// first hop on), hubs, and at these sizes an eccentricity below
        /// 4, so trailing empty shells are exercised too.
        #[test]
        fn hop_shells_match_distances_on_rmat(
            scale in 3u32..7,
            edge_factor in 1usize..4,
            seed in 0u64..1000,
        ) {
            let g = gen::rmat(scale, edge_factor, 2, 2, seed, "t").graph;
            let mut scratch = HopScratch::new();
            assert_matches_oracle(&g, &mut scratch);
            assert_matches_oracle(&with_self_loops(&g), &mut scratch);
        }

        #[test]
        fn hop_shells_match_distances_on_community(
            n in 8usize..60,
            intra in 1usize..4,
            inter in 0usize..2,
            seed in 0u64..1000,
        ) {
            let g = gen::community(n, 2, intra, inter, 2, seed).graph;
            assert_matches_oracle(&g, &mut HopScratch::new());
        }
    }

    #[test]
    fn scratch_survives_epoch_wrap_around() {
        let g = gen::community(40, 2, 3, 1, 2, 7).graph;
        let mut scratch = HopScratch::new();
        scratch.shells(&g, 0, 2).unwrap();
        // Two walks before the wrap, the wrap itself, and walks after:
        // stamps written at the old epochs must never read as visited.
        scratch.epoch = u32::MAX - 2;
        assert_matches_oracle(&g, &mut scratch);
        assert!(scratch.epoch < u32::MAX - 2, "the epoch wrapped");
    }

    #[test]
    fn walk_scans_only_the_ball_not_the_graph() {
        // A 100 000-vertex ring: every vertex has degree 2.
        let n = 100_000u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_undirected(v, (v + 1) % n);
        }
        let g = b.build();
        let (seed, k) = (n / 2, 2);
        let mut scratch = HopScratch::new();
        let shells = scratch.shells(&g, seed, k).unwrap();
        assert_eq!(
            shells,
            vec![vec![seed - 1, seed + 1], vec![seed - 2, seed + 2]]
        );
        // The walk expands the seed and shells 1..k-1: the (k-1)-ball.
        let ball_degrees: usize = std::iter::once(seed)
            .chain(shells[..k - 1].iter().flatten().copied())
            .map(|v| g.out_degree(v))
            .sum();
        assert!(scratch.edges_scanned() <= ball_degrees as u64);
        assert_eq!(scratch.edges_scanned(), 6);
    }

    #[test]
    fn k_hop_closure_grows_with_k() {
        let g = sample_graph();
        let c1 = k_hop_closure(&g, &[0], 1);
        let c2 = k_hop_closure(&g, &[0], 2);
        assert!(c1.len() < c2.len());
        assert!(c1.contains(&0));
        assert_eq!(c1.len(), 5, "A plus its four 1-hop neighbors");
    }

    #[test]
    fn k_hop_closure_merges_seed_frontiers() {
        let g = path_graph();
        let c = k_hop_closure(&g, &[0, 4], 1);
        let mut c = c;
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 3, 4]);
    }
}
