//! Graph partitioners and partition-quality metrics.
//!
//! FlexGraph partitions vertices offline with a conventional partitioner
//! (Hash or PulP, paper §6) and later *re*-balances online with the
//! application-driven ADB strategy (implemented in `flexgraph-dist`).
//! This module provides the offline partitioners and the quality metrics
//! the evaluation reports (Figure 15a).

use crate::csr::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An assignment of every vertex to one of `k` parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    /// `assignment[v]` is the part owning vertex `v`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub k: usize,
}

impl Partitioning {
    /// Builds from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any part id is `>= k`.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < k),
            "part id out of range"
        );
        Self { assignment, k }
    }

    /// Part of vertex `v`.
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// The vertices of each part.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut m = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            m[p as usize].push(v as VertexId);
        }
        m
    }

    /// Number of edges crossing parts.
    pub fn edge_cut(&self, g: &Graph) -> usize {
        g.edges()
            .filter(|&(s, d)| self.part_of(s) != self.part_of(d))
            .count()
    }

    /// Load imbalance of arbitrary per-part loads: `max / mean` (1.0 is
    /// perfectly balanced). Returns 1.0 when total load is zero.
    pub fn imbalance(loads: &[f64]) -> f64 {
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / loads.len() as f64;
        loads.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Hash partitioning: vertex id modulo `k` (the paper's Hash baseline).
pub fn hash_partition(g: &Graph, k: usize) -> Partitioning {
    assert!(k >= 1, "need at least one part");
    let assignment = (0..g.num_vertices())
        .map(|v| {
            // Multiplicative hash so that consecutive ids spread, like the
            // paper's hash partitioner (plain modulo would correlate with
            // generator structure).
            let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            (h % k as u64) as u32
        })
        .collect();
    Partitioning::new(assignment, k)
}

/// Balanced label propagation in the PuLP family.
///
/// Starts from a random balanced assignment and runs `iters` sweeps; each
/// vertex moves to the part holding the plurality of its neighbors unless
/// the move would push that part beyond `(1 + slack)` of the average size.
/// This mirrors PuLP's "degree-weighted label propagation with balance
/// constraints" at the fidelity the Figure 15a comparison needs: it
/// produces locality-aware but somewhat skew-prone partitions.
pub fn lp_partition(g: &Graph, k: usize, iters: usize, slack: f64, seed: u64) -> Partitioning {
    assert!(k >= 1, "need at least one part");
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
    let mut sizes = vec![0usize; k];
    for &p in &assignment {
        sizes[p as usize] += 1;
    }
    let cap = ((n as f64 / k as f64) * (1.0 + slack)).ceil() as usize;
    let mut tally = vec![0usize; k];
    for _ in 0..iters {
        let mut moved = 0usize;
        for v in 0..n as VertexId {
            let nbrs = g.out_neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            for t in tally.iter_mut() {
                *t = 0;
            }
            for &u in nbrs {
                tally[assignment[u as usize] as usize] += 1;
            }
            let cur = assignment[v as usize] as usize;
            let mut best = cur;
            for p in 0..k {
                if tally[p] > tally[best] && (p == cur || sizes[p] < cap) {
                    best = p;
                }
            }
            if best != cur {
                sizes[cur] -= 1;
                sizes[best] += 1;
                assignment[v as usize] = best as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    Partitioning::new(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use crate::gen::{community, rmat};

    #[test]
    fn hash_partition_covers_all_parts_roughly_evenly() {
        let d = rmat(10, 4, 2, 4, 1, "t");
        let p = hash_partition(&d.graph, 8);
        let sizes: Vec<usize> = p.members().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1024);
        let imb = Partitioning::imbalance(&sizes.iter().map(|&s| s as f64).collect::<Vec<_>>());
        assert!(imb < 1.3, "hash should be near-balanced, got {imb}");
    }

    #[test]
    fn lp_partition_reduces_edge_cut_vs_hash() {
        let d = community(600, 6, 10, 1, 4, 3);
        let hash = hash_partition(&d.graph, 6);
        let lp = lp_partition(&d.graph, 6, 10, 0.1, 3);
        assert!(
            lp.edge_cut(&d.graph) < hash.edge_cut(&d.graph),
            "LP must find the community structure: lp {} vs hash {}",
            lp.edge_cut(&d.graph),
            hash.edge_cut(&d.graph)
        );
    }

    #[test]
    fn lp_partition_respects_capacity() {
        let d = community(500, 5, 8, 2, 4, 7);
        let p = lp_partition(&d.graph, 5, 15, 0.1, 7);
        let cap = ((500.0f64 / 5.0) * 1.1).ceil() as usize;
        // Capacity may be exceeded only by the initial random imbalance;
        // moves never push a part past cap. Allow the initial slack.
        for s in p.members().iter().map(Vec::len) {
            assert!(s <= cap + 25, "size {s} exceeds cap {cap} by too much");
        }
    }

    #[test]
    fn edge_cut_counts_cross_part_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_cut(&g), 1);
    }

    #[test]
    fn members_and_sizes_agree() {
        let p = Partitioning::new(vec![0, 1, 1, 0, 2], 3);
        let m = p.members();
        assert_eq!(m[0], vec![0, 3]);
        assert_eq!(m[1], vec![1, 2]);
        assert_eq!(m[2], vec![4]);
        assert_eq!(m.iter().map(Vec::len).sum::<usize>(), 5);
    }

    #[test]
    fn imbalance_of_uniform_loads_is_one() {
        assert_eq!(Partitioning::imbalance(&[5.0, 5.0, 5.0]), 1.0);
        assert_eq!(Partitioning::imbalance(&[0.0, 0.0]), 1.0);
        assert!((Partitioning::imbalance(&[9.0, 1.0, 2.0]) - 2.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn invalid_assignment_panics() {
        let _ = Partitioning::new(vec![0, 3], 2);
    }
}
