//! Metapath definitions and instance search.
//!
//! A metapath is an ordered sequence of vertex types; an *instance* of it
//! is a concrete path in the graph whose vertices match the type sequence
//! (paper Figure 2b/2c). MAGNN's NeighborSelection finds, for each start
//! vertex, every instance of every metapath (the `magnn_nbr` UDF of
//! Figure 5). The search is a depth-first type-constrained expansion.

use crate::csr::VertexId;
use crate::hetero::{TypedGraph, VertexType};

/// An ordered sequence of vertex types; the first type constrains the
/// start vertex itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metapath {
    /// The type sequence, length ≥ 2.
    pub types: Vec<VertexType>,
}

impl Metapath {
    /// Creates a metapath from a type sequence.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two types are given.
    pub fn new(types: Vec<VertexType>) -> Self {
        assert!(types.len() >= 2, "a metapath needs at least two types");
        Self { types }
    }

    /// Number of vertices in an instance (= sequence length).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Always false: constructor enforces length ≥ 2.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One matched instance: the concrete path vertices, starting at the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetapathInstance {
    /// Index into the metapath list this instance matches.
    pub metapath: usize,
    /// The path vertices; `vertices[0]` is the root.
    pub vertices: Vec<VertexId>,
}

/// Finds every instance of every metapath rooted at `start`.
///
/// `max_per_path` caps the instances kept per metapath (0 = unlimited),
/// mirroring the sampling caps real systems apply on dense graphs. Paths
/// may revisit vertices (the paper does not require simple paths), except
/// for immediate backtracking, which is excluded to avoid degenerate
/// `A-B-A` instances dominating the instance set.
pub fn find_instances(
    g: &TypedGraph,
    start: VertexId,
    metapaths: &[Metapath],
    max_per_path: usize,
) -> Vec<MetapathInstance> {
    let mut out = Vec::new();
    for_each_instance(g, start, metapaths, max_per_path, |metapath, path| {
        out.push(MetapathInstance {
            metapath,
            vertices: path.to_vec(),
        })
    });
    out
}

/// [`find_instances`] as a visitor: `visit(metapath, path)` is lent the
/// search's own stack for each instance, in the order `find_instances`
/// lists them, so a caller that copies the path elsewhere allocates
/// nothing per instance.
pub fn for_each_instance(
    g: &TypedGraph,
    start: VertexId,
    metapaths: &[Metapath],
    max_per_path: usize,
    mut visit: impl FnMut(usize, &[VertexId]),
) {
    let mut stack = Vec::new();
    for (mi, mp) in metapaths.iter().enumerate() {
        if g.vertex_type(start) != mp.types[0] {
            continue;
        }
        let mut left = if max_per_path == 0 {
            usize::MAX
        } else {
            max_per_path
        };
        stack.clear();
        stack.push(start);
        dfs(g, mp, &mut stack, &mut left, &mut |path| visit(mi, path));
    }
}

/// Extends `stack` (a type-matched prefix of `mp`) to every full
/// instance, stopping once `left` more have been visited.
fn dfs(
    g: &TypedGraph,
    mp: &Metapath,
    stack: &mut Vec<VertexId>,
    left: &mut usize,
    visit: &mut impl FnMut(&[VertexId]),
) {
    let depth = stack.len();
    if depth == mp.types.len() {
        visit(stack);
        *left -= 1;
        return;
    }
    let cur = stack[depth - 1];
    let prev = depth.checked_sub(2).map(|i| stack[i]);
    for &nbr in g.graph().out_neighbors(cur) {
        if *left == 0 {
            return;
        }
        if Some(nbr) == prev {
            continue; // No immediate backtracking.
        }
        if g.vertex_type(nbr) != mp.types[depth] {
            continue;
        }
        stack.push(nbr);
        dfs(g, mp, stack, left, visit);
        stack.pop();
    }
}

/// The metapaths MP1 and MP2 of the paper's Figure 2b, expressed over the
/// typing of [`crate::hetero::sample_typed_graph`]: MP1 = `[0, 3, 2]`
/// (A→D→C shaped), MP2 = `[0, 4, 1]` (A→{E,F,H}→{B,G,I} shaped).
pub fn paper_metapaths() -> Vec<Metapath> {
    vec![Metapath::new(vec![0, 3, 2]), Metapath::new(vec![0, 4, 1])]
}

/// Instances for every vertex of the graph (the full NeighborSelection
/// sweep MAGNN runs once and reuses across the whole training process).
pub fn find_instances_all(
    g: &TypedGraph,
    metapaths: &[Metapath],
    max_per_path: usize,
) -> Vec<Vec<MetapathInstance>> {
    (0..g.graph().num_vertices() as VertexId)
        .map(|v| find_instances(g, v, metapaths, max_per_path))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::sample_typed_graph;

    #[test]
    fn figure_2c_instances_of_vertex_a() {
        // Figure 2c lists five instances rooted at A: p1 = A–D–C matching
        // MP1, and p2 = A–E–B, p3 = A–F–G, p4 = A–H–G, p5 = A–H–I matching
        // MP2 (§5 confirms n1 = 1, n2 = 4).
        let g = sample_typed_graph();
        let inst = find_instances(&g, 0, &paper_metapaths(), 0);
        let mut paths: Vec<(usize, Vec<VertexId>)> = inst
            .iter()
            .map(|i| (i.metapath, i.vertices.clone()))
            .collect();
        paths.sort();
        assert_eq!(
            paths,
            vec![
                (0, vec![0, 3, 2]), // p1 = A-D-C
                (1, vec![0, 4, 1]), // p2 = A-E-B
                (1, vec![0, 5, 6]), // p3 = A-F-G
                (1, vec![0, 7, 6]), // p4 = A-H-G
                (1, vec![0, 7, 8]), // p5 = A-H-I
            ],
            "exactly the five instances of Figure 2c"
        );
    }

    #[test]
    fn no_instances_for_wrong_root_type() {
        let g = sample_typed_graph();
        // Vertex C (id 2) has type 2; both metapaths start with type 0.
        assert!(find_instances(&g, 2, &paper_metapaths(), 0).is_empty());
    }

    #[test]
    fn cap_limits_instances_per_metapath() {
        let g = sample_typed_graph();
        let inst = find_instances(&g, 0, &paper_metapaths(), 1);
        let mp0 = inst.iter().filter(|i| i.metapath == 0).count();
        let mp1 = inst.iter().filter(|i| i.metapath == 1).count();
        assert!(mp0 <= 1 && mp1 <= 1);
    }

    #[test]
    fn no_immediate_backtracking() {
        let g = sample_typed_graph();
        // A `[0, 4, 0]` metapath could only match by bouncing A-E-A,
        // A-F-A or A-H-A; the backtrack guard must reject all of them.
        let inst = find_instances(&g, 0, &[Metapath::new(vec![0, 4, 0])], 0);
        assert!(inst.is_empty(), "bounce-back paths excluded: {inst:?}");
    }

    #[test]
    fn all_sweep_covers_every_vertex() {
        let g = sample_typed_graph();
        let all = find_instances_all(&g, &paper_metapaths(), 0);
        assert_eq!(all.len(), 9);
        // Type-0 vertices are the only eligible roots.
        for (v, inst) in all.iter().enumerate() {
            if g.vertex_type(v as VertexId) != 0 {
                assert!(inst.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two types")]
    fn single_type_metapath_rejected() {
        let _ = Metapath::new(vec![0]);
    }
}
