//! Vertex-typed (heterogeneous) graphs for INHA models.
//!
//! MAGNN runs over graphs whose vertices carry types (the colors of the
//! paper's Figure 2a); metapaths are sequences of those types. A
//! [`TypedGraph`] pairs a [`Graph`] with a per-vertex type label.

use crate::csr::{sample_graph, Graph, VertexId};

/// Numeric vertex-type label (e.g. movie / director / actor for IMDB).
pub type VertexType = u8;

/// A directed graph whose vertices carry a type label.
#[derive(Clone, Debug)]
pub struct TypedGraph {
    graph: Graph,
    types: Vec<VertexType>,
    num_types: usize,
}

impl TypedGraph {
    /// Pairs a graph with per-vertex types.
    ///
    /// # Panics
    ///
    /// Panics if `types.len()` differs from the vertex count.
    pub fn new(graph: Graph, types: Vec<VertexType>) -> Self {
        assert_eq!(
            types.len(),
            graph.num_vertices(),
            "one type label per vertex"
        );
        let num_types = types.iter().map(|&t| t as usize + 1).max().unwrap_or(0);
        Self {
            graph,
            types,
            num_types,
        }
    }

    /// The underlying untyped graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Type of vertex `v`.
    pub fn vertex_type(&self, v: VertexId) -> VertexType {
        self.types[v as usize]
    }

    /// Number of distinct types (max label + 1).
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Per-type vertex counts.
    pub fn type_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_types];
        for &t in &self.types {
            h[t as usize] += 1;
        }
        h
    }
}

/// The paper's Figure 2a sample graph with a vertex typing that
/// reproduces Figure 2c exactly.
///
/// §5 states that vertex A has `n1 = 1` instance of metapath MP1 (the path
/// A–D–C) and `n2 = 4` instances of MP2 (A–E–B, A–F–G, A–H–G, A–H–I). The
/// typing below realizes those counts: type 0 = {A}, type 1 = {B, G, I},
/// type 2 = {C}, type 3 = {D}, type 4 = {E, F, H}, with MP1 = `[0, 3, 2]`
/// and MP2 = `[0, 4, 1]` (see [`crate::metapath::paper_metapaths`]).
pub fn sample_typed_graph() -> TypedGraph {
    //                 A  B  C  D  E  F  G  H  I
    let types = vec![0, 1, 2, 3, 4, 4, 1, 4, 1];
    TypedGraph::new(sample_graph(), types)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;

    #[test]
    fn typed_graph_basic_queries() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = TypedGraph::new(g, vec![0, 1, 0, 2]);
        assert_eq!(t.num_types(), 3);
        assert_eq!(t.vertex_type(1), 1);
        assert_eq!(t.type_histogram(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "one type label per vertex")]
    fn mismatched_type_vector_panics() {
        let g = graph_from_edges(3, &[]);
        let _ = TypedGraph::new(g, vec![0, 1]);
    }

    #[test]
    fn sample_typed_graph_matches_figure_2a_typing() {
        let t = sample_typed_graph();
        assert_eq!(t.num_types(), 5);
        assert_eq!(t.type_histogram(), vec![1, 3, 1, 1, 3]);
        let of_type_4: Vec<VertexId> = (0..9).filter(|&v| t.vertex_type(v) == 4).collect();
        assert_eq!(of_type_4, vec![4, 5, 7], "E, F, H");
    }
}
