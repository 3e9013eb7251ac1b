//! Immutable adjacency storage in CSR (out-edges) and CSC (in-edges) form.
//!
//! FlexGraph's aggregation pulls features *into* each destination vertex,
//! so the CSC view is the hot path of feature fusion; the CSR view drives
//! forward traversals (random walks, metapath search, BFS). Both views are
//! materialized once at build time and never mutated.

use flexgraph_tensor::{ScatterPlan, SegmentIndex};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Vertex identifier. `u32` matches the paper's billion-edge ambitions
/// while halving index memory relative to `usize`.
pub type VertexId = u32;

/// An immutable directed graph in dual CSR/CSC representation.
///
/// The arrays sit behind one `Arc`: the adjacency never changes, so a
/// clone — every server takes one of the graph it serves — shares them
/// (and the cached scatter plan) instead of copying O(V + E) bytes.
#[derive(Clone)]
pub struct Graph(Arc<Adjacency>);

struct Adjacency {
    /// CSR offsets: out-edges of `v` are `out_dst[out_off[v]..out_off[v+1]]`.
    out_off: Vec<usize>,
    out_dst: Vec<VertexId>,
    /// CSC: in-edges of `v` are `src()[offsets()[v]..offsets()[v+1]]`,
    /// shared as is with every fused aggregation over the graph (which
    /// is also where the index keeps its transpose).
    in_csc: Arc<SegmentIndex>,
    /// Lazily built scatter plan over the in-edge COO (destinations =
    /// vertices), shared by every scatter-based aggregation over this
    /// graph. The adjacency is immutable, so the plan never invalidates.
    in_plan: OnceLock<Arc<ScatterPlan>>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V|={}, |E|={})",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

impl Graph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.0.out_off.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.0.out_dst.len()
    }

    /// Out-neighbors of `v`.
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.0.out_dst[self.0.out_off[v]..self.0.out_off[v + 1]]
    }

    /// In-neighbors of `v`.
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources()[self.in_offsets()[v]..self.in_offsets()[v + 1]]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Iterator over all `(src, dst)` edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&d| (v, d)))
    }

    /// The full edge list as a COO pair `(dst_ids, src_ids)`, the encoding
    /// GAS-like frameworks feed to scatter ops (paper §3.3).
    pub fn coo_in(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let mut dst = Vec::with_capacity(self.num_edges());
        let mut src = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_vertices() as VertexId {
            for &s in self.in_neighbors(v) {
                dst.push(v);
                src.push(s);
            }
        }
        (dst, src)
    }

    /// The CSR offset array: out-edges of `v` occupy edge indices
    /// `out_offsets()[v]..out_offsets()[v+1]` in CSR order.
    pub fn out_offsets(&self) -> &[usize] {
        &self.0.out_off
    }

    /// The CSC offset array: in-edges of `v` occupy
    /// `in_sources()[in_offsets()[v]..in_offsets()[v+1]]`. This is the
    /// destination-major layout feature fusion consumes directly.
    pub fn in_offsets(&self) -> &[usize] {
        self.0.in_csc.offsets()
    }

    /// The CSC source array (see [`Graph::in_offsets`]).
    pub fn in_sources(&self) -> &[VertexId] {
        self.0.in_csc.src()
    }

    /// The CSC as a shared segment index (destinations = vertices): what
    /// a fused aggregation over the graph records on its tape, without a
    /// copy. Its transpose, once a backward has built it, is kept with
    /// the graph.
    pub fn in_index(&self) -> Arc<SegmentIndex> {
        self.0.in_csc.clone()
    }

    /// Cached scatter plan over the in-edge COO: edge `e` (in
    /// [`Graph::coo_in`] order) feeds destination `coo_in().0[e]`. Built
    /// once on first use and reused by every layer/epoch of sparse
    /// scatter aggregation over this graph.
    pub fn in_scatter_plan(&self) -> Arc<ScatterPlan> {
        self.0
            .in_plan
            .get_or_init(|| {
                let (dst, _) = self.coo_in();
                Arc::new(ScatterPlan::new(&dst, self.num_vertices()))
            })
            .clone()
    }

    /// Approximate heap bytes of the adjacency arrays, the CSC's
    /// transpose included once a backward has built it (memory
    /// harnesses).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.out_offsets())
            + std::mem::size_of_val(&self.0.out_dst[..])
            + self.0.in_csc.heap_bytes()
    }

    /// Maximum out-degree (skew diagnostics).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Accumulates an edge list, then freezes it into a [`Graph`].
#[derive(Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    dedup: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            dedup: false,
        }
    }

    /// Requests duplicate-edge removal at build time.
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((src, dst));
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected(&mut self, a: VertexId, b: VertexId) {
        self.add_edge(a, b);
        if a != b {
            self.add_edge(b, a);
        }
    }

    /// Number of edges accumulated so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes into CSR + CSC form.
    pub fn build(mut self) -> Graph {
        if self.dedup {
            self.edges.sort_unstable();
            self.edges.dedup();
        }
        let n = self.num_vertices;
        let mut out_off = vec![0usize; n + 1];
        let mut in_off = vec![0usize; n + 1];
        for &(s, d) in &self.edges {
            out_off[s as usize + 1] += 1;
            in_off[d as usize + 1] += 1;
        }
        for i in 0..n {
            out_off[i + 1] += out_off[i];
            in_off[i + 1] += in_off[i];
        }
        let m = self.edges.len();
        let mut out_dst = vec![0 as VertexId; m];
        let mut in_src = vec![0 as VertexId; m];
        let mut out_cursor = out_off.clone();
        let mut in_cursor = in_off.clone();
        for &(s, d) in &self.edges {
            out_dst[out_cursor[s as usize]] = d;
            out_cursor[s as usize] += 1;
            in_src[in_cursor[d as usize]] = s;
            in_cursor[d as usize] += 1;
        }
        Graph(Arc::new(Adjacency {
            out_off,
            out_dst,
            in_csc: Arc::new(SegmentIndex::new(in_off, in_src)),
            in_plan: OnceLock::new(),
        }))
    }
}

/// Convenience constructor from an explicit edge list.
pub fn graph_from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::new(num_vertices);
    for &(s, d) in edges {
        b.add_edge(s, d);
    }
    b.build()
}

/// The 9-vertex sample graph of the paper's Figure 2a (undirected).
///
/// Vertices are `A..=I` mapped to `0..=8`. Edge set transcribed from the
/// figure: A–D, A–E, A–F, A–H, D–C, E–B, F–G, H–G, H–I, B–C, G–I.
/// Vertex types for the MAGNN example follow the figure's coloring: see
/// [`crate::hetero::sample_typed_graph`].
pub fn sample_graph() -> Graph {
    const A: VertexId = 0;
    const B: VertexId = 1;
    const C: VertexId = 2;
    const D: VertexId = 3;
    const E: VertexId = 4;
    const F: VertexId = 5;
    const G: VertexId = 6;
    const H: VertexId = 7;
    const I: VertexId = 8;
    let mut b = GraphBuilder::new(9);
    for (x, y) in [
        (A, D),
        (A, E),
        (A, F),
        (A, H),
        (D, C),
        (E, B),
        (F, G),
        (H, G),
        (H, I),
        (B, C),
        (G, I),
    ] {
        b.add_undirected(x, y);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_small_graph() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(3), 0);
    }

    #[test]
    fn csr_csc_views_are_consistent() {
        let g = graph_from_edges(5, &[(0, 1), (2, 1), (4, 3), (1, 4), (2, 4)]);
        // Every out-edge must appear as an in-edge and vice versa.
        let mut out_edges: Vec<_> = g.edges().collect();
        let mut in_edges: Vec<_> = (0..g.num_vertices() as VertexId)
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&s| (s, v)))
            .collect();
        out_edges.sort_unstable();
        in_edges.sort_unstable();
        assert_eq!(out_edges, in_edges);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new(2).dedup();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn undirected_adds_both_arcs_once_for_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 0);
        b.add_undirected(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn coo_matches_in_neighbors() {
        let g = graph_from_edges(3, &[(0, 2), (1, 2), (2, 0)]);
        let (dst, src) = g.coo_in();
        assert_eq!(dst, vec![0, 2, 2]);
        assert_eq!(src, vec![2, 0, 1]);
    }

    #[test]
    fn in_scatter_plan_is_cached_and_covers_edges() {
        let g = graph_from_edges(3, &[(0, 2), (1, 2), (2, 0)]);
        let p = g.in_scatter_plan();
        assert_eq!(p.out_rows(), 3);
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.index(), &g.coo_in().0[..]);
        assert!(Arc::ptr_eq(&p, &g.in_scatter_plan()));
    }

    #[test]
    fn sample_graph_matches_figure_2a() {
        let g = sample_graph();
        assert_eq!(g.num_vertices(), 9);
        // N(A) = {D, E, F, H} as stated in §2.2 for GCN.
        let mut na: Vec<_> = g.out_neighbors(0).to_vec();
        na.sort_unstable();
        assert_eq!(na, vec![3, 4, 5, 7]);
        // Undirected: every edge present in both directions.
        for (s, d) in g.edges().collect::<Vec<_>>() {
            assert!(g.out_neighbors(d).contains(&s));
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_out_degree(), 0);
    }
}
