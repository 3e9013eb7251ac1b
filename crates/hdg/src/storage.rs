//! Compact HDG storage: the paper's Figure 9, with single-leaf instances
//! implied, and MAGNN's as a prefix tree.

use crate::schema::SchemaTree;
use flexgraph_graph::VertexId;
use flexgraph_tensor::{HierarchyIndex, ScatterPlan};
use std::ops::Range;
use std::sync::Arc;

/// The frozen, compactly stored HDGs for all roots of one partition.
///
/// Instances are globally ranked in `(root, type)` order, so the
/// instance→type edges need no destination array (storage optimization
/// (2) of §4.1): the group offsets alone recover them. Leaves are stored
/// as one offset array plus one flat vertex array (optimization (1)); the
/// schema tree is a single shared object (optimization (3)). The arrays
/// live in one [`HierarchyIndex`] — the structure every strategy of §4.2
/// walks, which also caches the levels' scatter plans — shared by every
/// clone of the HDG and by the models that train on it. The index has
/// three layouts, and which one an HDG gets depends on its builder:
/// - [`HdgBuilder::build`](crate::HdgBuilder::build) writes the **unit**
///   layout when every instance holds one leaf (the flat selections:
///   direct neighbors, importance walks, neighbor lists): group offsets
///   over the leaves, with no instance offsets;
/// - it writes Figure 9's **flat** layout otherwise (hop shells,
///   metapaths of other lengths than three);
/// - [`crate::build::from_metapaths`] writes MAGNN's three-vertex
///   instances as a **prefix tree**, which holds the root ids too.
///
/// Of a unit layout and a prefix tree, the flat arrays below
/// ([`Hdg::inst_offsets`], and a tree's [`Hdg::leaf_sources`] and
/// [`Hdg::group_offsets`]) are a view built on first use. The counts, [`Hdg::group_instances`] and
/// [`Hdg::for_each_instance`] read every layout as it is.
#[derive(Clone, Debug)]
pub struct Hdg {
    pub(crate) schema: SchemaTree,
    /// Root vertex ids, `root_ids[local_root]` = input-graph vertex (in
    /// the single-machine case simply `0..n`); empty when the index
    /// holds them ([`HierarchyIndex::root_rows`]).
    pub(crate) root_ids: Vec<VertexId>,
    /// The levels: group `g = root·T + t` holds instances
    /// `groups()[g]..groups()[g + 1]`, each instance its leaves.
    pub(crate) index: Arc<HierarchyIndex>,
}

impl Hdg {
    /// The HDG's levels and their cached scatter plans.
    pub fn hierarchy(&self) -> &Arc<HierarchyIndex> {
        &self.index
    }

    /// Number of root vertices in this HDG collection.
    pub fn num_roots(&self) -> usize {
        self.root_ids().len()
    }

    /// Input-graph vertex id of local root `r`.
    pub fn root_id(&self, r: usize) -> VertexId {
        self.root_ids()[r]
    }

    /// All root ids, in local order.
    pub fn root_ids(&self) -> &[VertexId] {
        self.index.root_rows().unwrap_or(&self.root_ids)
    }

    /// Number of neighbor types.
    pub fn num_types(&self) -> usize {
        self.schema.num_types()
    }

    /// Total number of neighbor instances across all roots.
    pub fn num_instances(&self) -> usize {
        self.index.num_instances()
    }

    /// Number of `(root, type)` groups (= level-1 vertices of the HDGs).
    pub fn num_groups(&self) -> usize {
        self.num_roots() * self.num_types()
    }

    /// The instance-rank range of group `(root, type)`.
    pub fn group_instances(&self, root: usize, t: usize) -> Range<usize> {
        let g = root * self.num_types() + t;
        self.index.group_start(g)..self.index.group_start(g + 1)
    }

    /// Hands each instance, in rank order, to `visit` as its `(root,
    /// type)` group and its leaves, whatever the layout: no view is built.
    pub fn for_each_instance(&self, visit: impl FnMut(usize, &[VertexId])) {
        self.index.for_each_instance(visit)
    }

    /// Leaves of instance `i` (input-graph vertex ids).
    pub fn instance_leaves(&self, i: usize) -> &[VertexId] {
        &self.leaf_sources()[self.leaf_range(i..i + 1)]
    }

    /// The instance-rank range of root `r`.
    fn root_instances(&self, r: usize) -> Range<usize> {
        let t = self.num_types();
        self.index.group_start(r * t)..self.index.group_start((r + 1) * t)
    }

    /// The leaf entries of instances `i`: the same range when each holds
    /// one leaf.
    fn leaf_range(&self, i: Range<usize>) -> Range<usize> {
        if self.index.leaf_groups().is_some() {
            return i;
        }
        self.inst_offsets()[i.start]..self.inst_offsets()[i.end]
    }

    /// Number of instances owned by root `r` across all types — the
    /// `n_1..n_k` variables of the ADB cost model (§5).
    pub fn instances_of_root(&self, r: usize) -> usize {
        self.root_instances(r).len()
    }

    /// Total leaf entries under root `r` — proportional to the `m` size
    /// variables of the cost model.
    pub fn leaves_of_root(&self, r: usize) -> usize {
        self.root_leaf_sources(r).len()
    }

    /// The per-instance leaf offset array (destination-major CSC of the
    /// bottom subgraph; Figure 9's `Offset3`); a view unless the layout
    /// is flat.
    pub fn inst_offsets(&self) -> &[usize] {
        self.index.instances().offsets()
    }

    /// The flat leaf vertex array (Figure 9's `Dst3` counterpart); a view
    /// of a prefix tree.
    pub fn leaf_sources(&self) -> &[VertexId] {
        let groups = self.index.leaf_groups();
        groups.map_or_else(|| self.index.instances().src(), |g| g.src())
    }

    /// The per-(root, type) group offset array over instance ranks — the
    /// only array kept for the in-between level (Figure 9's `Offset2`;
    /// the `Dst2` array is omitted by construction).
    pub fn group_offsets(&self) -> &[usize] {
        self.index.groups()
    }

    /// Whether every instance holds exactly one leaf (DNFA/INFA shape):
    /// the unit layout, which every builder writes for such an HDG. The
    /// engine then folds leaves straight into groups.
    pub fn is_flat_instances(&self) -> bool {
        self.index.leaf_groups().is_some()
    }

    /// Scatter plan of the instance→group level (destinations =
    /// `(root, type)` groups; its index is the per-instance group the
    /// omitted `Dst` array would have held), the index's own: built on
    /// first use, then shared.
    pub fn group_scatter_plan(&self) -> Arc<ScatterPlan> {
        self.index.group_plan()
    }

    /// The distinct leaf vertices this HDG collection depends on — the
    /// vertices whose features must be present (locally or via sync)
    /// before aggregation (used by the distributed runtime).
    pub fn dependency_leaves(&self) -> Vec<VertexId> {
        let mut v = self.leaf_sources().to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The flat leaf entries under root `r` (contiguous by the global
    /// `(root, type)` instance ranking), without materializing a
    /// per-root set.
    pub fn root_leaf_sources(&self, r: usize) -> &[VertexId] {
        &self.leaf_sources()[self.leaf_range(self.root_instances(r))]
    }

    /// Heap bytes of the compact storage (Table 5's numerator), a flat
    /// view included once a reader has built one.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.schema.heap_bytes()
            + self.root_ids.capacity() * size_of::<VertexId>()
            + self.index.heap_bytes()
    }

    /// Heap bytes a naive (non-optimized) encoding of the same instances
    /// would take, counted from their sizes: CSC with explicit
    /// destination arrays at *both* levels — `usize` offsets, `u32`
    /// ids — plus the root ids and a schema tree per root. Used by tests
    /// and the Table 5 harness to show the optimization's effect.
    pub fn naive_bytes(&self) -> usize {
        use std::mem::size_of;
        let (roots, inst) = (self.num_roots(), self.num_instances());
        let offsets = (self.num_groups() + 1) + (inst + 1);
        let ids = roots + inst + self.index.num_leaves();
        offsets * size_of::<usize>()
            + ids * size_of::<u32>()
            + (roots + 1) * self.schema.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::build::HdgBuilder;
    use crate::schema::SchemaTree;
    use std::sync::Arc;

    /// The MAGNN HDG of the paper's Figures 3c / 9, rooted at vertex A
    /// (id 0): one MP1 instance (A,D,C) and four MP2 instances.
    fn paper_hdg() -> crate::Hdg {
        let schema = SchemaTree::new(vec!["MP1", "MP2"]);
        let mut b = HdgBuilder::new(schema, vec![0]);
        b.push_at(0, 0, &[0, 3, 2]);
        for leaves in [[0, 4, 1], [0, 5, 6], [0, 7, 6], [0, 7, 8]] {
            b.push_at(0, 1, &leaves);
        }
        b.build()
    }

    /// The per-instance group index that the omitted `Dst` array would
    /// have held, reconstructed from the group offsets.
    fn group_index(h: &crate::Hdg) -> Vec<u32> {
        let offsets = h.group_offsets().windows(2).enumerate();
        offsets
            .flat_map(|(g, w)| std::iter::repeat_n(g as u32, w[1] - w[0]))
            .collect()
    }

    #[test]
    fn paper_example_counts() {
        let h = paper_hdg();
        assert_eq!(h.num_roots(), 1);
        assert_eq!(h.num_instances(), 5);
        assert_eq!(h.num_groups(), 2);
        assert_eq!(h.group_instances(0, 0).len(), 1, "n1 = 1 (§5)");
        assert_eq!(h.group_instances(0, 1).len(), 4, "n2 = 4 (§5)");
        assert_eq!(h.leaves_of_root(0), 15, "5 instances × 3 vertices");
        assert!(!h.is_flat_instances());
    }

    #[test]
    fn group_index_reconstruction_matches_ranges() {
        let h = paper_hdg();
        assert_eq!(group_index(&h), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn dependency_leaves_are_sorted_unique() {
        let h = paper_hdg();
        let deps = h.dependency_leaves();
        assert_eq!(deps, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn root_leaf_sources_cover_the_flat_array() {
        let h = paper_hdg();
        assert_eq!(h.root_leaf_sources(0), h.leaf_sources());
        assert_eq!(h.root_leaf_sources(0).len(), h.leaves_of_root(0));
    }

    #[test]
    fn compact_storage_beats_naive() {
        let h = paper_hdg();
        assert!(h.heap_bytes() < h.naive_bytes());
    }

    #[test]
    fn level_plans_cover_each_level_once() {
        let h = paper_hdg();
        let (index, clone) = (h.hierarchy(), h.clone());
        assert!(
            Arc::ptr_eq(index, clone.hierarchy()),
            "a clone shares the index"
        );
        let leaf = index.instances().scatter_plan();
        assert_eq!(leaf.out_rows(), h.num_instances());
        assert_eq!(leaf.num_edges(), h.leaf_sources().len());
        let group = h.group_scatter_plan();
        assert_eq!(group.out_rows(), h.num_groups());
        assert_eq!(group.num_edges(), h.num_instances());
        assert_eq!(group.index(), &group_index(&h)[..]);
        let root = index.root_plan();
        assert_eq!(root.out_rows(), h.num_roots());
        assert_eq!(root.num_edges(), h.num_groups());
        // Built once: every call, on the HDG or a clone, returns the
        // index's own Arc.
        assert!(Arc::ptr_eq(
            &leaf,
            &clone.hierarchy().instances().scatter_plan()
        ));
        assert!(Arc::ptr_eq(&group, &index.group_plan()));
        assert!(Arc::ptr_eq(&group, &clone.group_scatter_plan()));
        assert!(Arc::ptr_eq(&root, &clone.hierarchy().root_plan()));
    }
}
