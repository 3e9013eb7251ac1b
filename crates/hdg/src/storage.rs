//! Compact HDG storage (the paper's Figure 9).

use crate::schema::SchemaTree;
use flexgraph_graph::VertexId;
use flexgraph_tensor::{HierarchyIndex, ScatterPlan};
use std::sync::Arc;

/// The frozen, compactly stored HDGs for all roots of one partition.
///
/// Instances are globally ranked in `(root, type)` order, so the
/// instance→type edges need no destination array (storage optimization
/// (2) of §4.1): the group offsets alone recover them. Leaves are stored
/// as one offset array plus one flat vertex array (optimization (1)); the
/// schema tree is a single shared object (optimization (3)). The three
/// arrays live in one [`HierarchyIndex`] — the structure every strategy
/// of §4.2 walks, which also caches the levels' scatter plans — shared
/// by every clone of the HDG and by the models that train on it.
#[derive(Clone, Debug)]
pub struct Hdg {
    pub(crate) schema: SchemaTree,
    /// Root vertex ids, `root_ids[local_root]` = input-graph vertex. In
    /// the single-machine case this is simply `0..n`.
    pub(crate) root_ids: Vec<VertexId>,
    /// Group offsets over instance ranks (group `g = root·T + t` holds
    /// instances `groups()[g]..groups()[g + 1]`), instance offsets into
    /// the flat leaf array, and the leaves.
    pub(crate) index: Arc<HierarchyIndex>,
}

impl Hdg {
    /// The HDG's levels and their cached scatter plans.
    pub fn hierarchy(&self) -> &Arc<HierarchyIndex> {
        &self.index
    }

    /// Number of root vertices in this HDG collection.
    pub fn num_roots(&self) -> usize {
        self.root_ids.len()
    }

    /// Input-graph vertex id of local root `r`.
    pub fn root_id(&self, r: usize) -> VertexId {
        self.root_ids[r]
    }

    /// All root ids, in local order.
    pub fn root_ids(&self) -> &[VertexId] {
        &self.root_ids
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
    pub fn group_instances(&self, root: usize, t: usize) -> std::ops::Range<usize> {
        let g = root * self.num_types() + t;
        self.group_offsets()[g]..self.group_offsets()[g + 1]
    }

    /// Leaves of instance `i` (input-graph vertex ids).
    pub fn instance_leaves(&self, i: usize) -> &[VertexId] {
        &self.leaf_sources()[self.inst_offsets()[i]..self.inst_offsets()[i + 1]]
    }

    /// Number of instances owned by root `r` across all types — the
    /// `n_1..n_k` variables of the ADB cost model (§5).
    pub fn instances_of_root(&self, r: usize) -> usize {
        let t = self.num_types();
        self.group_offsets()[(r + 1) * t] - self.group_offsets()[r * t]
    }

    /// Total leaf entries under root `r` — proportional to the `m` size
    /// variables of the cost model.
    pub fn leaves_of_root(&self, r: usize) -> usize {
        self.root_leaf_sources(r).len()
    }

    /// The per-instance leaf offset array (destination-major CSC of the
    /// bottom subgraph; Figure 9's `Offset3`).
    pub fn inst_offsets(&self) -> &[usize] {
        self.index.instances().offsets()
    }

    /// The flat leaf vertex array (Figure 9's `Dst3` counterpart).
    pub fn leaf_sources(&self) -> &[VertexId] {
        self.index.instances().src()
    }

    /// The per-(root, type) group offset array over instance ranks — the
    /// only array kept for the in-between level (Figure 9's `Offset2`;
    /// the `Dst2` array is omitted by construction).
    pub fn group_offsets(&self) -> &[usize] {
        self.index.groups()
    }

    /// Whether every instance holds exactly one leaf (DNFA/INFA shape);
    /// the engine uses this to collapse leaf→instance into a no-op.
    pub fn is_flat_instances(&self) -> bool {
        self.inst_offsets().windows(2).all(|w| w[1] - w[0] == 1)
    }

    /// Reconstructs the per-instance group index that the omitted `Dst`
    /// array would have held. Baseline (SA) execution materializes this;
    /// FlexGraph's fused path never does.
    pub fn instance_group_index(&self) -> Vec<u32> {
        let mut idx = vec![0u32; self.num_instances()];
        for g in 0..self.num_groups() {
            for r in self.group_offsets()[g]..self.group_offsets()[g + 1] {
                idx[r] = g as u32;
            }
        }
        idx
    }

    /// Scatter plan of the instance→group level (destinations =
    /// `(root, type)` groups, index = [`Hdg::instance_group_index`]),
    /// the index's own: built on first use, then shared.
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
        let t = self.num_types();
        let (groups, offsets) = (self.group_offsets(), self.inst_offsets());
        &self.leaf_sources()[offsets[groups[r * t]]..offsets[groups[(r + 1) * t]]]
    }

    /// Heap bytes of the compact storage (Table 5's numerator).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.schema.heap_bytes()
            + self.root_ids.capacity() * size_of::<VertexId>()
            + size_of_val(self.group_offsets())
            + size_of_val(self.inst_offsets())
            + size_of_val(self.leaf_sources())
    }

    /// Heap bytes a naive (non-optimized) encoding would take: CSC with
    /// explicit destination arrays at *both* levels plus a per-root schema
    /// tree copy. Used by tests and the Table 5 harness to show the
    /// optimization's effect.
    pub fn naive_bytes(&self) -> usize {
        use std::mem::size_of;
        let inst = self.num_instances();
        let with_dst2 = inst * size_of::<u32>(); // the omitted Dst array
        let per_root_schema = self.num_roots() * self.schema.heap_bytes();
        self.heap_bytes() + with_dst2 + per_root_schema
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
        assert_eq!(h.instance_group_index(), vec![0, 1, 1, 1, 1]);
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
        assert_eq!(group.index(), &h.instance_group_index()[..]);
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
