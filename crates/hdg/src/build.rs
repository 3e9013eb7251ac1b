//! HDG construction is one pass: NeighborSelection writes the HDG's
//! arrays.
//!
//! The NeighborSelection stage emits formatted records
//! `(root, nei = [leaf_0..leaf_n], nei_type)` (paper §4.1). The builder
//! stores them the way [`Hdg`] does — one flat `leaf_src`, one
//! `inst_off`, plus one `u32` group key `rank · T + type` per instance —
//! so a record is a slice appended to an array, never a heap object.
//!
//! * **Rank comes from the caller.** [`HdgBuilder::push_at`] takes the
//!   root's position in `roots`, which every selection knows because it
//!   iterates `roots` in order; nothing on the path hashes a vertex id.
//!   It is also what keeps **duplicate roots** apart: `roots = [7, 3, 7]`
//!   is three roots with three group ranges, each filled by the
//!   selection run for that occurrence.
//! * **The permutation runs only when it has to.** Every selection here
//!   pushes in `(root, type)` group order — the order that lets the
//!   in-between destination array be omitted — so [`HdgBuilder::build`]
//!   counts keys into `group_off` and moves the arrays. Keys that arrive
//!   out of group order go through a stable counting sort over instance
//!   ranges first; either way instances of one group keep their push
//!   order, which serve's bitwise batch parity rests on.
//!
//! Constructors cover the selection UDFs of the paper's Figure 5 (direct
//! neighbors, random-walk importance, metapath instances) plus the
//! P-GNN / JK-Net extensions sketched in §3.2.

use crate::schema::SchemaTree;
use crate::storage::Hdg;
use flexgraph_graph::bfs::{Adjacency, HopScratch};
use flexgraph_graph::metapath::{for_each_instance, Metapath};
use flexgraph_graph::walk::{importance_selection, WalkConfig};
use flexgraph_graph::{Graph, TypedGraph, VertexId};
use flexgraph_tensor::{HierarchyIndex, SegmentIndex};
use std::sync::Arc;

/// Accumulates neighbor instances in [`Hdg`]'s own layout and freezes
/// them into one.
pub struct HdgBuilder {
    schema: SchemaTree,
    root_ids: Vec<VertexId>,
    /// Group key `rank · T + type` of each instance, in push order.
    keys: Vec<u32>,
    /// Per-instance offsets into `leaf_src`, in push order.
    inst_off: Vec<usize>,
    leaf_src: Vec<VertexId>,
}

impl HdgBuilder {
    /// Creates a builder for the given roots (usually every vertex of the
    /// local partition, in ascending id order).
    ///
    /// # Panics
    ///
    /// Panics if `roots × types` group keys do not fit a `u32`.
    pub fn new(schema: SchemaTree, root_ids: Vec<VertexId>) -> Self {
        let groups = root_ids.len().checked_mul(schema.num_types());
        assert!(
            groups.is_some_and(|g| u32::try_from(g).is_ok()),
            "{} roots × {} types overflow the u32 group key",
            root_ids.len(),
            schema.num_types()
        );
        Self {
            schema,
            root_ids,
            keys: Vec::new(),
            inst_off: vec![0],
            leaf_src: Vec::new(),
        }
    }

    /// Adds one neighbor instance of type `nei_type` under the root at
    /// position `rank` of the builder's roots.
    ///
    /// # Panics
    ///
    /// Panics if the type is outside the schema tree or the rank outside
    /// the roots.
    pub fn push_at(&mut self, rank: usize, nei_type: u16, leaves: &[VertexId]) {
        self.leaf_src.extend_from_slice(leaves);
        self.close_instance(rank, nei_type);
    }

    /// Makes the leaves appended to `leaf_src` since the last instance
    /// the next one.
    fn close_instance(&mut self, rank: usize, nei_type: u16) {
        let t = self.schema.num_types();
        assert!(
            (nei_type as usize) < t,
            "neighbor type {nei_type} outside schema ({t} types)"
        );
        assert!(
            rank < self.root_ids.len(),
            "root rank {rank} outside this builder's {} roots",
            self.root_ids.len()
        );
        self.keys.push((rank * t + nei_type as usize) as u32);
        self.inst_off.push(self.leaf_src.len());
    }

    /// Number of instances so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no instances were added.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every leaf pushed so far, instance after instance in push order.
    pub fn leaves(&self) -> &[VertexId] {
        &self.leaf_src
    }

    /// [`HdgBuilder::leaves`], mutably — for renaming leaves in place
    /// (the out-of-core forward maps them onto a partition's rows).
    pub fn leaves_mut(&mut self) -> &mut [VertexId] {
        &mut self.leaf_src
    }

    /// Freezes into the compact storage: counts the group keys into the
    /// group offsets (top-down construction of §4.1) and hands over the
    /// arrays. Only if instances arrived out of `(root, type)` order does
    /// a stable counting sort first move their leaf ranges into it; both
    /// ways are linear — the NeighborSelection stage runs every epoch for
    /// stochastic models.
    pub fn build(self) -> Hdg {
        let n = self.root_ids.len();
        let groups = n * self.schema.num_types();
        let mut group_off = vec![0usize; groups + 1];
        for &g in &self.keys {
            group_off[g as usize + 1] += 1;
        }
        for i in 0..groups {
            group_off[i + 1] += group_off[i];
        }

        let (mut inst_off, mut leaf_src) = (self.inst_off, self.leaf_src);
        if self.keys.is_sorted() {
            inst_off.shrink_to_fit();
            leaf_src.shrink_to_fit();
        } else {
            let mut cursor = group_off.clone();
            let mut order = vec![0u32; self.keys.len()];
            for (i, &g) in self.keys.iter().enumerate() {
                order[cursor[g as usize]] = i as u32;
                cursor[g as usize] += 1;
            }
            let mut sorted_off = Vec::with_capacity(inst_off.len());
            sorted_off.push(0usize);
            let mut sorted_src = Vec::with_capacity(leaf_src.len());
            for &i in &order {
                let i = i as usize;
                sorted_src.extend_from_slice(&leaf_src[inst_off[i]..inst_off[i + 1]]);
                sorted_off.push(sorted_src.len());
            }
            (inst_off, leaf_src) = (sorted_off, sorted_src);
        }

        let instances = SegmentIndex::new(inst_off, leaf_src);
        let index = HierarchyIndex::new(group_off, instances, self.schema.num_types());
        Hdg {
            schema: self.schema,
            root_ids: self.root_ids,
            index: Arc::new(index),
        }
    }
}

/// GCN-style HDGs: every in-neighbor is one flat instance of the single
/// `vertex` type (the `gnn_nbr` UDF of Figure 5). The paper notes that
/// for DNFA models the input graph itself serves, so FlexGraph does not
/// materialize this at run time — it exists for uniformity and tests.
pub fn from_direct_neighbors(g: &Graph, roots: Vec<VertexId>) -> Hdg {
    select_direct_neighbors(g, roots)
        .unwrap_or_else(|e| match e {})
        .build()
}

/// The direct-neighbor selection over any adjacency, in RAM or paged:
/// the filled builder [`from_direct_neighbors`] freezes.
pub fn select_direct_neighbors<A: Adjacency>(
    g: &A,
    roots: Vec<VertexId>,
) -> Result<HdgBuilder, A::Error> {
    let mut b = HdgBuilder::new(SchemaTree::flat(), roots);
    for rank in 0..b.root_ids.len() {
        g.for_each_in(b.root_ids[rank], |u| b.push_at(rank, 0, &[u]))?;
    }
    Ok(b)
}

/// PinSage-style HDGs: top-k random-walk-visited vertices, one flat
/// instance each (the `pinsage_nbr` UDF of Figure 5). Only `roots` are
/// walked; with one type, the per-root offsets of their lists are the
/// group offsets, and the lists are the leaves.
pub fn from_importance_walks(g: &Graph, roots: Vec<VertexId>, cfg: &WalkConfig, seed: u64) -> Hdg {
    let (groups, mut leaves) = importance_selection(g, roots.iter().copied(), cfg, seed);
    leaves.shrink_to_fit();
    let instances = SegmentIndex::new((0..=leaves.len()).collect(), leaves);
    Hdg {
        schema: SchemaTree::flat(),
        root_ids: roots,
        index: Arc::new(HierarchyIndex::new(groups, instances, 1)),
    }
}

/// Flat HDGs from precomputed selections: root `v`'s neighbors are
/// `lists[v]`, one single-leaf instance each.
pub fn from_neighbor_lists(roots: Vec<VertexId>, lists: &[Vec<VertexId>]) -> Hdg {
    let mut b = HdgBuilder::new(SchemaTree::flat(), roots);
    for rank in 0..b.root_ids.len() {
        for &u in &lists[b.root_ids[rank] as usize] {
            b.push_at(rank, 0, &[u]);
        }
    }
    b.build()
}

/// MAGNN-style HDGs: one neighbor type per metapath, one instance per
/// matched path, leaves = the path's vertices (the `magnn_nbr` UDF of
/// Figure 5). `max_per_path` caps instances per (root, metapath).
pub fn from_metapaths(
    g: &TypedGraph,
    roots: Vec<VertexId>,
    metapaths: &[Metapath],
    max_per_path: usize,
) -> Hdg {
    let names: Vec<String> = (0..metapaths.len())
        .map(|i| format!("MP{}", i + 1))
        .collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots);
    for rank in 0..b.root_ids.len() {
        for_each_instance(g, b.root_ids[rank], metapaths, max_per_path, |mi, path| {
            b.push_at(rank, mi as u16, path)
        });
    }
    b.build()
}

/// SplitMix64 finalizer — the pure hash behind sampled selection.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// JK-Net-style hop-shell HDGs (§3.2: the `i`-th neighbor of `v` is the
/// set of vertices at exact hop distance `i`) with a per-shell sampling
/// cap — the NeighborSelection of the online serving path, where
/// unbounded power-law shells would blow the per-request memory budget.
/// `cap = 0` means uncapped.
///
/// Sampling is a **pure function of `(seed, root, leaf)`**: each shell
/// member is ranked by a SplitMix64 hash and the `cap` smallest ranks
/// survive, re-sorted into ascending vertex order. The selection for a
/// root is therefore identical whether it is built alone or as part of
/// any batch, under any thread count — the property the serving layer's
/// bitwise batch-parity guarantee rests on.
pub fn from_hop_shells_capped(
    g: &Graph,
    roots: Vec<VertexId>,
    k: usize,
    cap: usize,
    seed: u64,
) -> Hdg {
    select_hop_shells(g, roots, k, cap, seed, &mut HopScratch::new())
        .unwrap_or_else(|e| match e {})
        .build()
}

/// The capped hop-shell NeighborSelection for a batch of roots, over any
/// adjacency: the filled builder [`from_hop_shells_capped`] freezes
/// (roots in the given order, shells ascending, empty shells omitted).
/// One walk scratch serves the whole batch, so the cost is the roots'
/// k-hop balls, not the graph; only the leaves a shell keeps are sorted.
///
/// Callers that need the selection for more than the build read
/// [`HdgBuilder::leaves`] first — serve prices admission from it (its
/// closure counted on `scratch`, [`HopScratch::count_distinct`]), the
/// out-of-core forward renames it onto a partition's rows.
pub fn select_hop_shells<A: Adjacency>(
    g: &A,
    roots: Vec<VertexId>,
    k: usize,
    cap: usize,
    seed: u64,
    scratch: &mut HopScratch,
) -> Result<HdgBuilder, A::Error> {
    let names: Vec<String> = (1..=k).map(|i| format!("hop{i}")).collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots);
    let mut keyed = Vec::new();
    for rank in 0..b.root_ids.len() {
        let root = b.root_ids[rank];
        scratch.for_each_shell(g, root, k, |t, shell| {
            if !shell.is_empty() {
                let start = b.leaf_src.len();
                b.leaf_src.extend_from_slice(shell);
                cap_tail_by(&mut b.leaf_src, start, cap, &mut keyed, |u| {
                    shell_rank(seed, root, u)
                });
                b.close_instance(rank, t as u16);
            }
        })?;
    }
    Ok(b)
}

/// Sampling rank of member `u` of one of `root`'s hop shells: a pure
/// SplitMix64 hash of `(seed, root, member)`, and the only sampler any
/// hop-shell selection uses, in RAM or over the paged store — both
/// therefore select *identical* leaves for any root, which the
/// out-of-core ↔ in-RAM bitwise-parity guarantee rests on.
fn shell_rank(seed: u64, root: VertexId, u: VertexId) -> u64 {
    mix64(seed ^ mix64((root as u64) << 32 | u as u64))
}

/// Applies the sampling cap to the hop shell `leaves[start..]`, in any
/// order, in place: the `cap` members of smallest `rank` survive (equal
/// ranks fall back to the id), sorted into ascending vertex order. A
/// shell within the cap (or `cap = 0`) is only sorted. `keyed` is
/// scratch.
fn cap_tail_by(
    leaves: &mut Vec<VertexId>,
    start: usize,
    cap: usize,
    keyed: &mut Vec<(u64, VertexId)>,
    rank: impl Fn(VertexId) -> u64,
) {
    if cap > 0 && leaves.len() - start > cap {
        // Each member is ranked once. The `(rank, id)` keys are
        // distinct, so the `cap` smallest are one well-defined set,
        // whatever order the shell came in, and a partial selection
        // finds the survivors a full sort would.
        keyed.clear();
        keyed.extend(leaves[start..].iter().map(|&u| (rank(u), u)));
        keyed.select_nth_unstable(cap - 1);
        leaves.truncate(start);
        leaves.extend(keyed[..cap].iter().map(|&(_, u)| u));
    }
    leaves[start..].sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::hetero::sample_typed_graph;
    use flexgraph_graph::metapath::paper_metapaths;
    use proptest::prelude::*;

    #[test]
    fn direct_neighbors_match_graph_degrees() {
        let g = sample_graph();
        let h = from_direct_neighbors(&g, (0..9).collect());
        assert_eq!(h.num_roots(), 9);
        assert!(h.is_flat_instances());
        for v in 0..9 {
            assert_eq!(h.instances_of_root(v), g.in_degree(v as VertexId));
        }
    }

    #[test]
    fn records_sort_into_group_order_regardless_of_push_order() {
        let schema = SchemaTree::new(vec!["t0", "t1"]);
        let mut b = HdgBuilder::new(schema, vec![0, 1]);
        // Deliberately shuffled push order.
        b.push_at(1, 0, &[5]);
        b.push_at(0, 1, &[3]);
        b.push_at(0, 0, &[2]);
        b.push_at(1, 1, &[7, 8]);
        let h = b.build();
        assert_eq!(h.instance_leaves(0), &[2], "(root0, t0) first");
        assert_eq!(h.instance_leaves(1), &[3], "(root0, t1)");
        assert_eq!(h.instance_leaves(2), &[5], "(root1, t0)");
        assert_eq!(h.instance_leaves(3), &[7, 8], "(root1, t1)");
        assert_eq!(h.instance_group_index(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn metapath_hdg_reproduces_figure_3c() {
        let g = sample_typed_graph();
        let h = from_metapaths(&g, (0..9).collect(), &paper_metapaths(), 0);
        // Figure 3c: root A has 5 instances, 1 of MP1 and 4 of MP2.
        assert_eq!(h.instances_of_root(0), 5);
        assert_eq!(h.group_instances(0, 0).len(), 1);
        assert_eq!(h.group_instances(0, 1).len(), 4);
        // Instance leaves include the root itself (Figure 3c links A, C,
        // D to p1).
        let first = h.group_instances(0, 0).start;
        assert_eq!(h.instance_leaves(first), &[0, 3, 2]);
    }

    #[test]
    fn importance_hdg_is_flat_and_capped() {
        let g = sample_graph();
        let cfg = WalkConfig {
            num_traces: 30,
            n_hops: 3,
            top_k: 4,
        };
        let h = from_importance_walks(&g, (0..9).collect(), &cfg, 11);
        assert!(h.is_flat_instances());
        for v in 0..9 {
            assert!(h.instances_of_root(v) <= 4);
        }
    }

    #[test]
    fn hop_shell_hdg_levels() {
        let g = sample_graph();
        let h = from_hop_shells_capped(&g, (0..9).collect(), 2, 0, 0);
        assert_eq!(h.num_types(), 2);
        // Root A: hop1 shell {D,E,F,H} (4 leaves), hop2 shell {B,C,G,I}.
        assert_eq!(h.group_instances(0, 0).len(), 1);
        let s1 = h.group_instances(0, 0).start;
        assert_eq!(h.instance_leaves(s1).len(), 4);
        let s2 = h.group_instances(0, 1).start;
        assert_eq!(h.instance_leaves(s2).len(), 4);
    }

    #[test]
    fn capped_hop_shells_are_batch_independent() {
        let g = sample_graph();
        // Cap below the shell sizes so sampling actually triggers.
        let all = from_hop_shells_capped(&g, (0..9).collect(), 2, 2, 42);
        for v in 0..9u32 {
            assert!(all.leaves_of_root(v as usize) <= 4, "2 shells × cap 2");
            // A single-root build selects the same leaves in the same
            // order — the serving batch-parity invariant.
            let solo = from_hop_shells_capped(&g, vec![v], 2, 2, 42);
            for t in 0..2 {
                let a: Vec<_> = all
                    .group_instances(v as usize, t)
                    .map(|i| all.instance_leaves(i).to_vec())
                    .collect();
                let b: Vec<_> = solo
                    .group_instances(0, t)
                    .map(|i| solo.instance_leaves(i).to_vec())
                    .collect();
                assert_eq!(a, b, "root {v} type {t}");
            }
        }
        // Different seeds select different subsets somewhere.
        let other = from_hop_shells_capped(&g, (0..9).collect(), 2, 2, 43);
        assert_ne!(all.leaf_sources(), other.leaf_sources());
        // Cap 0 = uncapped, whatever the seed.
        let uncapped = from_hop_shells_capped(&g, (0..9).collect(), 2, 0, 42);
        let plain = from_hop_shells_capped(&g, (0..9).collect(), 2, 0, 0);
        assert_eq!(uncapped.leaf_sources(), plain.leaf_sources());
    }

    /// The definition `cap_tail_by` must keep computing: sort the whole
    /// shell by `(rank, id)`, keep the first `cap`, re-sort by id.
    fn cap_by_full_sort(shell: &mut Vec<VertexId>, cap: usize, rank: impl Fn(VertexId) -> u64) {
        if cap > 0 && shell.len() > cap {
            shell.sort_unstable_by_key(|&u| (rank(u), u));
            shell.truncate(cap);
            shell.sort_unstable();
        }
    }

    proptest! {
        /// Caps 0, 1, below, at and past the shell length. `ties` folds
        /// the hash onto that many ranks, so the id fallback decides;
        /// 0 leaves the hash whole. The shell is capped as the tail of
        /// a longer leaf array, which must come through untouched.
        #[test]
        fn cap_shell_keeps_the_full_sorts_survivors(
            members in proptest::collection::vec(0u32..5000, 0..80),
            cap in 0usize..90,
            root in 0u32..5000,
            seed in 0u64..1_000_000,
            ties in prop_oneof![Just(0u64), Just(1u64), Just(3u64)],
        ) {
            let mut shell = members;
            shell.sort_unstable();
            shell.dedup();
            let rank = |u: VertexId| {
                let hash = shell_rank(seed, root, u);
                if ties == 0 { hash } else { hash % ties }
            };
            let mut keyed = Vec::new();
            // The walk lends its last shell in discovery order: the same
            // members, hash-shuffled.
            let mut shuffled = shell.clone();
            shuffled.sort_unstable_by_key(|&u| mix64(seed ^ u as u64));
            for cap in [cap, 0, 1, shell.len(), shell.len() + 1] {
                let mut want = shell.clone();
                cap_by_full_sort(&mut want, cap, rank);
                let mut got = shell.clone();
                cap_tail_by(&mut got, 0, cap, &mut keyed, rank);
                prop_assert_eq!(&got, &want, "cap {}", cap);
                let earlier = [root, 9999, 3];
                let mut tail = earlier.to_vec();
                tail.extend_from_slice(&shell);
                cap_tail_by(&mut tail, earlier.len(), cap, &mut keyed, rank);
                prop_assert_eq!(&tail[..earlier.len()], &earlier);
                prop_assert_eq!(&tail[earlier.len()..], &want[..], "as a tail, cap {}", cap);
                let mut got = shuffled.clone();
                cap_tail_by(&mut got, 0, cap, &mut keyed, rank);
                prop_assert_eq!(&got, &want, "shuffled, cap {}", cap);
                let mut tail = earlier.to_vec();
                tail.extend_from_slice(&shuffled);
                cap_tail_by(&mut tail, earlier.len(), cap, &mut keyed, rank);
                prop_assert_eq!(&tail[..earlier.len()], &earlier);
                prop_assert_eq!(&tail[earlier.len()..], &want[..], "shuffled tail, cap {}", cap);
            }
        }
    }

    /// Every occurrence of a repeated root gets its own selection; the
    /// builder used to key ranks by vertex id and pile them all onto
    /// the last one.
    #[test]
    fn duplicate_roots_each_get_their_own_instances() {
        let g = sample_graph();
        let typed = sample_typed_graph();
        let roots = vec![0u32, 3, 0];
        let check = |h: &Hdg| {
            assert_eq!(h.root_ids(), &roots[..]);
            assert!(h.instances_of_root(0) > 0);
            assert_eq!(h.instances_of_root(0), h.instances_of_root(2));
            assert_eq!(h.root_leaf_sources(0), h.root_leaf_sources(2));
        };
        check(&from_direct_neighbors(&g, roots.clone()));
        check(&from_hop_shells_capped(&g, roots.clone(), 2, 2, 42));
        check(&from_metapaths(
            &typed,
            roots.clone(),
            &paper_metapaths(),
            0,
        ));
        let lists: Vec<Vec<VertexId>> = (0..9).map(|v| vec![v, (v + 1) % 9]).collect();
        check(&from_neighbor_lists(roots.clone(), &lists));
        let direct = from_direct_neighbors(&g, roots.clone());
        assert_eq!(direct.instances_of_root(0), g.in_degree(0));
        assert_eq!(direct.instances_of_root(1), g.in_degree(3));
    }

    #[test]
    #[should_panic(expected = "outside this builder's 1 roots")]
    fn rank_outside_roots_rejected() {
        HdgBuilder::new(SchemaTree::flat(), vec![0]).push_at(1, 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "outside schema")]
    fn type_outside_schema_rejected() {
        HdgBuilder::new(SchemaTree::flat(), vec![0]).push_at(0, 1, &[1]);
    }

    /// A builder with no roots owns no rank at all.
    #[test]
    #[should_panic(expected = "outside this builder's 0 roots")]
    fn foreign_root_rejected() {
        HdgBuilder::new(SchemaTree::flat(), vec![]).push_at(0, 0, &[1]);
    }

    #[test]
    fn empty_hdg_is_valid() {
        let h = HdgBuilder::new(SchemaTree::flat(), vec![0, 1]).build();
        assert_eq!(h.num_instances(), 0);
        assert_eq!(h.instances_of_root(0), 0);
        assert!(h.dependency_leaves().is_empty());
    }
}
