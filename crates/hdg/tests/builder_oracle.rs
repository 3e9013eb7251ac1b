//! The flat builder against the record-at-a-time one it replaced, and
//! the metapath prefix tree against the flat builder.
//!
//! [`ReferenceBuilder`] is `HdgBuilder` as it stood before construction
//! became one pass: a `Vec` of heap-allocated records, a vertex-id →
//! rank hash map consulted per record, a counting sort over every record
//! in `build`. It lives here as the oracle; the flat builder must freeze
//! the same three arrays from the same pushes, whatever order they
//! arrive in. The capped hop-shell selection is checked against the
//! same oracle fed from `bfs::hop_shells` and a full-sort cap.
//!
//! Single-leaf instances freeze the unit layout, whose view must be the
//! reference's arrays; one other instance keeps the flat layout.
//!
//! `from_metapaths` writes MAGNN's HDG as a prefix tree; its flat view
//! must equal the arrays `HdgBuilder::push_at` freezes from the same
//! search, and the hierarchical attention pool must return the same
//! value and gradient bits over the tree as over those flat arrays.

use flexgraph_graph::bfs::{hop_shells, HopScratch};
use flexgraph_graph::csr::{Graph, GraphBuilder};
use flexgraph_graph::gen;
use flexgraph_graph::hetero::{sample_typed_graph, TypedGraph};
use flexgraph_graph::metapath::{for_each_instance, paper_metapaths, Metapath};
use flexgraph_hdg::build::{from_hop_shells_capped, from_metapaths, select_hop_shells};
use flexgraph_hdg::{Hdg, HdgBuilder, SchemaTree};
use flexgraph_tensor::{set_thread_override, Tensor};
use proptest::prelude::*;
use std::collections::HashMap;

/// `(group_off, inst_off, leaf_src)` — Figure 9's arrays.
type Arrays = (Vec<usize>, Vec<usize>, Vec<u32>);

/// One neighbor instance as the old builder took it: its root by id.
struct Record {
    root: u32,
    nei_type: u16,
    leaves: Vec<u32>,
}

struct ReferenceBuilder {
    num_types: usize,
    root_rank: HashMap<u32, usize>,
    records: Vec<Record>,
}

impl ReferenceBuilder {
    fn new(num_types: usize, root_ids: &[u32]) -> Self {
        let root_rank = root_ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        Self {
            num_types,
            root_rank,
            records: Vec::new(),
        }
    }

    fn push(&mut self, rec: Record) {
        assert!((rec.nei_type as usize) < self.num_types);
        assert!(self.root_rank.contains_key(&rec.root));
        self.records.push(rec);
    }

    fn build(self) -> Arrays {
        let t = self.num_types;
        let n = self.root_rank.len();
        let m = self.records.len();

        // One pass: group key per record + group sizes.
        let mut keys = Vec::with_capacity(m);
        let mut group_off = vec![0usize; n * t + 1];
        for r in &self.records {
            let g = self.root_rank[&r.root] * t + r.nei_type as usize;
            keys.push(g);
            group_off[g + 1] += 1;
        }
        for i in 0..n * t {
            group_off[i + 1] += group_off[i];
        }

        // Counting-sort the record indices into group order.
        let mut cursor = group_off.clone();
        let mut order = vec![0u32; m];
        for (i, &g) in keys.iter().enumerate() {
            order[cursor[g]] = i as u32;
            cursor[g] += 1;
        }

        let mut inst_off = vec![0usize];
        let mut leaf_src = Vec::new();
        for &i in &order {
            leaf_src.extend_from_slice(&self.records[i as usize].leaves);
            inst_off.push(leaf_src.len());
        }
        (group_off, inst_off, leaf_src)
    }
}

fn arrays(h: &Hdg) -> Arrays {
    (
        h.group_offsets().to_vec(),
        h.inst_offsets().to_vec(),
        h.leaf_sources().to_vec(),
    )
}

fn schema(n_types: usize) -> SchemaTree {
    SchemaTree::new((0..n_types).map(|i| format!("t{i}")).collect::<Vec<_>>())
}

/// One push: `(rank, type, leaves)`.
type Push = (usize, u16, Vec<u32>);

/// `(n_roots, n_types, pushes)`. Few pushes over up to 7 × 4 groups
/// leave most groups empty; leaves run from none to several.
fn pushes_strategy() -> impl Strategy<Value = (usize, usize, Vec<Push>)> {
    (1usize..8, 1usize..5).prop_flat_map(|(n_roots, n_types)| {
        let push = (
            0..n_roots,
            0..n_types as u16,
            proptest::collection::vec(0u32..100, 0..5),
        );
        proptest::collection::vec(push, 0..40).prop_map(move |p| (n_roots, n_types, p))
    })
}

proptest! {
    /// Distinct, unordered root ids; the reference takes each record by
    /// id and resolves it through its hash map, the builder takes the
    /// rank. Pushes come in the drawn order (mostly out of group order)
    /// and again sorted into it (the path that skips the permutation).
    /// Ties keep push order both ways.
    #[test]
    fn by_id_pushes_freeze_the_reference_arrays(
        (n_roots, n_types, pushes) in pushes_strategy(),
        stride in prop_oneof![Just(1u32), Just(3u32), Just(7u32)],
    ) {
        // 0, s, 2s, … mod 8 with s odd: a permutation of distinct ids.
        let root_ids: Vec<u32> = (0..n_roots as u32).map(|r| (r * stride) % 8 + 10).collect();
        let mut in_group_order = pushes.clone();
        in_group_order.sort_by_key(|&(rank, t, _)| (rank, t));
        for pushes in [pushes, in_group_order] {
            let mut want = ReferenceBuilder::new(n_types, &root_ids);
            let mut got = HdgBuilder::new(schema(n_types), root_ids.clone());
            for (rank, nei_type, leaves) in pushes {
                got.push_at(rank, nei_type, &leaves);
                want.push(Record { root: root_ids[rank], nei_type, leaves });
            }
            prop_assert_eq!(got.len(), want.records.len());
            let hdg = got.build();
            prop_assert_eq!(hdg.root_ids(), &root_ids[..]);
            prop_assert_eq!(arrays(&hdg), want.build());
        }
    }

    /// Duplicate root ids, pushed by rank. The reference cannot tell two
    /// occurrences of an id apart, so it is given the ranks themselves
    /// as (distinct) ids; the arrays carry no ids and must be equal.
    #[test]
    fn by_rank_pushes_keep_duplicate_roots_apart(
        (n_roots, n_types, pushes) in pushes_strategy(),
    ) {
        let root_ids: Vec<u32> = (0..n_roots as u32).map(|r| r % 3).collect();
        let ranks: Vec<u32> = (0..n_roots as u32).collect();
        let mut want = ReferenceBuilder::new(n_types, &ranks);
        let mut got = HdgBuilder::new(schema(n_types), root_ids.clone());
        for (rank, nei_type, leaves) in pushes {
            got.push_at(rank, nei_type, &leaves);
            want.push(Record { root: rank as u32, nei_type, leaves });
        }
        let hdg = got.build();
        prop_assert_eq!(hdg.root_ids(), &root_ids[..]);
        prop_assert_eq!(arrays(&hdg), want.build());
    }
}

/// `(n_roots, n_types, pushes)` of single-leaf instances, and one
/// instance that is not: empty or of two to four leaves.
fn unit_pushes_strategy() -> impl Strategy<Value = (usize, usize, Vec<Push>, Vec<u32>)> {
    let odd = prop_oneof![Just(vec![]), proptest::collection::vec(0u32..100, 2..5)];
    (pushes_strategy(), odd).prop_map(|((n_roots, n_types, pushes), odd)| {
        let unit = pushes
            .into_iter()
            .map(|(r, t, l)| (r, t, vec![l.first().copied().unwrap_or(7)]));
        (n_roots, n_types, unit.collect(), odd)
    })
}

/// Freezes `pushes` in the builder and in the reference.
fn freeze(n_roots: usize, n_types: usize, pushes: &[Push]) -> (Hdg, Arrays) {
    let root_ids: Vec<u32> = (0..n_roots as u32).collect();
    let mut want = ReferenceBuilder::new(n_types, &root_ids);
    let mut got = HdgBuilder::new(schema(n_types), root_ids.clone());
    for (rank, nei_type, leaves) in pushes.iter().cloned() {
        got.push_at(rank, nei_type, &leaves);
        want.push(Record {
            root: rank as u32,
            nei_type,
            leaves,
        });
    }
    (got.build(), want.build())
}

proptest! {
    /// Single-leaf pushes, in the drawn order and in group order, freeze
    /// the unit layout: group offsets over the leaves and no instance
    /// offsets, until a reader asks for the view, which is the
    /// reference's arrays. `for_each_instance` walks the same leaves
    /// without building it.
    #[test]
    fn single_leaf_pushes_freeze_the_unit_layout(
        (n_roots, n_types, pushes, _) in unit_pushes_strategy(),
    ) {
        let mut in_group_order = pushes.clone();
        in_group_order.sort_by_key(|&(rank, t, _)| (rank, t));
        for pushes in [pushes, in_group_order] {
            let (hdg, want) = freeze(n_roots, n_types, &pushes);
            prop_assert!(hdg.hierarchy().leaf_groups().is_some());
            prop_assert!(hdg.is_flat_instances());
            let stored = hdg.heap_bytes();
            let schema = schema(n_types).heap_bytes();
            let leaves = pushes.len();
            prop_assert_eq!(stored, 4 * n_roots + 8 * (n_roots * n_types + 1) + 4 * leaves + schema);
            let mut walked = (vec![0usize; n_roots * n_types], Vec::<u32>::new());
            hdg.for_each_instance(|g, l| {
                walked.0[g] += 1;
                walked.1.extend(l);
            });
            prop_assert_eq!(hdg.num_instances(), leaves);
            prop_assert_eq!(hdg.heap_bytes(), stored, "no view built yet");
            prop_assert_eq!(&walked.1, &want.2);
            let sizes: Vec<usize> = want.0.windows(2).map(|w| w[1] - w[0]).collect();
            prop_assert_eq!(walked.0, sizes);
            prop_assert_eq!(arrays(&hdg), want);
            prop_assert_eq!(hdg.heap_bytes(), stored + 8 * (leaves + 1) + 4 * leaves, "the view");
        }
    }

    /// One empty or multi-leaf instance among single-leaf ones, wherever
    /// it is pushed, keeps Figure 9's flat layout.
    #[test]
    fn one_other_instance_keeps_the_flat_layout(
        (n_roots, n_types, mut pushes, odd) in unit_pushes_strategy(),
        at in 0usize..64,
    ) {
        let at = at % (pushes.len() + 1);
        pushes.insert(at, (at % n_roots, (at % n_types) as u16, odd));
        let (hdg, want) = freeze(n_roots, n_types, &pushes);
        prop_assert!(hdg.hierarchy().leaf_groups().is_none());
        prop_assert!(!hdg.is_flat_instances());
        let stored = hdg.heap_bytes();
        prop_assert_eq!(arrays(&hdg), want);
        prop_assert_eq!(hdg.heap_bytes(), stored, "the flat layout is its own view");
    }
}

/// SplitMix64 finalizer: the sampling hash's definition, restated.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The capped hop-shell HDG of every root of `g`, record at a time:
/// each sorted shell of `hop_shells`, capped by sorting all of it on
/// `(rank, id)`, keeping the first `cap` and sorting those by id.
fn reference_hop_shells(g: &Graph, k: usize, cap: usize, seed: u64) -> Arrays {
    let roots: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let mut want = ReferenceBuilder::new(k, &roots);
    for &root in &roots {
        for (t, mut shell) in hop_shells(g, root, k).into_iter().enumerate() {
            if shell.is_empty() {
                continue;
            }
            if cap > 0 && shell.len() > cap {
                let rank = |u: u32| mix64(seed ^ mix64((root as u64) << 32 | u as u64));
                shell.sort_unstable_by_key(|&u| (rank(u), u));
                shell.truncate(cap);
                shell.sort_unstable();
            }
            want.push(Record {
                root,
                nei_type: t as u16,
                leaves: shell,
            });
        }
    }
    want.build()
}

/// `g` with a self-loop added on every third vertex.
fn with_self_loops(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices());
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    for v in (0..g.num_vertices() as u32).step_by(3) {
        b.add_edge(v, v);
    }
    b.build()
}

/// Every root of `g` as one batch, `k` in 1..=3, caps 0, 1, 8 and past
/// every shell: the arrays equal the reference's. Each single-root and
/// one strided batch's closure counted on the walk's stamps equals
/// `sort + dedup` of `roots ++ leaves`.
fn assert_hop_shells_match_oracle(g: &Graph, seed: u64) {
    let n = g.num_vertices();
    let strided: Vec<u32> = (0..n as u32).step_by(3).chain([0]).collect();
    for k in 1..=3 {
        for cap in [0, 1, 8, n + 1] {
            let got = from_hop_shells_capped(g, (0..n as u32).collect(), k, cap, seed);
            assert_eq!(
                arrays(&got),
                reference_hop_shells(g, k, cap, seed),
                "k {k} cap {cap}"
            );
            let batches = (0..n as u32).map(|r| vec![r]).chain([strided.clone()]);
            let mut scratch = HopScratch::new();
            for roots in batches {
                let b = select_hop_shells(g, roots.clone(), k, cap, seed, &mut scratch).unwrap();
                let mut closure = [&roots[..], b.leaves()].concat();
                closure.sort_unstable();
                closure.dedup();
                let counted = scratch.count_distinct(roots.iter().chain(b.leaves()).copied());
                assert_eq!(counted, closure.len(), "roots {roots:?} k {k} cap {cap}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// R-MAT graphs have isolated roots (no shell at all), hubs whose
    /// last shell is far over any cap, and trailing empty shells.
    #[test]
    fn capped_hop_shells_match_sorted_shells_on_rmat(
        scale in 3u32..7,
        edge_factor in 1usize..4,
        graph_seed in 0u64..1000,
        seed in 0u64..1_000_000,
    ) {
        let g = gen::rmat(scale, edge_factor, 2, 2, graph_seed, "t").graph;
        assert_hop_shells_match_oracle(&g, seed);
        assert_hop_shells_match_oracle(&with_self_loops(&g), seed);
    }

    #[test]
    fn capped_hop_shells_match_sorted_shells_on_community(
        n in 8usize..60,
        intra in 1usize..4,
        inter in 0usize..2,
        graph_seed in 0u64..1000,
        seed in 0u64..1_000_000,
    ) {
        let g = gen::community(n, 2, intra, inter, 2, graph_seed).graph;
        assert_hop_shells_match_oracle(&g, seed);
        assert_hop_shells_match_oracle(&with_self_loops(&g), seed);
    }
}

/// MAGNN's HDG the flat way: every instance of the search pushed whole.
fn flat_metapaths(g: &TypedGraph, roots: &[u32], paths: &[Metapath], cap: usize) -> Hdg {
    let names: Vec<String> = (1..=paths.len()).map(|i| format!("MP{i}")).collect();
    let mut b = HdgBuilder::new(SchemaTree::new(names), roots.to_vec());
    for (rank, &root) in roots.iter().enumerate() {
        for_each_instance(g, root, paths, cap, |mi, path| {
            b.push_at(rank, mi as u16, path)
        });
    }
    b.build()
}

/// The prefix tree's counts, bytes and flat view against the flat
/// builder's HDG of the same search; returns both.
fn assert_prefix_tree_matches_builder(
    g: &TypedGraph,
    roots: &[u32],
    paths: &[Metapath],
    cap: usize,
) -> (Hdg, Hdg) {
    let got = from_metapaths(g, roots.to_vec(), paths, cap);
    let want = flat_metapaths(g, roots, paths, cap);
    assert_eq!(got.root_ids(), roots);
    assert_eq!(got.num_instances(), want.num_instances());
    assert_eq!(got.naive_bytes(), want.naive_bytes());
    let stored = got.heap_bytes();
    assert!(
        stored < want.heap_bytes(),
        "{stored} vs flat {}",
        want.heap_bytes()
    );
    assert_eq!(arrays(&got), arrays(&want), "cap {cap}");
    // The flat view is built on first use, once, and counted from then.
    let view = want.hierarchy().heap_bytes();
    assert_eq!(got.heap_bytes(), stored + view);
    (got, want)
}

/// `n` vertices of `k` types; each vertex draws up to four out-edges
/// in random order, repeats and self-loops included.
fn typed_graph(n: usize, k: u8, seed: u64) -> TypedGraph {
    let mut rng = seed;
    let mut next = |below: usize| {
        rng = mix64(rng);
        (rng % below as u64) as usize
    };
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        for _ in 0..next(5) {
            let u = next(n) as u32;
            b.add_edge(v, u);
            if next(4) == 0 {
                b.add_edge(v, u);
            }
        }
    }
    let types = (0..n).map(|_| next(k as usize) as u8).collect();
    TypedGraph::new(b.build(), types)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random typings and metapaths over one more type than the graph
    /// has (so some roots start no metapath and some metapaths match
    /// nothing), out-edges that repeat a mid outside its run, caps that
    /// cut runs, and roots repeated and out of order.
    #[test]
    fn prefix_tree_views_equal_the_flat_builder(
        n in 1usize..40,
        k in 1u8..4,
        graph_seed in 0u64..1_000_000,
        raw_paths in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..5),
        cap in prop_oneof![Just(0usize), Just(1usize), Just(2usize), Just(3usize)],
    ) {
        let g = typed_graph(n, k, graph_seed);
        let paths: Vec<Metapath> = raw_paths
            .iter()
            .map(|&(a, b, c)| Metapath::new(vec![a % (k + 1), b % (k + 1), c % (k + 1)]))
            .collect();
        let all: Vec<u32> = (0..n as u32).collect();
        let shuffled: Vec<u32> = (0..n as u32).rev().chain((0..n as u32).step_by(2)).collect();
        for roots in [all, shuffled] {
            assert_prefix_tree_matches_builder(&g, &roots, &paths, cap);
        }
    }
}

#[test]
fn paper_metapaths_prefix_tree_equals_the_flat_builder() {
    let g = sample_typed_graph();
    for cap in [0, 1, 2, 3] {
        let roots: Vec<u32> = (0..9).chain([0, 4, 0]).collect();
        let (got, _) = assert_prefix_tree_matches_builder(&g, &roots, &paper_metapaths(), cap);
        // Figure 3c's root A: the mids D, E, F, H, H are four runs.
        assert!(cap != 0 || got.group_instances(0, 1).len() == 4);
    }
}

/// Value and `d loss / d h` bits of the pool over `index`, at `threads`.
fn pool_bits(
    h: &Tensor,
    index: &std::sync::Arc<flexgraph_tensor::HierarchyIndex>,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    set_thread_override(Some(threads));
    let mut tape = flexgraph_tensor::Graph::new();
    let hn = tape.param(h.clone(), 0);
    let pooled = tape.hierarchical_attention_pool(hn, index.clone());
    let (roots, d) = (index.num_roots(), h.cols());
    let readout = (0..roots * d).map(|i| (i % 7) as f32 - 3.0).collect();
    let r = tape.leaf(Tensor::from_vec(roots, d, readout));
    let m = tape.mul(pooled, r);
    let loss = tape.mean_all(m);
    tape.backward(loss);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect();
    let grad = tape.grad(hn).expect("h is a parameter");
    let out = (bits(tape.value(pooled)), bits(grad));
    set_thread_override(None);
    out
}

/// The pool walks the prefix tree as it is: the same bits as over the
/// flat builder's arrays, at 1, 2 and 4 threads, and no flat view built.
/// Feature rows carry a few infinities and huge negatives.
#[test]
fn pool_over_the_prefix_tree_equals_the_flat_walk() {
    let mut rng = 7u64;
    for (n, k, seed) in [(40, 3, 1), (120, 2, 2), (300, 3, 3)] {
        let g = typed_graph(n, k, seed);
        let paths: Vec<Metapath> = [[0, 1, 0], [0, 2, 0], [1, 0, 2], [2, 2, 2], [1, 1, 0]]
            .iter()
            .map(|t| Metapath::new(t.to_vec()))
            .collect();
        let roots: Vec<u32> = (0..n as u32).collect();
        for cap in [0, 2] {
            let prefix = from_metapaths(&g, roots.clone(), &paths, cap);
            let flat = flat_metapaths(&g, &roots, &paths, cap);
            for d in [1, 9, 16] {
                let mut data: Vec<f32> = (0..n * d)
                    .map(|_| {
                        rng = mix64(rng);
                        (rng % 2001) as f32 / 250.0 - 4.0
                    })
                    .collect();
                data[(seed as usize * 13) % (n * d)] = f32::INFINITY;
                data[(seed as usize * 29) % (n * d)] = -1.0e30;
                let h = Tensor::from_vec(n, d, data);
                let stored = prefix.heap_bytes();
                let want = pool_bits(&h, flat.hierarchy(), 1);
                for threads in [1, 2, 4] {
                    let got = pool_bits(&h, prefix.hierarchy(), threads);
                    assert_eq!(got.0, want.0, "value: n {n} cap {cap} d {d} @ {threads}");
                    assert_eq!(got.1, want.1, "grad: n {n} cap {cap} d {d} @ {threads}");
                }
                assert_eq!(prefix.heap_bytes(), stored, "the pool built no flat view");
            }
        }
    }
}
