//! The flat builder against the record-at-a-time one it replaced.
//!
//! [`ReferenceBuilder`] is `HdgBuilder` as it stood before construction
//! became one pass: a `Vec` of heap-allocated records, a vertex-id →
//! rank hash map consulted per record, a counting sort over every record
//! in `build`. It lives here as the oracle; the flat builder must freeze
//! the same three arrays from the same pushes, whatever order they
//! arrive in. The capped hop-shell selection is checked against the
//! same oracle fed from `bfs::hop_shells` and a full-sort cap.

use flexgraph_graph::bfs::{hop_shells, HopScratch};
use flexgraph_graph::csr::{Graph, GraphBuilder};
use flexgraph_graph::gen;
use flexgraph_hdg::build::{from_hop_shells_capped, select_hop_shells};
use flexgraph_hdg::{Hdg, HdgBuilder, SchemaTree};
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
