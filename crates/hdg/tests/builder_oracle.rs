//! The flat builder against the record-at-a-time one it replaced.
//!
//! [`ReferenceBuilder`] is `HdgBuilder` as it stood before construction
//! became one pass: a `Vec<NeighborRecord>`, a vertex-id → rank hash map
//! consulted per record, a counting sort over every record in `build`.
//! It lives here as the oracle; the flat builder must freeze the same
//! three arrays from the same pushes, whatever order they arrive in.

use flexgraph_hdg::{Hdg, HdgBuilder, NeighborRecord, SchemaTree};
use proptest::prelude::*;
use std::collections::HashMap;

/// `(group_off, inst_off, leaf_src)` — Figure 9's arrays.
type Arrays = (Vec<usize>, Vec<usize>, Vec<u32>);

struct ReferenceBuilder {
    num_types: usize,
    root_rank: HashMap<u32, usize>,
    records: Vec<NeighborRecord>,
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

    fn push(&mut self, rec: NeighborRecord) {
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
    /// Distinct, unordered root ids; records pushed by id, in the drawn
    /// order (mostly out of group order) and again sorted into it (the
    /// path that skips the permutation). Ties keep push order both ways.
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
                let rec = NeighborRecord { root: root_ids[rank], nei_type, leaves };
                want.push(rec.clone());
                got.push(rec);
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
            want.push(NeighborRecord { root: rank as u32, nei_type, leaves });
        }
        let hdg = got.build();
        prop_assert_eq!(hdg.root_ids(), &root_ids[..]);
        prop_assert_eq!(arrays(&hdg), want.build());
    }
}
