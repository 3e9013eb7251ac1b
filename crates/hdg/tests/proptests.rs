//! Property tests for HDG construction: the compact storage must encode
//! exactly the records the builder received, for arbitrary record sets.

use flexgraph_hdg::{Hdg, HdgBuilder, SchemaTree};
use proptest::prelude::*;

/// One record: `(root, type, leaves)`. Root ids are `0..n_roots`, so an
/// id is also its rank.
type Record = (u32, u16, Vec<u32>);

fn records_strategy() -> impl Strategy<Value = (usize, usize, Vec<Record>)> {
    (1usize..8, 1usize..4).prop_flat_map(|(n_roots, n_types)| {
        let rec = (
            0..n_roots as u32,
            0..n_types as u16,
            proptest::collection::vec(0u32..100, 1..5),
        );
        proptest::collection::vec(rec, 0..30).prop_map(move |recs| (n_roots, n_types, recs))
    })
}

fn build(n_roots: usize, n_types: usize, records: &[Record]) -> Hdg {
    let schema = SchemaTree::new((0..n_types).map(|i| format!("t{i}")).collect::<Vec<_>>());
    let mut b = HdgBuilder::new(schema, (0..n_roots as u32).collect());
    for (root, nei_type, leaves) in records {
        b.push_at(*root as usize, *nei_type, leaves);
    }
    b.build()
}

proptest! {
    #[test]
    fn compact_storage_preserves_every_record((n_roots, n_types, records) in records_strategy()) {
        let hdg = build(n_roots, n_types, &records);

        prop_assert_eq!(hdg.num_instances(), records.len());
        prop_assert_eq!(hdg.num_groups(), n_roots * n_types);

        // Reconstruct (root, type, leaves) multisets from the storage and
        // compare against the input records.
        let mut got: Vec<Record> = Vec::new();
        for root in 0..n_roots {
            for t in 0..n_types {
                for i in hdg.group_instances(root, t) {
                    got.push((
                        root as u32,
                        t as u16,
                        hdg.instance_leaves(i).to_vec(),
                    ));
                }
            }
        }
        let mut want = records;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn leaf_counts_are_consistent((n_roots, n_types, records) in records_strategy()) {
        let hdg = build(n_roots, n_types, &records);
        let total: usize = (0..n_roots).map(|r| hdg.leaves_of_root(r)).sum();
        let want: usize = records.iter().map(|(_, _, leaves)| leaves.len()).sum();
        prop_assert_eq!(total, want);
        // The group plan's index is the omitted Dst array.
        let plan = hdg.group_scatter_plan();
        let idx = plan.index();
        for g in 0..hdg.num_groups() {
            let root = g / n_types;
            let t = g % n_types;
            for i in hdg.group_instances(root, t) {
                prop_assert_eq!(idx[i] as usize, g);
            }
        }
    }
}
