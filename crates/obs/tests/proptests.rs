//! Property tests for telemetry aggregation (ISSUE 4 satellite):
//! merging per-partition epoch records is order-insensitive, and the
//! underlying counter merge is associative. These are the invariants
//! that make the merged `TraceEpoch` — and therefore the trace file and
//! the ADB cost samples — independent of worker completion order.

use flexgraph_obs::{
    CommCounters, FabricCounters, PartitionRecord, Stage, StageSample, TraceEpoch,
};
use proptest::prelude::*;

/// Strategy: one partition record with bounded counters. Values stay
/// well under `u64::MAX / 64` so sums cannot overflow in any test.
fn arb_record() -> impl Strategy<Value = PartitionRecord> {
    (
        (0u64..4, 0u32..6), // (epoch, partition)
        proptest::collection::vec((0u64..1000, 0u64..100_000, 0u64..1_000_000), Stage::COUNT),
        (0u64..100, 0u64..1_000_000, 0u64..50, 0u64..50),
        proptest::collection::vec((0u32..32, 1u64..10_000), 0..8),
        0u8..2,
    )
        .prop_map(|((epoch, partition), stages, comm, roots, pipelined)| {
            let mut r = PartitionRecord::new(epoch, partition);
            r.pipelined = pipelined == 1;
            for (st, &(inv, work, wall)) in Stage::ALL.into_iter().zip(&stages) {
                *r.stage_mut(st) = StageSample {
                    invocations: inv,
                    work,
                    wall_ns: wall,
                };
            }
            r.comm = CommCounters {
                messages: comm.0,
                bytes: comm.1,
                partial_msgs: comm.2,
                raw_msgs: comm.3,
            };
            for (v, c) in roots {
                r.add_root_cost(v, c);
            }
            r
        })
}

fn arb_fabric() -> impl Strategy<Value = FabricCounters> {
    (0u64..1_000_000, 0u64..1000, 0u64..50, 0u64..50, 0u64..50).prop_map(
        |(bytes, messages, retries, drops, redeliveries)| FabricCounters {
            bytes,
            messages,
            retries,
            drops_injected: drops,
            redeliveries,
        },
    )
}

/// Folds records into a fresh epoch in the given visit order. A
/// `TraceEpoch` only ever holds one epoch's records, so the fold rekeys
/// each record to `epoch` (the real trainer constructs them that way).
fn fold(epoch: u64, records: &[PartitionRecord], order: &[usize]) -> TraceEpoch {
    let mut ep = TraceEpoch::new(epoch);
    for &i in order {
        let mut r = records[i].clone();
        r.epoch = epoch;
        ep.absorb(r);
    }
    ep
}

/// Builds a permutation of `0..n` from a seed (Fisher–Yates with a
/// splitmix-style generator — deterministic, covers all orders).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        p.swap(i, j);
    }
    p
}

proptest! {
    /// Absorbing the same multiset of partition records in any order
    /// yields the identical merged epoch.
    #[test]
    fn epoch_merge_is_order_insensitive(
        records in proptest::collection::vec(arb_record(), 1..12),
        seed in 0u64..u64::MAX,
    ) {
        let n = records.len();
        let forward = fold(0, &records, &(0..n).collect::<Vec<_>>());
        let shuffled = fold(0, &records, &permutation(n, seed));
        prop_assert_eq!(forward, shuffled);
    }

    /// PartitionRecord::merge is associative: (a·b)·c == a·(b·c).
    #[test]
    fn record_merge_is_associative(
        a in arb_record(),
        b in arb_record(),
        c in arb_record(),
    ) {
        // Force all three onto the same key; merge requires it.
        let rekey = |mut r: PartitionRecord| { r.epoch = 0; r.partition = 0; r };
        let (a, b, c) = (rekey(a), rekey(b), rekey(c));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// PartitionRecord::merge is commutative on matching keys.
    #[test]
    fn record_merge_is_commutative(a in arb_record(), b in arb_record()) {
        let rekey = |mut r: PartitionRecord| { r.epoch = 1; r.partition = 3; r };
        let (a, b) = (rekey(a), rekey(b));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// TraceEpoch::merge (partition-keyed + fabric) is associative.
    #[test]
    fn epoch_merge_is_associative(
        ra in proptest::collection::vec(arb_record(), 0..6),
        rb in proptest::collection::vec(arb_record(), 0..6),
        rc in proptest::collection::vec(arb_record(), 0..6),
        fa in arb_fabric(),
        fb in arb_fabric(),
        fc in arb_fabric(),
    ) {
        let build = |records: Vec<PartitionRecord>, fabric: FabricCounters| {
            let mut ep = TraceEpoch::new(0);
            for mut r in records {
                r.epoch = 0; // one epoch per trace record set
                ep.absorb(r);
            }
            ep.fabric = fabric;
            ep
        };
        let (a, b, c) = (build(ra, fa), build(rb, fb), build(rc, fc));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// The bulk root-cost setter builds the same map as an
    /// `add_root_cost` fold over distinct ascending ids.
    #[test]
    fn set_root_costs_equals_add_root_cost_fold(
        costs in proptest::collection::vec((0u32..4096, 0u64..1_000_000), 0..200),
    ) {
        let mut costs = costs;
        costs.sort_unstable_by_key(|&(v, _)| v);
        costs.dedup_by_key(|&mut (v, _)| v);
        let mut folded = PartitionRecord::new(2, 5);
        for &(v, c) in &costs {
            folded.add_root_cost(v, c);
        }
        let mut bulk = PartitionRecord::new(2, 5);
        bulk.set_root_costs(costs.iter().copied());
        prop_assert_eq!(bulk, folded);
    }

    /// Digest + totals are stable across merge order (what the trace
    /// writer actually serializes).
    #[test]
    fn serialized_digests_are_order_stable(
        records in proptest::collection::vec(arb_record(), 1..10),
        seed in 0u64..u64::MAX,
    ) {
        let n = records.len();
        let a = fold(0, &records, &(0..n).collect::<Vec<_>>());
        let b = fold(0, &records, &permutation(n, seed));
        prop_assert_eq!(a.work_total(), b.work_total());
        for (pa, pb) in a.partitions.values().zip(b.partitions.values()) {
            prop_assert_eq!(pa.root_digest(), pb.root_digest());
            prop_assert_eq!(
                flexgraph_obs::trace::render_part(1, pa, false),
                flexgraph_obs::trace::render_part(1, pb, false)
            );
        }
    }
}
