//! Property tests for the message codec: arbitrary payloads round-trip
//! exactly through both encoders and both decoders, and malformed frames
//! — truncated prefixes, corrupted bytes, raw garbage — always surface
//! structured [`DecodeError`]s instead of panicking. And one for the
//! link's send half: `plan_send` against its definition.

use bytes::Bytes;
use flexgraph_comm::clock::backoff_for;
use flexgraph_comm::link::plan_send;
use flexgraph_comm::{
    decode_rows, decode_rows_with, encode_flat_rows, encode_rows, try_decode_rows,
    try_decode_rows_with, ChaosSchedule, RetryPolicy,
};
use proptest::prelude::*;
use std::time::Duration;

fn rows_strategy() -> impl Strategy<Value = (usize, Vec<u32>, Vec<f32>)> {
    (0usize..40, 1usize..16).prop_flat_map(|(rows, dim)| {
        (
            proptest::collection::vec(0u32..1_000_000, rows),
            proptest::collection::vec(
                prop_oneof![
                    -1e6f32..1e6,
                    Just(0.0f32),
                    Just(f32::MIN_POSITIVE),
                    Just(-0.0f32),
                ],
                rows * dim,
            ),
        )
            .prop_map(move |(ids, flat)| (dim, ids, flat))
    })
}

proptest! {
    #[test]
    fn flat_and_ref_encoders_agree((dim, ids, flat) in rows_strategy()) {
        let refs: Vec<(u32, &[f32])> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, &flat[i * dim..(i + 1) * dim]))
            .collect();
        let a = encode_rows(dim, &refs);
        let b = encode_flat_rows(dim, &ids, &flat);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn owned_and_streaming_decoders_agree((dim, ids, flat) in rows_strategy()) {
        let enc = encode_flat_rows(dim, &ids, &flat);
        let (d1, owned) = decode_rows(enc.clone());
        let mut streamed = Vec::new();
        let d2 = decode_rows_with(&enc, |id, row| streamed.push((id, row.to_vec())));
        prop_assert_eq!(d1, dim);
        prop_assert_eq!(d2, dim);
        prop_assert_eq!(owned, streamed);
    }

    #[test]
    fn truncated_prefixes_error_never_panic(
        (dim, ids, flat) in rows_strategy(),
        frac in 0.0f64..1.0,
    ) {
        let enc = encode_flat_rows(dim, &ids, &flat);
        // Frames are never empty (8 header bytes), so a strict prefix
        // always exists.
        let cut_len = ((enc.len() as f64 * frac) as usize).min(enc.len() - 1);
        let cut = enc.slice(0..cut_len);
        // A strict prefix always loses bytes the header promises.
        prop_assert!(try_decode_rows(&cut).is_err());
        let mut visited = 0usize;
        prop_assert!(try_decode_rows_with(&cut, |_, _| visited += 1).is_err());
        prop_assert_eq!(visited, 0, "no partial rows surfaced");
    }

    #[test]
    fn corrupted_frames_error_or_decode_never_panic(
        (dim, ids, flat) in rows_strategy(),
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let enc = encode_flat_rows(dim, &ids, &flat);
        let mut raw = enc.to_vec();
        let at = flip_at % raw.len();
        raw[at] ^= 1 << flip_bit;
        let frame = Bytes::from(raw);
        // A corrupted header may still describe a self-consistent frame
        // (e.g. a float bit flipped); the property is no panic and no
        // out-of-bounds access, with errors staying structured.
        let owned = try_decode_rows(&frame);
        let mut streamed = Vec::new();
        let with = try_decode_rows_with(&frame, |id, row| streamed.push((id, row.to_vec())));
        prop_assert_eq!(owned.is_ok(), with.is_ok());
        if let Ok((d, rows)) = owned {
            prop_assert_eq!(with.unwrap(), d);
            prop_assert_eq!(rows, streamed);
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(raw in proptest::collection::vec(0u32..256, 0usize..256)) {
        let frame = Bytes::from(raw.into_iter().map(|b| b as u8).collect::<Vec<u8>>());
        let owned = try_decode_rows(&frame);
        let with = try_decode_rows_with(&frame, |_, _| {});
        prop_assert_eq!(owned.is_ok(), with.is_ok());
    }

    #[test]
    fn round_trip_is_bit_exact((dim, ids, flat) in rows_strategy()) {
        let enc = encode_flat_rows(dim, &ids, &flat);
        let (_, rows) = decode_rows(enc);
        prop_assert_eq!(rows.len(), ids.len());
        for (i, (id, row)) in rows.iter().enumerate() {
            prop_assert_eq!(*id, ids[i]);
            // Bit-exact comparison (covers -0.0 and subnormals).
            for (a, b) in row.iter().zip(&flat[i * dim..(i + 1) * dim]) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// `plan_send` is the first transmission `decide` lets through, the
    /// retransmit timers before it summed, and that transmission's
    /// verdict.
    #[test]
    fn plan_send_is_the_first_surviving_attempt(
        (seed, drop_every, drop_prob) in (0u64..1 << 32, 0u64..4, 0.0f64..1.0),
        (src, dst, seq) in (0usize..64, 0usize..64, 1u64..10_000),
        (base_ms, cap_ms, flaky) in (1u64..50, 1u64..100, 0u32..3),
    ) {
        let chaos = ChaosSchedule {
            seed,
            drop_every,
            drop_prob,
            duplicate_every: 2,
            reorder_prob: 0.5,
            reorder_window: 2,
            jitter_us: 100.0,
            ..ChaosSchedule::default()
        };
        let retry = RetryPolicy {
            base_timeout: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(cap_ms),
            ..RetryPolicy::default()
        };
        // The transport's own loss model: its first `flaky` attempts.
        let plan = plan_send(&chaos, retry, (src, dst, seq), |a| a < flaky);
        let first_through = (flaky..)
            .find(|&a| !chaos.decide(src, dst, seq, a).drop)
            .unwrap();
        prop_assert_eq!(plan.dropped, first_through);
        prop_assert!(plan.dropped <= 2, "nothing drops a third transmission");
        let mut wait = Duration::ZERO;
        if plan.dropped > 0 {
            wait = retry.base_timeout + (1..plan.dropped).map(|a| backoff_for(retry, a)).sum();
        }
        prop_assert_eq!(plan.retry_wait, wait);
        let through = chaos.decide(src, dst, seq, plan.dropped);
        prop_assert!(!plan.verdict.drop);
        prop_assert_eq!(plan.verdict.duplicate, through.duplicate);
        prop_assert_eq!(plan.verdict.hold, through.hold);
        prop_assert_eq!(plan.verdict.delay_us.to_bits(), through.delay_us.to_bits());
    }
}
