//! Property tests for the quantized kernels (ISSUE 8 satellite).
//!
//! * `narrow` implements round-to-nearest-even exactly: checked against
//!   an independent candidate-comparison reference over arbitrary f32
//!   bit patterns (specials included).
//! * bf16 rounding is monotone and exact on values with ≤ 8 mantissa
//!   bits.
//! * Symmetric per-row int8 round-trips within `scale/2` per element.
//! * The bf16 head (round, then `matmul`), the int8 matmul and the
//!   narrow segment reductions are bitwise thread-invariant
//!   (`FLEXGRAPH_THREADS ∈ {1, 4}`) — the determinism contract the
//!   serving layer builds on.

use flexgraph_tensor::quant::{
    matmul_i8, matmul_i8_naive, narrow, round_bf16, round_bf16_inplace, widen,
};
use flexgraph_tensor::{
    fusion::Reduce, set_thread_override, Bf16Tensor, FeatureRows, QInt8Cols, QInt8Rows, Tensor,
};
use proptest::prelude::*;

/// Independent RNE reference: pick the nearer of the two candidate
/// bf16 values bracketing `x` (exact f64 distances), ties to the even
/// mantissa. NaN keeps a quiet payload, like the kernel.
fn narrow_reference(x: f32) -> u16 {
    if x.is_nan() {
        return ((x.to_bits() >> 16) as u16) | 0x0040;
    }
    let lo = (x.to_bits() >> 16) as u16; // truncate toward zero
    let hi = lo.wrapping_add(1);
    let (wl, wh) = (widen(lo), widen(hi));
    if wl == x {
        return lo;
    }
    // `hi` may have crossed into inf (or wrapped exponent): widen()
    // still produces the mathematically next value (inf), so plain
    // distance comparison in f64 handles the boundary.
    let dl = (x as f64 - wl as f64).abs();
    let dh = (wh as f64 - x as f64).abs();
    if dl < dh {
        lo
    } else if dh < dl {
        hi
    } else if lo & 1 == 0 {
        lo
    } else {
        hi
    }
}

fn tensor_from(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
    Tensor::from_vec(rows, cols, vals[..rows * cols].to_vec())
}

proptest! {
    /// RNE over arbitrary bit patterns — every f32, including
    /// subnormals, ±0, ±inf, NaN.
    #[test]
    fn narrow_matches_rne_reference(bits in 0u32..u32::MAX) {
        let x = f32::from_bits(bits);
        prop_assert_eq!(
            narrow(x), narrow_reference(x),
            "x = {} ({:#010x})", x, bits
        );
    }

    /// Rounding is monotone: a ≤ b ⇒ round(a) ≤ round(b).
    #[test]
    fn bf16_rounding_is_monotone(a in -1e30f32..1e30, b in -1e30f32..1e30) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_bf16(lo) <= round_bf16(hi));
    }

    /// Values with ≤ 8 mantissa bits (m·2^e, |m| ≤ 256) are fixed
    /// points of the rounding.
    #[test]
    fn bf16_is_exact_on_small_mantissas(m in 0u32..513, e in 0u32..60) {
        let (m, e) = (m as i32 - 256, e as i32 - 30);
        let v = m as f32 * (e as f32).exp2();
        prop_assert_eq!(round_bf16(v).to_bits(), v.to_bits());
    }

    /// Per-row symmetric int8: |dequant − original| ≤ scale/2 per
    /// element, and all-zero rows stay exactly zero.
    #[test]
    fn int8_round_trip_error_is_bounded(
        vals in proptest::collection::vec(-64.0f32..64.0, 24),
        rows in 1usize..4,
    ) {
        let cols = vals.len() / rows;
        let t = tensor_from(rows, cols, &vals);
        let q = QInt8Rows::quantize(&t);
        let back = q.dequantize();
        for r in 0..rows {
            let half = q.scale(r) * 0.5 + f32::EPSILON;
            for c in 0..cols {
                let (orig, rt) = (t.get(r, c), back.get(r, c));
                prop_assert!(
                    (orig - rt).abs() <= half,
                    "({r},{c}): {orig} -> {rt}, scale {}", q.scale(r)
                );
            }
        }
    }

    /// The bf16 head (round, then `matmul`) equals the widened bf16
    /// product on the naive chain, and both quantized products are
    /// bitwise identical at 1 and 4 threads (the int8 one matches its
    /// serial reference at both).
    #[test]
    fn quant_matmuls_are_thread_invariant(
        vals in proptest::collection::vec(-8.0f32..8.0, 180),
        m in 1usize..6, k in 1usize..6, n in 1usize..5,
    ) {
        let a = tensor_from(m, k, &vals);
        let b = tensor_from(k, n, &vals[m * k..]);
        let widened = Bf16Tensor::from_tensor(&a)
            .to_tensor()
            .matmul_naive(&Bf16Tensor::from_tensor(&b).to_tensor());
        let (mut ar, mut br) = (a.clone(), b.clone());
        round_bf16_inplace(&mut ar);
        round_bf16_inplace(&mut br);
        let (ai, bi) = (QInt8Rows::quantize(&a), QInt8Cols::quantize(&b));
        let mut got: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            let hb = ar.matmul(&br);
            prop_assert_eq!(&hb, &widened);
            let hi = matmul_i8(&ai, &bi);
            let serial = matmul_i8_naive(&ai, &bi);
            prop_assert_eq!(
                hi.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                serial.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            got.push((
                hb.data().iter().map(|x| x.to_bits()).collect(),
                hi.data().iter().map(|x| x.to_bits()).collect(),
            ));
        }
        set_thread_override(None);
        prop_assert_eq!(&got[0], &got[1]);
    }

    /// The quantized segment reductions are bitwise thread-invariant
    /// for every Reduce kind.
    #[test]
    fn quant_segment_reduces_are_thread_invariant(
        vals in proptest::collection::vec(-8.0f32..8.0, 48),
        segs in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..6), 1..5),
        cols in 1usize..6,
    ) {
        let feats = tensor_from(8, cols, &vals);
        let fb = Bf16Tensor::from_tensor(&feats);
        let fq = QInt8Rows::quantize(&feats);
        let mut offsets = vec![0usize];
        let mut src = Vec::new();
        for s in &segs {
            src.extend_from_slice(s);
            offsets.push(src.len());
        }
        for kind in [Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min] {
            let mut got: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for threads in [1usize, 4] {
                set_thread_override(Some(threads));
                let rb = FeatureRows::Bf16(&fb).segment_reduce(&offsets, &src, kind);
                let rq = FeatureRows::Int8(&fq).segment_reduce(&offsets, &src, kind);
                got.push((
                    rb.data().iter().map(|x| x.to_bits()).collect(),
                    rq.data().iter().map(|x| x.to_bits()).collect(),
                ));
            }
            set_thread_override(None);
            prop_assert_eq!(&got[0], &got[1], "kind {:?}", kind);
        }
    }
}
