//! Scalar-vs-SIMD bitwise parity.
//!
//! The `simd` module's contract: the exported lane-parallel ops are
//! **bit-identical** to the always-compiled `simd::scalar` reference for
//! every length — vectorization happens across independent columns, so
//! no accumulation order changes and no FMA fuses a rounding step away.
//! These proptests drive both levels: the raw ops over random lengths
//! (below, at, and not aligned to the 8-lane width), and the planned
//! scatter kernels over random shapes with unaligned dims, dims smaller
//! than one lane, and empty segments.
//!
//! `simd::exp` has no intrinsic twin — one scalar definition serves both
//! backends — so its half of the contract is stated as values: the
//! special cases, the no-denormal rule, monotonicity, an ulp bound
//! against the correctly rounded result, vectorised loop == lone call,
//! and bit patterns pinned as constants, which the `simd-fallback` CI
//! job (this file with AVX2 compiled out) turns into a proof that the
//! two backends return the same bits.

use flexgraph_tensor::scatter::{
    scatter_add_serial, scatter_add_with_plan, scatter_mean_serial, scatter_mean_with_plan,
    ScatterPlan,
};
use flexgraph_tensor::simd::{self, scalar};
use flexgraph_tensor::Tensor;
use proptest::prelude::*;

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {i}: {a:?} vs {b:?}"
        );
    }
}

proptest! {
    /// The three exported ops agree bit-for-bit with the scalar reference
    /// at every length, including 0, sub-lane lengths (< 8), exact lane
    /// multiples, and ragged tails.
    #[test]
    fn exported_ops_bitwise_match_scalar(
        len in 0usize..70,
        a in -8.0f32..8.0,
        seedx in proptest::collection::vec(-100.0f32..100.0, 70),
        seedy in proptest::collection::vec(-100.0f32..100.0, 70),
    ) {
        let x = &seedx[..len];
        let y = &seedy[..len];

        let mut got = y.to_vec();
        let mut want = y.to_vec();
        simd::add_assign(&mut got, x);
        scalar::add_assign(&mut want, x);
        assert_bits_eq(&got, &want, "add_assign");

        let mut got = y.to_vec();
        let mut want = y.to_vec();
        simd::mul_add_assign(&mut got, a, x);
        scalar::mul_add_assign(&mut want, a, x);
        assert_bits_eq(&got, &want, "mul_add_assign");

        let mut got = y.to_vec();
        let mut want = y.to_vec();
        simd::scale_assign(&mut got, a);
        scalar::scale_assign(&mut want, a);
        assert_bits_eq(&got, &want, "scale_assign");
    }

    /// The slice form of `exp` — the loop the compiler vectorises —
    /// returns the bits of one `scalar::exp` call per element at every
    /// length: 0, sub-lane, exact lane multiples, ragged tails.
    #[test]
    fn exp_slice_bitwise_matches_one_call_per_element(
        len in 0usize..70,
        seedx in proptest::collection::vec(-100.0f32..100.0, 70),
        seedm in proptest::collection::vec(-10.0f32..10.0, 70),
    ) {
        let (x, m) = (&seedx[..len], &seedm[..len]);
        let mut got = vec![f32::NAN; len];
        simd::exp_sub_into(&mut got, x, m);
        let want: Vec<f32> = x
            .iter()
            .zip(m)
            .map(|(&x, &m)| scalar::exp(std::hint::black_box(x - m)))
            .collect();
        assert_bits_eq(&got, &want, "exp_sub_into");
    }

    /// Planned reductions over random shapes stay bitwise equal to the
    /// serial kernels when the column count is smaller than one SIMD
    /// lane, unaligned to it, or exactly it — and when trailing
    /// destinations receive no edges at all (empty segments).
    #[test]
    fn planned_kernels_bitwise_match_serial_at_awkward_dims(
        rows in 1usize..60,
        dim in 1usize..14,
        out_rows in 1usize..24,
        seed in 0u64..500,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 20.0 - 10.0
            })
            .collect();
        let values = Tensor::from_vec(rows, dim, data);
        // Indices hit only the lower half of the destinations, so the
        // upper half is guaranteed-empty segments.
        let lo = (out_rows / 2).max(1);
        let index: Vec<u32> = (0..rows)
            .map(|r| ((r as u64 * 31 + seed) % lo as u64) as u32)
            .collect();
        let plan = ScatterPlan::new(&index, out_rows);

        type SerialFn = fn(&Tensor, &[u32], usize) -> Tensor;
        type PlannedFn = fn(&Tensor, &ScatterPlan) -> Tensor;
        let kernels: [(&str, SerialFn, PlannedFn); 2] = [
            ("add", scatter_add_serial, scatter_add_with_plan),
            ("mean", scatter_mean_serial, scatter_mean_with_plan),
        ];
        for (name, serial, planned) in kernels {
            let want = serial(&values, &index, out_rows);
            let got = planned(&values, &plan);
            assert_bits_eq(got.data(), want.data(), name);
        }
    }
}

/// Smallest input whose `exp` is normal: the `f32` just above
/// `ln(f32::MIN_POSITIVE)`.
const EXP_LO: f32 = -87.336_54;
/// Largest input whose `exp` is finite: the `f32` just below
/// `ln(f32::MAX)`.
const EXP_HI: f32 = 88.722_83;

/// Position of `x` in the increasing order of all non-NaN `f32`s.
fn key(x: f32) -> u32 {
    let b = x.to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 1 << 31
    }
}

fn from_key(k: u32) -> f32 {
    f32::from_bits(if k >> 31 == 1 { k & !(1 << 31) } else { !k })
}

/// Every `stride`-th `f32` of `[lo, hi]`, in increasing order.
fn sweep(lo: f32, hi: f32, stride: usize) -> impl Iterator<Item = f32> {
    (key(lo)..=key(hi)).step_by(stride).map(from_key)
}

/// Every `f32` within `ulps` of `x`, in increasing order.
fn around(x: f32, ulps: u32) -> impl Iterator<Item = f32> {
    (key(x) - ulps..=key(x) + ulps).map(from_key)
}

#[test]
fn exp_special_values() {
    // Singleton softmax groups rely on this being exact.
    assert_eq!(simd::exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(simd::exp(-0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(simd::exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(simd::exp(f32::INFINITY), f32::INFINITY);
    for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_0001)] {
        assert!(simd::exp(nan).is_nan(), "{:#x}", nan.to_bits());
    }
    // The two thresholds are where the real function crosses them.
    assert!((EXP_LO as f64).exp() >= f32::MIN_POSITIVE as f64);
    assert!((from_key(key(EXP_LO) - 1) as f64).exp() < f32::MIN_POSITIVE as f64);
    assert!((EXP_HI as f64).exp() <= f32::MAX as f64);
    assert!((from_key(key(EXP_HI) + 1) as f64).exp() > f32::MAX as f64);
    // Below the first: +0, never a denormal. Above the second: +∞.
    assert!(simd::exp(EXP_LO).is_normal());
    for x in [from_key(key(EXP_LO) - 1), -88.0, -100.0, -1e30, f32::MIN] {
        assert_eq!(simd::exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:e})");
    }
    assert!(simd::exp(EXP_HI).is_finite());
    for x in [from_key(key(EXP_HI) + 1), 89.0, 1e30, f32::MAX] {
        assert_eq!(simd::exp(x), f32::INFINITY, "exp({x:e})");
    }
}

#[test]
fn exp_never_returns_a_denormal() {
    // Every input in the last octave above the underflow threshold, and
    // a margin below it: the result is +0 or normal, so no result
    // depends on the FTZ/DAZ mode.
    for x in sweep(from_key(key(EXP_LO) - 4096), EXP_LO + 0.75, 1) {
        let y = simd::exp(x);
        assert!(
            y.to_bits() == 0 || y.is_normal(),
            "exp({x:e}) = {y:e} is denormal"
        );
        assert_eq!(y.to_bits() == 0, x < EXP_LO, "exp({x:e}) = {y:e}");
    }
}

#[test]
fn exp_is_monotone_over_a_dense_sweep() {
    let check = |xs: &mut dyn Iterator<Item = f32>| {
        let mut prev = (f32::NEG_INFINITY, 0.0f32);
        for x in xs {
            let y = simd::exp(x);
            assert!(
                y >= prev.1,
                "exp({:e}) = {:e} > exp({x:e}) = {y:e}",
                prev.0,
                prev.1
            );
            prev = (x, y);
        }
    };
    // The whole range, past both thresholds, at a prime stride…
    check(&mut sweep(-90.0, 90.0, 1021));
    // …every float around each range-reduction boundary (k + ½)·ln 2,
    // where the polynomial's two ends meet…
    for k in -126..=127 {
        let boundary = ((k as f64 + 0.5) * std::f64::consts::LN_2) as f32;
        check(&mut around(boundary, 300));
    }
    // …and around zero and the two thresholds.
    for x in [0.0, EXP_LO, EXP_HI] {
        check(&mut around(x, 300));
    }
}

#[test]
fn exp_is_within_two_ulp_of_the_correctly_rounded_result() {
    // A strided sweep of every input whose result is normal (measured
    // exhaustively when the polynomial was fitted: at most 1 ulp).
    let mut worst = 0;
    for x in sweep(EXP_LO, EXP_HI, 1021) {
        let want = (x as f64).exp() as f32;
        let ulps = key(simd::exp(x)).abs_diff(key(want));
        assert!(ulps <= 2, "exp({x:e}): {ulps} ulp from {want:e}");
        worst = worst.max(ulps);
    }
    eprintln!("simd::exp worst case over the sweep: {worst} ulp");
}

#[test]
fn exp_bits_are_pinned() {
    // Constants, not a comparison: the scalar-backend CI job runs this
    // same table, so passing there and here means the two backends
    // return the same bits. The slice form must hit them too, from its
    // vector body (the table is longer than one lane) and its tail.
    let table: [(f32, u32); 10] = [
        (-0.5, 0x3f1b_4598),
        (-1.0, 0x3ebc_5ab2),
        (-10.0, 0x383e_6bce),
        (-30.25, 0x29a4_1ade),
        (-87.0, 0x00b3_3687),
        (-1.23e-4, 0x3f7f_f7f1),
        (0.3, 0x3fac_c82c),
        (1.0, 0x402d_f854),
        (5.5, 0x4374_b122),
        (88.0, 0x7ef8_82b7),
    ];
    let x: Vec<f32> = table.iter().map(|&(x, _)| x).collect();
    let mut got = vec![0.0f32; x.len()];
    simd::exp_sub_into(&mut got, &x, &vec![0.0; x.len()]);
    for (&(x, bits), got) in table.iter().zip(got) {
        assert_eq!(simd::exp(x).to_bits(), bits, "exp({x:e})");
        assert_eq!(got.to_bits(), bits, "exp_sub_into at {x:e}");
    }
}

/// The compiled backend is a compile-time fact; make the test log state
/// which one this run actually exercised.
#[test]
fn report_active_backend() {
    let b = simd::backend();
    assert!(b == "avx2" || b == "scalar", "unknown backend {b}");
    eprintln!("simd backend under test: {b}");
}
