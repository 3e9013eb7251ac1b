//! The register walk against the per-row chain, bit for bit.
//!
//! `simd::fold_segments` keeps each segment's output row in registers
//! and writes it once; `simd::scalar::fold_segments` is the chain it
//! replaces, one `add_assign` per row through memory. Both run the
//! same operations in the same order, so every kernel built on the walk
//! — the fused `segment_reduce`, and the pull backward of
//! `segment_reduce_backward_into` — must return exactly what the chain
//! returns: at widths below, at and across the 8-lane vector and the
//! 64-column register block, over empty and short segments, repeated
//! sources, signed zeros, infinities and NaN, and with the value tensor
//! below and above the 2 MiB prefetch cutoff. The backward's two walk orders
//! (a Sum's pull over the cached transpose, the push per segment) must
//! each agree with a serial push, at any thread count.
//!
//! A NaN result only has to be a NaN: when both operands of an add are
//! NaNs, IEEE 754 leaves open whose payload and sign the result
//! carries, and x86 takes the first operand's — an order the code
//! generator may swap in the scalar chain, where addition commutes.

use flexgraph_tensor::fusion::{segment_reduce_backward_into, HierarchyIndex, SegmentIndex};
use flexgraph_tensor::simd::{self, scalar};
use flexgraph_tensor::{segment_reduce, set_thread_override, Graph, Reduce, Tensor};
use std::sync::Arc;

const WIDTHS: [usize; 13] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 50, 64, 65];
/// Widths either side of each split of the 64-column register block:
/// its last vector full or masked, one block or two.
const BLOCK_WIDTHS: [usize; 7] = [56, 63, 64, 65, 72, 128, 129];
const KINDS: [Reduce; 2] = [Reduce::Sum, Reduce::Mean];

/// The thread override is process-wide; tests that set it run one at a
/// time.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f32 {
        self.next() as f32 / (1u64 << 31) as f32 * 2.0 - 1.0
    }
}

/// `rows × d` values; with `special`, one in eight is drawn from
/// `±0.0`, `±∞` and NaN.
fn values(rng: &mut Lcg, rows: usize, d: usize, special: bool) -> Tensor {
    const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let data = (0..rows * d)
        .map(|_| {
            if special && rng.below(8) == 0 {
                SPECIAL[rng.below(SPECIAL.len())]
            } else {
                rng.unit() * 100.0
            }
        })
        .collect();
    Tensor::from_vec(rows, d, data)
}

/// `segments` segments over sources `0..sources`: about one in five
/// empty, lengths up to 24, sources drawn with repeats.
fn index(rng: &mut Lcg, segments: usize, sources: usize) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0];
    let mut src = Vec::new();
    for _ in 0..segments {
        let len = if rng.below(5) == 0 {
            0
        } else {
            1 + rng.below(24)
        };
        src.extend((0..len).map(|_| rng.below(sources) as u32));
        offsets.push(src.len());
    }
    (offsets, src)
}

/// The fused reduction as the per-row chain computes it.
fn chain(feats: &Tensor, offsets: &[usize], src: &[u32], kind: Reduce) -> Tensor {
    let d = feats.cols();
    let mut out = Tensor::zeros(offsets.len() - 1, d);
    for t in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[t], offsets[t + 1]);
        let acc = out.row_mut(t);
        if lo == hi {
            continue;
        }
        for &s in &src[lo..hi] {
            scalar::add_assign(acc, feats.row(s as usize));
        }
        if kind == Reduce::Mean {
            scalar::scale_assign(acc, 1.0 / (hi - lo) as f32);
        }
    }
    out
}

/// Bit-equal, or both NaN (see the module docs).
fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{what}: element {i}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn fold_segments_is_the_per_row_chain() {
    // Both walks start from the same non-zero output, which `Sum` and
    // `Mean` add into and which an empty segment keeps.
    let mut rng = Lcg(7);
    for d in WIDTHS {
        let rows = values(&mut rng, 40, d, true);
        let (offsets, src) = index(&mut rng, 12, 40);
        let row = |e: usize| rows.row(src[e] as usize);
        for kind in KINDS {
            let init: Vec<f32> = (0..12 * d).map(|_| rng.unit()).collect();
            let (mut got, mut want) = (init.clone(), init);
            let (mut seen, mut visited) = (Vec::new(), Vec::new());
            simd::fold_segments(&mut got, d, kind, &offsets, row, |e| seen.push(e));
            scalar::fold_segments(&mut want, d, kind, &offsets, row, |e| visited.push(e));
            let what = format!("{kind:?}, d = {d}");
            assert_bits_eq(
                &Tensor::from_vec(12, d, got),
                &Tensor::from_vec(12, d, want),
                &what,
            );
            assert_eq!(seen, visited, "{what}: each edge visited once, in order");
            assert_eq!(
                seen,
                (0..src.len()).collect::<Vec<_>>(),
                "{what}: every edge"
            );
        }
    }
}

#[test]
fn short_segments_are_the_chain_at_every_block_split() {
    // One segment of each length 0..=4, twice over, in shuffled order.
    let mut rng = Lcg(19);
    let lens = [3, 0, 4, 1, 2, 2, 4, 0, 1, 3];
    for d in BLOCK_WIDTHS {
        let rows = values(&mut rng, 9, d, true);
        let mut offsets = vec![0];
        let mut src = Vec::new();
        for len in lens {
            src.extend((0..len).map(|_| rng.below(9) as u32));
            offsets.push(src.len());
        }
        let row = |e: usize| rows.row(src[e] as usize);
        for kind in KINDS {
            let init: Vec<f32> = (0..lens.len() * d).map(|_| rng.unit()).collect();
            let (mut got, mut want) = (init.clone(), init);
            let (mut seen, mut visited) = (Vec::new(), Vec::new());
            simd::fold_segments(&mut got, d, kind, &offsets, row, |e| seen.push(e));
            scalar::fold_segments(&mut want, d, kind, &offsets, row, |e| visited.push(e));
            let what = format!("{kind:?}, d = {d}");
            let n = lens.len();
            let (got, want) = (Tensor::from_vec(n, d, got), Tensor::from_vec(n, d, want));
            assert_bits_eq(&got, &want, &what);
            assert_eq!(seen, visited, "{what}: each edge visited once, in order");
            assert_bits_eq(
                &segment_reduce(&rows, &offsets, &src, kind),
                &chain(&rows, &offsets, &src, kind),
                &format!("segment_reduce, {what}"),
            );
        }
    }
}

#[test]
fn a_segment_of_negative_zeros_sums_to_positive_zero() {
    // The sum starts from the zeroed output's `+0.0`, and `+0.0 + −0.0`
    // is `+0.0`: a walk that started from its first row would give `−0.0`.
    for d in WIDTHS.into_iter().chain(BLOCK_WIDTHS) {
        let rows = Tensor::from_vec(2, d, vec![-0.0; 2 * d]);
        for (offsets, src) in [(vec![0, 1], vec![0]), (vec![0, 3], vec![1, 0, 1])] {
            for kind in KINDS {
                let out = segment_reduce(&rows, &offsets, &src, kind);
                let what = format!("{kind:?}, d = {d}, {} rows", src.len());
                assert!(out.data().iter().all(|x| x.to_bits() == 0), "{what}");
                let mut folded = vec![0.0; d];
                let row = |e: usize| rows.row(src[e] as usize);
                simd::fold_segments(&mut folded, d, kind, &offsets, row, |_| {});
                assert!(folded.iter().all(|x| x.to_bits() == 0), "fold, {what}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "source row 3 out of range")]
fn the_attention_pool_rejects_a_leaf_row_past_h() {
    // One root of one type, one instance over leaf rows 0 and 3 of a
    // three-row `h`.
    let instances = SegmentIndex::new(vec![0, 2], vec![0, 3]);
    let index = Arc::new(HierarchyIndex::new(vec![0, 1], instances, 1));
    let mut g = Graph::new();
    let h = g.leaf(Tensor::zeros(3, 8));
    g.hierarchical_attention_pool(h, index);
}

#[test]
fn fused_reductions_equal_the_chain_at_every_width() {
    let mut rng = Lcg(11);
    for d in WIDTHS {
        for special in [false, true] {
            let feats = values(&mut rng, 50, d, special);
            let (offsets, src) = index(&mut rng, 70, 50);
            for kind in KINDS {
                assert_bits_eq(
                    &segment_reduce(&feats, &offsets, &src, kind),
                    &chain(&feats, &offsets, &src, kind),
                    &format!("{kind:?}, d = {d}, special values {special}"),
                );
            }
        }
    }
}

#[test]
fn fused_reductions_equal_the_chain_across_the_prefetch_cutoff() {
    // 2 MiB of values is where the walk starts prefetching: 8192 rows
    // of 64 floats sit exactly on it, 8191 just below, 8200 × 65 above.
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Lcg(13);
    for (rows, d) in [(8191, 64), (8192, 64), (8200, 65)] {
        let feats = values(&mut rng, rows, d, true);
        let (offsets, src) = index(&mut rng, 1500, rows);
        for kind in KINDS {
            let want = chain(&feats, &offsets, &src, kind);
            for threads in [1, 4] {
                set_thread_override(Some(threads));
                assert_bits_eq(
                    &segment_reduce(&feats, &offsets, &src, kind),
                    &want,
                    &format!("{kind:?}, {rows} × {d}, {threads} threads"),
                );
            }
        }
    }
    set_thread_override(None);
}

/// The backward as a serial push: each edge adds its segment's scaled
/// gradient row into its source's row, segments in ascending order.
fn serial_push(
    rows: usize,
    grad_out: &Tensor,
    offsets: &[usize],
    src: &[u32],
    mean: bool,
) -> Tensor {
    let mut g = Tensor::zeros(rows, grad_out.cols());
    for t in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[t], offsets[t + 1]);
        for &s in &src[lo..hi] {
            for (o, &x) in g.row_mut(s as usize).iter_mut().zip(grad_out.row(t)) {
                *o += if mean {
                    x * (1.0 / (hi - lo) as f32)
                } else {
                    x
                };
            }
        }
    }
    g
}

#[test]
fn pull_and_push_backward_match_a_serial_push() {
    // Sources come from `0..k` with `k` below the segment count. A
    // `k`-row gradient makes the backward push (more segments than
    // rows); a Sum into an `n`-row one (`n` ≥ segments) pulls over the
    // index's transpose — built by the first pull, reused after — and
    // leaves the rows past the sources zero. A Mean always pushes.
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Lcg(17);
    for (segments, k, d) in [(40, 25, 7), (600, 550, 33), (700, 300, 64), (900, 899, 16)] {
        let (offsets, src) = index(&mut rng, segments, k);
        let sources = src.iter().max().map_or(0, |&m| m as usize + 1);
        let index = SegmentIndex::new(offsets.clone(), src.clone());
        let grad_out = values(&mut rng, segments, d, false);
        for mean in [false, true] {
            let want = serial_push(sources, &grad_out, &offsets, &src, mean);
            for threads in [1, 4] {
                set_thread_override(Some(threads));
                let what = format!("{segments} segments, d = {d}, mean {mean}, {threads} threads");
                let mut push = Tensor::zeros(sources, d);
                segment_reduce_backward_into(&mut push, &grad_out, &index, mean);
                assert_bits_eq(&push, &want, &format!("push, {what}"));
                let mut tall = Tensor::zeros(segments, d);
                segment_reduce_backward_into(&mut tall, &grad_out, &index, mean);
                let head = Tensor::from_vec(sources, d, tall.data()[..sources * d].to_vec());
                assert_bits_eq(&head, &want, &format!("{segments} rows, {what}"));
                assert!(tall.data()[sources * d..].iter().all(|&x| x == 0.0));
            }
        }
    }
    set_thread_override(None);
}
