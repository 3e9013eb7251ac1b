//! The fused hierarchical attention pool against its five-op oracle.
//!
//! `Graph::hierarchical_attention_pool` promises the *bits* — value and
//! input gradient — of `segment_reduce` (mean) → `scatter_softmax` →
//! `mul` → `scatter_add` → `mean_row_blocks` over the same three
//! levels, at any thread count. Every comparison here is on bit
//! patterns, swept over `FLEXGRAPH_THREADS` ∈ {1, 2, 4} through the
//! runtime override.

use flexgraph_tensor::{
    set_thread_override, Graph, HierarchyIndex, NodeId, ScatterPlan, SegmentIndex, Tensor,
};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// The thread override is process-global and the harness runs test fns
/// concurrently; serialize every sweep.
static SWEEP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A deterministic stream of pseudo-random `u64`s.
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
}

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Lcg(seed.wrapping_mul(6364136223846793005).wrapping_add(1));
    (0..n)
        .map(|_| (rng.next() as f32 / (1u64 << 31) as f32) * 6.0 - 3.0)
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// An HDG collection's three levels, as plain arrays.
#[derive(Clone, Debug)]
struct Levels {
    types: usize,
    groups: Vec<usize>,
    inst_off: Vec<usize>,
    src: Vec<u32>,
    leaves: usize,
}

impl Levels {
    /// `roots × types` groups of `size(rng)` instances each, every
    /// instance `0..=3` random leaves out of `leaves`.
    fn random(
        roots: usize,
        types: usize,
        leaves: usize,
        seed: u64,
        size: impl Fn(&mut Lcg) -> usize,
    ) -> Self {
        let mut rng = Lcg(seed);
        let (mut groups, mut inst_off, mut src) = (vec![0], vec![0], Vec::new());
        for _ in 0..roots * types {
            for _ in 0..size(&mut rng) {
                for _ in 0..rng.below(4) {
                    src.push(rng.below(leaves) as u32);
                }
                inst_off.push(src.len());
            }
            groups.push(inst_off.len() - 1);
        }
        Levels {
            types,
            groups,
            inst_off,
            src,
            leaves,
        }
    }

    fn roots(&self) -> usize {
        (self.groups.len() - 1) / self.types
    }

    fn instances(&self) -> SegmentIndex {
        SegmentIndex::new(self.inst_off.clone(), self.src.clone())
    }

    fn index(&self) -> Arc<HierarchyIndex> {
        let index = HierarchyIndex::new(self.groups.clone(), self.instances(), self.types);
        Arc::new(index)
    }

    /// The instance → group destination index the HDG omits.
    fn group_plan(&self) -> Arc<ScatterPlan> {
        let n = self.groups.len() - 1;
        let group_of: Vec<u32> = (0..n)
            .flat_map(|g| (self.groups[g]..self.groups[g + 1]).map(move |_| g as u32))
            .collect();
        Arc::new(ScatterPlan::new(&group_of, n))
    }
}

/// Leaf rows for `levels`, with a few rows made special by `seed`: `+∞`,
/// `−∞`, or very negative (every `exp` of them underflows).
fn leaf_rows(levels: &Levels, d: usize, seed: u64) -> Tensor {
    let mut h = Tensor::from_vec(levels.leaves, d, fill(levels.leaves * d, seed));
    let mut rng = Lcg(seed ^ 0x5bec);
    for special in [f32::INFINITY, f32::NEG_INFINITY, -1.0e30, -200.0] {
        if rng.below(3) == 0 {
            let r = rng.below(levels.leaves);
            h.row_mut(r).fill(special);
        }
    }
    h
}

/// Pooled value and `d loss / d h` of one tape whose aggregation is
/// recorded by `pool`; the loss is a fixed weighted read-out so every
/// root row receives a distinct upstream gradient.
fn run(
    h: &Tensor,
    levels: &Levels,
    pool: impl Fn(&mut Graph, NodeId, &Levels) -> NodeId,
) -> (Tensor, Tensor) {
    let mut g = Graph::new();
    let hn = g.param(h.clone(), 0);
    let pooled = pool(&mut g, hn, levels);
    let d = h.cols();
    let readout = Tensor::from_vec(levels.roots(), d, fill(levels.roots() * d, 99));
    let r = g.leaf(readout);
    let m = g.mul(pooled, r);
    let loss = g.mean_all(m);
    g.backward(loss);
    let grad = g.grad(hn).expect("h is a parameter").clone();
    (g.value(pooled).clone(), grad)
}

fn fused(g: &mut Graph, h: NodeId, levels: &Levels) -> NodeId {
    g.hierarchical_attention_pool(h, levels.index())
}

fn chain(g: &mut Graph, h: NodeId, levels: &Levels) -> NodeId {
    let inst = g.segment_reduce(h, Arc::new(levels.instances()), true);
    let plan = levels.group_plan();
    let weights = g.scatter_softmax_with_plan(inst, plan.clone());
    let weighted = g.mul(weights, inst);
    let groups = g.scatter_add_with_plan(weighted, plan);
    g.mean_row_blocks(groups, levels.types)
}

/// Fused == chain, value and gradient bits, at every swept thread count;
/// returns the (thread-invariant) fused value and gradient.
fn check(h: &Tensor, levels: &Levels) -> (Tensor, Tensor) {
    let _guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_thread_override(Some(1));
    let (want_v, want_g) = run(h, levels, chain);
    for threads in THREAD_SWEEP {
        set_thread_override(Some(threads));
        let (v, gh) = run(h, levels, fused);
        assert_eq!(bits(&v), bits(&want_v), "value @ {threads} threads");
        assert_eq!(bits(&gh), bits(&want_g), "gradient @ {threads} threads");
        let (v, gh) = run(h, levels, chain);
        assert_eq!(bits(&v), bits(&want_v), "oracle value @ {threads} threads");
        assert_eq!(
            bits(&gh),
            bits(&want_g),
            "oracle gradient @ {threads} threads"
        );
    }
    set_thread_override(None);
    (want_v, want_g)
}

#[test]
fn empty_destinations_pool_to_zero() {
    // Roots 0 and 2 have no instance at all; root 1 has an empty type
    // between two full ones, root 3 an empty instance in a group.
    let levels = Levels {
        types: 3,
        groups: vec![0, 0, 0, 0, 2, 2, 3, 3, 3, 3, 3, 5, 5],
        inst_off: vec![0, 2, 3, 6, 6, 7],
        src: vec![0, 3, 1, 4, 4, 2, 5],
        leaves: 6,
    };
    let h = Tensor::from_vec(6, 7, fill(42, 1));
    let (v, _) = check(&h, &levels);
    for root in [0, 2] {
        assert!(v.row(root).iter().all(|&y| y.to_bits() == 0), "row {root}");
    }
    assert!(v.row(1).iter().chain(v.row(3)).all(|&y| y != 0.0));
}

#[test]
fn singleton_groups_pass_the_gradient_through_exactly() {
    // A singleton group's softmax is the constant 1: its pooled row is
    // the instance mean, and the softmax term of the gradient is exactly
    // zero, so a one-leaf instance's leaf gets its root's upstream
    // gradient divided by the type count, bit for bit.
    let (roots, types, d) = (5, 2, 7);
    let levels = Levels {
        types,
        groups: (0..=roots * types).collect(),
        inst_off: (0..=roots * types).collect(),
        src: (0..(roots * types) as u32).rev().collect(),
        leaves: roots * types,
    };
    let h = Tensor::from_vec(roots * types, d, fill(roots * types * d, 2));
    let (v, gh) = check(&h, &levels);
    let upstream = fill(roots * d, 99);
    let share = 1.0 / (roots * d) as f32;
    let inv_types = 1.0 / types as f32;
    for (inst, &leaf) in levels.src.iter().enumerate() {
        let root = inst / types;
        for c in 0..d {
            let want = (share * upstream[root * d + c]) * inv_types;
            assert_eq!(gh.get(leaf as usize, c).to_bits(), want.to_bits());
        }
    }
    for root in 0..roots {
        for c in 0..d {
            let sum = h.get(levels.src[2 * root] as usize, c)
                + h.get(levels.src[2 * root + 1] as usize, c);
            assert_eq!(v.get(root, c).to_bits(), (sum * inv_types).to_bits());
        }
    }
}

#[test]
fn one_long_group_and_a_parallel_sized_plan() {
    for d in [1, 7, 64] {
        // One root whose first type holds 513 instances (an uncapped
        // selection), its second none.
        let mut levels = Levels::random(1, 1, 40, d as u64, |_| 513);
        levels.types = 2;
        levels.groups.push(513);
        check(&leaf_rows(&levels, d, 3), &levels);
    }
    // 600 roots × 64 columns: past the serial cutoff, so the sweep
    // really runs root ranges on the pool; groups of up to 30.
    let levels = Levels::random(600, 6, 2000, 4, |rng| {
        if rng.below(3) == 0 {
            0
        } else {
            rng.below(31)
        }
    });
    check(&leaf_rows(&levels, 64, 4), &levels);
}

proptest! {
    #[test]
    fn fused_bits_equal_the_five_op_chain(
        (roots, types) in (1usize..12, 1usize..5),
        d in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
        seed in 0u64..1000,
    ) {
        // Seed-derived shapes: empty, singleton and uneven groups, a
        // few special leaf rows.
        let levels = Levels::random(roots, types, 24, seed, |rng| {
            [0, 1, 1, 2, 3, 5, 9][rng.below(7)]
        });
        check(&leaf_rows(&levels, d, seed), &levels);
    }
}
