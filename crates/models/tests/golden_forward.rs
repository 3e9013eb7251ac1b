//! Golden-value forward fixtures: one model per NAU category — GCN
//! (DNFA), PinSage (INFA), JK-Net and P-GNN (INHA) — on a fixed 6-vertex
//! graph with hand-chosen integer features and weights.
//!
//! The fixtures themselves (graphs, features, weights, the
//! weight-override forward runner) live in [`flexgraph_models::golden`];
//! this file owns the hand-computed expected outputs.
//!
//! Every value is an exact multiple of a small power of two and far below
//! 2^24, so each partial sum in every kernel (segment reductions, dense
//! matmuls, shell means) is exactly representable in `f32`. The expected
//! outputs are therefore *hand-computable* and independent of
//! accumulation order, tiling, and `FLEXGRAPH_THREADS` — the assertions
//! compare exact bits, not approximations. The P-GNN case is the one
//! exception: its anchor-sets of three make thirds, so its bits were
//! recorded from a run rather than by hand, and pin the order of its ops.

use flexgraph_models::golden::{concat_weights, gcn_weights, graph_a, graph_cycle, run_forward};
use flexgraph_models::train::Model;
use flexgraph_models::{Gcn, JkNet, Pgnn, PinSage};
use flexgraph_tensor::Tensor;

/// Exact-bits comparison with a readable diff on mismatch.
fn assert_bits(actual: &Tensor, expected: &[[f32; 2]; 6]) {
    assert_eq!(actual.shape(), (6, 2));
    for (r, row) in expected.iter().enumerate() {
        for (c, &e) in row.iter().enumerate() {
            let a = actual.get(r, c);
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "({r},{c}): got {a} ({:#010x}), want {e} ({:#010x})",
                a.to_bits(),
                e.to_bits()
            );
        }
    }
}

#[test]
fn gcn_forward_matches_hand_computed_fixture() {
    let ds = graph_a();
    let (w1, w2) = gcn_weights();
    let out = run_forward(Gcn::new(2, 2, 2), &ds, &[w1, w2]);
    // Layer 1: a[v] = Σ h[u] over neighbors; ReLU((h+a)·W1) gives
    //   [[14,1],[14,1],[16,0],[9,0],[15,0],[13,0]].
    // Layer 2 on that, no ReLU:
    assert_bits(
        &out,
        &[
            [42.0, 48.0],
            [42.0, 48.0],
            [51.0, 57.0],
            [40.0, 40.0],
            [37.0, 37.0],
            [28.0, 28.0],
        ],
    );
}

#[test]
fn jknet_forward_matches_hand_computed_fixture() {
    let ds = graph_cycle();
    let (w1, w2) = concat_weights();
    let mut m = JkNet::new(2, 2, 2, 2);
    // Shell layout: every (root, shell) segment on the 6-cycle has
    // exactly two members ({v±1}, then {v±2}), so all means are exact
    // halves and the fixture stays order-independent.
    m.selection(&ds, 0);
    let (off, src) = m.selection_arrays();
    assert_eq!(off.len(), 6 * 2 + 1);
    for v in 0..6u32 {
        let seg = |s: usize| {
            let mut x = src[off[v as usize * 2 + s]..off[v as usize * 2 + s + 1]].to_vec();
            x.sort_unstable();
            x
        };
        let mut hop1 = vec![(v + 5) % 6, (v + 1) % 6];
        let mut hop2 = vec![(v + 4) % 6, (v + 2) % 6];
        hop1.sort_unstable();
        hop2.sort_unstable();
        assert_eq!(seg(0), hop1, "v{v} 1-hop shell");
        assert_eq!(seg(1), hop2, "v{v} 2-hop shell");
    }
    let out = run_forward(m, &ds, &[w1, w2]);
    // Layer 1: shell means, block-mean over the 2 shells, then
    //   ReLU([h|a]·W1) = [[6.75,1.75],[8.25,1],[4.5,1.25],
    //                     [7.75,0],[6.25,1],[8.5,2.25]].
    // Layer 2 on that, no ReLU:
    assert_bits(
        &out,
        &[
            [7.75, 17.75],
            [9.875, 19.375],
            [5.125, 17.125],
            [10.5, 18.75],
            [7.875, 17.375],
            [8.125, 21.125],
        ],
    );
}

#[test]
fn pinsage_forward_matches_fixture() {
    let ds = graph_a();
    let mut m = PinSage::new(2, 2, 2, 9);
    // The walk-based selection is stochastic but a pure function of
    // (graph, walk config, seed ^ epoch): pin it with a snapshot so a
    // selection change can't masquerade as a numeric regression.
    m.selection(&ds, 0);
    let (off, src) = m.selection_arrays();
    assert_eq!(off, &[0, 4, 8, 13, 18, 22, 25]);
    assert_eq!(
        src,
        &[
            1, 2, 3, 4, // v0
            0, 2, 3, 4, // v1
            0, 3, 1, 4, 5, // v2
            4, 2, 0, 5, 1, // v3
            5, 3, 0, 2, // v4
            4, 3, 2, // v5
        ]
    );
    let (w1, w2) = concat_weights();
    let out = run_forward(m, &ds, &[w1, w2]);
    // Hand-computed from the snapshot above (all-integer arithmetic):
    // layer 1 gives [[17,0],[16,2],[29,0],[29,0],[22,1],[13,3]].
    assert_bits(
        &out,
        &[
            [23.0, 203.0],
            [16.0, 208.0],
            [41.0, 211.0],
            [41.0, 211.0],
            [27.0, 192.0],
            [12.0, 171.0],
        ],
    );
}

#[test]
fn pgnn_forward_bits_are_pinned() {
    // Two seeded anchor-sets of three vertices, shared by every root.
    let (w1, w2) = concat_weights();
    let out = run_forward(Pgnn::new(2, 2, 2, 2, 3, 5), &graph_cycle(), &[w1, w2]);
    let want: [[u32; 2]; 6] = [
        [0x40a1_c71d, 0x4151_c71e],
        [0x4100_e38f, 0x4171_c71e],
        [0x4081_c71d, 0x4141_c71e],
        [0x40fc_71c9, 0x4161_c71e],
        [0x40c1_c71d, 0x4151_c71e],
        [0x40e1_c71e, 0x4180_e38f],
    ];
    assert_bits(&out, &want.map(|row| row.map(f32::from_bits)));
}
