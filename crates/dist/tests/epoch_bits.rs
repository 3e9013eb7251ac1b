//! A distributed epoch's output bits and event log, pinned.
//!
//! `distributed_parity` compares the epoch with a single-machine
//! reduction within a tolerance, and `one_worker_two_drivers` compares
//! the two drivers with each other; a change that reorders the local
//! fold moves both sides of each alike. So this test pins absolute
//! digests: of the assembled output features and of the virtual
//! runtime's event log, for the FlexGraph worker pipelined and
//! unpipelined and for the mini-batch worker, over a flat (GCN) and a
//! multi-leaf (MAGNN) HDG, at 1 and 4 kernel threads. The shards are
//! large enough that the local fold runs on the pool.

use flexgraph_comm::NetProfile;
use flexgraph_dist::{make_shards, virtual_epoch, DistConfig, DistMode, Shard};
use flexgraph_engine::hybrid::{AggrOp, AggrPlan};
use flexgraph_graph::gen::{community, hetero_imdb};
use flexgraph_graph::metapath::Metapath;
use flexgraph_graph::partition::hash_partition;
use flexgraph_graph::Graph;
use flexgraph_hdg::build::{from_direct_neighbors, from_metapaths};
use flexgraph_tensor::{set_thread_override, Tensor};

const MODES: [DistMode; 3] = [
    DistMode::FlexGraph { pipeline: true },
    DistMode::FlexGraph { pipeline: false },
    DistMode::EulerLike { batch_size: 64 },
];

/// `(HDG, mode, feature bits' FNV-1a, event log's FNV-1a)`, the same at
/// every thread count.
#[rustfmt::skip]
const PINNED: [(&str, &str, u64, u64); 6] = [
    ("gcn", "pipelined", 0x0b0e7a84d3760c6d, 0x8ef45de3f33b82df),
    ("gcn", "unpipelined", 0x439f5e5ffe8feda9, 0x4ff5645b75640cf1),
    ("gcn", "mini-batch", 0x6aa1aef86cb463c1, 0x6c3ceb1f61d13a28),
    ("magnn", "pipelined", 0xb8772392ac1683b0, 0xdf1736265d0f0198),
    ("magnn", "unpipelined", 0xb8772392ac1683b0, 0x8f1d9dcfa9b7884f),
    ("magnn", "mini-batch", 0xd4ebc435dff7a254, 0xa389c29c128224e2),
];

fn fnv1a(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in t.data() {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn mode_name(mode: DistMode) -> &'static str {
    match mode {
        DistMode::FlexGraph { pipeline: true } => "pipelined",
        DistMode::FlexGraph { pipeline: false } => "unpipelined",
        _ => "mini-batch",
    }
}

/// The digests of one epoch per mode over `shards`.
fn digests(
    what: &'static str,
    graph: &Graph,
    shards: &[Shard],
    plan: AggrPlan,
) -> Vec<(&'static str, &'static str, u64, u64)> {
    let net = NetProfile::default();
    let digest = |mode| {
        let cfg = DistConfig {
            mode,
            plan,
            ..DistConfig::default()
        };
        let rep = virtual_epoch(graph, shards, &cfg, &net);
        (
            what,
            mode_name(mode),
            fnv1a(&rep.report.features),
            rep.log_digest.1,
        )
    };
    MODES.into_iter().map(digest).collect()
}

#[test]
fn distributed_epoch_bits_are_pinned() {
    // 1 200 vertices over two shards: ≈ 600 one-type groups of 40
    // columns a shard, past the kernels' small-work cutoff.
    let flat = community(1200, 4, 8, 3, 40, 5);
    let g = &flat.graph;
    let part = hash_partition(g, 2);
    let flat_shards = make_shards(g.num_vertices(), &flat.features, &part, |r| {
        from_direct_neighbors(g, r.to_vec())
    });
    let hetero = hetero_imdb(400, 3, 3, 24, 9);
    let typed = hetero.typed();
    let metapaths = vec![Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let h = &hetero.graph;
    let part = hash_partition(h, 2);
    let hetero_shards = make_shards(h.num_vertices(), &hetero.features, &part, |r| {
        from_metapaths(&typed, r.to_vec(), &metapaths, 0)
    });
    let magnn_plan = AggrPlan {
        leaf_op: AggrOp::Sum,
        instance_op: AggrOp::Sum,
        schema_op: AggrOp::Mean,
    };
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        let mut got = digests("gcn", g, &flat_shards, AggrPlan::flat(AggrOp::Sum));
        got.extend(digests("magnn", h, &hetero_shards, magnn_plan));
        assert_eq!(got, PINNED, "{threads} threads");
    }
    set_thread_override(None);
}
