//! Batch-composition parity: the serving subsystem's load-bearing
//! invariant (ISSUE 5).
//!
//! For random graphs, request sequences, batching policies, and
//! sampling configurations, every served output must be **bitwise
//! identical** to running that request alone through the reference
//! forward (`serve_one`) — with a cold cache, with a warm cache, and
//! under `FLEXGRAPH_THREADS ∈ {1, 4}`. On top of per-request parity,
//! the whole serving transcript (batch compositions, ids, virtual-time
//! latencies) must be identical across runs and thread counts.

use flexgraph_engine::MemoryBudget;
use flexgraph_serve::{
    serve_one, BatcherConfig, ModelSnapshot, Response, ServeModelConfig, Server, ServerConfig,
};
use flexgraph_tensor::set_thread_override;
use proptest::prelude::*;

const INIT_SEED: u64 = 77;

#[derive(Clone, Debug)]
struct Scenario {
    n: usize,
    communities: usize,
    degree: usize,
    dim: usize,
    graph_seed: u64,
    hops: usize,
    cap: usize,
    sample_seed: u64,
    max_batch: usize,
    max_delay: u64,
    /// (vertex index modulo n, idle ticks after the submission).
    requests: Vec<(u32, u64)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (30usize..90, 2usize..4, 2usize..5, 4usize..10, 0u64..1000),
        (1usize..3, 0usize..6, 0u64..1000),
        (1usize..6, 0u64..10),
        proptest::collection::vec((0u32..1000, 0u64..4), 1..28),
    )
        .prop_map(
            |(
                (n, communities, degree, dim, graph_seed),
                (hops, cap, sample_seed),
                (max_batch, max_delay),
                requests,
            )| Scenario {
                n,
                communities,
                degree,
                dim,
                graph_seed,
                hops,
                cap,
                sample_seed,
                max_batch,
                max_delay,
                requests,
            },
        )
}

fn build_server(sc: &Scenario) -> (Server, ServeModelConfig) {
    let ds =
        flexgraph_graph::gen::community(sc.n, sc.communities, sc.degree, 1, sc.dim, sc.graph_seed);
    let model = ServeModelConfig {
        hops: sc.hops,
        cap: sc.cap,
        seed: sc.sample_seed,
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let cfg = ServerConfig {
        batcher: BatcherConfig {
            max_batch: sc.max_batch,
            max_delay: sc.max_delay,
            queue_cap: 4096,
        },
        model,
        cache_bytes: 1 << 20,
        budget: MemoryBudget::unlimited(),
        ..Default::default()
    };
    let snap = ModelSnapshot::init(&model, INIT_SEED);
    (Server::new(ds.graph, ds.features, cfg, snap), model)
}

/// Drives the full request sequence through a server **twice** (second
/// pass fully warm), polling after every submission and flushing at the
/// end of each pass. Returns the two passes' transcripts.
fn run_server(sc: &Scenario) -> (Vec<Response>, Vec<Response>) {
    let (server, _) = build_server(sc);
    let n = server.graph().num_vertices() as u32;
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut out = Vec::new();
        for &(v, idle) in &sc.requests {
            server.submit(v % n).unwrap();
            server.tick(idle);
            out.extend(server.poll().unwrap());
        }
        out.extend(server.flush().unwrap());
        passes.push(out);
    }
    let warm = passes.pop().unwrap();
    let cold = passes.pop().unwrap();
    (cold, warm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Served == solo, bitwise, cold and warm, at 1 and 4 threads; and
    /// the entire transcript is thread-count- and run-invariant.
    #[test]
    fn served_batches_equal_solo_requests_bitwise(sc in arb_scenario()) {
        // Reference outputs, computed single-request at 1 thread.
        set_thread_override(Some(1));
        let ds = flexgraph_graph::gen::community(
            sc.n, sc.communities, sc.degree, 1, sc.dim, sc.graph_seed,
        );
        let (_, model) = build_server(&sc);
        let snap = ModelSnapshot::init(&model, INIT_SEED);
        let budget = MemoryBudget::unlimited();
        let n = ds.graph.num_vertices() as u32;
        let solo = |v: u32| {
            serve_one(&ds.graph, &ds.features, &snap, &model, v, &budget).unwrap()
        };

        let mut transcripts = Vec::new();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            let (cold, warm) = run_server(&sc);
            prop_assert_eq!(cold.len(), sc.requests.len());
            prop_assert_eq!(warm.len(), sc.requests.len());
            for r in cold.iter().chain(&warm) {
                let reference = solo(r.vertex);
                prop_assert_eq!(
                    &r.output, &reference,
                    "vertex {} served != solo (threads={}, hit={})",
                    r.vertex, threads, r.cache_hit
                );
            }
            // Warm-pass answers repeat the cold pass bitwise.
            for (c, w) in cold.iter().zip(&warm) {
                prop_assert_eq!(&c.output, &w.output);
                prop_assert_eq!(c.vertex % n, w.vertex % n);
            }
            transcripts.push((cold, warm));
        }
        set_thread_override(None);
        // Byte-identical transcripts (ids, batch boundaries via
        // latencies, versions, outputs) across thread counts.
        let (t4, t1) = (transcripts.pop().unwrap(), transcripts.pop().unwrap());
        prop_assert_eq!(t1, t4);
    }

    /// Same scenario, two independent servers: identical transcripts.
    /// (Run-to-run determinism — the CI serve-trace byte gate in unit
    /// form.)
    #[test]
    fn serving_is_run_deterministic(sc in arb_scenario()) {
        set_thread_override(None);
        let a = run_server(&sc);
        let b = run_server(&sc);
        prop_assert_eq!(a, b);
    }
}
