//! Multi-tenant isolation (ISSUE 9, satellite 2): any interleaving of
//! N tenants' requests through one [`Router`] yields per-tenant
//! response transcripts **bitwise equal** to running each tenant alone
//! through its own [`Server`] — under `FLEXGRAPH_THREADS ∈ {1, 4}`,
//! and byte-identical across the two thread counts.
//!
//! Tenants are fully isolated by construction (each server owns its
//! graph, features, cache, batcher, and snapshot chain); this test
//! pins that down against regressions: no shared clock, no shared
//! cache, no cross-tenant perturbation of batching or bits.

use flexgraph_serve::{
    BatcherConfig, ModelSnapshot, QuantConfig, Response, Router, ServeError, ServeModelConfig,
    Server, ServerConfig, TenantQuota,
};
use flexgraph_tensor::set_thread_override;
use proptest::prelude::*;

const INIT_SEED: u64 = 77;

#[derive(Clone, Debug)]
struct TenantScenario {
    n: usize,
    graph_seed: u64,
    hops: usize,
    cap: usize,
    max_batch: usize,
    max_delay: u64,
    quant: QuantConfig,
}

#[derive(Clone, Debug)]
struct Scenario {
    tenants: Vec<TenantScenario>,
    /// (tenant index, vertex draw, idle ticks after the submission).
    ops: Vec<(usize, u32, u64)>,
}

fn arb_tenant() -> impl Strategy<Value = TenantScenario> {
    (
        (30usize..70, 0u64..1000),
        (1usize..3, 0usize..6),
        (1usize..5, 0u64..6),
        0usize..3,
    )
        .prop_map(
            |((n, graph_seed), (hops, cap), (max_batch, max_delay), q)| TenantScenario {
                n,
                graph_seed,
                hops,
                cap,
                max_batch,
                max_delay,
                quant: [QuantConfig::F32, QuantConfig::Bf16, QuantConfig::Int8][q],
            },
        )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(arb_tenant(), 2..4),
        proptest::collection::vec((0usize..4, 0u32..1000, 0u64..3), 4..40),
    )
        .prop_map(|(tenants, ops)| Scenario { tenants, ops })
}

fn build_server(t: &TenantScenario) -> Server {
    let ds = flexgraph_graph::gen::community(t.n, 3, 3, 1, 6, t.graph_seed);
    let model = ServeModelConfig {
        hops: t.hops,
        cap: t.cap,
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let cfg = ServerConfig {
        batcher: BatcherConfig {
            max_batch: t.max_batch,
            max_delay: t.max_delay,
            queue_cap: 4096,
        },
        model,
        quant: t.quant,
        ..Default::default()
    };
    let snap = ModelSnapshot::init_quant(&model, INIT_SEED, t.quant);
    Server::new(ds.graph, ds.features, cfg, snap)
}

/// Runs the interleaved workload through one router, polling the
/// touched tenant after every op, and returns each tenant's responses
/// in arrival order.
fn run_interleaved(sc: &Scenario) -> Vec<Vec<Response>> {
    let router = Router::new();
    for (i, t) in sc.tenants.iter().enumerate() {
        router
            .attach(i as u64, build_server(t), TenantQuota::default())
            .expect("fresh tenant id");
    }
    let mut out = vec![Vec::new(); sc.tenants.len()];
    for &(pick, vertex, idle) in &sc.ops {
        let tenant = pick % sc.tenants.len();
        let v = vertex % sc.tenants[tenant].n as u32;
        router.submit(tenant as u64, v).expect("admitted");
        if idle > 0 {
            router.tick(tenant as u64, idle).expect("attached");
        }
        out[tenant].extend(router.poll(tenant as u64).expect("poll"));
    }
    for (tenant, responses) in out.iter_mut().enumerate() {
        responses.extend(router.flush(tenant as u64).expect("flush"));
    }
    out
}

/// Runs one tenant's op subsequence alone through a standalone server.
fn run_solo(sc: &Scenario, tenant: usize) -> Vec<Response> {
    let server = build_server(&sc.tenants[tenant]);
    let mut out = Vec::new();
    for &(pick, vertex, idle) in &sc.ops {
        if pick % sc.tenants.len() != tenant {
            continue;
        }
        let v = vertex % sc.tenants[tenant].n as u32;
        server.submit(v).expect("admitted");
        if idle > 0 {
            server.tick(idle);
        }
        out.extend(server.poll().expect("poll"));
    }
    out.extend(server.flush().expect("flush"));
    out
}

/// Hot detach: the detached tenant's queue is drained into exactly the
/// responses `flush` would have returned (ids, outputs, latencies), its
/// final window counts them, it is gone afterwards, and the tenant left
/// behind cannot tell.
#[test]
fn detach_drains_the_queue_and_leaves_the_other_tenant_untouched() {
    // Batches never come due on their own, so everything submitted is
    // still queued when the detach (or the reference flush) happens.
    let tenant = |n, graph_seed, quant| TenantScenario {
        n,
        graph_seed,
        hops: 2,
        cap: 4,
        max_batch: 64,
        max_delay: 1000,
        quant,
    };
    let tenants = [
        tenant(50, 5, QuantConfig::F32),
        tenant(60, 9, QuantConfig::Bf16),
    ];
    let quota = TenantQuota {
        window_quota: 0,
        slo_vt: 2,
    };
    let queued = |router: &Router| {
        for (id, t) in tenants.iter().enumerate() {
            router
                .attach(id as u64, build_server(t), quota)
                .expect("fresh tenant id");
        }
        for v in [3, 17, 3, 41, 8] {
            router.submit(0, v).expect("admitted");
            router.submit(1, v + 1).expect("admitted");
        }
        // Three ticks in the queue: every tenant-0 answer breaks the SLO.
        router.tick(0, 3).expect("attached");
    };
    let (detaching, reference) = (Router::new(), Router::new());
    queued(&detaching);
    queued(&reference);

    let (drained, window) = detaching.detach(0).expect("attached");
    let flushed = reference.flush(0).expect("attached");
    assert_eq!(drained.len(), 5);
    assert_eq!(drained, flushed);
    assert_eq!(
        window,
        reference.window_stats(0).expect("attached"),
        "the final window is the one a flush would have left"
    );
    assert_eq!((window.tenant, window.slo_vt), (0, 2));
    assert_eq!((window.serve.enqueued, window.serve.served), (5, 5));
    assert_eq!(window.serve.latency.count, 5);
    assert_eq!(window.slo_violations, 5);

    assert_eq!(detaching.tenants(), [1]);
    assert_eq!(
        detaching.submit(0, 3),
        Err(ServeError::UnknownTenant { tenant: 0 })
    );

    for router in [&detaching, &reference] {
        router.submit(1, 20).expect("admitted");
    }
    let after_detach = detaching.flush(1).expect("attached");
    let undisturbed = reference.flush(1).expect("attached");
    assert_eq!(after_detach.len(), 6);
    assert_eq!(after_detach, undisturbed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The isolation contract, swept over thread counts: interleaved
    /// per-tenant transcripts == solo transcripts, and both are
    /// byte-identical across `FLEXGRAPH_THREADS ∈ {1, 4}`.
    #[test]
    fn interleaving_never_perturbs_a_tenants_bits(sc in arb_scenario()) {
        let mut per_thread: Vec<Vec<Vec<Response>>> = Vec::new();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            let interleaved = run_interleaved(&sc);
            for (tenant, transcript) in interleaved.iter().enumerate() {
                let solo = run_solo(&sc, tenant);
                prop_assert_eq!(
                    transcript,
                    &solo,
                    "tenant {} transcript differs from solo run ({} threads)",
                    tenant,
                    threads
                );
            }
            per_thread.push(interleaved);
        }
        set_thread_override(None);
        prop_assert_eq!(
            &per_thread[0],
            &per_thread[1],
            "multi-tenant transcript varies with thread count"
        );
    }
}
