//! The no-lost-response guarantee under chaos (ISSUE 9, satellite 3).
//!
//! For 20 seeds × three fault classes — replica **crash**, wire
//! **delay**, packet **reorder** (with drops) — a multi-tenant
//! workload with a mid-stream rolling checkpoint swap must produce a
//! transcript **byte-identical** to the fault-free run of the same
//! workload: every admitted request answered exactly once, no request
//! dropped or duplicated, no response mixing checkpoint versions, and
//! per-request latencies untouched by retransmission or recovery
//! timing. (`run_tier` itself asserts exactly-once and
//! version-pinning structurally; transcript equality pins the bytes.)
//!
//! The reference transcript is additionally checked against
//! single-process `serve_one` on the pinned snapshots, against a
//! 3-replica deployment — so the guarantee composes across fault
//! schedules *and* replica counts — and against the `(len, fnv1a)` of
//! the bytes the threaded tier produced before it moved onto the
//! virtual cluster (ISSUE 18).
//!
//! The tier runs in virtual time, so a leg is also exact about *how* it
//! got there: message-level chaos never costs a recovery, a crash
//! schedule at most one, and two runs of one configuration agree on
//! every window counter.
//!
//! Reproduce one failing seed with
//! `FLEXGRAPH_CHAOS_SEED=<seed> cargo test --test replica_chaos`.

use flexgraph::comm::{fnv1a, ChaosSchedule, CrashPoint, RetryPolicy};
use flexgraph::serve::{
    run_tier, swap_bytes_for, BatcherConfig, ModelSnapshot, QuantConfig, ServeFeats,
    ServeModelConfig, ServerConfig, TenantQuota, TierConfig, TierOp, TierRun, TierTenant,
};
use std::time::Duration;

const INIT_SEED: u64 = 77;
const REPLICAS: usize = 2;

fn tenant(id: u64, graph_seed: u64, quant: QuantConfig) -> TierTenant {
    let ds = flexgraph::graph::gen::community(70, 3, 4, 1, 8, graph_seed);
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    TierTenant {
        tenant: id,
        graph: ds.graph,
        feats: ds.features,
        server: ServerConfig {
            batcher: BatcherConfig {
                max_batch: 3,
                max_delay: 4,
                queue_cap: 1024,
            },
            model,
            quant,
            ..Default::default()
        },
        quota: TenantQuota {
            window_quota: 0,
            slo_vt: 6,
        },
        init_seed: INIT_SEED,
    }
}

fn tenants() -> Vec<TierTenant> {
    vec![
        tenant(1, 41, QuantConfig::F32),
        tenant(2, 42, QuantConfig::Bf16),
    ]
}

/// A fixed workload: 30 interleaved submissions across both tenants,
/// idle ticks to force deadline-closed batches, and one rolling swap
/// per tenant mid-stream.
fn workload() -> Vec<TierOp> {
    let mut ops = Vec::new();
    for i in 0..30u32 {
        let tenant = 1 + (i as u64 % 2);
        ops.push(TierOp::Submit {
            tenant,
            vertex: (i * 11) % 70,
        });
        if i % 4 == 3 {
            ops.push(TierOp::Idle { tenant, ticks: 2 });
        }
        if i == 10 {
            ops.push(TierOp::Swap {
                tenant: 1,
                checkpoint_seed: 500,
            });
        }
        if i == 18 {
            ops.push(TierOp::Swap {
                tenant: 2,
                checkpoint_seed: 501,
            });
        }
    }
    ops
}

/// Tight failure detection so 20 crash seeds stay fast.
fn retry() -> RetryPolicy {
    RetryPolicy {
        patience: Duration::from_millis(400),
        ..RetryPolicy::snappy()
    }
}

fn config(chaos: ChaosSchedule, replicas: usize) -> TierConfig {
    TierConfig {
        replicas,
        retry: retry(),
        chaos,
        max_recoveries: 1,
        ..Default::default()
    }
}

/// One fault class per suite leg, parameterized by seed.
fn schedule_for(class: &str, seed: u64) -> ChaosSchedule {
    let base = ChaosSchedule {
        seed,
        ..ChaosSchedule::default()
    };
    match class {
        // A replica dies on its (1 + seed % 5)-th response send.
        "crash" => ChaosSchedule {
            crash: Some(CrashPoint {
                rank: 1 + (seed as usize % REPLICAS),
                at_send: 1 + seed % 5,
            }),
            ..base
        },
        // Fixed extra latency plus jitter on every transmission.
        "delay" => ChaosSchedule {
            extra_delay_us: 200.0,
            jitter_us: 400.0,
            ..base
        },
        // Heavy reordering plus first-transmission drops.
        "reorder" => ChaosSchedule {
            reorder_prob: 0.4,
            reorder_window: 4,
            drop_every: 7,
            drop_prob: 0.2,
            ..base
        },
        other => panic!("unknown fault class {other}"),
    }
}

/// Seeds under test: 20 by default, or exactly the one named by
/// `FLEXGRAPH_CHAOS_SEED` when reproducing a failure.
fn seeds() -> Vec<u64> {
    match std::env::var("FLEXGRAPH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(s) => vec![s],
        None => (0..20).collect(),
    }
}

/// The fault-free reference: checked once against single-process
/// `serve_one` on the pinned snapshot chain, then reused as the byte
/// oracle for every chaos leg.
fn reference() -> TierRun {
    let ts = tenants();
    let run = run_tier(
        &ts,
        &workload(),
        &config(ChaosSchedule::default(), REPLICAS),
    );
    assert_eq!(run.responses.len(), 30, "every admitted request answered");
    // The bytes of the threaded tier's fault-free transcript at the
    // commit before ISSUE 18, one `\n` after each line.
    let bytes = run.transcript.join("\n") + "\n";
    assert_eq!(
        (bytes.len(), fnv1a(bytes.as_bytes())),
        (3038, 0xf86a_d810_4cf9_9c03),
        "reference transcript moved"
    );
    for t in &ts {
        let mut snaps = vec![ModelSnapshot::init_quant(
            &t.server.model,
            t.init_seed,
            t.server.quant,
        )];
        let seed = if t.tenant == 1 { 500 } else { 501 };
        let bytes = swap_bytes_for(&t.server.model, seed);
        snaps.push(snaps[0].with_checkpoint(&bytes).expect("valid checkpoint"));
        let feats = ServeFeats::new(t.feats.clone(), t.server.quant);
        for r in run.responses.iter().filter(|r| r.tenant == t.tenant) {
            let snap = snaps
                .iter()
                .find(|s| s.version() == r.model_version)
                .expect("response pinned to an installed version");
            let want = flexgraph::serve::model::serve_one_quant(
                &t.graph,
                &feats,
                snap,
                &t.server.model,
                r.vertex,
                &t.server.budget,
            )
            .expect("reference forward");
            assert_eq!(
                r.output, want,
                "tier response bytes differ from serve_one (tenant {}, request {})",
                r.tenant, r.request_id
            );
        }
    }
    run
}

#[test]
fn chaos_never_loses_duplicates_or_version_mixes_a_response() {
    let want = reference();
    let ts = tenants();
    let ops = workload();
    let mut crashes_survived = 0usize;
    for seed in seeds() {
        for class in ["crash", "delay", "reorder"] {
            let chaos = schedule_for(class, seed);
            let run = run_tier(&ts, &ops, &config(chaos, REPLICAS));
            assert_eq!(
                run.transcript, want.transcript,
                "transcript diverged under {class} chaos, seed {seed} \
                 (reproduce with FLEXGRAPH_CHAOS_SEED={seed})"
            );
            if class == "crash" {
                assert!(run.recoveries <= 1, "seed {seed}: one crash, one recovery");
            } else {
                assert_eq!(
                    run.recoveries, 0,
                    "{class} chaos, seed {seed}: no replica crashed, none may be given up"
                );
            }
            let again = run_tier(&ts, &ops, &config(chaos, REPLICAS));
            assert_eq!(
                again.windows, run.windows,
                "{class} chaos, seed {seed}: windows differ between two runs"
            );
            crashes_survived += run.recoveries;
        }
    }
    // The crash leg must actually exercise recovery: over 20 seeds the
    // schedule fires on a live send path many times.
    if std::env::var("FLEXGRAPH_CHAOS_SEED").is_err() {
        assert!(
            crashes_survived >= 5,
            "crash schedules barely fired ({crashes_survived} recoveries)"
        );
    }
}

#[test]
fn transcript_is_invariant_to_replica_count() {
    let want = reference();
    let ts = tenants();
    let ops = workload();
    for replicas in [1usize, 3] {
        let run = run_tier(&ts, &ops, &config(ChaosSchedule::default(), replicas));
        assert_eq!(
            run.transcript, want.transcript,
            "transcript varies with replica count {replicas}"
        );
    }
    // And a crashing 3-replica tier still converges to the same bytes.
    let chaos = schedule_for("crash", 7);
    let run = run_tier(&ts, &ops, &config(chaos, 3));
    assert_eq!(run.transcript, want.transcript);
}
