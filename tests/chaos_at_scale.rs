//! Chaos at cluster scale, on the virtual-time runtime (ISSUE 7
//! satellite).
//!
//! The threaded chaos suite (`tests/chaos.rs`) proves fault-invariant
//! outputs at `k = 3` — the host's core budget. This suite re-runs the
//! same 20-seed fault matrix on the discrete-event runtime at `k = 64`,
//! where "worker" costs nothing but a task struct, and anchors the
//! virtual runtime to reality first: fault-free virtual epochs are
//! **bitwise identical** to threaded epochs in every execution mode at
//! small `k`. Crash recovery is then exercised at `k = 256`.
//!
//! A failing seed reproduces with
//! `FLEXGRAPH_CHAOS_SEED=<seed> cargo test --test chaos_at_scale`.

use flexgraph::comm::{ChaosSchedule, CrashPoint, RetryPolicy};
use flexgraph::dist::{distributed_epoch, make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::graph::gen::community;
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::prelude::*;

fn shards_for(ds: &Dataset, k: usize) -> Vec<Shard> {
    let n = ds.graph.num_vertices();
    let part = hash_partition(&ds.graph, k);
    make_shards(n, &ds.features, &part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    })
}

fn mode_for(seed: u64) -> DistMode {
    match seed % 4 {
        0 => DistMode::FlexGraph { pipeline: true },
        1 => DistMode::FlexGraph { pipeline: false },
        2 => DistMode::EulerLike { batch_size: 7 },
        _ => DistMode::DistDglLike {
            batch_size: 7,
            hops: 2,
        },
    }
}

/// Same five fault classes as the threaded matrix.
fn schedule_for(seed: u64) -> ChaosSchedule {
    let base = ChaosSchedule {
        seed,
        ..ChaosSchedule::default()
    };
    match seed % 5 {
        0 => ChaosSchedule {
            drop_every: 3,
            ..base
        },
        1 => ChaosSchedule {
            drop_prob: 0.3,
            ..base
        },
        2 => ChaosSchedule {
            duplicate_every: 2,
            reorder_prob: 0.2,
            reorder_window: 3,
            ..base
        },
        3 => ChaosSchedule {
            reorder_prob: 0.5,
            reorder_window: 4,
            extra_delay_us: 200.0,
            jitter_us: 300.0,
            ..base
        },
        _ => ChaosSchedule::stress(seed),
    }
}

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: scalar {i} differs ({g} vs {w})"
        );
    }
}

fn seeds(range: std::ops::Range<u64>) -> Vec<u64> {
    match std::env::var("FLEXGRAPH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(s) => vec![s],
        None => range.collect(),
    }
}

/// The anchor: at thread-feasible `k`, the virtual runtime is not an
/// approximation of the threaded one — it is bit-for-bit the same
/// computation.
#[test]
fn virtual_runtime_is_bitwise_identical_to_threads_when_fault_free() {
    let ds = community(120, 2, 5, 2, 6, 77);
    for k in [2usize, 4] {
        let sh = shards_for(&ds, k);
        for mode in [
            DistMode::FlexGraph { pipeline: true },
            DistMode::FlexGraph { pipeline: false },
            DistMode::EulerLike { batch_size: 7 },
            DistMode::DistDglLike {
                batch_size: 7,
                hops: 2,
            },
        ] {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let threaded = distributed_epoch(&ds.graph, &sh, &cfg);
            let virt = virtual_epoch(&ds.graph, &sh, &cfg, &NetProfile::default());
            assert_bitwise_eq(
                &virt.report.features,
                &threaded.features,
                &format!("k {k} mode {mode:?}"),
            );
            assert_eq!(virt.report.comm_bytes, threaded.comm_bytes);
            assert_eq!(virt.report.comm_messages, threaded.comm_messages);
        }
    }
}

/// The PR 2 fault matrix, at a cluster size threads cannot reach: every
/// seeded schedule of drops / duplicates / reorders / delays leaves the
/// 64-worker epoch output bitwise identical to the fault-free run.
#[test]
fn twenty_chaos_seeds_at_64_workers_yield_bitwise_identical_epochs() {
    const K: usize = 64;
    let ds = community(640, 4, 5, 2, 6, 77);
    let sh = shards_for(&ds, K);
    let net = NetProfile::default();
    for seed in seeds(0..20) {
        let mode = mode_for(seed);
        let clean = DistConfig {
            mode,
            retry: RetryPolicy::snappy(),
            ..DistConfig::default()
        };
        let want = virtual_epoch(&ds.graph, &sh, &clean, &net);
        let cfg = DistConfig {
            chaos: Some(schedule_for(seed)),
            ..clean
        };
        let got = virtual_epoch(&ds.graph, &sh, &cfg, &net);
        assert_bitwise_eq(
            &got.report.features,
            &want.report.features,
            &format!("seed {seed} mode {mode:?}"),
        );
        assert_eq!(got.report.recoveries, 0, "seed {seed}: no crash scheduled");
        // Fault injection must not leak into the logical traffic model.
        assert_eq!(got.report.comm_bytes, want.report.comm_bytes);
        assert_eq!(got.report.comm_messages, want.report.comm_messages);
    }
}

/// Crash-recovery convergence at `k = 256`: a worker crash mid-epoch
/// triggers failure detection across 255 peers, the epoch re-drives,
/// and the recovered output matches the fault-free run bitwise.
#[test]
fn crash_recovery_converges_at_256_workers() {
    const K: usize = 256;
    let ds = community(1280, 4, 5, 2, 6, 77);
    let sh = shards_for(&ds, K);
    let net = NetProfile {
        rack_size: 32,
        ..NetProfile::default()
    };
    let clean = DistConfig {
        retry: RetryPolicy::snappy(),
        ..DistConfig::default()
    };
    let want = virtual_epoch(&ds.graph, &sh, &clean, &net);
    let clean_events = want.event_log.lines().count();
    for seed in seeds(40..43) {
        let cfg = DistConfig {
            chaos: Some(ChaosSchedule {
                seed,
                crash: Some(CrashPoint {
                    rank: (seed as usize * 37) % K,
                    at_send: 1 + seed % 8,
                }),
                ..ChaosSchedule::default()
            }),
            retry: RetryPolicy::snappy(),
            ..DistConfig::default()
        };
        let got = virtual_epoch(&ds.graph, &sh, &cfg, &net);
        assert_eq!(
            got.report.recoveries, 1,
            "seed {seed}: exactly one re-drive"
        );
        assert!(
            got.event_log.contains("C "),
            "seed {seed}: crash must be logged"
        );
        assert_bitwise_eq(
            &got.report.features,
            &want.report.features,
            &format!("crash seed {seed}"),
        );
        // Recovery at 256 workers is one bounded replay, not a stall:
        // the lost attempt schedules no more than a clean epoch's
        // events plus one crash and K - 1 failure notices, and the
        // re-drive is the clean epoch again.
        let events = got.event_log.lines().count();
        assert!(
            events <= 3 * clean_events,
            "seed {seed}: {events} scheduler events vs {clean_events} fault-free"
        );
    }
}

/// Straggler and flaky-rack profiles stretch virtual time but never
/// change the computed result — the scaling curves the fig15 harness
/// sweeps are timing-only effects.
#[test]
fn skewed_cluster_profiles_change_time_not_results() {
    const K: usize = 64;
    let ds = community(640, 4, 5, 2, 6, 77);
    let sh = shards_for(&ds, K);
    let cfg = DistConfig::default();
    let flat = virtual_epoch(&ds.graph, &sh, &cfg, &NetProfile::default());
    let skewed = NetProfile {
        rack_size: 8,
        stragglers: vec![flexgraph::comm::Straggler {
            rank: 17,
            compute_factor: 16.0,
            link_factor: 4.0,
        }],
        flaky_racks: vec![flexgraph::comm::FlakyRack {
            rack: 3,
            extra_delay_us: 500.0,
            drop_prob: 0.3,
        }],
        ..NetProfile::default()
    };
    let skew = virtual_epoch(&ds.graph, &sh, &cfg, &skewed);
    assert!(
        skew.virtual_time > flat.virtual_time,
        "skew must stretch the epoch ({:?} vs {:?})",
        skew.virtual_time,
        flat.virtual_time
    );
    assert_bitwise_eq(&skew.report.features, &flat.report.features, "skewed");
}
