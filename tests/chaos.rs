//! Chaos-schedule fault-injection suite, on the virtual cluster — the
//! one place faults are injected.
//!
//! The headline claim: **any** deterministic schedule of message drops,
//! duplicates, reorders, delays, and single-worker crashes yields
//! bitwise-identical epoch outputs to the fault-free run. A link
//! delivers every payload once and in send order whatever the schedule
//! does to it (a drop costs modeled retransmission time, nothing else),
//! rank-ordered receives pin the floating-point fold order, and crash
//! recovery re-drives the epoch from immutable shard state — so the
//! application-visible result is a pure function of the inputs, never
//! of the fault schedule, and the fault counters a pure function of its
//! seed.
//!
//! Every schedule is derived from a seed, so a failure reproduces with
//! `FLEXGRAPH_CHAOS_SEED=<seed> cargo test --test chaos`.

use flexgraph::comm::{ChaosSchedule, CrashPoint, RetryPolicy};
use flexgraph::dist::{make_shards, virtual_epoch, DistConfig, DistMode, EpochReport};
use flexgraph::graph::gen::community;
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::prelude::*;

const K: usize = 3;
const N: usize = 120;

fn dataset() -> Dataset {
    community(N, 2, 5, 2, 6, 77)
}

fn shards(ds: &Dataset) -> Vec<Shard> {
    let part = hash_partition(&ds.graph, K);
    make_shards(N, &ds.features, &part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    })
}

/// One of the four execution modes, cycled per seed so the whole matrix
/// gets chaos coverage.
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

/// A seeded fault schedule cycling through five distinct fault classes.
fn schedule_for(seed: u64) -> ChaosSchedule {
    let base = ChaosSchedule {
        seed,
        ..ChaosSchedule::default()
    };
    match seed % 5 {
        // Deterministic periodic drops.
        0 => ChaosSchedule {
            drop_every: 3,
            ..base
        },
        // Random drops.
        1 => ChaosSchedule {
            drop_prob: 0.3,
            ..base
        },
        // Duplicates plus mild reordering.
        2 => ChaosSchedule {
            duplicate_every: 2,
            reorder_prob: 0.2,
            reorder_window: 3,
            ..base
        },
        // Heavy reordering plus extra latency.
        3 => ChaosSchedule {
            reorder_prob: 0.5,
            reorder_window: 4,
            extra_delay_us: 200.0,
            jitter_us: 300.0,
            ..base
        },
        // Everything at once.
        _ => ChaosSchedule::stress(seed),
    }
}

/// One virtual epoch over the uniform network `cfg.cost_model` models.
fn epoch(ds: &Dataset, sh: &[Shard], cfg: &DistConfig) -> EpochReport {
    virtual_epoch(
        &ds.graph,
        sh,
        cfg,
        &NetProfile::from_cost_model(&cfg.cost_model),
    )
    .report
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

/// Seeds under test: 20 by default, or exactly the one named by
/// `FLEXGRAPH_CHAOS_SEED` when reproducing a failure.
fn seeds(range: std::ops::Range<u64>) -> Vec<u64> {
    match std::env::var("FLEXGRAPH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(s) => vec![s],
        None => range.collect(),
    }
}

#[test]
fn twenty_chaos_seeds_yield_bitwise_identical_epochs() {
    let ds = dataset();
    let sh = shards(&ds);
    for seed in seeds(0..20) {
        let mode = mode_for(seed);
        let clean = DistConfig {
            mode,
            retry: RetryPolicy::snappy(),
            ..DistConfig::default()
        };
        let want = epoch(&ds, &sh, &clean);
        let cfg = DistConfig {
            chaos: Some(schedule_for(seed)),
            ..clean
        };
        let got = epoch(&ds, &sh, &cfg);
        assert_bitwise_eq(
            &got.features,
            &want.features,
            &format!("seed {seed} mode {mode:?}"),
        );
        assert_eq!(got.recoveries, 0, "seed {seed}: no crash was scheduled");
    }
}

#[test]
fn crashed_worker_recovers_to_bitwise_identical_output() {
    let ds = dataset();
    let sh = shards(&ds);
    for seed in seeds(20..26) {
        let mode = mode_for(seed);
        let clean = DistConfig {
            mode,
            retry: RetryPolicy::snappy(),
            ..DistConfig::default()
        };
        let want = epoch(&ds, &sh, &clean);
        let mut chaos = schedule_for(seed);
        // Every worker makes at least k-1 data sends in every mode, so
        // an `at_send` in 1..=k-1 is guaranteed to trigger.
        chaos.crash = Some(CrashPoint {
            rank: seed as usize % K,
            at_send: 1 + seed % (K as u64 - 1),
        });
        let cfg = DistConfig {
            chaos: Some(chaos),
            ..clean
        };
        let got = epoch(&ds, &sh, &cfg);
        assert!(
            got.recoveries >= 1,
            "seed {seed}: the scheduled crash must force a re-drive"
        );
        assert_bitwise_eq(
            &got.features,
            &want.features,
            &format!("crash seed {seed} mode {mode:?}"),
        );
    }
}

#[test]
fn fault_counters_attribute_injected_faults() {
    let ds = dataset();
    let sh = shards(&ds);
    // Mini-batch rounds put many packets on every link (the virtual
    // cluster's barriers are not messages), so the periodic duplicate
    // fires and the drop rolls are many.
    let clean = DistConfig {
        mode: DistMode::EulerLike { batch_size: 7 },
        retry: RetryPolicy::snappy(),
        ..DistConfig::default()
    };
    let want = epoch(&ds, &sh, &clean);
    let cfg = DistConfig {
        chaos: Some(ChaosSchedule {
            seed: 99,
            drop_prob: 0.4,
            duplicate_every: 2,
            ..ChaosSchedule::default()
        }),
        ..clean
    };
    let got = epoch(&ds, &sh, &cfg);
    assert!(got.drops_injected > 0, "drops were scheduled");
    assert!(got.retries > 0, "drops force retransmissions");
    assert_eq!(got.retries, got.drops_injected, "one per drop, no more");
    assert!(got.redeliveries > 0, "duplicates are absorbed, and counted");
    assert_eq!(got.recoveries, 0);
    // The logical traffic accounting is fault-invariant: retransmits and
    // duplicates never inflate the modeled message/byte counters.
    assert_eq!(got.comm_messages, want.comm_messages);
    assert_eq!(got.comm_bytes, want.comm_bytes);
    assert_bitwise_eq(&got.features, &want.features, "counter run");
}

#[test]
fn chaos_is_reproducible_from_its_seed() {
    let ds = dataset();
    let sh = shards(&ds);
    let cfg = DistConfig {
        chaos: Some(ChaosSchedule::stress(7)),
        retry: RetryPolicy::snappy(),
        ..DistConfig::default()
    };
    let a = epoch(&ds, &sh, &cfg);
    let b = epoch(&ds, &sh, &cfg);
    assert_eq!(a.drops_injected, b.drops_injected, "same seed, same faults");
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.redeliveries, b.redeliveries);
    assert_bitwise_eq(&a.features, &b.features, "replay");
}

#[test]
fn crash_recovery_preserves_training_trajectory() {
    // Satellite recovery-math check: a crash mid-training plus a
    // checkpoint restore leaves the optimizer state and the loss
    // trajectory identical over 3 epochs.
    let ds = community(100, 2, 5, 1, 8, 41);
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.02,
        seed: 13,
    };
    let mut clean = Trainer::new(Gcn::new(8, ds.feature_dim(), ds.num_classes), cfg);
    let want = train_with_recovery(&mut clean, &ds, 3, None);
    assert_eq!(want.recoveries, 0);

    let mut crashed = Trainer::new(Gcn::new(8, ds.feature_dim(), ds.num_classes), cfg);
    let got = train_with_recovery(&mut crashed, &ds, 3, Some(1));
    assert_eq!(got.recoveries, 1);
    assert_eq!(got.stats.len(), 3);
    for (e, (g, w)) in got.stats.iter().zip(&want.stats).enumerate() {
        assert_eq!(
            g.loss.to_bits(),
            w.loss.to_bits(),
            "epoch {e}: loss trajectory diverged after recovery"
        );
    }
    // Optimizer state converged to the same point: one more epoch on
    // each trainer stays bitwise identical.
    let next_clean = clean.epoch(&ds, 3).loss;
    let next_crashed = crashed.epoch(&ds, 3).loss;
    assert_eq!(next_clean.to_bits(), next_crashed.to_bits());
}
