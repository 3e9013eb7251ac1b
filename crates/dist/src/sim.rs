//! The virtual-time backend of distributed epochs.
//!
//! The threaded backend ([`crate::trainer::distributed_epoch`]) gives
//! every worker an OS thread, which caps cluster sizes at the host's
//! core count and makes every timing curve hostage to the OS scheduler.
//! [`virtual_epoch`] drives the *same* [`crate::worker`] tasks from the
//! deterministic discrete-event runtime ([`flexgraph_comm::det`])
//! instead:
//!
//! * a thousand workers fit on one core, because "waiting" for the
//!   virtual wire costs no wall time;
//! * epoch time is *modeled*, composed from per-link latency/bandwidth,
//!   rack topology, stragglers, and charged compute units — so scaling
//!   shapes (Figures 13/15) appear even on a single-core host;
//! * the whole epoch is deterministic: the same seed replays the same
//!   event sequence byte for byte, at any `FLEXGRAPH_THREADS`;
//! * outputs and deterministic telemetry equal the threaded backend's
//!   bit for bit, because it is one worker under two drivers.
//!
//! Recovery is the shared loop of [`crate::trainer`]: a scheduled crash
//! fails the attempt, the epoch is re-driven crash-free on a fresh
//! virtual cluster, and the recovered output is bitwise identical to a
//! fault-free run. For the uniform network a threaded [`CostModel`]
//! describes, pass `&NetProfile::from_cost_model(&cfg.cost_model)`.
//!
//! [`CostModel`]: flexgraph_comm::CostModel

use crate::shard::Shard;
use crate::trainer::{run_epoch, Attempt, DistConfig, EpochReport};
use flexgraph_comm::det::fnv1a;
use flexgraph_comm::{NetProfile, SimConfig, VirtualCluster};
use flexgraph_graph::Graph;
use flexgraph_obs::FabricCounters;
use std::time::Duration;

/// Result of one [`virtual_epoch`]: the threaded-shaped report plus the
/// virtual-runtime extras (event log, digests, virtual clocks).
pub struct VirtualEpochReport {
    /// The epoch's measurements in the threaded report shape; `wall`
    /// carries the *virtual* epoch duration, and the telemetry's stage
    /// nanoseconds and per-root costs are modeled (scaled by straggler
    /// factors).
    pub report: EpochReport,
    /// Virtual epoch duration (slowest worker's virtual clock).
    pub virtual_time: Duration,
    /// Sum of all workers' charged virtual compute.
    pub total_compute: Duration,
    /// Concatenated scheduler event logs of every attempt (re-driven
    /// epochs append; the final attempt's log is the tail).
    pub event_log: String,
    /// `(len, fnv1a)` digest of `event_log`, for cheap byte-identity
    /// comparison across runs.
    pub log_digest: (u64, u64),
}

/// Runs one distributed epoch on the deterministic virtual runtime: a
/// fresh [`VirtualCluster`] per attempt, under the recovery loop
/// [`crate::trainer::distributed_epoch`] documents.
///
/// # Panics
///
/// Panics when the epoch still fails after `cfg.max_recoveries`
/// re-drives.
pub fn virtual_epoch(
    graph: &Graph,
    shards: &[Shard],
    cfg: &DistConfig,
    net: &NetProfile,
) -> VirtualEpochReport {
    let mut event_log = String::new();
    let mut total_compute = Duration::ZERO;
    let report = run_epoch(graph, shards, cfg, |tasks, chaos| {
        let sim_cfg = SimConfig {
            net: net.clone(),
            retry: cfg.retry,
            chaos,
        };
        let mut cluster = VirtualCluster::new(tasks.len(), sim_cfg);
        cluster.run(tasks);
        event_log.push_str(&cluster.take_log());
        total_compute = Duration::from_nanos(cluster.total_compute_ns());
        let stats = cluster.stats();
        Attempt {
            fabric: FabricCounters {
                bytes: stats.bytes,
                messages: stats.messages,
                retries: stats.retries,
                drops_injected: stats.drops_injected,
                redeliveries: stats.redeliveries,
            },
            modeled_us: stats.modeled_ns as f64 / 1_000.0,
            wall: Duration::from_nanos(cluster.epoch_vt()),
            virtual_ns: cluster.epoch_vt(),
        }
    });
    let log_digest = (event_log.len() as u64, fnv1a(event_log.as_bytes()));
    VirtualEpochReport {
        virtual_time: report.wall,
        report,
        total_compute,
        event_log,
        log_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use crate::trainer::distributed_epoch;
    use crate::trainer::DistMode;
    use flexgraph_comm::{ChaosSchedule, CostModel, CrashPoint, FlakyRack, Straggler};
    use flexgraph_engine::hybrid::{AggrOp, AggrPlan};
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_obs::Stage;
    use flexgraph_tensor::Tensor;

    fn setup(k: usize) -> (Graph, Tensor, Vec<Shard>) {
        let ds = community(150, 3, 5, 2, 6, 77);
        let part = hash_partition(&ds.graph, k);
        let shards = make_shards(150, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        (ds.graph, ds.features, shards)
    }

    /// A virtual epoch over the uniform network `cfg.cost_model` models.
    fn uniform_epoch(graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> VirtualEpochReport {
        virtual_epoch(
            graph,
            shards,
            cfg,
            &NetProfile::from_cost_model(&cfg.cost_model),
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    const ALL_MODES: [DistMode; 4] = [
        DistMode::FlexGraph { pipeline: true },
        DistMode::FlexGraph { pipeline: false },
        DistMode::EulerLike { batch_size: 16 },
        DistMode::DistDglLike {
            batch_size: 16,
            hops: 2,
        },
    ];

    #[test]
    fn simulation_matches_threaded_runtime_results() {
        let (graph, _f, shards) = setup(3);
        for mode in ALL_MODES {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let sim = uniform_epoch(&graph, &shards, &cfg).report;
            let real = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                sim.features.max_abs_diff(&real.features) < 1e-4,
                "{mode:?}: simulation must compute the same features"
            );
            // One worker under two drivers: fault-free parity is bitwise.
            assert_eq!(
                bits(&sim.features),
                bits(&real.features),
                "{mode:?}: parity must be bitwise"
            );
            assert_eq!(sim.comm_bytes, real.comm_bytes, "{mode:?}: bytes");
            assert_eq!(sim.comm_messages, real.comm_messages, "{mode:?}: messages");
        }
    }

    #[test]
    fn simulation_matches_threaded_runtime_with_mean_and_update() {
        let (graph, _f, shards) = setup(2);
        let cfg = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Mean,
            plan: AggrPlan::flat(AggrOp::Sum),
            update_weight: Some(Tensor::eye(6).scale(0.5)),
            ..DistConfig::default()
        };
        let sim = uniform_epoch(&graph, &shards, &cfg).report;
        let real = distributed_epoch(&graph, &shards, &cfg);
        assert!(sim.features.max_abs_diff(&real.features) < 1e-4);
        assert_eq!(bits(&sim.features), bits(&real.features));
    }

    #[test]
    fn pipelined_model_is_never_slower_than_unpipelined() {
        let (graph, _f, shards) = setup(4);
        let model = CostModel {
            alpha_us: 500.0,
            bytes_per_us: 100.0,
            simulate_delay: false,
        };
        let piped = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            cost_model: model,
            ..DistConfig::default()
        };
        let raw = DistConfig {
            mode: DistMode::FlexGraph { pipeline: false },
            cost_model: model,
            ..DistConfig::default()
        };
        let tp = uniform_epoch(&graph, &shards, &piped).virtual_time;
        let tr = uniform_epoch(&graph, &shards, &raw).virtual_time;
        assert!(
            tp <= tr + Duration::from_micros(200),
            "pipelined {tp:?} must not exceed unpipelined {tr:?}"
        );
    }

    #[test]
    fn single_worker_has_no_comm() {
        let (graph, _f, shards) = setup(1);
        let cfg = DistConfig::default();
        let sim = uniform_epoch(&graph, &shards, &cfg).report;
        assert_eq!(sim.comm_bytes, 0);
        assert_eq!(sim.comm_messages, 0);
    }

    #[test]
    fn minibatch_closure_fetch_moves_more_bytes() {
        let (graph, _f, shards) = setup(4);
        let euler = DistConfig {
            mode: DistMode::EulerLike { batch_size: 10 },
            ..DistConfig::default()
        };
        let distd = DistConfig {
            mode: DistMode::DistDglLike {
                batch_size: 10,
                hops: 2,
            },
            ..DistConfig::default()
        };
        let be = uniform_epoch(&graph, &shards, &euler).report.comm_bytes;
        let bd = uniform_epoch(&graph, &shards, &distd).report.comm_bytes;
        assert!(bd > be, "closure fetch {bd} must exceed dep fetch {be}");
    }

    #[test]
    fn same_seed_virtual_epochs_are_byte_identical() {
        let (graph, _f, shards) = setup(3);
        let cfg = DistConfig {
            chaos: Some(ChaosSchedule::stress(41).without_crash()),
            ..DistConfig::default()
        };
        let net = NetProfile {
            seed: 7,
            rack_size: 2,
            stragglers: vec![Straggler {
                rank: 1,
                compute_factor: 4.0,
                link_factor: 2.0,
            }],
            flaky_racks: vec![FlakyRack {
                rack: 0,
                extra_delay_us: 120.0,
                drop_prob: 0.5,
            }],
            ..NetProfile::default()
        };
        let a = virtual_epoch(&graph, &shards, &cfg, &net);
        let b = virtual_epoch(&graph, &shards, &cfg, &net);
        assert_eq!(a.event_log, b.event_log, "event logs must be identical");
        assert_eq!(a.log_digest, b.log_digest);
        assert_eq!(bits(&a.report.features), bits(&b.report.features));
        assert_eq!(a.virtual_time, b.virtual_time);
        assert!(a.report.drops_injected > 0, "stress schedule must inject");
    }

    #[test]
    fn straggler_scales_virtual_time_and_measured_root_costs() {
        let (graph, _f, shards) = setup(2);
        let cfg = DistConfig::default();
        let clean = virtual_epoch(&graph, &shards, &cfg, &NetProfile::default());
        let skewed = NetProfile {
            stragglers: vec![Straggler {
                rank: 0,
                compute_factor: 8.0,
                link_factor: 1.0,
            }],
            ..NetProfile::default()
        };
        let skew = virtual_epoch(&graph, &shards, &cfg, &skewed);
        let cost = |rep: &VirtualEpochReport, rank: u32| {
            rep.report.telemetry.partitions[&rank].root_digest().1
        };
        // Straggling scales the measured per-root costs (what ADB
        // ingests) on the slow rank only, and stretches the epoch.
        assert!(cost(&skew, 0) > cost(&clean, 0) * 7);
        assert_eq!(cost(&skew, 1), cost(&clean, 1));
        assert!(skew.virtual_time > clean.virtual_time);
        // The computed features are unaffected by timing.
        assert_eq!(bits(&skew.report.features), bits(&clean.report.features));
    }

    #[test]
    fn crash_recovery_is_bitwise_identical_to_fault_free() {
        let (graph, _f, shards) = setup(3);
        let net = NetProfile::default();
        let clean = virtual_epoch(&graph, &shards, &DistConfig::default(), &net);
        let crash_cfg = DistConfig {
            chaos: Some(ChaosSchedule {
                crash: Some(CrashPoint {
                    rank: 1,
                    at_send: 1,
                }),
                ..ChaosSchedule::default()
            }),
            ..DistConfig::default()
        };
        let crashed = virtual_epoch(&graph, &shards, &crash_cfg, &net);
        assert_eq!(crashed.report.recoveries, 1);
        assert!(crashed.event_log.contains("C "), "crash must be logged");
        assert_eq!(
            bits(&crashed.report.features),
            bits(&clean.report.features),
            "re-driven epoch must match the fault-free output bitwise"
        );
        // The re-driven attempt replays the fault-free schedule, so its
        // log is exactly the fault-free log.
        assert!(
            crashed.event_log.ends_with(&clean.event_log),
            "second attempt must replay the fault-free event sequence"
        );
    }

    #[test]
    fn virtual_telemetry_carries_stages_and_duration() {
        let (graph, _f, shards) = setup(3);
        let cfg = DistConfig {
            update_weight: Some(Tensor::eye(6)),
            ..DistConfig::default()
        };
        let rep = virtual_epoch(&graph, &shards, &cfg, &NetProfile::default());
        let tele = &rep.report.telemetry;
        assert_eq!(tele.virtual_ns, rep.virtual_time.as_nanos() as u64);
        assert!(tele.virtual_ns > 0);
        assert_eq!(tele.partitions.len(), 3);
        for rec in tele.partitions.values() {
            assert!(rec.pipelined);
            assert_eq!(rec.stage(Stage::LeafSend).invocations, 1);
            assert_eq!(rec.stage(Stage::Update).invocations, 1);
            assert!(rec.stage(Stage::Upper).work > 0);
            assert!(!rec.roots.is_empty(), "root costs attributed");
        }
        assert_eq!(tele.fabric.messages, rep.report.comm_messages);
        assert_eq!(tele.fabric.bytes, rep.report.comm_bytes);
    }
}
