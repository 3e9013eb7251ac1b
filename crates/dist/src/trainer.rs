//! Distributed aggregation epochs: the shared epoch body and its
//! threaded backend.
//!
//! An epoch runs one `worker` task per shard under one of three
//! execution modes:
//!
//! * [`DistMode::FlexGraph`] — leaf-level partial aggregation (pipelined
//!   or not) followed by local hybrid aggregation of the upper levels,
//! * [`DistMode::EulerLike`] — mini-batch rounds that fetch the raw
//!   feature rows of each batch's *selected* neighbors (Euler's sampling
//!   service), then aggregate with materializing sparse ops,
//! * [`DistMode::DistDglLike`] — mini-batch rounds that fetch the raw
//!   features of each batch's full *k-hop closure* (DistDGL's
//!   neighborhood expansion), then aggregate with sparse ops.
//!
//! `run_epoch` owns everything that does not depend on how the tasks
//! are driven — crash recovery, fault-counter accumulation, feature
//! assembly, telemetry — and asks a backend for one *attempt* at a time.
//! Only the virtual backend injects faults, so only it ever fails an
//! attempt on purpose.
//! What it does **not** own is planning: the leaf-sync plans are the
//! shard set's ([`crate::shard::leaf_sync_plans`]), built by the first
//! epoch on a `make_shards` output and read by every later one, so an
//! epoch pays for the epoch only — and takes the whole set in rank
//! order, or panics.
//! [`distributed_epoch`] is the threaded backend: one OS thread per
//! task over a fresh, fault-free [`Fabric`].
//! ([`crate::sim::virtual_epoch`] is the other.) The report carries wall
//! time (max across workers), fabric traffic and the assembled per-root
//! features — everything Figures 13/15 plot.

use crate::shard::{leaf_sync_plans, Shard};
use crate::worker::EpochTask;
use flexgraph_comm::{drive_blocking, ChaosSchedule, CommError, CostModel, Fabric, RetryPolicy};
use flexgraph_engine::hybrid::{AggrOp, AggrPlan, Strategy};
use flexgraph_graph::Graph;
use flexgraph_obs::{FabricCounters, TraceEpoch};
use flexgraph_tensor::Tensor;
use std::time::Duration;

/// Distributed execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistMode {
    /// FlexGraph: partial aggregation + hybrid upper levels.
    FlexGraph {
        /// Overlap partial aggregation with communication (§7.7).
        pipeline: bool,
    },
    /// Euler-style mini-batches fetching selected-neighbor rows.
    EulerLike {
        /// Roots per batch.
        batch_size: usize,
    },
    /// DistDGL-style mini-batches fetching full k-hop closures.
    DistDglLike {
        /// Roots per batch.
        batch_size: usize,
        /// Closure radius (= model layers).
        hops: usize,
    },
}

/// Epoch configuration.
#[derive(Clone)]
pub struct DistConfig {
    /// Execution mode.
    pub mode: DistMode,
    /// Leaf-level reduction (must be commutative: Sum or Mean).
    pub leaf_op: AggrOp,
    /// Upper-level aggregation plan.
    pub plan: AggrPlan,
    /// Upper-level strategy (FlexGraph mode only).
    pub strategy: Strategy,
    /// Wire cost model: accounted on threads; the virtual runtime prices
    /// deliveries with it via `NetProfile::from_cost_model`.
    pub cost_model: CostModel,
    /// Optional Update-stage weight: `out = relu(agg · w)`.
    pub update_weight: Option<Tensor>,
    /// Optional seeded fault schedule, for the virtual runtime
    /// ([`crate::sim::virtual_epoch`]) only: [`distributed_epoch`]
    /// panics when it is set. The crash (if any) only applies to the
    /// first attempt; re-driven epochs run the same schedule crash-free.
    pub chaos: Option<ChaosSchedule>,
    /// Retransmission / failure-detection timing the virtual cluster
    /// models; on threads only its receive patience applies.
    pub retry: RetryPolicy,
    /// How many times a failed epoch may be re-driven before the
    /// failure is treated as unrecoverable (panics).
    pub max_recoveries: u32,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Sum,
            plan: AggrPlan::flat(AggrOp::Sum),
            strategy: Strategy::Ha,
            cost_model: CostModel::accounting_only(),
            update_weight: None,
            chaos: None,
            retry: RetryPolicy::default(),
            max_recoveries: 2,
        }
    }
}

/// Measurements of one distributed epoch.
pub struct EpochReport {
    /// Assembled `(num_vertices, d_out)` per-root results.
    pub features: Tensor,
    /// Slowest worker's epoch time: wall time from the entry barrier's
    /// release on threads, the virtual clock on the virtual runtime.
    pub wall: Duration,
    /// Total payload bytes over the fabric.
    pub comm_bytes: u64,
    /// Total messages over the fabric.
    pub comm_messages: u64,
    /// Modeled wire time summed over messages, microseconds.
    pub modeled_comm_us: f64,
    /// Retransmissions across all attempts.
    pub retries: u64,
    /// Chaos-injected drops across all attempts.
    pub drops_injected: u64,
    /// Receive-side duplicate discards across all attempts.
    pub redeliveries: u64,
    /// Times the epoch was re-driven after a worker failure.
    pub recoveries: u32,
    /// The merged running log of the epoch: per-partition stage samples,
    /// per-root cost attribution, and fabric counters — what
    /// `AdbController::record_measured_epoch` and the trace writer
    /// consume. Records from failed (re-driven) attempts are discarded;
    /// only the successful attempt is represented.
    pub telemetry: TraceEpoch,
}

/// What a backend reports for one attempt at an epoch. The per-worker
/// outcomes and records stay in the tasks it was handed.
pub(crate) struct Attempt {
    /// Traffic and fault counters of this attempt.
    pub fabric: FabricCounters,
    /// Modeled wire time summed over this attempt's messages, µs.
    pub modeled_us: f64,
    /// The slowest worker's epoch time (see [`EpochReport::wall`]).
    pub wall: Duration,
    /// The same span on the virtual clock; `0` on the threaded backend.
    pub virtual_ns: u64,
}

/// One epoch on whichever backend `attempt` drives the tasks with: the
/// recovery loop (documented on [`distributed_epoch`]), rank-order
/// assembly, and the epoch's telemetry. The leaf-sync plans are the
/// shard set's own ([`leaf_sync_plans`]: built by the set's first epoch,
/// read by every later one), so `shards` must be a whole set.
pub(crate) fn run_epoch(
    graph: &Graph,
    shards: &[Shard],
    cfg: &DistConfig,
    mut attempt: impl FnMut(&mut [EpochTask<'_>], ChaosSchedule) -> Attempt,
) -> EpochReport {
    let syncs = leaf_sync_plans(shards);
    let epoch_id = flexgraph_obs::next_epoch();
    let mut recoveries = 0u32;
    let mut total = FabricCounters::default();
    let mut modeled_comm_us = 0f64;

    loop {
        // The crash is a one-shot fault: a re-driven epoch keeps the
        // message-level chaos but the worker stays up.
        let chaos = match cfg.chaos {
            Some(c) if recoveries == 0 => c,
            Some(c) => c.without_crash(),
            None => ChaosSchedule::default(),
        };
        let mut tasks = EpochTask::fleet(graph, shards, syncs, cfg, epoch_id);
        let a = attempt(&mut tasks, chaos);
        total.merge(&a.fabric);
        modeled_comm_us += a.modeled_us;

        let failures: Vec<(usize, &CommError)> = tasks
            .iter()
            .enumerate()
            .filter_map(|(rank, t)| t.result().as_ref().err().map(|e| (rank, e)))
            .collect();
        if !failures.is_empty() {
            recoveries += 1;
            assert!(
                recoveries <= cfg.max_recoveries,
                "epoch unrecoverable after {} re-drives: {failures:?}",
                recoveries - 1
            );
            continue;
        }

        // Assemble per-root outputs into the global order, and merge the
        // workers' records into the epoch's running log, in rank order.
        let d_out = tasks[0].result().as_ref().expect("no failures").cols();
        let mut features = Tensor::zeros(graph.num_vertices(), d_out);
        let mut telemetry = TraceEpoch::new(epoch_id);
        for (shard, task) in shards.iter().zip(tasks) {
            let (out, record) = task.into_parts();
            let out = out.expect("no failures");
            for (i, &v) in shard.roots.iter().enumerate() {
                features.row_mut(v as usize).copy_from_slice(out.row(i));
            }
            telemetry.absorb(record);
        }
        // Traffic of the successful attempt is deterministic; the
        // fault-path counters carry the totals across all attempts
        // (debug-only in traces).
        telemetry.fabric = FabricCounters {
            bytes: a.fabric.bytes,
            messages: a.fabric.messages,
            ..total
        };
        telemetry.virtual_ns = a.virtual_ns;
        flexgraph_obs::emit_epoch(&telemetry);

        return EpochReport {
            features,
            wall: a.wall,
            comm_bytes: total.bytes,
            comm_messages: total.messages,
            modeled_comm_us,
            retries: total.retries,
            drops_injected: total.drops_injected,
            redeliveries: total.redeliveries,
            recoveries,
            telemetry,
        };
    }
}

/// Runs one distributed epoch over the shards on OS threads. `graph` is
/// the replicated structure (used by the DistDGL-like closure
/// expansion); `shards` is the whole output of one `make_shards` call
/// over a partitioning of its vertices.
///
/// Fault tolerance, shared with [`crate::sim::virtual_epoch`] (where
/// faults are injected): shards are immutable during an epoch, so the
/// shard state *is* the epoch-start snapshot. When a worker fails (a
/// scheduled crash, or a peer declared unreachable), every worker
/// finishes with a structured [`CommError`], the attempt's partial
/// output and records are discarded, and the whole epoch is re-driven
/// on a fresh cluster with the crash removed from the schedule — at
/// most [`DistConfig::max_recoveries`] times. Because each link
/// delivers exactly once in send order and the leaf folds run in rank
/// order, the recovered epoch's output is bitwise identical to a
/// fault-free run. On threads nothing is injected; the fabric's receive
/// patience only keeps a stuck peer from hanging the fleet.
///
/// # Panics
///
/// Panics when `cfg.chaos` is set — faults are injected on the virtual
/// runtime only, so run such an epoch with `virtual_epoch` — when the
/// epoch still fails after `max_recoveries` re-drives, and when
/// `shards` is not a whole shard set in rank order (see
/// [`leaf_sync_plans`]).
pub fn distributed_epoch(graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport {
    assert!(
        cfg.chaos.is_none(),
        "the threaded fabric injects no faults: run a chaos schedule with virtual_epoch"
    );
    run_epoch(graph, shards, cfg, |tasks, _| threaded_attempt(tasks, cfg))
}

/// One attempt on a fresh fabric: a thread per task, each blocking in
/// its own `WorkerComm` wherever the task parks.
pub(crate) fn threaded_attempt(tasks: &mut [EpochTask<'_>], cfg: &DistConfig) -> Attempt {
    let (fabric, comms) = Fabric::with_retry(tasks.len(), cfg.cost_model, cfg.retry);
    let wall = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .iter_mut()
            .zip(comms)
            .map(|(task, mut comm)| s.spawn(move |_| drive_blocking(task, &mut comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .max()
    })
    .expect("worker panicked")
    .expect("at least one worker");
    let stats = fabric.stats();
    Attempt {
        fabric: FabricCounters {
            bytes: stats.bytes(),
            messages: stats.messages(),
            ..FabricCounters::default()
        },
        modeled_us: stats.modeled_us(),
        wall,
        virtual_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use crate::sim::virtual_epoch;
    use flexgraph_comm::{NetProfile, SimConfig, VirtualCluster};
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;
    use flexgraph_tensor::fusion::{segment_reduce, Reduce};

    fn setup(k: usize) -> (flexgraph_graph::Graph, Tensor, Vec<Shard>) {
        let ds = community(120, 4, 5, 2, 6, 42);
        let part = hash_partition(&ds.graph, k);
        let shards = make_shards(120, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        (ds.graph, ds.features, shards)
    }

    #[test]
    fn all_modes_match_single_machine_reference() {
        let (graph, feats, shards) = setup(3);
        let reference = segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Sum);
        for mode in [
            DistMode::FlexGraph { pipeline: true },
            DistMode::FlexGraph { pipeline: false },
            DistMode::EulerLike { batch_size: 16 },
            DistMode::DistDglLike {
                batch_size: 16,
                hops: 2,
            },
        ] {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let rep = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                rep.features.max_abs_diff(&reference) < 1e-3,
                "{mode:?} diverges from reference"
            );
        }
    }

    #[test]
    fn distdgl_fetches_more_bytes_than_euler_than_flexgraph() {
        let (graph, _feats, shards) = setup(4);
        let bytes = |mode| {
            let cfg = DistConfig {
                mode,
                ..DistConfig::default()
            };
            distributed_epoch(&graph, &shards, &cfg).comm_bytes
        };
        let flex = bytes(DistMode::FlexGraph { pipeline: true });
        let euler = bytes(DistMode::EulerLike { batch_size: 10 });
        let distdgl = bytes(DistMode::DistDglLike {
            batch_size: 10,
            hops: 2,
        });
        assert!(
            flex < euler && euler < distdgl,
            "traffic ordering: flex {flex} < euler {euler} < distdgl {distdgl}"
        );
    }

    #[test]
    fn update_stage_applies_weight() {
        let (graph, _f, shards) = setup(2);
        let w = Tensor::eye(6).scale(-1.0); // ReLU(−agg) — zero where agg > 0.
        let cfg = DistConfig {
            update_weight: Some(w),
            ..DistConfig::default()
        };
        let rep = distributed_epoch(&graph, &shards, &cfg);
        assert!(rep.features.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mean_leaf_op_is_consistent_across_modes() {
        let (graph, feats, shards) = setup(2);
        let reference =
            segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Mean);
        for mode in [
            DistMode::FlexGraph { pipeline: true },
            DistMode::EulerLike { batch_size: 32 },
        ] {
            let cfg = DistConfig {
                mode,
                leaf_op: AggrOp::Mean,
                plan: AggrPlan::flat(AggrOp::Sum),
                ..DistConfig::default()
            };
            let rep = distributed_epoch(&graph, &shards, &cfg);
            assert!(
                rep.features.max_abs_diff(&reference) < 1e-3,
                "{mode:?} mean mismatch"
            );
        }
    }

    /// The failure path: the crashed worker and every peer finish with
    /// an error instead of hanging, and the epoch body re-drives exactly
    /// once to the fault-free bits.
    #[test]
    fn scheduled_crash_fails_every_worker_and_is_redriven_once() {
        let (graph, _f, shards) = setup(3);
        let crash = ChaosSchedule {
            crash: Some(flexgraph_comm::CrashPoint {
                rank: 1,
                at_send: 1,
            }),
            ..ChaosSchedule::default()
        };
        let clean = DistConfig {
            retry: RetryPolicy::snappy(),
            ..DistConfig::default()
        };
        let net = NetProfile::from_cost_model(&clean.cost_model);
        let syncs = leaf_sync_plans(&shards);
        let mut tasks = EpochTask::fleet(&graph, &shards, syncs, &clean, 0);
        let sim = SimConfig {
            net: net.clone(),
            retry: clean.retry,
            chaos: crash,
        };
        VirtualCluster::new(tasks.len(), sim).run(&mut tasks);
        assert_eq!(tasks[1].result(), &Err(CommError::Crashed));
        for (rank, task) in tasks.iter().enumerate() {
            assert!(task.result().is_err(), "rank {rank} must see the failure");
        }

        let crashing = DistConfig {
            chaos: Some(crash),
            ..clean.clone()
        };
        let want = distributed_epoch(&graph, &shards, &clean);
        let got = virtual_epoch(&graph, &shards, &crashing, &net).report;
        assert_eq!(got.recoveries, 1);
        assert_eq!(got.features, want.features);
    }

    #[test]
    #[should_panic(expected = "virtual_epoch")]
    fn chaos_on_threads_panics_and_names_virtual_epoch() {
        let (graph, _f, shards) = setup(2);
        let cfg = DistConfig {
            chaos: Some(ChaosSchedule::stress(1)),
            ..DistConfig::default()
        };
        distributed_epoch(&graph, &shards, &cfg);
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let (graph, feats, shards) = setup(1);
        let cfg = DistConfig::default();
        let rep = distributed_epoch(&graph, &shards, &cfg);
        let reference = segment_reduce(&feats, graph.in_offsets(), graph.in_sources(), Reduce::Sum);
        assert!(rep.features.max_abs_diff(&reference) < 1e-3);
        assert_eq!(rep.comm_bytes, 0, "no traffic with one worker");
    }
}
