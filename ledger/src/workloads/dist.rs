//! `dist_threaded_k2` and `dist_virtual_k16`: forward-only distributed
//! epochs over the real fabric (2 worker threads) and over the
//! discrete-event simulator (16 shards on one driver thread).

use crate::harness::{bits_digest, Fnv, Size, Traced, Workload};
use crate::metrics::Metrics;
use crate::span::Recorder;
use crate::stats::median;
use flexgraph::comm::{
    decode_rows_with, encode_flat_rows, CostModel, Fabric, NetProfile, RetryPolicy,
};
use flexgraph::dist::{
    build_leaf_sync, make_shards, measured_partition_loads, virtual_epoch, DistConfig, DistMode,
    EpochReport, EpochRuntime, Shard, ThreadedRuntime, VirtualRuntime,
};
use flexgraph::engine::{hierarchical_aggregate, AggrOp, AggrPlan, MemoryBudget, Strategy};
use flexgraph::graph::gen::{rmat, Dataset};
use flexgraph::graph::partition::hash_partition;
use flexgraph::graph::Partitioning;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::tensor::{segment_reduce, Reduce, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Epochs run in set-up before the first timed one.
const WARM_EPOCHS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Threaded,
    Virtual,
}

pub struct Dist {
    ds: Dataset,
    k: usize,
    backend: Backend,
    net: NetProfile,
    cfg: DistConfig,
}

impl Dist {
    pub fn generate(seed: u64, size: Size, backend: Backend) -> Self {
        let ds = match size {
            Size::Full => rmat(14, 20, 5, 50, seed, "twitter-like"),
            Size::Tiny => rmat(8, 6, 3, 8, seed, "twitter-like"),
        };
        let cfg = DistConfig {
            mode: DistMode::FlexGraph { pipeline: true },
            leaf_op: AggrOp::Sum,
            plan: AggrPlan::flat(AggrOp::Sum),
            strategy: Strategy::Ha,
            // No injected sleeps: wall time is the program's own.
            cost_model: CostModel::accounting_only(),
            update_weight: Some(Tensor::eye(ds.feature_dim()).scale(0.1)),
            ..DistConfig::default()
        };
        Dist {
            ds,
            k: match backend {
                Backend::Threaded => 2,
                Backend::Virtual => 16,
            },
            backend,
            net: NetProfile::from_cost_model(&CostModel::default()),
            cfg,
        }
    }

    fn shards(&self, k: usize, rec: &Recorder) -> (Partitioning, Vec<Shard>) {
        let g = &self.ds.graph;
        let part = rec.span("graph.partition.hash", || hash_partition(g, k));
        let shards = rec.span("dist.make_shards", || {
            make_shards(g.num_vertices(), &self.ds.features, &part, |roots| {
                rec.span("hdg.build.direct", || {
                    from_direct_neighbors(g, roots.to_vec())
                })
            })
        });
        (part, shards)
    }

    fn epoch(&self, backend: Backend, shards: &[Shard]) -> EpochReport {
        match backend {
            Backend::Threaded => ThreadedRuntime.epoch(&self.ds.graph, shards, &self.cfg),
            Backend::Virtual => {
                VirtualRuntime::new(self.net.clone()).epoch(&self.ds.graph, shards, &self.cfg)
            }
        }
    }
}

pub struct DistState {
    part: Partitioning,
    shards: Vec<Shard>,
    /// Feature digest, traffic and (virtual) epoch time of the first
    /// epoch; every later epoch must repeat them.
    first: Option<(u64, u64, u64)>,
    /// Per checked epoch: slowest worker's wall seconds, retries.
    walls: Vec<f64>,
    retries: u64,
    last: Option<EpochReport>,
    /// Of the last traced virtual epoch: the event log, the call's wall
    /// seconds, and Σ compute ÷ (k · virtual time).
    sim: Option<(String, f64, f64)>,
}

impl Workload for Dist {
    type State = DistState;
    type Out = EpochReport;

    fn digest(&self, _st: &DistState, h: &mut Fnv) {
        let g = &self.ds.graph;
        h.usizes(g.out_offsets());
        h.usizes(g.in_offsets());
        h.u32s(g.in_sources());
        h.f32s(self.ds.features.data());
    }

    /// Partitioning, shard carving (an HDG per shard) and the warm-up
    /// epochs.
    fn setup(&self, rec: &Recorder) -> DistState {
        let (part, shards) = self.shards(self.k, rec);
        let mut st = DistState {
            part,
            shards,
            first: None,
            walls: Vec::new(),
            retries: 0,
            last: None,
            sim: None,
        };
        for _ in 0..WARM_EPOCHS {
            let report = self.epoch(self.backend, &st.shards);
            self.check(&mut st, 0, report).expect("first epochs agree");
        }
        st.walls.clear();
        st
    }

    fn op(&self, st: &mut DistState, _i: u64) -> EpochReport {
        self.epoch(self.backend, &st.shards)
    }

    /// `EpochRuntime::epoch` is one call, so the op's root span is the
    /// whole of it; the layers come from the report and from probes.
    /// The traced op only swaps the virtual runtime's trait call for
    /// `virtual_epoch`, which hands back the event log and the virtual
    /// clocks as well.
    fn traced_op(&self, st: &mut DistState, _i: u64, _rec: &Recorder) -> EpochReport {
        match self.backend {
            Backend::Threaded => self.epoch(Backend::Threaded, &st.shards),
            Backend::Virtual => {
                let t0 = Instant::now();
                let v = virtual_epoch(&self.ds.graph, &st.shards, &self.cfg, &self.net);
                let wall = t0.elapsed().as_secs_f64();
                let busy =
                    v.total_compute.as_secs_f64() / (self.k as f64 * v.virtual_time.as_secs_f64());
                st.sim = Some((v.event_log, wall, busy));
                v.report
            }
        }
    }

    fn check(&self, st: &mut DistState, _i: u64, r: EpochReport) -> Result<(), String> {
        // Under the virtual runtime `wall` is modeled time and must
        // repeat exactly; under threads it is real and may not.
        let vt = match self.backend {
            Backend::Threaded => 0,
            Backend::Virtual => r.wall.as_nanos() as u64,
        };
        let got = (bits_digest(r.features.data()), r.comm_bytes, vt);
        st.walls.push(r.wall.as_secs_f64());
        st.retries += r.retries;
        st.last = Some(r);
        match st.first {
            None => {
                st.first = Some(got);
                Ok(())
            }
            Some(first) if first == got => Ok(()),
            Some(first) => Err(format!(
                "epoch (features, comm bytes, virtual ns) {got:?} != first epoch's {first:?}"
            )),
        }
    }

    /// Both runtimes, at k = 2, must produce the same feature bits and
    /// move the same bytes.
    fn verify(&self, st: &mut DistState) -> Result<(), String> {
        let off = Recorder::new(false);
        let built;
        let shards = if self.k == 2 {
            &st.shards
        } else {
            built = self.shards(2, &off).1;
            &built
        };
        let a = self.epoch(Backend::Threaded, shards);
        let b = self.epoch(Backend::Virtual, shards);
        if bits_digest(a.features.data()) != bits_digest(b.features.data()) {
            return Err("threaded and virtual features differ at k=2".into());
        }
        if a.comm_bytes != b.comm_bytes {
            return Err(format!(
                "threaded moved {} bytes, virtual {} at k=2",
                a.comm_bytes, b.comm_bytes
            ));
        }
        let timed = st.first.expect("warm-up epochs ran").0;
        if self.k == 2 && bits_digest(a.features.data()) != timed {
            return Err("timed epochs' features differ from the k=2 reference".into());
        }
        Ok(())
    }

    fn verify_twin(&self, plain: &DistState, traced: &DistState) -> Result<(), String> {
        if plain.first == traced.first {
            Ok(())
        } else {
            Err(format!("{:?} != {:?}", plain.first, traced.first))
        }
    }

    fn layers(&self, st: &mut DistState, t: &mut Traced<'_>) {
        let (rec, m) = (t.rec, &mut t.metrics);
        m.set(
            "graph.partition.hash_s",
            rec.median_s("graph.partition.hash"),
        );
        let shards_s = rec.median_s("dist.make_shards");
        let hdg_s = rec.total_s("hdg.build.direct");
        m.set("hdg.build.direct_s", hdg_s);
        m.set("dist.make_shards_s", shards_s - hdg_s);
        m.set(
            "hdg.bytes",
            st.shards.iter().map(|s| s.hdg.heap_bytes()).sum::<usize>() as f64,
        );

        // `build_leaf_sync` is re-run inside every epoch.
        let (_, sync_s) = rec.probe("dist.build_leaf_sync", 5, || build_leaf_sync(&st.shards));
        let op_s = rec.op_median_s();
        m.set("dist.leaf_sync_build_s", sync_s);
        t.derived.push(("dist.build_leaf_sync", sync_s));
        let report = st.last.as_ref().expect("epochs ran");
        match self.backend {
            Backend::Threaded => {
                let wall = median(&st.walls);
                m.set("dist.worker_wall_s", wall);
                // Spawn, fabric set-up, barriers' tail and assembly.
                m.set("dist.driver_overhead_s", op_s - wall - sync_s);
                t.derived.push(("dist.workers", wall));
            }
            Backend::Virtual => {
                // The driver thread *is* the cluster: all of the call
                // beyond the leaf-sync plans is the simulator.
                m.set("dist.driver_overhead_s", op_s - sync_s);
                m.set("dist.virtual_epoch_us", report.wall.as_secs_f64() * 1e6);
                let (log, wall, busy) = st.sim.as_ref().expect("a traced virtual epoch ran");
                m.set("comm.det.events_per_s", log.lines().count() as f64 / wall);
                m.set("dist.compute_share", *busy);
            }
        }
        let loads = measured_partition_loads(&report.telemetry, &st.part);
        m.set("dist.imbalance", Partitioning::imbalance(&loads));
        m.set("comm.bytes_per_epoch", report.comm_bytes as f64);
        m.set("comm.messages_per_epoch", report.comm_messages as f64);
        m.set("comm.retries", st.retries as f64);

        // Kernels on the workload's own shards.
        let plan = AggrPlan::flat(AggrOp::Sum);
        let mut agg_s = Vec::new();
        let mut transient = 0usize;
        for shard in &st.shards {
            let aggregate = || {
                hierarchical_aggregate(
                    &shard.hdg,
                    &self.ds.features,
                    &plan,
                    Strategy::Ha,
                    &MemoryBudget::unlimited(),
                )
                .expect("unlimited budget")
            };
            // The first call builds the scatter plans the HDG caches.
            aggregate();
            let (res, s) = rec.probe("engine.hybrid.aggregate", 1, aggregate);
            agg_s.push(s);
            transient = transient.max(res.peak_transient_bytes);
        }
        m.set("engine.hybrid.aggregate_s", median(&agg_s));
        m.set("engine.hybrid.transient_bytes", transient as f64);
        let g = &self.ds.graph;
        let (_, reduce_s) = rec.probe("tensor.fusion.segment_reduce", 5, || {
            segment_reduce(
                &self.ds.features,
                g.in_offsets(),
                g.in_sources(),
                Reduce::Sum,
            )
        });
        let bytes = (g.num_edges() + g.num_vertices()) * self.ds.feature_dim() * 4;
        m.set("tensor.fusion.segment_reduce_s", reduce_s);
        m.set(
            "tensor.fusion.segment_reduce_gbps",
            bytes as f64 / reduce_s / 1e9,
        );

        self.codec_probes(report, rec, m);
        if self.backend == Backend::Threaded {
            fabric_probes(rec, m);
        }
    }
}

impl Dist {
    /// Encode and decode at the epoch's mean per-message payload.
    fn codec_probes(&self, report: &EpochReport, rec: &Recorder, m: &mut Metrics) {
        let dim = self.ds.feature_dim();
        let payload = report.comm_bytes / report.comm_messages.max(1);
        let rows =
            (payload.saturating_sub(8) as usize / (4 + 4 * dim)).clamp(1, self.ds.features.rows());
        let ids: Vec<u32> = (0..rows as u32).collect();
        let flat = &self.ds.features.data()[..rows * dim];
        let (buf, enc_s) = rec.probe("comm.codec.encode", 20, || {
            encode_flat_rows(dim, &ids, flat)
        });
        let (_, dec_s) = rec.probe("comm.codec.decode", 20, || {
            decode_rows_with(&buf, |id, row| {
                black_box((id, row));
            })
        });
        let gb = (rows * (4 + 4 * dim) + 8) as f64 / 1e9;
        m.set("comm.codec.encode_s", enc_s);
        m.set("comm.codec.encode_gbps", gb / enc_s);
        m.set("comm.codec.decode_s", dec_s);
        m.set("comm.codec.decode_gbps", gb / dec_s);
    }
}

/// Ping-pong and barrier cost of the reliable fabric between two
/// worker threads, with no cost model delay.
fn fabric_probes(rec: &Recorder, m: &mut Metrics) {
    const ROUNDS: usize = 2000;
    const TAG: u32 = 7;
    let (_fabric, mut comms) =
        Fabric::with_retry(2, CostModel::accounting_only(), RetryPolicy::default());
    let mut peer = comms.pop().expect("two endpoints");
    let mut me = comms.pop().expect("two endpoints");
    let payload = encode_flat_rows(1, &[0], &[0.0]);
    let (roundtrip_s, barrier_s) = std::thread::scope(|s| {
        let echo = s.spawn(move || {
            peer.barrier().expect("entry barrier");
            for _ in 0..ROUNDS {
                let msg = peer.recv_tag_from(0, TAG).expect("ping");
                peer.send(0, TAG, msg.payload).expect("pong");
            }
            for _ in 0..=ROUNDS {
                peer.barrier().expect("barrier");
            }
        });
        me.barrier().expect("entry barrier");
        let roundtrip_s = rec.span("comm.fabric.roundtrips", || {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                me.send(1, TAG, payload.clone()).expect("ping");
                me.recv_tag_from(1, TAG).expect("pong");
            }
            t0.elapsed().as_secs_f64()
        });
        let barrier_s = rec.span("comm.fabric.barriers", || {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                me.barrier().expect("barrier");
            }
            t0.elapsed().as_secs_f64()
        });
        // Exit barrier: keeps both ends pumping acks until both are done.
        me.barrier().expect("exit barrier");
        echo.join().expect("echo thread");
        (roundtrip_s, barrier_s)
    });
    m.set(
        "comm.fabric.roundtrip_us",
        roundtrip_s / ROUNDS as f64 * 1e6,
    );
    m.set("comm.fabric.barrier_us", barrier_s / ROUNDS as f64 * 1e6);
}
