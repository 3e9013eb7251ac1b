//! Per-epoch telemetry records.
//!
//! The unit of telemetry is one **partition record**: everything one
//! worker observed during one distributed epoch — per-stage counters
//! (invocations, deterministic work units, measured wall time), comm
//! counters, and the per-root cost attribution the ADB balancer feeds
//! on. Partition records merge into a [`TraceEpoch`], the "running log"
//! of the paper's §6 that [`record_measured_epoch`] consumes.
//!
//! Every counter is a `u64` and every merge is a field-wise integer sum
//! (or a keyed sum for root costs), so merging is **commutative and
//! associative**: the same set of records produces bit-identical merged
//! state regardless of arrival order — the property
//! `crates/obs/tests/proptests.rs` exercises. Wall times are carried as
//! nanosecond counters but are *excluded* from the deterministic trace
//! serialization (see [`crate::trace`]); only work units and counts may
//! reach a byte-stable trace.
//!
//! [`record_measured_epoch`]: https://docs.rs/flexgraph-dist

use std::collections::BTreeMap;

/// The instrumented execution stages of a distributed worker. `Upper`
/// (Aggregation) and `Update` are NAU stages of §3.2; the three `Leaf*`
/// stages split the distributed leaf level into its pipeline phases
/// (§5), and `Serve` is the request-serving work of the mini-batch
/// baselines. NeighborSelection builds a shard set's HDGs before any
/// epoch runs (`dist::make_shards`), so no worker records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Encoding + sending leaf partials / raw rows to peers.
    LeafSend,
    /// Local leaf aggregation (overlaps the wire in pipelined mode).
    LeafLocal,
    /// Folding arrived peer messages into the slot buffer.
    LeafFold,
    /// Upper-level (instance/group/schema) aggregation.
    Upper,
    /// The Update stage (dense NN ops / optimizer step).
    Update,
    /// Serving peers' feature-fetch requests (mini-batch baselines).
    Serve,
}

impl Stage {
    /// Number of stages (array dimension of [`PartitionRecord::stages`]).
    pub const COUNT: usize = 6;

    /// All stages, in serialization order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::LeafSend,
        Stage::LeafLocal,
        Stage::LeafFold,
        Stage::Upper,
        Stage::Update,
        Stage::Serve,
    ];

    /// Stable lowercase name used in the trace schema.
    pub fn name(self) -> &'static str {
        match self {
            Stage::LeafSend => "leaf_send",
            Stage::LeafLocal => "leaf_local",
            Stage::LeafFold => "leaf_fold",
            Stage::Upper => "upper",
            Stage::Update => "update",
            Stage::Serve => "serve",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }

    /// Index into [`PartitionRecord::stages`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One stage's accumulated measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Times the stage ran.
    pub invocations: u64,
    /// Deterministic work units (scatter-plan segment entries × feature
    /// dim, matmul FLOP proxies, …). Identical for identical inputs
    /// under any `FLEXGRAPH_THREADS`.
    pub work: u64,
    /// Measured wall time, nanoseconds. **Not** deterministic; excluded
    /// from byte-stable traces.
    pub wall_ns: u64,
}

impl StageSample {
    /// Field-wise sum (commutative, associative).
    pub fn merge(&mut self, other: &StageSample) {
        self.invocations += other.invocations;
        self.work += other.work;
        self.wall_ns += other.wall_ns;
    }
}

/// Worker-local communication counters (what *this* partition sent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Application messages sent.
    pub messages: u64,
    /// Application payload bytes sent.
    pub bytes: u64,
    /// Messages that carried sender-side partial aggregates.
    pub partial_msgs: u64,
    /// Messages that carried raw (vertex-keyed) feature rows.
    pub raw_msgs: u64,
}

impl CommCounters {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &CommCounters) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.partial_msgs += other.partial_msgs;
        self.raw_msgs += other.raw_msgs;
    }
}

/// Fabric-wide counters for one epoch, snapshotted from
/// `flexgraph_comm::CommStats`. Application traffic (`bytes`,
/// `messages`) is deterministic, and so — since drops are folded into
/// delivery times on both drivers — are the fault-path counters of a
/// crash-free schedule; a crashed attempt's, on threads, depend on how
/// far the survivors got before they learnt of it. They stay out of the
/// byte-stable trace fields until the trace snapshot is next refreshed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Total payload bytes over the fabric.
    pub bytes: u64,
    /// Total application messages.
    pub messages: u64,
    /// Retransmissions: one per injected drop.
    pub retries: u64,
    /// Chaos-injected drops.
    pub drops_injected: u64,
    /// Receive-side duplicate discards.
    pub redeliveries: u64,
}

impl FabricCounters {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &FabricCounters) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.retries += other.retries;
        self.drops_injected += other.drops_injected;
        self.redeliveries += other.redeliveries;
    }
}

/// Number of power-of-two latency buckets in a [`LatencyHistogram`].
/// Bucket `i` counts latencies in `[2^i, 2^(i+1))` virtual ticks
/// (bucket 0 additionally holds latency 0); 24 buckets cover any
/// realistic virtual-time span.
pub const LATENCY_BUCKETS: usize = 24;

/// A fixed power-of-two histogram over **virtual-time** latencies.
///
/// Virtual latencies (completion tick − submission tick) are
/// deterministic integers, so the histogram — and the p50/p99 the
/// serve trace derives from it — is byte-stable across runs and thread
/// counts, unlike any wall-clock percentile. Merging is a field-wise
/// sum, keeping the commutative/associative contract of this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies.
    pub total: u64,
    /// Largest observed latency.
    pub max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b.min(LATENCY_BUCKETS - 1)] += 1;
        self.count += 1;
        self.total += latency;
        self.max = self.max.max(latency);
    }

    /// Field-wise sum (commutative, associative); `max` merges by max.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in percent, e.g. 50 or 99). Returns 0 for an empty
    /// histogram. Bucketed quantiles are coarse but deterministic.
    pub fn quantile_bound(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the quantile observation, 1-based, ceiling.
        let rank = (self.count * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)); report the inclusive
                // upper bound, clamped to the observed max.
                return ((1u64 << (i + 1)) - 1).min(self.max);
            }
        }
        self.max
    }
}

/// Counters of one serving window: everything the micro-batcher and
/// batch executor observed between two trace emissions. All fields are
/// deterministic functions of the request sequence, so serve traces are
/// byte-identical across same-seed runs at any `FLEXGRAPH_THREADS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeRecord {
    /// Requests admitted to the queue.
    pub enqueued: u64,
    /// Requests answered.
    pub served: u64,
    /// Requests rejected (queue full or admission control).
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub batch_max: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Deepest queue observed.
    pub queue_depth_max: u64,
    /// Serving precision label (`QuantConfig::code()`: 0 = f32,
    /// 1 = bf16, 2 = int8). A label, not a counter — merges take the
    /// max so a mixed-precision merge surfaces the most-quantized
    /// window rather than silently reading as f32.
    pub quant: u64,
    /// Virtual-time request latencies.
    pub latency: LatencyHistogram,
}

impl ServeRecord {
    /// Field-wise sum; maxima (and the quant label) merge by max.
    pub fn merge(&mut self, other: &ServeRecord) {
        self.enqueued += other.enqueued;
        self.served += other.served;
        self.rejected += other.rejected;
        self.batches += other.batches;
        self.batch_max = self.batch_max.max(other.batch_max);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.quant = self.quant.max(other.quant);
        self.latency.merge(&other.latency);
    }
}

/// One tenant's serving window in a multi-tenant tier (ISSUE 9): the
/// plain [`ServeRecord`] counters plus the tenant label and the
/// quota/SLO accounting the router layers on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantServeRecord {
    /// Tenant id.
    pub tenant: u64,
    /// Configured latency SLO in virtual-time ticks (0 = no SLO).
    pub slo_vt: u64,
    /// Responses whose virtual-time latency exceeded `slo_vt`.
    pub slo_violations: u64,
    /// Submissions refused by the tenant's admission quota (counted
    /// here, not in `serve.rejected` — they never reached the server).
    pub quota_rejected: u64,
    /// The underlying serving-window counters.
    pub serve: ServeRecord,
}

impl TenantServeRecord {
    /// Merges another window of the **same tenant**; the SLO target
    /// merges by max (a label, like `quant`).
    ///
    /// # Panics
    ///
    /// Panics when the tenant ids differ — merging across tenants is a
    /// bookkeeping bug, not a degenerate merge.
    pub fn merge(&mut self, other: &TenantServeRecord) {
        assert_eq!(self.tenant, other.tenant, "cross-tenant window merge");
        self.slo_vt = self.slo_vt.max(other.slo_vt);
        self.slo_violations += other.slo_violations;
        self.quota_rejected += other.quota_rejected;
        self.serve.merge(&other.serve);
    }
}

/// One page-cache observation window from the paged graph store
/// (ISSUE 10): segment fetch/hit/miss/eviction counters plus the
/// residency snapshot at emit time. Counters are deterministic
/// functions of the access sequence — the cache is consulted in the
/// same order regardless of `FLEXGRAPH_THREADS` — so `pgc` trace lines
/// stay byte-identical across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheRecord {
    /// Segment lookups (hits + misses).
    pub fetches: u64,
    /// Lookups satisfied from resident segments.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
    /// Resident segments evicted to make room.
    pub evictions: u64,
    /// Compressed bytes read from the store file (misses only).
    pub bytes_read: u64,
    /// Decoded bytes resident when the record was emitted.
    pub resident_bytes: u64,
    /// The configured residency budget in bytes (a label; merges by
    /// max, like `quant`).
    pub budget_bytes: u64,
}

impl PageCacheRecord {
    /// Field-wise sum; the residency snapshot and budget label merge by
    /// max (summing two snapshots of the same cache would double-count
    /// resident bytes).
    pub fn merge(&mut self, other: &PageCacheRecord) {
        self.fetches += other.fetches;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bytes_read += other.bytes_read;
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
        self.budget_bytes = self.budget_bytes.max(other.budget_bytes);
    }

    /// Hit rate over the window, `0.0` when nothing was fetched.
    pub fn hit_rate(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.hits as f64 / self.fetches as f64
        }
    }
}

/// Everything one worker observed during one epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionRecord {
    /// Session-relative epoch number.
    pub epoch: u64,
    /// Worker rank.
    pub partition: u32,
    /// Whether the leaf level ran in pipelined mode.
    pub pipelined: bool,
    /// Per-stage samples, indexed by [`Stage::index`].
    pub stages: [StageSample; Stage::COUNT],
    /// What this worker sent over the fabric.
    pub comm: CommCounters,
    /// Per-root cost attribution: global vertex id → deterministic cost
    /// units, derived from the executed aggregation plan's segment
    /// sizes (see `dist::trainer`).
    pub roots: BTreeMap<u32, u64>,
}

impl PartitionRecord {
    /// An empty record for `(epoch, partition)`.
    pub fn new(epoch: u64, partition: u32) -> Self {
        Self {
            epoch,
            partition,
            pipelined: false,
            stages: [StageSample::default(); Stage::COUNT],
            comm: CommCounters::default(),
            roots: BTreeMap::new(),
        }
    }

    /// Mutable sample of one stage.
    pub fn stage_mut(&mut self, s: Stage) -> &mut StageSample {
        &mut self.stages[s.index()]
    }

    /// One stage's sample.
    pub fn stage(&self, s: Stage) -> &StageSample {
        &self.stages[s.index()]
    }

    /// Adds `units` to the cost attributed to global root `v`.
    pub fn add_root_cost(&mut self, v: u32, units: u64) {
        *self.roots.entry(v).or_insert(0) += units;
    }

    /// Total work units across stages.
    pub fn work_total(&self) -> u64 {
        self.stages.iter().map(|s| s.work).sum()
    }

    /// `(count, total, max)` digest of the per-root costs.
    pub fn root_digest(&self) -> (u64, u64, u64) {
        let count = self.roots.len() as u64;
        let total: u64 = self.roots.values().sum();
        let max = self.roots.values().copied().max().unwrap_or(0);
        (count, total, max)
    }

    /// Merges another record for the *same* `(epoch, partition)` key.
    /// Counter sums are commutative and associative; root costs merge
    /// by keyed sum.
    ///
    /// # Panics
    ///
    /// Panics when the keys differ — merging records of different
    /// partitions is a bug, use [`TraceEpoch::absorb`] instead.
    pub fn merge(&mut self, other: &PartitionRecord) {
        assert_eq!(
            (self.epoch, self.partition),
            (other.epoch, other.partition),
            "merge requires matching (epoch, partition)"
        );
        self.pipelined |= other.pipelined;
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        self.comm.merge(&other.comm);
        for (&v, &c) in &other.roots {
            *self.roots.entry(v).or_insert(0) += c;
        }
    }
}

/// The merged running log of one distributed epoch — the paper's §6
/// "samples of running logs" in structured form. Produced by
/// `dist::distributed_epoch`, consumed by
/// `AdbController::record_measured_epoch` and the trace writer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceEpoch {
    /// Session-relative epoch number.
    pub epoch: u64,
    /// Per-partition records, keyed by rank.
    pub partitions: BTreeMap<u32, PartitionRecord>,
    /// Fabric-wide counters for the epoch.
    pub fabric: FabricCounters,
    /// Virtual epoch duration in nanoseconds when the epoch ran on the
    /// discrete-event runtime (`comm::det`); 0 on real threads.
    /// Deterministic — part of the byte-stable trace.
    pub virtual_ns: u64,
}

impl TraceEpoch {
    /// An empty epoch record.
    pub fn new(epoch: u64) -> Self {
        Self {
            epoch,
            partitions: BTreeMap::new(),
            fabric: FabricCounters::default(),
            virtual_ns: 0,
        }
    }

    /// Folds one partition record in (keyed merge).
    pub fn absorb(&mut self, rec: PartitionRecord) {
        match self.partitions.get_mut(&rec.partition) {
            Some(existing) => existing.merge(&rec),
            None => {
                self.partitions.insert(rec.partition, rec);
            }
        }
    }

    /// Merges another epoch record for the same epoch (keyed partition
    /// merge + fabric sum). Commutative and associative.
    pub fn merge(&mut self, other: &TraceEpoch) {
        for rec in other.partitions.values() {
            self.absorb(rec.clone());
        }
        self.fabric.merge(&other.fabric);
        // Virtual durations do not add across partial merges of the
        // same epoch; the slowest view wins.
        self.virtual_ns = self.virtual_ns.max(other.virtual_ns);
    }

    /// Measured cost units attributed to global root `v`, if any
    /// partition reported it.
    pub fn root_cost(&self, v: u32) -> Option<u64> {
        let mut total: Option<u64> = None;
        for p in self.partitions.values() {
            if let Some(&c) = p.roots.get(&v) {
                *total.get_or_insert(0) += c;
            }
        }
        total
    }

    /// Number of roots with attributed costs across all partitions.
    pub fn num_attributed_roots(&self) -> usize {
        self.partitions.values().map(|p| p.roots.len()).sum()
    }

    /// Total work units across partitions.
    pub fn work_total(&self) -> u64 {
        self.partitions.values().map(|p| p.work_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64, part: u32, work: u64) -> PartitionRecord {
        let mut r = PartitionRecord::new(epoch, part);
        r.stage_mut(Stage::Upper).invocations = 1;
        r.stage_mut(Stage::Upper).work = work;
        r.comm.messages = 2;
        r.comm.bytes = 64;
        r.add_root_cost(7, work);
        r
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn partition_merge_sums_fields() {
        let mut a = sample(0, 1, 10);
        a.merge(&sample(0, 1, 5));
        assert_eq!(a.stage(Stage::Upper).work, 15);
        assert_eq!(a.stage(Stage::Upper).invocations, 2);
        assert_eq!(a.comm.bytes, 128);
        assert_eq!(a.roots[&7], 15);
        assert_eq!(a.root_digest(), (1, 15, 15));
    }

    #[test]
    #[should_panic(expected = "matching (epoch, partition)")]
    fn partition_merge_rejects_key_mismatch() {
        sample(0, 1, 1).merge(&sample(0, 2, 1));
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for lat in [0u64, 1, 1, 2, 3, 4, 8, 100] {
            h.record(lat);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.total, 119);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 3, "latencies 0,1,1");
        assert_eq!(h.buckets[1], 2, "latencies 2,3");
        assert_eq!(h.buckets[2], 1, "latency 4");
        assert_eq!(h.buckets[3], 1, "latency 8");
        assert_eq!(h.buckets[6], 1, "latency 100 in [64,128)");
        // p50: rank 4 lands in bucket 1 → bound 3. p99: rank 8 lands in
        // the last occupied bucket, clamped to the observed max.
        assert_eq!(h.quantile_bound(50), 3);
        assert_eq!(h.quantile_bound(99), 100);
        assert!(h.quantile_bound(50) <= h.quantile_bound(99));
        assert_eq!(LatencyHistogram::default().quantile_bound(50), 0);

        // Merge = sum of counts, max of maxima.
        let mut a = LatencyHistogram::default();
        a.record(5);
        let mut b = LatencyHistogram::default();
        b.record(7);
        b.record(1);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count, 3);
        assert_eq!(ab.max, 7);
    }

    #[test]
    fn serve_record_merge_sums_and_maxes() {
        let mut a = ServeRecord {
            enqueued: 10,
            served: 9,
            rejected: 1,
            batches: 2,
            batch_max: 6,
            cache_hits: 4,
            cache_misses: 5,
            queue_depth_max: 3,
            ..Default::default()
        };
        a.latency.record(4);
        let mut b = ServeRecord {
            enqueued: 7,
            served: 7,
            batches: 1,
            batch_max: 7,
            queue_depth_max: 2,
            ..Default::default()
        };
        b.latency.record(9);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.enqueued, 17);
        assert_eq!(m.served, 16);
        assert_eq!(m.batch_max, 7);
        assert_eq!(m.queue_depth_max, 3);
        assert_eq!(m.latency.count, 2);
        let mut m2 = b;
        m2.merge(&a);
        assert_eq!(m, m2, "merge is commutative");
    }

    #[test]
    fn page_cache_record_merge_sums_counters_maxes_residency() {
        let a = PageCacheRecord {
            fetches: 10,
            hits: 7,
            misses: 3,
            evictions: 1,
            bytes_read: 4096,
            resident_bytes: 1 << 20,
            budget_bytes: 2 << 20,
        };
        let b = PageCacheRecord {
            fetches: 4,
            hits: 2,
            misses: 2,
            evictions: 2,
            bytes_read: 8192,
            resident_bytes: 3 << 20,
            budget_bytes: 2 << 20,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.fetches, 14);
        assert_eq!(ab.hits, 9);
        assert_eq!(ab.bytes_read, 12288);
        assert_eq!(ab.resident_bytes, 3 << 20, "snapshot merges by max");
        assert!((ab.hit_rate() - 9.0 / 14.0).abs() < 1e-12);
        assert_eq!(PageCacheRecord::default().hit_rate(), 0.0);
    }

    #[test]
    fn epoch_absorb_is_keyed() {
        let mut e = TraceEpoch::new(0);
        e.absorb(sample(0, 0, 4));
        e.absorb(sample(0, 1, 6));
        e.absorb(sample(0, 0, 2));
        assert_eq!(e.partitions.len(), 2);
        assert_eq!(e.partitions[&0].stage(Stage::Upper).work, 6);
        assert_eq!(e.work_total(), 12);
        // Root 7 got cost from all three records.
        assert_eq!(e.root_cost(7), Some(12));
        assert_eq!(e.root_cost(8), None);
    }
}
