//! The metric tables: every name the ledger prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a test holds the
//! two together); `README.md` says which end-to-end metric each layer
//! metric should move, on which workload.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`, with
/// the share of the baseline median by which each may get worse.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lo("setup_s", "s"), 0.25),
    (lo("op_cpu_ms", "ms"), 0.25),
    (lo("peak_rss_mb", "MB"), 0.10),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // The traced op as a whole.
    lo("obs.plain_op_ms", "ms"),
    lo("obs.traced_op_ms", "ms"),
    lo("obs.trace_overhead_share", "share"),
    lo("obs.unattributed_share", "share"),
    // Load generation: reported, part of no end-to-end metric.
    lo("graph.gen_s", "s"),
    // One training epoch, decomposed by the harness.
    lo("models.selection_s", "s"),
    lo("models.selection_setup_s", "s"),
    lo("tensor.autograd.forward_s", "s"),
    lo("tensor.autograd.backward_s", "s"),
    lo("tensor.optim.step_s", "s"),
    lo("models.epoch.unattributed_s", "s"),
    // Kernels at the workload's own shapes.
    lo("tensor.fusion.segment_reduce_s", "s"),
    hi("tensor.fusion.segment_reduce_gbps", "GB/s"),
    lo("tensor.matmul_s", "s"),
    hi("tensor.matmul_gflops", "GFLOP/s"),
    lo("tensor.scatter.softmax_s", "s"),
    lo("tensor.scatter.add_s", "s"),
    // NeighborSelection and HDG construction.
    lo("graph.walk.importance_s", "s"),
    lo("hdg.build.importance_walks_s", "s"),
    lo("graph.metapath.search_s", "s"),
    lo("hdg.build.metapaths_s", "s"),
    lo("hdg.bytes", "B"),
    lo("graph.partition.hash_s", "s"),
    lo("hdg.build.direct_s", "s"),
    lo("dist.make_shards_s", "s"),
    lo("graph.bfs.hop_shells_s", "s"),
    lo("hdg.build.hop_shells_capped_s", "s"),
    // The hybrid engine.
    lo("engine.hybrid.aggregate_s", "s"),
    lo("engine.hybrid.transient_bytes", "B"),
    lo("engine.in_ram_forward_s", "s"),
    // Communication.
    lo("comm.bytes_per_epoch", "B"),
    lo("comm.messages_per_epoch", "count"),
    lo("comm.retries", "count"),
    lo("comm.codec.encode_s", "s"),
    hi("comm.codec.encode_gbps", "GB/s"),
    lo("comm.codec.decode_s", "s"),
    hi("comm.codec.decode_gbps", "GB/s"),
    lo("comm.fabric.roundtrip_us", "us"),
    lo("comm.fabric.barrier_us", "us"),
    hi("comm.det.events_per_s", "1/s"),
    // The distributed epoch.
    lo("dist.leaf_sync_build_s", "s"),
    lo("dist.worker_wall_s", "s"),
    lo("dist.driver_overhead_s", "s"),
    hi("dist.compute_share", "share"),
    lo("dist.imbalance", "ratio"),
    lo("dist.virtual_epoch_us", "us"),
    // Serving.
    lo("serve.server_new_s", "s"),
    lo("serve.submit_us", "us"),
    lo("serve.poll_batch_us", "us"),
    lo("serve.admission_us", "us"),
    lo("serve.aggregate_roots_us", "us"),
    lo("serve.cache.get_ns", "ns"),
    lo("serve.cache.insert_ns", "ns"),
    hi("serve.cache.hit_rate", "share"),
    hi("serve.batch.fill", "share"),
    lo("serve.latency_p50_ms", "ms"),
    lo("serve.latency_p99_ms", "ms"),
    // The paged store.
    lo("store.stream_write_s", "s"),
    hi("store.stream_write_mb_s", "MB/s"),
    lo("store.open_s", "s"),
    lo("store.read_segment_us", "us"),
    hi("store.scan_mb_s", "MB/s"),
    hi("store.cache.hit_rate", "share"),
    lo("store.cache.misses", "count"),
    lo("store.cache.evictions", "count"),
    lo("store.cache.bytes_read", "B"),
    lo("store.read_amplification", "ratio"),
    lo("store.out_neighbors_hit_us", "us"),
    lo("store.out_neighbors_miss_us", "us"),
    lo("store.hdg_for_s", "s"),
    lo("store.forward_full_budget_s", "s"),
    // The allocator, over the first counted ops of a fresh state.
    lo("mem.alloc_bytes_per_op", "B"),
    lo("mem.alloc_calls_per_op", "count"),
    lo("mem.peak_live_bytes", "B"),
];

/// Values by metric name. Setting a name that is in neither table is a
/// bug in the ledger, caught at once.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name)
                || END_TO_END.iter().any(|(d, _)| d.name == name),
            "`{name}` is not a ledger metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_inside_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
    }
}
