//! Pluggable epoch execution backends.
//!
//! There is one distributed worker (`dist::worker`) and two drivers for
//! it. [`EpochRuntime`] names that seam so harnesses (benches, sweeps,
//! tests) can run the same experiment on either:
//!
//! * [`ThreadedRuntime`] — one OS thread per worker over the crossbeam
//!   fabric ([`distributed_epoch`]); wall times are genuine, worker
//!   count is bounded by the host.
//! * [`VirtualRuntime`] — the workers stepped cooperatively by the
//!   deterministic discrete-event scheduler
//!   ([`crate::sim::virtual_epoch`]); wall times are virtual (modeled
//!   from the [`NetProfile`]), worker count is bounded only by memory,
//!   and runs replay byte-identically.
//!
//! Both produce bitwise-identical features and the same deterministic
//! telemetry — so a sweep can validate at small `k` on threads and
//! extrapolate at `k = 1024` virtually.

use crate::shard::Shard;
use crate::sim::virtual_epoch;
use crate::trainer::{distributed_epoch, DistConfig, EpochReport};
use flexgraph_comm::NetProfile;
use flexgraph_graph::Graph;

/// An execution backend for distributed epochs.
pub trait EpochRuntime {
    /// Short backend name for labeling sweep output.
    fn name(&self) -> &'static str;
    /// Runs one epoch of `cfg` over the shards and reports it. For
    /// virtual backends, `EpochReport::wall` carries virtual time.
    fn epoch(&self, graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport;
}

/// OS-thread execution over the simulated MPI fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedRuntime;

impl EpochRuntime for ThreadedRuntime {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn epoch(&self, graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport {
        distributed_epoch(graph, shards, cfg)
    }
}

/// Virtual-time execution on the discrete-event scheduler.
#[derive(Clone, Debug, Default)]
pub struct VirtualRuntime {
    /// Cluster network/compute model (links, racks, stragglers).
    pub net: NetProfile,
}

impl VirtualRuntime {
    /// A virtual runtime with the given network profile.
    pub fn new(net: NetProfile) -> Self {
        Self { net }
    }
}

impl EpochRuntime for VirtualRuntime {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn epoch(&self, graph: &Graph, shards: &[Shard], cfg: &DistConfig) -> EpochReport {
        virtual_epoch(graph, shards, cfg, &self.net).report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_shards;
    use flexgraph_graph::gen::community;
    use flexgraph_graph::partition::hash_partition;
    use flexgraph_hdg::build::from_direct_neighbors;

    #[test]
    fn backends_agree_through_the_trait_object() {
        let ds = community(90, 2, 4, 2, 5, 11);
        let part = hash_partition(&ds.graph, 2);
        let shards = make_shards(90, &ds.features, &part, |roots| {
            from_direct_neighbors(&ds.graph, roots.to_vec())
        });
        let cfg = DistConfig::default();
        let runtimes: [&dyn EpochRuntime; 2] = [
            &ThreadedRuntime,
            &VirtualRuntime::new(NetProfile::default()),
        ];
        let a = runtimes[0].epoch(&ds.graph, &shards, &cfg);
        let b = runtimes[1].epoch(&ds.graph, &shards, &cfg);
        assert_eq!(runtimes[0].name(), "threaded");
        assert_eq!(runtimes[1].name(), "virtual");
        let bits =
            |t: &flexgraph_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.features), bits(&b.features));
        assert_eq!(a.comm_bytes, b.comm_bytes);
    }
}
