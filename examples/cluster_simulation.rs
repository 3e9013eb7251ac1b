//! Simulating a large cluster on one machine with the virtual-time
//! runtime: deterministic discrete-event execution, chaos injection,
//! straggler profiles, and replayable event logs.
//!
//! Run with: `cargo run --release --example cluster_simulation`

use flexgraph::comm::{FlakyRack, Straggler};
use flexgraph::dist::{make_shards, virtual_epoch, DistConfig, DistMode};
use flexgraph::graph::gen::{reddit_like, ScaleFactor};
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::prelude::*;

fn shards_for(ds: &Dataset, k: usize) -> Vec<Shard> {
    let part = hash_partition(&ds.graph, k);
    make_shards(ds.graph.num_vertices(), &ds.features, &part, |roots| {
        from_direct_neighbors(&ds.graph, roots.to_vec())
    })
}

fn main() {
    let ds = reddit_like(ScaleFactor(0.25));
    println!(
        "dataset: |V| = {}, |E| = {}\n",
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );

    // 1. Scale far past the host's core count: every worker is a
    // cooperative task on a discrete-event scheduler, so "cluster size"
    // costs memory, not threads. Virtual epoch time comes from the
    // modeled network (50 µs / 3.25 GB/s links by default) plus charged
    // per-worker compute.
    println!("— scaling on the virtual cluster —");
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "workers", "virtual epoch", "bytes moved", "messages"
    );
    let cfg = DistConfig {
        mode: DistMode::FlexGraph { pipeline: true },
        ..DistConfig::default()
    };
    for k in [8usize, 64, 256] {
        let shards = shards_for(&ds, k);
        let rep = virtual_epoch(&ds.graph, &shards, &cfg, &NetProfile::default());
        println!(
            "{:>8} {:>14.2?} {:>14} {:>12}",
            k, rep.virtual_time, rep.report.comm_bytes, rep.report.comm_messages
        );
    }

    // 2. The run is deterministic down to the byte: the scheduler event
    // log (sends, deliveries, dedups, barriers) digests identically on
    // every same-seed run, at any FLEXGRAPH_THREADS.
    let shards = shards_for(&ds, 64);
    let a = virtual_epoch(&ds.graph, &shards, &cfg, &NetProfile::default());
    let b = virtual_epoch(&ds.graph, &shards, &cfg, &NetProfile::default());
    assert_eq!(a.log_digest, b.log_digest);
    assert_eq!(a.event_log, b.event_log);
    println!(
        "\n— determinism: two 64-worker runs, event log {} bytes, digest {:016x} — identical —",
        a.log_digest.0, a.log_digest.1
    );

    // 3. Cluster pathologies are part of the model: stragglers stretch
    // the epoch, a flaky rack drops and delays cross-rack traffic, and
    // a seeded chaos schedule exercises the retry path — all without
    // changing a single output bit.
    let skewed = NetProfile {
        rack_size: 16,
        stragglers: vec![Straggler {
            rank: 11,
            compute_factor: 6.0,
            link_factor: 3.0,
        }],
        flaky_racks: vec![FlakyRack {
            rack: 2,
            extra_delay_us: 250.0,
            drop_prob: 0.4,
        }],
        ..NetProfile::default()
    };
    let chaotic_cfg = DistConfig {
        chaos: Some(ChaosSchedule::stress(7).without_crash()),
        ..cfg.clone()
    };
    let chaotic = virtual_epoch(&ds.graph, &shards, &chaotic_cfg, &skewed);
    println!("\n— 64 workers under chaos + skew —");
    println!(
        "virtual epoch {:?} (clean {:?}), {} drops injected, {} retries, {} redeliveries",
        chaotic.virtual_time,
        a.virtual_time,
        chaotic.report.drops_injected,
        chaotic.report.retries,
        chaotic.report.redeliveries
    );
    let same = a
        .report
        .features
        .data()
        .iter()
        .zip(chaotic.report.features.data())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same);
    println!("outputs bitwise identical to the fault-free run: {same}");

    // 4. A crash mid-epoch fails the attempt; the runtime re-drives the
    // epoch and converges to the same bits. Tight retry timeouts make
    // the survivors detect the crash within a few modelled milliseconds.
    let crash_cfg = DistConfig {
        retry: RetryPolicy::snappy(),
        chaos: Some(ChaosSchedule {
            crash: Some(CrashPoint {
                rank: 3,
                at_send: 2,
            }),
            ..ChaosSchedule::default()
        }),
        ..cfg.clone()
    };
    let crashed = virtual_epoch(&ds.graph, &shards, &crash_cfg, &NetProfile::default());
    println!(
        "\n— crash injection: {} recovery, output identical: {} —",
        crashed.report.recoveries,
        crashed
            .report
            .features
            .data()
            .iter()
            .zip(a.report.features.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    );

    println!(
        "\nFor the full sweep (64/256/1024 workers, measured-cost ADB \
         rebalancing, straggler tax): cargo run --release -p flexgraph-bench \
         --bin fig15_cluster"
    );
}
