//! Trace snapshot test (ISSUE 4 satellite): two seeded 2-epoch
//! distributed trainings must emit **byte-identical** JSONL traces, and
//! every record must parse against the documented schema.
//!
//! The determinism contract (DESIGN.md §8): trace records carry only
//! virtual timestamps and deterministic counters (work units, message
//! counts, payload bytes), so trace content is a pure function of the
//! work performed after `start_trace` — independent of scheduling,
//! wall-clock, and `FLEXGRAPH_THREADS` (CI runs this file under both
//! 1 and 4 threads). The same holds for serving: one seeded request
//! stream through a `Server` traces the same bytes twice.

use flexgraph::dist::{distributed_epoch, make_shards, DistConfig, DistMode};
use flexgraph::graph::partition::hash_partition;
use flexgraph::hdg::build::from_direct_neighbors;
use flexgraph::obs::{self, TraceLine};
use flexgraph::prelude::*;
use flexgraph::serve::BatcherConfig;
use std::sync::Mutex;

/// The trace session is process-global; tests that open one must not
/// interleave.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// One seeded 2-epoch distributed training, traced to `path`.
fn traced_training(path: &str, seed: u64) {
    obs::start_trace(path).expect("trace file");
    let ds = flexgraph::graph::gen::community(180, 4, 5, 2, 8, seed);
    let part = hash_partition(&ds.graph, 3);
    let shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    });
    let w = Tensor::eye(ds.feature_dim());
    let cfg = DistConfig {
        mode: DistMode::FlexGraph { pipeline: true },
        update_weight: Some(w),
        ..DistConfig::default()
    };
    for _ in 0..2 {
        distributed_epoch(&ds.graph, &shards, &cfg);
    }
    obs::finish_trace();
}

/// One seeded skewed request stream (three in four requests from the
/// first `n / 16` vertices) served twice — cold, then warm — by one
/// `Server`, each pass traced as one window to `path`.
fn traced_serving(path: &str) {
    obs::start_trace(path).expect("trace file");
    let n = 240u32;
    let ds = flexgraph::graph::gen::community(n as usize, 4, 6, 2, 16, 29);
    let mut state = 99u64;
    let stream: Vec<u32> = (0..2 * n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            if i % 4 == 0 {
                r % n
            } else {
                r % (n / 16)
            }
        })
        .collect();
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let cfg = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 32,
            max_delay: 64,
            queue_cap: stream.len() + 1,
        },
        model,
        ..Default::default()
    };
    let snap = ModelSnapshot::init(&model, 13);
    let server = Server::new(ds.graph, ds.features, cfg, snap);
    for _pass in 0..2 {
        for &v in &stream {
            server.submit(v).unwrap();
            server.poll().unwrap();
        }
        server.flush().unwrap();
        server.emit_trace_window();
    }
    obs::finish_trace();
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("flexgraph_{}_{}.jsonl", name, std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let _guard = SESSION_LOCK.lock().unwrap();
    let (p1, p2) = (tmp("snap_a"), tmp("snap_b"));
    traced_training(&p1, 1234);
    traced_training(&p2, 1234);
    let a = std::fs::read(&p1).unwrap();
    let b = std::fs::read(&p2).unwrap();
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same-seed traces diverged");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn every_trace_record_parses_against_the_schema() {
    let _guard = SESSION_LOCK.lock().unwrap();
    let path = tmp("schema");
    traced_training(&path, 77);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // meta + 2 epochs × (3 partition records + 1 epoch record).
    assert_eq!(lines.len(), 1 + 2 * 4, "unexpected record count");

    let mut last_vt = 0u64;
    let mut epoch_records = 0;
    for (i, line) in lines.iter().enumerate() {
        let parsed = obs::parse_line(line)
            .unwrap_or_else(|e| panic!("line {}: schema violation: {e}\n{line}", i + 1));
        match parsed {
            TraceLine::Meta { version, wall } => {
                assert_eq!(i, 0, "meta must be the first record");
                assert_eq!(version, obs::TRACE_VERSION);
                assert!(!wall, "deterministic mode must not carry wall fields");
            }
            TraceLine::Part { vt, record, roots } => {
                assert!(vt > last_vt, "virtual timestamps must increase");
                last_vt = vt;
                assert!(record.pipelined, "FlexGraph pipelined mode was configured");
                assert!(record.work_total() > 0, "partition did work");
                assert!(record.comm.messages > 0, "k=3 workers exchange messages");
                let (count, total, max) = roots;
                assert!(count > 0, "per-root costs were attributed");
                assert!(max <= total && total > 0);
            }
            TraceLine::Epoch {
                vt,
                epoch,
                parts,
                work,
                fabric,
                virtual_ns,
            } => {
                assert!(vt > last_vt, "virtual timestamps must increase");
                last_vt = vt;
                assert_eq!(epoch, epoch_records, "epochs are session-relative");
                epoch_records += 1;
                assert_eq!(parts, 3, "one record per partition");
                assert!(work > 0);
                assert!(fabric.bytes > 0 && fabric.messages > 0);
                assert_eq!(fabric.retries, 0, "fault counters excluded by default");
                assert_eq!(virtual_ns, 0, "threaded epochs carry no virtual clock");
            }
            TraceLine::Serve { .. } => {
                panic!("a training trace must not contain serve records");
            }
            TraceLine::PageCache { .. } => {
                panic!("an in-RAM training trace must not contain page-cache records");
            }
        }
    }
    assert_eq!(epoch_records, 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_traces_are_byte_identical() {
    let _guard = SESSION_LOCK.lock().unwrap();
    let (p1, p2) = (tmp("serve_a"), tmp("serve_b"));
    traced_serving(&p1);
    traced_serving(&p2);
    let text = std::fs::read_to_string(&p1).unwrap();
    assert_eq!(
        text.as_bytes(),
        std::fs::read(&p2).unwrap(),
        "same-seed serve traces diverged"
    );
    let mut windows = 0;
    for (i, line) in text.lines().enumerate() {
        match obs::parse_line(line)
            .unwrap_or_else(|e| panic!("line {}: schema violation: {e}\n{line}", i + 1))
        {
            TraceLine::Meta { .. } => assert_eq!(i, 0, "meta must be the first record"),
            TraceLine::Serve { record, .. } => {
                assert!(record.served > 0 && record.batches > 0);
                windows += 1;
            }
            other => panic!("a serving trace holds serve windows only, got {other:?}"),
        }
    }
    assert_eq!(windows, 2, "one cold and one warm window");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn telemetry_is_collected_even_without_a_trace_session() {
    let _guard = SESSION_LOCK.lock().unwrap();
    // The report's in-memory telemetry is always populated; the trace
    // file is an optional sink.
    let ds = flexgraph::graph::gen::community(120, 3, 4, 2, 6, 5);
    let part = hash_partition(&ds.graph, 2);
    let shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    });
    let rep = distributed_epoch(&ds.graph, &shards, &DistConfig::default());
    assert_eq!(rep.telemetry.partitions.len(), 2);
    assert!(rep.telemetry.work_total() > 0);
    assert_eq!(
        rep.telemetry.num_attributed_roots(),
        ds.graph.num_vertices(),
        "every vertex gets a cost attribution"
    );
    assert_eq!(rep.telemetry.fabric.bytes, rep.comm_bytes);
}
