//! Figure 13/15-style cluster sweep on the virtual-time runtime: prints
//! [`flexgraph_bench::paper::fig15_cluster`] at `FLEXGRAPH_BENCH_SCALE`.
//!
//! Stdout is a pure function of the inputs, so two invocations print the
//! same bytes (CI compares them). `FLEXGRAPH_CLUSTER_WORKERS` (default
//! `64,256,1024`) picks the sweep points, `FLEXGRAPH_EVENT_LOG` names a
//! file for the concatenated scheduler event logs, and `FLEXGRAPH_TRACE`
//! one for the JSONL telemetry.

fn main() {
    let workers: Vec<usize> = std::env::var("FLEXGRAPH_CLUSTER_WORKERS")
        .unwrap_or_else(|_| "64,256,1024".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let (table, event_logs) =
        flexgraph_bench::paper::fig15_cluster(flexgraph_bench::bench_scale(), &workers);
    print!("{table}");
    if let Ok(path) = std::env::var("FLEXGRAPH_EVENT_LOG") {
        std::fs::write(&path, &event_logs).expect("write event log");
        eprintln!("  event logs -> {path} ({} bytes)", event_logs.len());
    }
}
