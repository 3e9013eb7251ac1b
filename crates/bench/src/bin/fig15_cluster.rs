//! Figure 13/15-style cluster sweep on the virtual-time runtime: prints
//! [`flexgraph_bench::paper::fig15_cluster`] at `FLEXGRAPH_BENCH_SCALE`.
//!
//! Stdout is a pure function of the inputs, so two invocations print the
//! same bytes (CI compares them). `FLEXGRAPH_CLUSTER_WORKERS` (default
//! `64,256,1024`; anything but counts above 0 exits 2, see
//! [`flexgraph_bench::parse_cluster_workers`]) picks the sweep points,
//! `FLEXGRAPH_EVENT_LOG` names a
//! file for the concatenated scheduler event logs, and `FLEXGRAPH_TRACE`
//! one for the JSONL telemetry.

fn main() {
    let raw = std::env::var("FLEXGRAPH_CLUSTER_WORKERS").ok();
    let workers = flexgraph_bench::parse_cluster_workers(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let (table, event_logs) =
        flexgraph_bench::paper::fig15_cluster(flexgraph_bench::bench_scale(), &workers);
    print!("{table}");
    if let Ok(path) = std::env::var("FLEXGRAPH_EVENT_LOG") {
        std::fs::write(&path, &event_logs).expect("write event log");
        eprintln!("  event logs -> {path} ({} bytes)", event_logs.len());
    }
}
