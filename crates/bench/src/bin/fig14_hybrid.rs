//! Figure 14 — Aggregation time under SA, SA+FA and HA.
//! Prints [`flexgraph_bench::paper::fig14`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::fig14(flexgraph_bench::bench_scale())
    );
}
