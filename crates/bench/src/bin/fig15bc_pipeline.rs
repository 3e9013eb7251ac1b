//! Figure 15b/c — Aggregation time with and without pipelining.
//! Prints [`flexgraph_bench::paper::fig15bc`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::fig15bc(flexgraph_bench::bench_scale())
    );
}
