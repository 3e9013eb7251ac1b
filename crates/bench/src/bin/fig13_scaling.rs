//! Figure 13 — end-to-end epoch time against the worker count.
//! Prints [`flexgraph_bench::paper::fig13`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::fig13(flexgraph_bench::bench_scale())
    );
}
