//! Table 1 — dataset statistics.
//! Prints [`flexgraph_bench::paper::table1`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::table1(flexgraph_bench::bench_scale())
    );
}
