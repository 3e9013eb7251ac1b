//! Table 5 — memory footprint of HDGs relative to the input graph.
//! Prints [`flexgraph_bench::paper::table5`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::table5(flexgraph_bench::bench_scale())
    );
}
