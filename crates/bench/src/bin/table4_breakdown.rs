//! Table 4 — stage-level breakdown of FlexGraph's single-machine epoch.
//! Prints [`flexgraph_bench::paper::table4`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::table4(flexgraph_bench::bench_scale())
    );
}
