//! Table 2 — single-machine epoch time for GCN / PinSage / MAGNN across
//! the five systems.
//! Prints [`flexgraph_bench::paper::table2`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::table2(flexgraph_bench::bench_scale())
    );
}
