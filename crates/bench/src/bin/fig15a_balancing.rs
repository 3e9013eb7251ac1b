//! Figure 15a — workload balancing under PuLP / Hash / ADB.
//! Prints [`flexgraph_bench::paper::fig15a`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::fig15a(flexgraph_bench::bench_scale())
    );
}
