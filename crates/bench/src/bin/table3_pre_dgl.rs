//! Table 3 — simulating INFA/INHA in existing systems: DGL vs Pre+DGL
//! vs FlexGraph on PinSage and MAGNN.
//! Prints [`flexgraph_bench::paper::table3`] at `FLEXGRAPH_BENCH_SCALE`.

fn main() {
    print!(
        "{}",
        flexgraph_bench::paper::table3(flexgraph_bench::bench_scale())
    );
}
