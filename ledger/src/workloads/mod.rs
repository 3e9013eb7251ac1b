//! The eight workloads, by name, with the reason each exists.

pub mod dist;
pub mod ooc;
pub mod serve;
pub mod train;

use crate::harness::{run_e2e, run_traced, Outcome, RunArgs, Workload};
use dist::{Backend, Dist};
use flexgraph::models::{Gcn, Magnn, PinSage};
use ooc::Ooc;
use serve::Serve;
use std::time::Instant;
use train::Train;

/// The workloads `BENCHMARK.json` lists, i.e. the ones a later change
/// is held to. Four, so that each run can measure for 25 s inside the
/// time the benchmark's driver allows for all its runs; all four keep
/// one thread busy. The other four run the same way by name and in the
/// run of every workload.
pub const GATED: &[&str] = &[
    "train_gcn_reddit",
    "train_magnn_imdb",
    "dist_virtual_k16",
    "serve_cold",
];

/// `(name, why)`; `BENCHMARK.json` carries the gated ones.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_gcn_reddit",
        "DNFA: no selection; fused leaf aggregation over long segments, dense matmul, autograd backward",
    ),
    (
        "train_pinsage_twitter",
        "INFA: random-walk NeighborSelection rebuilt every epoch, so a selection speed-up shows here only",
    ),
    (
        "train_magnn_imdb",
        "INHA: many 3-leaf segments, scatter softmax/add on a plan, deep tape; selection once, in set-up",
    ),
    (
        "dist_threaded_k2",
        "the real fabric and codec: forward-only sharded epochs on 2 worker threads, no injected sleeps",
    ),
    (
        "dist_virtual_k16",
        "the simulator: event wheel and 16 small shards on one driver thread; modeled time is exact",
    ),
    (
        "serve_cold",
        "cache off: every request pays hop-shell selection, capped HDG build, aggregation, dense head",
    ),
    (
        "serve_warm",
        "cache on, skewed stream: pure hit path through batcher, cache reads and response assembly",
    ),
    (
        "ooc_hop2_tight",
        "two-hop forward under a page cache 8x too small: the store does most of the work",
    ),
];

fn go<W: Workload>(name: &str, make: impl FnOnce() -> W, args: &RunArgs, trace: bool) -> Outcome {
    let t0 = Instant::now();
    let w = make();
    let gen_s = t0.elapsed().as_secs_f64();
    if trace {
        run_traced(&w, name, args, gen_s)
    } else {
        run_e2e(&w, args)
    }
}

/// Generates `name`'s inputs from `args.seed` and runs it end to end
/// (`trace` off) or traced; `None` for a name that is not a workload.
pub fn run(name: &str, args: &RunArgs, trace: bool) -> Option<Outcome> {
    let (seed, size) = (args.seed, args.size);
    Some(match name {
        "train_gcn_reddit" => go(name, || Train::<Gcn>::generate(seed, size), args, trace),
        "train_pinsage_twitter" => go(name, || Train::<PinSage>::generate(seed, size), args, trace),
        "train_magnn_imdb" => go(name, || Train::<Magnn>::generate(seed, size), args, trace),
        "dist_threaded_k2" => go(
            name,
            || Dist::generate(seed, size, Backend::Threaded),
            args,
            trace,
        ),
        "dist_virtual_k16" => go(
            name,
            || Dist::generate(seed, size, Backend::Virtual),
            args,
            trace,
        ),
        "serve_cold" => go(name, || Serve::generate(seed, size, false), args, trace),
        "serve_warm" => go(name, || Serve::generate(seed, size, true), args, trace),
        "ooc_hop2_tight" => go(
            name,
            || Ooc::generate(seed, size, &args.work_dir),
            args,
            trace,
        ),
        _ => return None,
    })
}
