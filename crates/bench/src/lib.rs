#![warn(missing_docs)]

//! Shared utilities for the experiment harnesses.
//!
//! Every table and figure of the paper's evaluation (§7) has a binary in
//! `src/bin/` that regenerates it; this library holds what they share:
//! dataset presets, the synthetic vertex typing that lets MAGNN run on
//! homogeneous graphs (the paper does the same on Reddit/FB91/Twitter:
//! "the input graph consists of 3 types of vertices, and we define 6
//! metapath types"), timing helpers, and table formatting.

pub mod workloads;

use flexgraph::graph::gen::{fb_like, imdb_like, reddit_like, twitter_like, Dataset, ScaleFactor};
use flexgraph::graph::metapath::Metapath;
use flexgraph::prelude::*;
use std::time::{Duration, Instant};

/// The benchmark scale factor: 0.25 unless `FLEXGRAPH_BENCH_SCALE`
/// says otherwise (e.g. `0.125` for smoke runs, `1.0` for the documented
/// shapes). A value [`parse_bench_scale`] rejects ends the process with
/// its message instead of running a table at mixed scales.
pub fn bench_scale() -> ScaleFactor {
    let raw = std::env::var("FLEXGRAPH_BENCH_SCALE").ok();
    parse_bench_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// `FLEXGRAPH_BENCH_SCALE`'s value (`None` when unset) as a scale
/// factor. Only a finite number above zero is one: the dataset presets
/// floor a vertex count that saturates to 0 but read `log2` of the same
/// factor, so a negative or NaN scale would run some datasets at their
/// floor and others at full size.
pub fn parse_bench_scale(raw: Option<&str>) -> Result<ScaleFactor, String> {
    let Some(raw) = raw else {
        return Ok(ScaleFactor(0.25));
    };
    match raw.trim().parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(ScaleFactor(s)),
        _ => Err(format!(
            "FLEXGRAPH_BENCH_SCALE={raw:?} is not a finite number above 0"
        )),
    }
}

/// The three homogeneous evaluation datasets (Reddit / FB91 / Twitter
/// stand-ins) at the benchmark scale.
pub fn homogeneous_datasets() -> Vec<Dataset> {
    let s = bench_scale();
    vec![reddit_like(s), fb_like(s), twitter_like(s)]
}

/// All four datasets, including the heterogeneous IMDB stand-in.
pub fn all_datasets() -> Vec<Dataset> {
    let mut v = homogeneous_datasets();
    v.push(imdb_like(bench_scale()));
    v
}

/// Attaches the paper's synthetic 3-type coloring to a homogeneous
/// dataset so MAGNN can run on it (vertex id modulo 3).
pub fn with_synthetic_types(ds: &Dataset) -> TypedGraph {
    match &ds.types {
        Some(t) => TypedGraph::new(ds.graph.clone(), t.clone()),
        None => {
            let types = (0..ds.graph.num_vertices())
                .map(|v| (v % 3) as u8)
                .collect();
            TypedGraph::new(ds.graph.clone(), types)
        }
    }
}

/// The 6 three-vertex metapaths of the paper's MAGNN setup, over the
/// synthetic 3-type coloring.
pub fn magnn_metapaths() -> Vec<Metapath> {
    vec![
        Metapath::new(vec![0, 1, 0]),
        Metapath::new(vec![0, 2, 0]),
        Metapath::new(vec![1, 0, 1]),
        Metapath::new(vec![1, 2, 1]),
        Metapath::new(vec![2, 0, 2]),
        Metapath::new(vec![2, 1, 2]),
    ]
}

/// Per-(root, metapath) instance cap used everywhere MAGNN runs — the
/// laptop-scale stand-in for the paper's fixed metapath workload. The
/// cap applies identically to FlexGraph and every baseline.
pub const MAGNN_INSTANCE_CAP: usize = 30;

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Times a closure, repeating `reps` times and reporting the mean.
pub fn time_mean<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps >= 1, "need at least one repetition");
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed() / reps as u32
}

/// Formats a duration as seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// An outcome cell of a comparison table: a time, an OOM, or
/// "unsupported" (the paper's ✗).
pub enum Cell {
    /// Measured seconds.
    Time(Duration),
    /// Exceeded the transient-memory budget.
    Oom,
    /// The system cannot express the model.
    Unsupported,
}

impl Cell {
    /// Builds a cell from an engine result.
    pub fn from_result<T>(r: Result<(Duration, T), EngineError>) -> Self {
        match r {
            Ok((d, _)) => Cell::Time(d),
            Err(EngineError::Oom { .. }) => Cell::Oom,
            Err(EngineError::Unsupported(_)) => Cell::Unsupported,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Time(d) => write!(f, "{:>9}", secs(*d)),
            Cell::Oom => write!(f, "{:>9}", "OOM"),
            Cell::Unsupported => write!(f, "{:>9}", "X"),
        }
    }
}

/// The transient-memory budget used by the Table 2/3 harnesses: a fixed
/// multiple of the dataset's fused working set (`|E| × dim` floats),
/// mirroring how the paper's 512 GB machines relate to its billion-edge
/// graphs. FlexGraph's fused paths use ~0 transient bytes; sparse
/// executions materialize at least `|E| × dim`, hierarchical ones far
/// more.
pub fn table_budget(ds: &Dataset) -> MemoryBudget {
    let bytes = 3 * ds.graph.num_edges() * ds.feature_dim() * 4;
    MemoryBudget {
        bytes: bytes.max(64 * 1024 * 1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_types_cover_three_classes() {
        let ds = &homogeneous_datasets()[0];
        let t = with_synthetic_types(ds);
        assert_eq!(t.num_types(), 3);
    }

    #[test]
    fn bench_scale_accepts_only_finite_positive_numbers() {
        assert_eq!(parse_bench_scale(None).unwrap().0, 0.25);
        assert_eq!(parse_bench_scale(Some("0.125")).unwrap().0, 0.125);
        assert_eq!(parse_bench_scale(Some(" 2 ")).unwrap().0, 2.0);
        for bad in ["-1", "0", "-0", "inf", "NaN", "", "quarter", "1/4"] {
            let e = parse_bench_scale(Some(bad)).unwrap_err();
            assert!(
                e.contains("FLEXGRAPH_BENCH_SCALE") && e.contains(&format!("{bad:?}")),
                "{bad:?}: {e}"
            );
        }
    }

    #[test]
    fn cells_format() {
        assert_eq!(format!("{}", Cell::Oom).trim(), "OOM");
        assert_eq!(format!("{}", Cell::Unsupported).trim(), "X");
    }

    #[test]
    fn time_mean_requires_reps() {
        let d = time_mean(3, || std::hint::black_box(1 + 1));
        assert!(d < Duration::from_millis(10));
    }
}
