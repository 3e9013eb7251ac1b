#![warn(missing_docs)]

//! The experiment harness of the paper's evaluation (§7).
//!
//! Every table and figure is one function of [`paper`] returning a
//! [`Table`]; the binary in `src/bin/` named after it prints that table
//! at [`bench_scale`]. This library holds what they share: dataset
//! presets, the synthetic vertex typing that lets MAGNN run on
//! homogeneous graphs (the paper does the same on Reddit/FB91/Twitter:
//! "the input graph consists of 3 types of vertices, and we define 6
//! metapath types"), the model list and per-system epochs of
//! [`workloads`], timing helpers, and the table type.

pub mod paper;
pub mod workloads;

use flexgraph::graph::gen::{fb_like, imdb_like, reddit_like, twitter_like, Dataset, ScaleFactor};
use flexgraph::graph::metapath::Metapath;
use flexgraph::prelude::*;
use std::fmt;
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

/// `FLEXGRAPH_CLUSTER_WORKERS`' value (`None` when unset: `64,256,1024`)
/// as the cluster sizes `fig15_cluster` sweeps. Only a non-empty list of
/// comma-separated counts above zero is one: a token that is no count
/// would silently shrink the sweep, and a cluster of 0 workers has no
/// part to put a vertex in.
pub fn parse_cluster_workers(raw: Option<&str>) -> Result<Vec<usize>, String> {
    let Some(raw) = raw else {
        return Ok(vec![64, 256, 1024]);
    };
    raw.split(',')
        .map(|s| s.trim().parse().ok().filter(|&k: &usize| k > 0))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            format!(
                "FLEXGRAPH_CLUSTER_WORKERS={raw:?} is not a comma-separated list of counts above 0"
            )
        })
}

/// The three homogeneous evaluation datasets (Reddit / FB91 / Twitter
/// stand-ins) at scale `s`.
pub fn homogeneous_datasets(s: ScaleFactor) -> Vec<Dataset> {
    vec![reddit_like(s), fb_like(s), twitter_like(s)]
}

/// All four datasets, including the heterogeneous IMDB stand-in.
pub fn all_datasets(s: ScaleFactor) -> Vec<Dataset> {
    let mut v = homogeneous_datasets(s);
    v.push(imdb_like(s));
    v
}

/// Attaches the paper's synthetic 3-type coloring to a homogeneous
/// dataset so MAGNN can run on it (vertex id modulo 3).
pub fn with_synthetic_types(ds: &Dataset) -> TypedGraph {
    TypedGraph::new(ds.graph.clone(), vertex_types(ds))
}

/// `ds` itself if it has vertex types, else a copy with the synthetic
/// coloring of [`with_synthetic_types`]: what a MAGNN model trains on.
pub fn typed_dataset(ds: &Dataset) -> Dataset {
    Dataset {
        types: Some(vertex_types(ds)),
        ..ds.clone()
    }
}

fn vertex_types(ds: &Dataset) -> Vec<u8> {
    let synthetic = || {
        (0..ds.graph.num_vertices())
            .map(|v| (v % 3) as u8)
            .collect()
    };
    ds.types.clone().unwrap_or_else(synthetic)
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

/// Times a closure, repeating `reps` times and reporting the mean.
pub fn time_mean<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps >= 1, "need at least one repetition");
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed() / reps as u32
}

/// One cell of a [`Table`].
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Seconds, wall-clock or virtual; printed in milliseconds.
    Time(Duration),
    /// Exceeded the transient-memory budget.
    Oom,
    /// The system cannot express the model (the paper's ✗).
    Unsupported,
    /// A share, in percent.
    Percent(f64),
    /// A ratio of two like quantities.
    Factor(f64),
    /// An exact count (bytes, vertices, moved roots).
    Count(usize),
    /// Anything else, printed as is.
    Text(String),
}

impl Cell {
    /// Builds a cell from an engine outcome.
    pub fn from_result(r: Result<Duration, EngineError>) -> Self {
        match r {
            Ok(d) => Cell::Time(d),
            Err(EngineError::Oom { .. }) => Cell::Oom,
            Err(EngineError::Unsupported(_)) => Cell::Unsupported,
        }
    }

    /// The cell's number — seconds, percent, factor or count — or `None`
    /// for an OOM, ✗ or text cell.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Time(d) => Some(d.as_secs_f64()),
            Cell::Percent(x) | Cell::Factor(x) => Some(*x),
            Cell::Count(n) => Some(*n as f64),
            Cell::Oom | Cell::Unsupported | Cell::Text(_) => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Time(d) => write!(f, "{:.3}", d.as_nanos() as f64 / 1e6),
            Cell::Oom => f.write_str("OOM"),
            Cell::Unsupported => f.write_str("X"),
            Cell::Percent(x) => write!(f, "{x:.1}%"),
            Cell::Factor(x) => write!(f, "{x:.3}x"),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Text(t) => f.write_str(t),
        }
    }
}

/// A table of the paper's evaluation as data: what a harness binary
/// prints, and what a test reads.
pub struct Table {
    /// The first line.
    pub title: String,
    /// The body, one block per section.
    pub sections: Vec<Section>,
    /// The closing lines: the shapes the paper reports.
    pub note: &'static str,
}

/// One block of a [`Table`]: labelled rows under named columns.
pub struct Section {
    /// Printed above the header unless empty.
    pub name: String,
    /// Column names; the first heads the row labels.
    pub columns: Vec<&'static str>,
    /// `(label, cells)`, one cell per column after the first.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Section {
    /// An empty section.
    pub fn new(name: impl Into<String>, columns: &[&'static str]) -> Self {
        Self {
            name: name.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics unless there is one cell per data column.
    pub fn push(&mut self, label: impl ToString, cells: Vec<Cell>) {
        assert_eq!(cells.len() + 1, self.columns.len(), "one cell per column");
        self.rows.push((label.to_string(), cells));
    }

    /// Column `col`'s numbers, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics when there is no such column or one of its cells holds no
    /// number.
    pub fn column(&self, col: &str) -> Vec<f64> {
        self.rows
            .iter()
            .map(|(label, _)| self.value(label, col))
            .collect()
    }

    /// The cell in row `row`, column `col`.
    ///
    /// # Panics
    ///
    /// Panics when there is no such row or column.
    pub fn cell(&self, row: &str, col: &str) -> &Cell {
        let c = self.columns[1..]
            .iter()
            .position(|name| *name == col)
            .unwrap_or_else(|| panic!("no column {col:?} in {:?}", self.columns));
        let (_, cells) = self
            .rows
            .iter()
            .find(|(label, _)| label == row)
            .unwrap_or_else(|| panic!("no row {row:?}"));
        &cells[c]
    }

    /// The number in row `row`, column `col`.
    ///
    /// # Panics
    ///
    /// Panics when there is no such row or column, or the cell holds no
    /// number.
    pub fn value(&self, row: &str, col: &str) -> f64 {
        self.cell(row, col)
            .value()
            .unwrap_or_else(|| panic!("{row} / {col} holds no number"))
    }
}

impl Table {
    /// The section named `name`.
    ///
    /// # Panics
    ///
    /// Panics when there is none.
    pub fn section(&self, name: &str) -> &Section {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no section {name:?}"))
    }
}

impl fmt::Display for Section {
    /// The label column left-aligned, every other column right-aligned,
    /// each as wide as its widest entry, two spaces apart.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.name.is_empty() {
            writeln!(f, "{}", self.name)?;
        }
        let mut lines: Vec<Vec<String>> =
            vec![self.columns.iter().map(|c| c.to_string()).collect()];
        for (label, cells) in &self.rows {
            let mut line = vec![label.clone()];
            line.extend(cells.iter().map(Cell::to_string));
            lines.push(line);
        }
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for line in &lines {
            write!(f, "{:<w$}", line[0], w = widths[0])?;
            for (text, w) in line[1..].iter().zip(&widths[1..]) {
                write!(f, "  {text:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for s in &self.sections {
            writeln!(f)?;
            write!(f, "{s}")?;
        }
        if !self.note.is_empty() {
            writeln!(f)?;
            writeln!(f, "{}", self.note)?;
        }
        Ok(())
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
        let ds = &homogeneous_datasets(ScaleFactor(0.0625))[0];
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
    fn cluster_workers_are_counts_above_zero() {
        assert_eq!(parse_cluster_workers(None).unwrap(), [64, 256, 1024]);
        assert_eq!(parse_cluster_workers(Some("64")).unwrap(), [64]);
        assert_eq!(parse_cluster_workers(Some(" 2, 8 ")).unwrap(), [2, 8]);
        for bad in ["", " ", "64,abc", "0", "64,0", "64,", "-1", "1.5"] {
            let e = parse_cluster_workers(Some(bad)).unwrap_err();
            assert!(
                e.contains("FLEXGRAPH_CLUSTER_WORKERS") && e.contains(&format!("{bad:?}")),
                "{bad:?}: {e}"
            );
        }
    }

    #[test]
    fn cells_format() {
        assert_eq!(format!("{}", Cell::Oom), "OOM");
        assert_eq!(format!("{}", Cell::Unsupported), "X");
        assert_eq!(
            Cell::Time(Duration::from_nanos(1_234_567)).to_string(),
            "1.235"
        );
        assert_eq!(Cell::Percent(12.34).to_string(), "12.3%");
        assert_eq!(Cell::Factor(1.9556).to_string(), "1.956x");
        assert_eq!(Cell::Oom.value(), None);
        assert_eq!(Cell::Count(7).value(), Some(7.0));
    }

    #[test]
    fn tables_align_and_read_back() {
        let mut s = Section::new("fb-like", &["Model", "w/ PP", "gain"]);
        s.push(
            "GCN",
            vec![
                Cell::Time(Duration::from_micros(1_500)),
                Cell::Percent(20.9),
            ],
        );
        s.push("PinSage", vec![Cell::Oom, Cell::Percent(6.2)]);
        let t = Table {
            title: "Figure".into(),
            sections: vec![s],
            note: "shape",
        };
        assert_eq!(
            t.to_string(),
            "Figure\n\nfb-like\nModel    w/ PP   gain\nGCN      1.500  20.9%\nPinSage    OOM   6.2%\n\nshape\n"
        );
        assert_eq!(t.section("fb-like").column("gain"), [20.9, 6.2]);
        assert_eq!(t.section("fb-like").value("GCN", "w/ PP"), 0.0015);
    }

    #[test]
    fn time_mean_requires_reps() {
        let mut calls = 0;
        time_mean(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(std::panic::catch_unwind(|| time_mean(0, || ())).is_err());
    }
}
