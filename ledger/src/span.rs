//! Spans around the harness's calls into each layer's public functions.
//!
//! Spans are kept in memory and written as JSONL when the run ends. A
//! span's *self time* is its duration minus the part of that interval
//! its direct children cover. Spans inside the library are a later
//! issue; everything here is recorded from outside.

use crate::json::Json;
use crate::stats::median;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op index of spans recorded outside any timed op (set-up, probes).
pub const NO_OP: i64 = -1;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Index of the traced op this span belongs to, or [`NO_OP`].
    pub op: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Single-threaded span recorder. The off recorder runs the closure and
/// nothing else: no clock read, no allocation.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    op: Cell<i64>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(NO_OP),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with a traced-op index (or [`NO_OP`]).
    pub fn set_op(&self, op: i64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open on this recorder, if any.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                op: self.op.get(),
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id as usize].start_ns = start;
        spans[id as usize].end_ns = end;
        out
    }

    /// A layer probe: runs `f` `reps` times, each under a span named
    /// `name`, and returns the last result with the median seconds.
    pub fn probe<T>(&self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            last = Some(self.span(name, || std::hint::black_box(f())));
            times.push(t0.elapsed().as_secs_f64());
        }
        (last.expect("at least one repetition"), median(&times))
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Seconds of every span called `name`, inside the traced ops
    /// (`in_ops`) or outside them (set-up and probes).
    fn durations_s(&self, name: &str, in_ops: bool) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && (s.op != NO_OP) == in_ops)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Median duration in seconds over the spans called `name` that
    /// were recorded outside the traced ops (set-up and probes).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations_s(name, false))
    }

    /// Summed duration in seconds of the same spans.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name, false).iter().sum()
    }

    /// Median duration in seconds of the traced ops' root spans.
    pub fn op_median_s(&self) -> f64 {
        median(&self.durations_s("op", true))
    }

    /// For the traced ops: per span name, the median over ops of the
    /// self time (seconds) all spans of that name spent in one op. The
    /// root span of each op is reported under its own name too — its
    /// self time is what no child accounts for.
    pub fn op_self_medians(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut per_op: BTreeMap<&'static str, BTreeMap<i64, f64>> = BTreeMap::new();
        let mut ops = std::collections::BTreeSet::new();
        for (s, self_ns) in spans.iter().zip(&selfs) {
            if s.op == NO_OP {
                continue;
            }
            ops.insert(s.op);
            *per_op.entry(s.name).or_default().entry(s.op).or_default() += *self_ns as f64 / 1e9;
        }
        per_op
            .into_iter()
            .map(|(name, by_op)| {
                // An op in which the layer did not run counts as 0.
                let v: Vec<f64> = ops
                    .iter()
                    .map(|op| by_op.get(op).copied().unwrap_or(0.0))
                    .collect();
                (name, median(&v))
            })
            .collect()
    }

    /// Writes one JSON object per span: `id`, `parent`, `name`,
    /// `workload`, `op`, `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let line = Json::obj([
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name", Json::Str(s.name.into())),
                ("workload", Json::Str(workload.into())),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, op: i64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 40),
            // Overlaps span 1 by 10 ns: the union covers 10..60.
            span(2, Some(0), 0, 30, 60),
            // A grandchild takes nothing from the root directly.
            span(3, Some(2), 0, 35, 55),
            // A child that overruns its parent is clipped to it.
            span(4, Some(0), 0, 90, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 10, 20, 40]);
    }

    #[test]
    fn recorder_nests_and_the_off_recorder_records_nothing() {
        let rec = Recorder::new(true);
        rec.set_op(3);
        let got = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::new(false);
        assert_eq!(off.span("outer", || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn op_medians_count_an_absent_layer_as_zero() {
        let rec = Recorder::new(true);
        for op in 0..3 {
            rec.set_op(op);
            rec.span("root", || {
                if op == 0 {
                    rec.span("rare", || std::hint::black_box(1));
                }
            });
        }
        let m = rec.op_self_medians();
        assert_eq!(m["rare"], 0.0);
        assert!(m.contains_key("root"));
    }
}
