//! `ledger` — one benchmark for the FlexGraph reproduction.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//!     one run of one workload: end to end (--trace 0) or traced
//!     (--trace 1); the last line of stdout is the result as JSON.
//! ledger [--seed N | --seeds A..B] [--seconds S] [--workloads all|gated]
//!        [--out F] [--trace-out F]
//!     every workload (or the four BENCHMARK.json lists) in both modes,
//!     each run in a fresh process; writes ledger.json and the span file.
//! ledger compare A.json B.json
//!     per (workload, end-to-end metric): ok / worse / unresolved.
//! ```
//!
//! README.md has the workloads, the metrics and how to read them.

mod alloc;
mod harness;
mod json;
mod metrics;
mod report;
mod span;
mod stats;
mod workloads;

use harness::{Outcome, RunArgs, Size};
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  ledger --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
  ledger [--seed N | --seeds A..B] [--seconds S] [--workloads all|gated] [--out FILE] [--trace-out FILE]
  ledger compare A.json B.json";

/// `--flag value` pairs after the subcommand, in order.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`--{flag} {value}`: not a valid value"))
}

/// Scratch files go next to the executable, i.e. inside the build
/// directory (`CARGO_TARGET_DIR`), which git ignores.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("ledger-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `(name, unit, value)` of every metric the mode reports, in table
/// order. A layer off the workload's path reads 0.
fn reported(o: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let defs: Vec<&MetricDef> = if trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    };
    defs.into_iter()
        .map(|d| (d.name, d.unit, o.metrics.get(d.name).unwrap_or(0.0)))
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome, trace: bool) -> Json {
    let metrics = reported(o, trace).into_iter().map(|(name, unit, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One run of one workload in this process.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 8.0f64, false);
    let mut trace_out = None;
    for (flag, value) in flags(args)? {
        match flag {
            "workload" => workload = Some(value.to_string()),
            "seed" => seed = parse(flag, value)?,
            "seconds" => seconds = parse(flag, value)?,
            "trace" => trace = parse::<u8>(flag, value)? != 0,
            "trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `--{flag} {value}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("`--seconds {seconds}`: must be positive"));
    }
    // The thread count is set per workload with `set_thread_override`
    // and tracing is the ledger's own; the environment decides neither.
    // No other thread exists yet, so the environment is ours to edit.
    for var in [
        "FLEXGRAPH_THREADS",
        "FLEXGRAPH_TRACE",
        "FLEXGRAPH_TRACE_WALL",
    ] {
        std::env::remove_var(var);
    }
    harness::flush_denormals();
    let run_args = RunArgs {
        seed,
        seconds,
        fixed_ops: None,
        size: Size::Full,
        work_dir: work_dir()?,
        trace_out,
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "ledger: workload {workload}, seed {seed}, {} run, {seconds} s measured, {cpus} cpus",
        if trace { "traced" } else { "end-to-end" }
    );
    let outcome = workloads::run(&workload, &run_args, trace).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "`{workload}` is not a workload; the workloads are {}",
            names.join(", ")
        )
    })?;
    println!("input_digest {:#018x}", outcome.digest);
    for (name, unit, value) in reported(&outcome, trace) {
        // The result line below has the zeros; the table leaves them out.
        if value != 0.0 {
            println!("  {name:<36} {value:>18.6} {unit}");
        }
    }
    for e in &outcome.errors {
        println!("FAILED CHECK: {e}");
    }
    println!("{}", result_line(&outcome, trace));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ if args.iter().any(|a| a == "--workload") => run_one(&args),
        _ => flags(&args).and_then(|f| report::run_all(&f)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All eight workloads at the tiny size through both modes: every
    /// metric is present and finite, nothing fails. No wall-clock
    /// assertion — only that the numbers exist.
    #[test]
    fn every_workload_reports_every_metric_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("ledger-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, _) in workloads::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 3,
                    seconds: 0.0,
                    fixed_ops: Some(40),
                    size: Size::Tiny,
                    work_dir: dir.clone(),
                    trace_out: trace.then(|| dir.join(format!("{name}.jsonl"))),
                };
                let o = workloads::run(name, &args, trace).expect("a listed workload");
                assert!(o.correct, "{name} trace={trace}: {:?}", o.errors);
                assert_eq!(o.failed, 0, "{name}: failed_share must be 0");
                assert!(o.attempted >= 1);
                let line = result_line(&o, trace);
                let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
                let want = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), want);
                for (metric, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(v.is_finite(), "{name}: {metric} = {v}");
                }
                if !trace {
                    for (d, _) in END_TO_END {
                        assert!(
                            o.metrics.get(d.name).unwrap() > 0.0,
                            "{name}: {} is 0",
                            d.name
                        );
                    }
                } else {
                    let spans = std::fs::read_to_string(dir.join(format!("{name}.jsonl"))).unwrap();
                    let first = Json::parse(spans.lines().next().unwrap()).unwrap();
                    for key in [
                        "id", "parent", "name", "workload", "op", "start_ns", "end_ns",
                    ] {
                        assert!(first.get(key).is_some(), "span lacks `{key}`");
                    }
                }
                // The printed line reads back as the same object.
                assert_eq!(Json::parse(&line.to_string()).unwrap(), line);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn benchmark_json_lists_the_same_names_units_and_bounds() {
        let text = include_str!("../../BENCHMARK.json");
        let b = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), workloads::GATED);
        for w in b.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let why = workloads::WORKLOADS.iter().find(|(n, _)| *n == name);
            assert_eq!(
                w.get("why").and_then(Json::as_str),
                why.map(|(_, why)| *why),
                "{name}"
            );
        }
        let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (d, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(*bound));
        }
        let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str())
            );
        }
    }
}
