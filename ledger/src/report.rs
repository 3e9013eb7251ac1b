//! `ledger.json`: written by the run of every workload, read back by
//! `ledger compare`.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::{GATED, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// One child run: the result line plus the input digest printed above
/// it.
struct ChildRun {
    result: Json,
    digest: String,
}

/// Re-executes this binary for one workload and mode, so each run gets
/// a clean heap, a clean kernel pool and its own `VmHWM`. The child's
/// report is echoed as it arrives.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    // `output` waits for the child to end and collects its stdout.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix("input_digest "))
        .unwrap_or("")
        .to_string();
    Ok(ChildRun { result, digest })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `A..B` (inclusive) or a single seed.
fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("`--seeds {text}`: expected A..B with A <= B");
    match text.split_once("..") {
        Some((a, b)) => {
            let (a, b) = (
                a.parse::<u64>().map_err(|_| bad())?,
                b.parse::<u64>().map_err(|_| bad())?,
            );
            if a > b || b - a >= 64 {
                return Err(bad());
            }
            Ok((a..=b).collect())
        }
        None => Ok(vec![text.parse().map_err(|_| bad())?]),
    }
}

/// Runs every workload (or the gated four): end to end once per seed,
/// traced once (first seed). Writes `ledger.json` and concatenates the children's spans.
pub fn run_all(flags: &[(&str, &str)]) -> Result<ExitCode, String> {
    let (mut seeds, mut seconds) = (vec![1u64], 8.0f64);
    let (mut out, mut trace_out) = (PathBuf::from("ledger.json"), None);
    let mut gated_only = false;
    for &(flag, value) in flags {
        match flag {
            "workloads" => {
                gated_only = match value {
                    "all" => false,
                    "gated" => true,
                    _ => return Err(format!("`--workloads {value}`: all or gated")),
                }
            }
            "seed" | "seeds" => seeds = parse_seeds(value)?,
            "seconds" => seconds = value.parse().map_err(|_| format!("`--seconds {value}`"))?,
            "out" => out = PathBuf::from(value),
            "trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `--{flag} {value}`")),
        }
    }
    let trace_out = trace_out.unwrap_or_else(|| out.with_extension("spans.jsonl"));
    let mut spans =
        std::fs::File::create(&trace_out).map_err(|e| format!("{}: {e}", trace_out.display()))?;
    let part = trace_out.with_extension("part");

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        if gated_only && !GATED.contains(name) {
            continue;
        }
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut digests = Vec::new();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for &seed in &seeds {
            let run = child(name, seed, seconds, false, None)?;
            all_correct &= run.result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += run
                .result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += run
                .result
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            digests.push((seed.to_string(), Json::Str(run.digest)));
            for (v, (d, _)) in values.iter_mut().zip(END_TO_END) {
                let x = metric_value(&run.result, d.name)
                    .ok_or_else(|| format!("{name}: no {}", d.name))?;
                v.push(x);
            }
        }
        let traced = child(name, seeds[0], seconds, true, Some(&part))?;
        all_correct &= traced.result.get("correct").and_then(Json::as_bool) == Some(true);
        if let Ok(bytes) = std::fs::read(&part) {
            spans
                .write_all(&bytes)
                .map_err(|e| format!("{}: {e}", trace_out.display()))?;
            let _ = std::fs::remove_file(&part);
        }

        let end_to_end = END_TO_END.iter().zip(&values).map(|((d, bound), v)| {
            (
                d.name,
                Json::obj([
                    ("unit", Json::Str(d.unit.into())),
                    ("better", Json::Str(d.better.as_str().into())),
                    ("bound", Json::Num(*bound)),
                    ("median", Json::Num(median(v))),
                    ("spread", spread(v).map_or(Json::Null, Json::Num)),
                    (
                        "values",
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ]),
            )
        });
        let per_layer = PER_LAYER.iter().map(|d| {
            (
                d.name,
                Json::obj([
                    ("unit", Json::Str(d.unit.into())),
                    ("better", Json::Str(d.better.as_str().into())),
                    (
                        "value",
                        Json::Num(metric_value(&traced.result, d.name).unwrap_or(0.0)),
                    ),
                ]),
            )
        });
        workloads.push((
            *name,
            Json::obj([
                ("why", Json::Str((*why).into())),
                ("input_digests", Json::Obj(digests)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seconds", Json::Num(seconds)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {} and {}", out.display(), trace_out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`, signed so that
/// positive is worse whichever way the metric points. A zero baseline
/// has no share to take: any move in the bad direction is infinitely
/// worse, any other is no change.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / a.abs()
}

/// `unresolved` when either side's own run-to-run spread is wider than
/// the bound (the change cannot be told from noise), `worse` when the
/// median worsened by more than the bound, else `ok`.
pub fn verdict(change: f64, spreads: [Option<f64>; 2], bound: f64) -> Verdict {
    if spreads.iter().flatten().any(|&s| s > bound) {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Median and spread of one end-to-end metric in one ledger file.
fn e2e_stats(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then(|| (median(&values), spread(&values)))
}

/// `ledger compare A.json B.json`: A is the baseline.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two ledger.json files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut counts = [0usize; 3];
    println!(
        "{:<24} {:<13} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        // A file made with `--workloads gated` has four of the eight.
        let has = |doc: &Json| doc.get("workloads").and_then(|w| w.get(workload)).is_some();
        match (has(&a), has(&b)) {
            (false, false) => continue,
            (true, true) => {}
            _ => return Err(format!("{workload}: in one of the files only")),
        }
        for (d, bound) in END_TO_END {
            let (Some((am, asp)), Some((bm, bsp))) = (
                e2e_stats(&a, workload, d.name),
                e2e_stats(&b, workload, d.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from one of the files",
                    d.name
                ));
            };
            let change = worsening(am, bm, d.better);
            let v = verdict(change, [asp, bsp], *bound);
            counts[v as usize] += 1;
            let widest = asp.into_iter().chain(bsp).fold(f64::NAN, f64::max);
            println!(
                "{:<24} {:<13} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}% {:>7.2}%  {}",
                workload,
                format!("{} [{}]", d.name, d.unit),
                am,
                bm,
                100.0 * change,
                100.0 * bound,
                100.0 * widest,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // A failed op may not become more likely.
        let share = |doc: &Json| {
            doc.get("workloads")?
                .get(workload)?
                .get("failed_share")?
                .as_f64()
        };
        let (fa, fb) = (share(&a).unwrap_or(0.0), share(&b).unwrap_or(0.0));
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        counts[v as usize] += 1;
        println!(
            "{:<24} {:<13} {:>14.6} {:>14.6} {:>9} {:>7} {:>8}  {}",
            workload,
            "failed_share",
            fa,
            fb,
            "",
            "0%",
            "",
            if v == Verdict::Ok { "ok" } else { "WORSE" }
        );
        let digests = |doc: &Json| {
            doc.get("workloads")?
                .get(workload)?
                .get("input_digests")
                .cloned()
        };
        if digests(&a) != digests(&b) {
            println!("{workload:<24} note: the two files were fed different inputs (seeds or generators differ)");
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved",
        counts[Verdict::Ok as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(if counts[Verdict::Worse as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Lower), -0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Higher), 0.1);
        assert_eq!(worsening(10.0, 11.0, Better::Higher), -0.1);
    }

    #[test]
    fn zero_baselines_do_not_divide() {
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
        assert_eq!(worsening(0.0, 1.0, Better::Higher), 0.0);
        assert_eq!(verdict(f64::INFINITY, [None, None], 0.1), Verdict::Worse);
    }

    #[test]
    fn verdicts() {
        // Within the bound, quiet runs.
        assert_eq!(verdict(0.05, [Some(0.01), Some(0.02)], 0.1), Verdict::Ok);
        // An improvement is never worse.
        assert_eq!(verdict(-0.5, [Some(0.01), Some(0.02)], 0.1), Verdict::Ok);
        // Beyond the bound.
        assert_eq!(verdict(0.11, [Some(0.01), Some(0.02)], 0.1), Verdict::Worse);
        // Either side noisier than the bound: cannot tell.
        assert_eq!(
            verdict(0.5, [Some(0.01), Some(0.2)], 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(0.0, [Some(0.3), None], 0.1), Verdict::Unresolved);
        // Single runs have no spread; the change alone decides.
        assert_eq!(verdict(0.2, [None, None], 0.1), Verdict::Worse);
    }

    #[test]
    fn seeds_parse_as_a_range_or_one() {
        assert_eq!(parse_seeds("3").unwrap(), vec![3]);
        assert_eq!(parse_seeds("1..4").unwrap(), vec![1, 2, 3, 4]);
        assert!(parse_seeds("4..1").is_err());
        assert!(parse_seeds("x").is_err());
    }

    #[test]
    fn ledger_file_round_trips_into_compare_statistics() {
        let doc = Json::obj([(
            "workloads",
            Json::obj([(
                "serve_cold",
                Json::obj([(
                    "end_to_end",
                    Json::obj([(
                        "op_cpu_ms",
                        Json::obj([(
                            "values",
                            Json::Arr(vec![Json::Num(2.0), Json::Num(4.0), Json::Num(3.0)]),
                        )]),
                    )]),
                )]),
            )]),
        )]);
        let back = Json::parse(&doc.to_string()).unwrap();
        let (med, sp) = e2e_stats(&back, "serve_cold", "op_cpu_ms").unwrap();
        assert_eq!(med, 3.0);
        assert_eq!(sp, Some(2.0 / 3.0));
        assert!(e2e_stats(&back, "serve_cold", "setup_s").is_none());
    }
}
