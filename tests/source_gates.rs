//! Names that must stay absent (or stay at one), checked in tier-1 so a
//! violation shows up in `cargo test`, not only after a push.
//!
//! Each row of [`GATES`] is one gate: where to look, the needle, how
//! many occurrences are allowed, and why. Needles match as plain,
//! case-sensitive substrings — stricter than a `grep -w`, which is what
//! an absence gate wants.

use std::path::{Path, PathBuf};
use Count::{Names, Text};

/// Where a gate counts its needle.
enum Count {
    /// In the text of these files; a directory stands for every file
    /// under it.
    Text(&'static [&'static str]),
    /// In the names of this directory's own entries.
    Names(&'static str),
}

const FABRIC: &[&str] = &["crates/comm/src/fabric.rs"];
const SOURCES: &[&str] = &["crates"];
const DOCS_AND_SOURCES: &[&str] = &[
    "crates",
    "tests",
    "examples",
    ".github",
    ".claude",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
];
const ONE_WAIT: &str = "the fabric's one wait is its receive patience";
const NO_SLEEP: &str = "wire time is modelled on the virtual cluster; nothing under crates/ sleeps";
const FAULT_FREE_FABRIC: &str = "faults live on the virtual cluster; the fabric is a plain mesh";
const ONE_INJECTOR: &str = "one fault injector (the virtual cluster); no chaos setter, no sleeps";
const NO_MUTEX: &str = "parking_lot's one user was the fabric's chaos mutex";
const NO_ACKS: &str = "the fabric runs no ack/retransmit protocol";
const NO_PROBE: &str = "records are written by their owners; the probe went in PR 20";
const ONE_BENCH: &str = "the ledger is the one benchmark; the legacy bins went in PR 25";
const CHANNEL_FREE: &[&str] = &[
    "crates/tensor/Cargo.toml",
    "crates/graph/Cargo.toml",
    "crates/engine/Cargo.toml",
];
const NO_CROSSBEAM: &str = "only comm, dist and core use crossbeam; tensor::par has its own pool";
const MANIFESTS_AND_SOURCES: &[&str] = &["Cargo.toml", "crates"];
const ONE_TIMER: &str = "the ledger is the one timing system; criterion is gone";
const BENCH: &[&str] = &["crates/bench"];
const VIRTUAL_TABLES: &str =
    "the paper tables run on the virtual runtime, the same at any FLEXGRAPH_THREADS";
const DIST_SOURCES: &[&str] = &["crates/dist/src"];
const BULK_ROOT_COSTS: &str = "a worker builds its per-root cost map in one set_root_costs call";
const ONE_LEAF_STORE: &str =
    "serving precision is the leaf store's type: one aggregate, one dense head, one serve_one";
const MIN_CUT_ADB: &str = "ADB applies the minimum-cut plan (paper §6); no replication veto";
const EXACT_ADMISSION: &str = "admission prices the exact selection the batch is built from";
const ONE_GRAPH_FORMAT: &str = "FGPS is the one on-disk graph format; graph has no dataset file";
const HDG_SOURCES: &[&str] = &["crates/hdg/src"];
const RANK_ONLY: &str = "the HDG builder is keyed by rank (push_at); it has no by-id push";

const GATES: &[(Count, &str, usize, &str)] = &[
    (Text(SOURCES), "thread::sleep", 0, NO_SLEEP),
    (Text(FABRIC), "recv_timeout(", 1, ONE_WAIT),
    (Text(FABRIC), "ChaosSchedule", 0, FAULT_FREE_FABRIC),
    (Text(FABRIC), "LinkRecv", 0, FAULT_FREE_FABRIC),
    (
        Text(DOCS_AND_SOURCES),
        // Split so that this file does not hold the names it bans.
        concat!("set_", "chaos"),
        0,
        ONE_INJECTOR,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("simulate_", "delay"),
        0,
        ONE_INJECTOR,
    ),
    (Text(MANIFESTS_AND_SOURCES), "parking_lot", 0, NO_MUTEX),
    (Names("third_party"), "parking_lot", 0, NO_MUTEX),
    (Text(FABRIC), "Ack", 0, NO_ACKS),
    (Text(FABRIC), "Unacked", 0, NO_ACKS),
    (Text(SOURCES), "probe_begin", 0, NO_PROBE),
    (Text(SOURCES), "StageTimer", 0, NO_PROBE),
    (Text(SOURCES), "record_stage", 0, NO_PROBE),
    (Text(SOURCES), "StatsSnapshot", 0, NO_PROBE),
    (Names("."), "BENCH_", 0, ONE_BENCH),
    (
        Text(DOCS_AND_SOURCES),
        // Split so that this file does not hold the name it bans.
        concat!("FLEXGRAPH_BENCH_", "STRICT"),
        0,
        ONE_BENCH,
    ),
    (Text(CHANNEL_FREE), "crossbeam", 0, NO_CROSSBEAM),
    (Names("third_party"), "criterion", 0, ONE_TIMER),
    (Text(MANIFESTS_AND_SOURCES), "criterion", 0, ONE_TIMER),
    (
        Text(DOCS_AND_SOURCES),
        concat!("cargo ", "bench"),
        0,
        ONE_TIMER,
    ),
    (Text(BENCH), "distributed_epoch", 0, VIRTUAL_TABLES),
    (Text(BENCH), "set_var(", 0, VIRTUAL_TABLES),
    (Text(DIST_SOURCES), "add_root_cost(", 0, BULK_ROOT_COSTS),
    (Text(SOURCES), "matmul_bf16", 0, ONE_LEAF_STORE),
    (
        Text(SOURCES),
        "hierarchical_aggregate_quant",
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(SOURCES),
        "aggregate_roots_preadmitted",
        0,
        ONE_LEAF_STORE,
    ),
    (Text(SOURCES), "aggregate_roots_quant", 0, ONE_LEAF_STORE),
    (Text(SOURCES), "serve_one_quant", 0, ONE_LEAF_STORE),
    (Text(SOURCES), "dense_head_quant", 0, ONE_LEAF_STORE),
    (Text(SOURCES), "max_replication_growth", 0, MIN_CUT_ADB),
    (Text(SOURCES), "HyperLogLog", 0, EXACT_ADMISSION),
    (Text(SOURCES), "ReachSketches", 0, EXACT_ADMISSION),
    (Text(SOURCES), "AdmissionPlanner", 0, EXACT_ADMISSION),
    (Text(SOURCES), "planned_admission_bytes", 0, EXACT_ADMISSION),
    (Text(SOURCES), "tick_all", 0, EXACT_ADMISSION),
    (
        Text(DOCS_AND_SOURCES),
        concat!("FG", "DS"),
        0,
        ONE_GRAPH_FORMAT,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("io_", "corruption"),
        0,
        ONE_GRAPH_FORMAT,
    ),
    (
        Names("crates/graph/src"),
        concat!("io", ".rs"),
        0,
        ONE_GRAPH_FORMAT,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Neighbor", "Record"),
        0,
        RANK_ONLY,
    ),
    (Text(HDG_SOURCES), concat!("rank", "_of"), 0, RANK_ONLY),
];

/// Every file under `path` (or `path` itself).
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).unwrap() {
            files(&entry.unwrap().path(), out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

#[test]
fn every_source_gate_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut failures = Vec::new();
    for (count, needle, allowed, why) in GATES {
        // (occurrences, where they are)
        let mut found = (0, Vec::new());
        match count {
            Text(paths) => {
                let mut all = Vec::new();
                for p in *paths {
                    files(&root.join(p), &mut all);
                }
                for f in all {
                    // A binary file holds no name.
                    let Ok(text) = std::fs::read_to_string(&f) else {
                        continue;
                    };
                    let n = text.matches(needle).count();
                    if n > 0 {
                        found.0 += n;
                        let rel = f.strip_prefix(&root).unwrap_or(&f);
                        found.1.push(format!("{} ({n})", rel.display()));
                    }
                }
            }
            Names(dir) => {
                for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                    let name = entry.unwrap().file_name();
                    if name.to_string_lossy().contains(needle) {
                        found.0 += 1;
                        found.1.push(name.to_string_lossy().into_owned());
                    }
                }
            }
        }
        if found.0 != *allowed {
            failures.push(format!(
                "`{needle}`: {} found, {allowed} allowed ({why}) — in {}",
                found.0,
                found.1.join(", ")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
