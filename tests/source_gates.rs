//! Names that must stay absent (or stay at one), and public functions
//! that must have a caller outside tests, checked in tier-1 so a
//! violation shows up in `cargo test`, not only after a push.
//!
//! Each row of [`GATES`] is one gate: where to look, the needle, how
//! many occurrences are allowed, and why. Needles match as plain,
//! case-sensitive substrings — stricter than a `grep -w`, which is what
//! an absence gate wants. [`TEST_ONLY_API`] is the other gate's table.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use Count::{Names, Text};
use Keep::{Documented, Fixture, Oracle};

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
    "serving has one precision, f32: one aggregate, one dense head, one serve_one";
const MIN_CUT_ADB: &str = "ADB applies the minimum-cut plan (paper §6); no replication veto";
const EXACT_ADMISSION: &str = "admission prices the exact selection the batch is built from";
const IN_PLACE_OPERANDS: &str =
    "the matmul backward reads its operands in place; the tape keeps no transpose";
const ONE_GRAPH_FORMAT: &str = "FGPS is the one on-disk graph format; graph has no dataset file";
const HDG_SOURCES: &[&str] = &["crates/hdg/src"];
const RANK_ONLY: &str = "the HDG builder is keyed by rank (push_at); it has no by-id push";
const ONE_OPTIMIZER: &str = "Adam is the one optimizer; SGD had no caller outside tests";
const MODELS_SOURCES: &[&str] = &["crates/models/src"];
const ALWAYS_ATTENTION: &str = "every MAGNN runs with attention; the mean fallback went";
const COMM_SOURCES: &[&str] = &["crates/comm"];
const NO_CANCEL: &str = "the event wheel only schedules and pops; nothing cancels";
const NO_TIER: &str = "the paper stops at training; the replicated serving tier is gone";
const SERVE_MANIFEST: &[&str] = &["crates/serve/Cargo.toml"];
const MAGNN: &[&str] = &["crates/models/src/magnn.rs"];
const ONE_POOL_OP: &str =
    "MAGNN's aggregation is one tape op over the HDG's arrays; no group tensor or plan";
const ONE_STRATEGY: &str =
    "SA / SA+FA / HA are one enum, the tape's; the §7 harness trains the models it names";
const ONE_HDG_INDEX: &str =
    "an HDG's arrays and level plans live once, in its HierarchyIndex; a CSC's plans in its index";
const SUM_AND_MEAN: &str = "sum and mean are the reductions the models run; max and min went";
const ONE_WALKER: &str = "one importance walker walks only its roots and writes each list once";

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
    (Text(SOURCES), "transpose_into", 0, IN_PLACE_OPERANDS),
    (Text(SOURCES), "TransposeSlots", 0, IN_PLACE_OPERANDS),
    (Text(SOURCES), "ensure_transpose", 0, IN_PLACE_OPERANDS),
    (Text(SOURCES), "tcache", 0, IN_PLACE_OPERANDS),
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
    // Split so that this file does not hold the names it bans.
    (
        Text(DOCS_AND_SOURCES),
        concat!("Bf16", "Tensor"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("QInt8", "Rows"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("QInt8", "Cols"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("matmul_", "i8"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Feature", "Rows"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Serve", "Feats"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Cache", "Mode"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("QuantConfig::", "Bf16"),
        0,
        ONE_LEAF_STORE,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("QuantConfig::", "Int8"),
        0,
        ONE_LEAF_STORE,
    ),
    // The ledger's one name for `ModelSnapshot::init`: its definition.
    (
        Text(DOCS_AND_SOURCES),
        concat!("init_", "quant"),
        1,
        ONE_LEAF_STORE,
    ),
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
    (Text(SOURCES), "Sgd", 0, ONE_OPTIMIZER),
    (Text(MODELS_SOURCES), ".attention", 0, ALWAYS_ATTENTION),
    (Text(COMM_SOURCES), "EventId", 0, NO_CANCEL),
    // Split so that this file does not hold the names it bans.
    (Text(DOCS_AND_SOURCES), concat!("Rou", "ter"), 0, NO_TIER),
    (Text(DOCS_AND_SOURCES), concat!("run_", "tier"), 0, NO_TIER),
    (Text(DOCS_AND_SOURCES), concat!("Shard", "Map"), 0, NO_TIER),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Tier", "Config"),
        0,
        NO_TIER,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Serve", "Frame"),
        0,
        NO_TIER,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("Tenant", "Serve"),
        0,
        NO_TIER,
    ),
    (Text(SERVE_MANIFEST), "flexgraph-comm", 0, NO_TIER),
    (Text(SERVE_MANIFEST), "bytes", 0, NO_TIER),
    // Split so that this file does not hold the names it bans.
    (
        Text(DOCS_AND_SOURCES),
        concat!("scatter_softmax_", "pool"),
        0,
        ONE_POOL_OP,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("ScatterSoftmax", "Pool"),
        0,
        ONE_POOL_OP,
    ),
    (Text(MAGNN), "group_scatter_plan", 0, ONE_POOL_OP),
    (Text(SOURCES), "enum Strategy", 1, ONE_STRATEGY),
    // Split so that this file does not hold the names it bans.
    (
        Text(DOCS_AND_SOURCES),
        concat!("Attn", "Softmax"),
        0,
        ONE_STRATEGY,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("strategy_", "transients"),
        0,
        ONE_STRATEGY,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("direct_", "aggregate"),
        0,
        ONE_STRATEGY,
    ),
    // Split so that this file does not hold the names it bans.
    (
        Text(DOCS_AND_SOURCES),
        concat!("leaf_scatter", "_plan"),
        0,
        ONE_HDG_INDEX,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("root_scatter", "_plan"),
        0,
        ONE_HDG_INDEX,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("leaf", "_coo"),
        0,
        ONE_HDG_INDEX,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("in_scatter", "_plan"),
        0,
        ONE_HDG_INDEX,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("coo", "_in"),
        0,
        ONE_HDG_INDEX,
    ),
    (Text(HDG_SOURCES), "OnceLock", 0, ONE_HDG_INDEX),
    (
        Text(DOCS_AND_SOURCES),
        concat!("scatter", "_max"),
        0,
        SUM_AND_MEAN,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("scatter", "_min"),
        0,
        SUM_AND_MEAN,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("max", "_assign"),
        0,
        SUM_AND_MEAN,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("min", "_assign"),
        0,
        SUM_AND_MEAN,
    ),
    (
        Text(DOCS_AND_SOURCES),
        concat!("importance_", "neighbors("),
        0,
        ONE_WALKER,
    ),
];

/// Why a `pub fn` that no code outside tests names stays public.
enum Keep {
    /// A reference implementation a test compares production against.
    Oracle,
    /// A fixture or hook that tests in another module or crate need.
    Fixture,
    /// User API that README or DESIGN documents.
    Documented,
}

/// Every `pub fn` under `crates/*/src` that no non-test code names:
/// `(file, function, kind, detail)`. The gate fails on a function that
/// is missing here and on a row whose function has since found a caller
/// or gone, so the table is exactly the public surface only tests reach.
#[rustfmt::skip]
const TEST_ONLY_API: &[(&str, &str, Keep, &str)] = &[
    ("crates/core/src/ft.rs", "train_with_recovery", Documented, "README's recovery loop"),
    ("crates/dist/src/shard.rs", "make_shards_paged", Documented, "README's out-of-core shards"),
    ("crates/engine/src/memory.rs", "mib", Documented, "README's PagedGraph example"),
    ("crates/bench/src/lib.rs", "section", Fixture, "paper.rs's shape assertions"),
    ("crates/bench/src/lib.rs", "column", Fixture, "paper.rs's shape assertions"),
    ("crates/graph/src/gen.rs", "split_masks", Fixture, "end_to_end_training's split"),
    ("crates/graph/src/csr.rs", "in_degree", Oracle, "direct selection's instance count"),
    ("crates/graph/src/csr.rs", "graph_from_edges", Fixture, "small literal graphs"),
    ("crates/graph/src/hetero.rs", "sample_typed_graph", Fixture, "Figure 2's typing"),
    ("crates/graph/src/metapath.rs", "paper_metapaths", Fixture, "Figure 2c's metapaths"),
    ("crates/graph/src/bfs.rs", "hop_distances", Oracle, "the hop-shell walk's BFS"),
    ("crates/graph/src/walk.rs", "visit_counts", Oracle, "the importance walker's counts"),
    ("crates/hdg/src/storage.rs", "root_ids", Fixture, "builder_oracle's root order"),
    ("crates/hdg/src/storage.rs", "leaves_of_root", Fixture, "the ADB tests' cost proxy"),
    ("crates/hdg/src/storage.rs", "dependency_leaves", Oracle, "robustness's leaf closure"),
    ("crates/models/src/train.rs", "epoch_masked", Documented, "DESIGN's memo parity contract"),
    ("crates/models/src/train.rs", "evaluate", Documented, "DESIGN's memo parity contract"),
    ("crates/models/src/pinsage.rs", "selection_arrays", Fixture, "golden_forward's snapshot"),
    ("crates/models/src/jknet.rs", "selection_arrays", Fixture, "golden_forward's shells"),
    ("crates/models/src/golden.rs", "graph_a", Fixture, "golden forward inputs"),
    ("crates/models/src/golden.rs", "graph_cycle", Fixture, "golden forward inputs"),
    ("crates/models/src/golden.rs", "gcn_weights", Fixture, "golden forward inputs"),
    ("crates/models/src/golden.rs", "concat_weights", Fixture, "golden forward inputs"),
    ("crates/models/src/golden.rs", "run_forward", Fixture, "golden forward runner"),
    ("crates/obs/src/record.rs", "add_root_cost", Fixture, "golden_lines' hand-built records"),
    ("crates/obs/src/record.rs", "num_attributed_roots", Fixture, "trace_snapshot's count"),
    ("crates/obs/src/lib.rs", "reset_epochs", Fixture, "det_sim's epoch ids from zero"),
    ("crates/serve/src/server.rs", "emit_trace_window", Fixture, "trace_snapshot's stream"),
    ("crates/store/src/paged.rs", "drop_cache", Fixture, "paged_store_parity's cold reads"),
    ("crates/store/src/file.rs", "write_graph", Fixture, "the FGPS files paged tests open"),
    ("crates/store/src/ooc.rs", "paged_hop_shells", Fixture, "paged_store_parity's walk"),
    ("crates/store/src/ooc.rs", "hdg_from_direct_neighbors", Fixture, "paged_store_parity"),
    ("crates/store/src/ooc.rs", "hdg_from_hop_shells_capped", Fixture, "paged_store_parity"),
    ("crates/tensor/src/par.rs", "pool_worker_count", Fixture, "pool_lifecycle's count"),
    ("crates/tensor/src/autograd.rs", "mean_all", Fixture, "every gradient check's loss"),
    ("crates/tensor/src/autograd.rs", "grad", Fixture, "every gradient check's gradient"),
    ("crates/tensor/src/optim.rs", "grad", Fixture, "strategy_bits' gradient bits"),
    ("crates/tensor/src/simd.rs", "backend", Fixture, "simd_parity's backend report"),
    ("crates/tensor/src/fusion.rs", "segment_reduce_serial", Oracle, "fused segment sum parity"),
    ("crates/tensor/src/scatter.rs", "scatter_mean_serial", Oracle, "planned scatter parity"),
    ("crates/tensor/src/scatter.rs", "scatter_softmax_serial", Oracle, "planned scatter parity"),
    ("crates/tensor/src/scatter.rs", "gather_rows_serial", Oracle, "parallel gather parity"),
    ("crates/tensor/src/tensor.rs", "from_rows", Fixture, "literal tensors"),
    ("crates/tensor/src/tensor.rs", "max_abs_diff", Fixture, "every tolerance check's distance"),
    ("crates/tensor/src/tensor.rs", "matmul_naive", Oracle, "tiled matmul parity"),
    ("crates/tensor/src/tensor.rs", "transpose_naive", Oracle, "transposed-layout matmul parity"),
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

/// The part of a source file before its test module.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let next_is_mod = lines
            .peek()
            .is_some_and(|l| l.trim_start().starts_with("mod "));
        if line.trim_end() == "#[cfg(test)]" && next_is_mod {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// The name of the function a `pub fn` line defines.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Adds every identifier `text` calls (`name(`, `name::<`) or names as
/// a path (`owner::name`, called or passed as a value), outside
/// comments, `use` statements and `fn` definitions. A local, a field or
/// a word in a string that shares a function's name is no caller.
fn names_in(text: &str, names: &mut HashSet<String>) {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut in_use = false;
    for line in text.lines() {
        let code = line.split("//").next().unwrap_or("").trim();
        let starts_use = ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|p| code.starts_with(p));
        if in_use || starts_use {
            in_use = !code.ends_with(';');
            continue;
        }
        let (mut rest, mut after_fn) = (code, false);
        while let Some(start) = rest.find(is_ident) {
            let len = rest[start..]
                .find(|c| !is_ident(c))
                .unwrap_or(rest.len() - start);
            let (before, word, after) = (
                &rest[..start],
                &rest[start..start + len],
                &rest[start + len..],
            );
            let named =
                after.starts_with('(') || after.starts_with("::<") || before.ends_with("::");
            if named && !after_fn {
                names.insert(word.to_string());
            }
            after_fn = word == "fn";
            rest = after;
        }
    }
}

#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rs = |dirs: &[PathBuf]| {
        let mut all = Vec::new();
        for d in dirs {
            files(d, &mut all);
        }
        all.retain(|f| f.extension().is_some_and(|e| e == "rs"));
        all
    };
    let crate_srcs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|krate| krate.unwrap().path().join("src"))
        .collect();
    let sources = rs(&crate_srcs);
    let read = |f: &PathBuf| std::fs::read_to_string(f).unwrap();

    let mut named = HashSet::new();
    for f in &sources {
        names_in(non_test(&read(f)), &mut named);
    }
    for f in rs(&[root.join("examples"), root.join("ledger/src")]) {
        names_in(&read(&f), &mut named);
    }

    let mut unnamed = HashSet::new();
    for f in &sources {
        let rel = f.strip_prefix(&root).unwrap().to_string_lossy();
        for name in non_test(&read(f)).lines().filter_map(pub_fn_name) {
            if !named.contains(name) {
                unnamed.insert((rel.to_string(), name.to_string()));
            }
        }
    }
    let listed: HashSet<(String, String)> = TEST_ONLY_API
        .iter()
        .map(|(file, name, _, _)| (file.to_string(), name.to_string()))
        .collect();
    let mut failures: Vec<String> = unnamed
        .difference(&listed)
        .map(|(file, name)| format!("{file}: `{name}` has no caller outside tests"))
        .chain(
            listed
                .difference(&unnamed)
                .map(|(file, name)| format!("{file}: `{name}` has a caller now: drop its row")),
        )
        .collect();
    failures.sort();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The longest CHANGES.md entry [`the_newest_changes_entry_keeps_the_short_form`] allows,
/// in lines and in columns.
const ENTRY_LINES: usize = 12;
const ENTRY_COLUMNS: usize = 130;

/// CHANGES.md's newest entry — from the last line that opens with `PR `
/// to the end of the file — keeps the form of PRs 31–35: a `PR <n>:
/// [<archetype>]` header and at most [`ENTRY_LINES`] lines of at most
/// [`ENTRY_COLUMNS`] characters. Older entries are not checked.
#[test]
fn the_newest_changes_entry_keeps_the_short_form() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap();
    let lines: Vec<&str> = changes.lines().collect();
    let start = lines
        .iter()
        .rposition(|l| l.starts_with("PR "))
        .expect("a PR entry");
    let entry = &lines[start..];
    let header = entry[0].strip_prefix("PR ").unwrap();
    let (number, rest) = header.split_once(": [").expect("`PR <n>: [<archetype>]`");
    assert!(number.chars().all(|c| c.is_ascii_digit()), "{}", entry[0]);
    assert!(rest.contains("] "), "{}", entry[0]);
    assert!(entry.len() <= ENTRY_LINES, "{} lines", entry.len());
    for line in entry {
        let width = line.chars().count();
        assert!(width <= ENTRY_COLUMNS, "{width} columns: {line}");
    }
}

/// README's install section lists the vendored crates; the list must be
/// exactly `third_party/`'s directories, no more and no fewer.
#[test]
fn readme_names_exactly_the_vendored_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let marker = "vendored crates (";
    let start = readme
        .find(marker)
        .expect("README lists its vendored crates")
        + marker.len();
    let list = &readme[start..start + readme[start..].find(')').unwrap()];
    let mut named: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
    named.sort_unstable();
    let mut vendored: Vec<String> = std::fs::read_dir(root.join("third_party"))
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    vendored.sort_unstable();
    assert_eq!(named, vendored, "README's vendored-crate list");
}
