//! `flexgraph-obs` — epoch telemetry for the FlexGraph runtime.
//!
//! The paper's ADB balancer (§6) fits its cost function to "samples of
//! running logs". This crate is that log: per-stage counters and
//! per-root cost attribution collected during distributed epochs, plus
//! a deterministic JSONL trace writer.
//!
//! # Design
//!
//! * **Thread-local probes.** Instrumented code that has no record of
//!   its own to write into (`engine`, `models`) calls [`record_stage`] /
//!   [`StageTimer`] unconditionally. Those are near-free no-ops unless
//!   the current thread has a probe installed via [`probe_begin`],
//!   harvested as a [`PartitionRecord`] with [`probe_end`]. No function
//!   signatures change and the disabled-path cost is one thread-local
//!   `Option` check (<1% on the dense/scatter baselines, see DESIGN.md
//!   §8). The distributed worker owns its [`PartitionRecord`] and writes
//!   it directly.
//! * **Deterministic traces.** `FLEXGRAPH_TRACE=path` opens a trace
//!   session. Trace records carry *virtual* timestamps (a record
//!   counter) and only deterministic fields — work units, invocation
//!   counts, comm bytes/messages — so same-seed runs emit byte-identical
//!   files for any `FLEXGRAPH_THREADS`. `FLEXGRAPH_TRACE_WALL=1` adds
//!   wall-clock and fault-counter debug fields and forfeits that
//!   guarantee.
//! * **Integer merges.** All counters are `u64` and merging is
//!   field-wise addition, so aggregation across partitions is
//!   order-insensitive (`tests/proptests.rs`).

pub mod record;
pub mod trace;

pub use record::{
    CommCounters, FabricCounters, LatencyHistogram, PageCacheRecord, PartitionRecord, ServeRecord,
    Stage, StageSample, TenantServeRecord, TraceEpoch, LATENCY_BUCKETS,
};
pub use trace::{parse_line, TraceLine, TRACE_VERSION};

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Thread-local probe
// ---------------------------------------------------------------------------

thread_local! {
    static PROBE: RefCell<Option<PartitionRecord>> = const { RefCell::new(None) };
}

/// Installs a fresh probe on the current thread. Subsequent
/// [`record_stage`]-family calls from this thread accumulate into it
/// until [`probe_end`]. Replaces (and discards) any previous probe.
pub fn probe_begin(epoch: u64, partition: u32) {
    PROBE.with(|p| *p.borrow_mut() = Some(PartitionRecord::new(epoch, partition)));
}

/// Removes and returns the current thread's probe, if any.
pub fn probe_end() -> Option<PartitionRecord> {
    PROBE.with(|p| p.borrow_mut().take())
}

/// Whether a probe is installed on this thread.
pub fn probe_active() -> bool {
    PROBE.with(|p| p.borrow().is_some())
}

/// Adds one invocation of `stage` with `work` deterministic work units
/// and `wall_ns` measured nanoseconds. No-op without a probe.
pub fn record_stage(stage: Stage, work: u64, wall_ns: u64) {
    PROBE.with(|p| {
        if let Some(rec) = p.borrow_mut().as_mut() {
            let s = rec.stage_mut(stage);
            s.invocations += 1;
            s.work += work;
            s.wall_ns += wall_ns;
        }
    });
}

/// Scoped stage timer. [`StageTimer::start`] reads the clock only when
/// a probe is installed, so the disabled path costs a thread-local
/// check and nothing else.
pub struct StageTimer {
    stage: Stage,
    started: Option<Instant>,
}

impl StageTimer {
    /// Starts timing `stage` (if this thread has a probe).
    pub fn start(stage: Stage) -> StageTimer {
        let started = if probe_active() {
            Some(Instant::now())
        } else {
            None
        };
        StageTimer { stage, started }
    }

    /// Stops the timer and records one invocation with `work` units.
    pub fn stop(self, work: u64) {
        if let Some(t0) = self.started {
            record_stage(self.stage, work, t0.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Trace session
// ---------------------------------------------------------------------------

struct Session {
    out: Option<BufWriter<File>>,
    wall: bool,
    vt: u64,
}

impl Session {
    fn next_vt(&mut self) -> u64 {
        self.vt += 1;
        self.vt
    }

    fn line(&mut self, s: &str) {
        if let Some(w) = self.out.as_mut() {
            let _ = w.write_all(s.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);
static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH_SEQ: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

fn wall_mode_from_env() -> bool {
    std::env::var("FLEXGRAPH_TRACE_WALL").is_ok_and(|v| v == "1")
}

/// Reads `FLEXGRAPH_TRACE` once per process and opens the trace session
/// it names, if any. Called from [`next_epoch`] so the env path needs
/// no explicit setup call.
fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("FLEXGRAPH_TRACE") {
            if !path.is_empty() {
                let _ = start_trace(&path);
            }
        }
    });
}

/// Opens a trace session writing JSONL to `path`, resetting the epoch
/// counter and virtual clock so trace content is a pure function of the
/// work performed after this call. Replaces any active session.
pub fn start_trace(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    let wall = wall_mode_from_env();
    let mut s = Session {
        out: Some(BufWriter::new(file)),
        wall,
        vt: 0,
    };
    s.line(&trace::render_meta(wall));
    *SESSION.lock().unwrap() = Some(s);
    TRACING.store(true, Ordering::Release);
    EPOCH_SEQ.store(0, Ordering::Release);
    Ok(())
}

/// Flushes and closes the active trace session, if any.
pub fn finish_trace() {
    let mut guard = SESSION.lock().unwrap();
    if let Some(mut s) = guard.take() {
        if let Some(mut w) = s.out.take() {
            let _ = w.flush();
        }
    }
    TRACING.store(false, Ordering::Release);
}

/// Whether a trace session is open.
pub fn trace_active() -> bool {
    TRACING.load(Ordering::Acquire)
}

/// Allocates the next session-relative epoch id. Initializes the env
/// trace path on first call so epoch 0 is the first epoch after session
/// start.
pub fn next_epoch() -> u64 {
    ensure_env_init();
    EPOCH_SEQ.fetch_add(1, Ordering::AcqRel)
}

/// Opens the `FLEXGRAPH_TRACE` session without allocating an epoch —
/// the entry point for trace producers that are not epoch-shaped, like
/// the serving subsystem. Idempotent; a no-op when the variable is
/// unset or a session is already open.
pub fn init_env_trace() {
    ensure_env_init();
}

/// Writes one serving window to the active trace session. No-op when no
/// session is open.
pub fn emit_serve(rec: &ServeRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_serve(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one tenant's serving window to the active trace session as a
/// `tser` line. No-op when no session is open.
pub fn emit_tenant_serve(rec: &TenantServeRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_tenant_serve(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one page-cache window from the paged graph store to the
/// active trace session as a `pgc` line. No-op when no session is open.
pub fn emit_page_cache(rec: &PageCacheRecord) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    let vt = s.next_vt();
    let line = trace::render_page_cache(vt, rec);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Writes one epoch's records to the active trace session (partition
/// records in rank order, then the epoch summary). No-op when no
/// session is open.
pub fn emit_epoch(ep: &TraceEpoch) {
    if !trace_active() {
        return;
    }
    let mut guard = SESSION.lock().unwrap();
    let Some(s) = guard.as_mut() else { return };
    for rec in ep.partitions.values() {
        let vt = s.next_vt();
        let line = trace::render_part(vt, rec, s.wall);
        s.line(&line);
    }
    let vt = s.next_vt();
    let line = trace::render_epoch(vt, ep, s.wall);
    s.line(&line);
    if let Some(w) = s.out.as_mut() {
        let _ = w.flush();
    }
}

/// Test hook: force-reset env initialization state is impossible with
/// `Once`, so tests that need a private session use [`start_trace`] /
/// [`finish_trace`] directly and never rely on `FLEXGRAPH_TRACE`.
pub fn reset_epochs() {
    EPOCH_SEQ.store(0, Ordering::Release);
}

static OVERHEAD_CHECK: OnceLock<()> = OnceLock::new();

/// One-time marker used by benches to assert the disabled path stays
/// branch-only; returns true exactly once per process.
pub fn overhead_marker() -> bool {
    OVERHEAD_CHECK.set(()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_lifecycle() {
        assert!(!probe_active());
        assert!(probe_end().is_none());
        // Disabled-path calls are no-ops.
        record_stage(Stage::Upper, 10, 10);
        assert!(probe_end().is_none());

        probe_begin(4, 2);
        assert!(probe_active());
        record_stage(Stage::Upper, 10, 100);
        record_stage(Stage::Upper, 5, 50);
        let rec = probe_end().expect("probe installed");
        assert!(!probe_active());
        assert_eq!((rec.epoch, rec.partition), (4, 2));
        assert_eq!(rec.stage(Stage::Upper).invocations, 2);
        assert_eq!(rec.stage(Stage::Upper).work, 15);
        assert_eq!(rec.stage(Stage::Upper).wall_ns, 150);
    }

    #[test]
    fn stage_timer_inactive_skips_clock() {
        let t = StageTimer::start(Stage::Update);
        assert!(t.started.is_none());
        t.stop(100); // must not panic or record anywhere
    }

    #[test]
    fn stage_timer_records_when_active() {
        probe_begin(0, 0);
        let t = StageTimer::start(Stage::Update);
        assert!(t.started.is_some());
        t.stop(42);
        let rec = probe_end().unwrap();
        assert_eq!(rec.stage(Stage::Update).invocations, 1);
        assert_eq!(rec.stage(Stage::Update).work, 42);
    }

    #[test]
    fn trace_session_writes_parseable_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("obs_unit_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap();
        start_trace(path_s).unwrap();
        assert!(trace_active());

        let mut ep = TraceEpoch::new(0);
        let mut rec = PartitionRecord::new(0, 0);
        record_stage(Stage::Upper, 1, 1); // no probe on this thread: ignored
        rec.stage_mut(Stage::Upper).invocations = 1;
        rec.stage_mut(Stage::Upper).work = 77;
        ep.absorb(rec);
        emit_epoch(&ep);
        finish_trace();
        assert!(!trace_active());

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // meta + 1 part + epoch
        for l in &lines {
            parse_line(l).unwrap();
        }
        assert!(matches!(parse_line(lines[0]), Ok(TraceLine::Meta { .. })));
        match parse_line(lines[2]).unwrap() {
            TraceLine::Epoch { vt, work, .. } => {
                assert_eq!(vt, 2);
                assert_eq!(work, 77);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
