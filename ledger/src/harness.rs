//! What every workload shares: the `Workload` seam, the end-to-end
//! driver (set-up repetitions, the timed loop, the checks) and the
//! traced driver (counted ops, alternating plain and traced ops, layer
//! table).

use crate::alloc;
use crate::metrics::Metrics;
use crate::span::{Recorder, NO_OP};
use crate::stats::{median, percentile, sorted};
use flexgraph::tensor::set_thread_override;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Input scale: the sizes the benchmark measures, or the tiny fixed
/// sizes the smoke test drives through the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Only the smoke test asks for it.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One run's arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Run exactly this many ops per timed phase instead of running for
    /// `seconds`: the smoke test's verdict must not depend on the clock.
    pub fixed_ops: Option<u64>,
    pub size: Size,
    /// Scratch directory (the out-of-core store file lives here).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// FNV-1a over the generated inputs, so two commits can prove they were
/// fed the same load.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32s(&mut self, v: &[u32]) {
        for x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn usizes(&mut self, v: &[usize]) {
        for &x in v {
            self.bytes(&(x as u64).to_le_bytes());
        }
    }

    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// FNV-1a of a tensor's bits: how ops prove their outputs did not move.
pub fn bits_digest(v: &[f32]) -> u64 {
    let mut h = Fnv::default();
    h.f32s(v);
    h.0
}

/// The kernel pool's size in every run, set with `set_thread_override`
/// whatever `FLEXGRAPH_THREADS` says. One, because on the 2-core
/// reference box a second kernel thread made the training epochs both
/// slower (MAGNN 365 ms against 282 ms) and several times noisier from
/// run to run; with `dist_threaded_k2`'s two fabric workers no run has
/// more than 2 busy threads.
const KERNEL_THREADS: usize = 1;

/// Sets flush-to-zero and denormals-are-zero on the calling thread;
/// threads it starts afterwards inherit them. Every run does, before it
/// builds anything (what `torch.set_flush_denormal(True)` does for a
/// PyTorch program), because a denormal operand costs the core a
/// microcode assist and how many there are is an accident of the
/// values: the GCN's saturated softmax leaves denormal gradients behind
/// for some seeds and not for others, and its epoch read 31.5 to 38.2 ms
/// across seeds 1–10 (spread 15 %) without this, 30.1 to 33.7 ms (6 %)
/// with it. Outputs
/// are compared within one process, so the checks hold either way.
pub fn flush_denormals() {
    #[cfg(target_arch = "x86_64")]
    {
        const FTZ_AND_DAZ: u32 = 0x8040;
        let mut csr = 0u32;
        // SAFETY: reads and writes MXCSR through a valid pointer; only
        // the two flush bits change, and no float code of the ledger
        // depends on gradual underflow.
        unsafe {
            std::arch::asm!("stmxcsr [{p}]", p = in(reg) &mut csr, options(nostack));
            csr |= FTZ_AND_DAZ;
            std::arch::asm!("ldmxcsr [{p}]", p = in(reg) &csr, options(nostack));
        }
    }
}

/// One benchmark workload. `Self` holds the generated inputs; `State`
/// is what set-up builds from them and the ops run against.
pub trait Workload {
    type State;
    /// What one op hands to [`Workload::check`], outside the timer.
    type Out;

    /// Units of work one op completes (requests per window; else 1).
    fn units_per_op(&self) -> u64 {
        1
    }

    /// Feeds the generated inputs to `h`.
    fn digest(&self, st: &Self::State, h: &mut Fnv);

    /// The system work before the first timed op. Calls into layers go
    /// through `rec`, which records nothing in the end-to-end run.
    fn setup(&self, rec: &Recorder) -> Self::State;

    /// The call under test, as a user makes it.
    fn op(&self, st: &mut Self::State, i: u64) -> Self::Out;

    /// The same work as [`Workload::op`] with a span around each call
    /// into a layer's public function.
    fn traced_op(&self, st: &mut Self::State, i: u64, rec: &Recorder) -> Self::Out;

    /// Checks one op's output; an `Err` counts the op as failed.
    fn check(&self, st: &mut Self::State, i: u64, out: Self::Out) -> Result<(), String>;

    /// Checks outputs against their reference once the timed phase is
    /// over.
    fn verify(&self, st: &mut Self::State) -> Result<(), String>;

    /// Checks that the traced ops computed what the plain ops did.
    fn verify_twin(&self, plain: &Self::State, traced: &Self::State) -> Result<(), String>;

    /// Layer probes on the workload's own inputs, and the mapping from
    /// spans to per-layer metrics.
    fn layers(&self, st: &mut Self::State, t: &mut Traced<'_>);
}

/// What the traced run hands a workload's [`Workload::layers`].
pub struct Traced<'a> {
    pub rec: &'a Recorder,
    /// Seconds of each plain (untraced) op of the traced run.
    pub plain_op_s: &'a [f64],
    pub metrics: Metrics,
    /// Seconds per traced op attributed to layers from outside the span
    /// tree (derived from reports and probes), by name.
    pub derived: Vec<(&'static str, f64)>,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub digest: u64,
    /// Failed checks, in words.
    pub errors: Vec<String>,
}

/// Process peak resident set in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// CPU seconds this process has consumed so far, all its threads
/// together (`CLOCK_PROCESS_CPUTIME_ID`). The kernel leaves out of it
/// the time the hypervisor gave the core to another guest and the time
/// other processes ran, so unlike the wall clock it reads the same on a
/// busy host.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for 64-bit Linux, the
    // only platform the ledger runs on (it also reads /proc).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Seconds of one op on both clocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpTime {
    pub wall: f64,
    pub cpu: f64,
}

/// Op times in a bounded buffer: once it is full, every second sample
/// is dropped and the sampling stride doubles, so a workload that
/// completes a million ops touches no more memory than one that
/// completes a hundred thousand — `peak_rss_mb` stays the program's.
struct Samples {
    kept: Vec<OpTime>,
    stride: u64,
    count: u64,
}

impl Samples {
    const CAPACITY: usize = 1 << 16;

    fn new() -> Samples {
        Samples {
            kept: Vec::with_capacity(Self::CAPACITY),
            stride: 1,
            count: 0,
        }
    }

    fn push(&mut self, t: OpTime) {
        if self.kept.len() == Self::CAPACITY {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
        if self.count.is_multiple_of(self.stride) {
            self.kept.push(t);
        }
        self.count += 1;
    }

    fn wall(&self) -> Vec<f64> {
        self.kept.iter().map(|t| t.wall).collect()
    }

    fn cpu(&self) -> Vec<f64> {
        self.kept.iter().map(|t| t.cpu).collect()
    }
}

/// One timed block.
struct Block {
    samples: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Block {
    fn new() -> Block {
        Block {
            samples: Samples::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Runs op `i` once, timed with one pair of readings of each clock,
    /// and checks its output outside the timers. A panic inside the op
    /// counts as a failed op. Returns when the op ended.
    fn time_op<W: Workload>(
        &mut self,
        w: &W,
        st: &mut W::State,
        i: u64,
        run: impl FnOnce(&W, &mut W::State, u64) -> W::Out,
    ) -> Instant {
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let out = catch_unwind(AssertUnwindSafe(|| run(w, st, i)));
        let (c1, t1) = (cpu_seconds(), Instant::now());
        self.samples.push(OpTime {
            wall: (t1 - t0).as_secs_f64(),
            cpu: c1 - c0,
        });
        self.attempted += w.units_per_op();
        let checked = match out {
            Ok(out) => w.check(st, i, out),
            Err(_) => Err("panicked".into()),
        };
        if let Err(e) = checked {
            self.failed += w.units_per_op();
            if self.errors.len() < 8 {
                self.errors.push(format!("op {i}: {e}"));
            }
        }
        t1
    }
}

/// A timed phase runs at least this many ops, however slow they are.
const MIN_OPS: u64 = 3;

impl RunArgs {
    /// Whether a timed phase that has run `ops` ops in `elapsed` seconds
    /// of its `budget` is over.
    fn phase_over(&self, ops: u64, elapsed: f64, budget: f64) -> bool {
        match self.fixed_ops {
            Some(n) => ops >= n,
            None => elapsed >= budget && ops >= MIN_OPS,
        }
    }
}

// The reference box is a 2-core guest of a shared host, and the host
// takes time away from a run in two ways. It hands the core to another
// guest (or another process runs): seconds at a time, a GCN epoch reads
// 35 ms, then 120 ms, on the wall clock. And other guests use up memory
// bandwidth and cache: for a minute at a time every epoch costs 45 or
// 50 ms instead of 38. The timing metrics answer both. They are read
// from the process's CPU clock, which does not run while the core is
// away, and interference only ever adds time, so a run reports the
// quiet tenth of its ops: the first decile, not the median. Eight 30 s
// runs of the GCN epoch beside two neighbours that kept both cores busy
// about half of the time: the wall-clock median spread 17 %, the first
// decile of CPU time 4 %.

/// The time a run reports for an op or for set-up: the first decile of
/// the CPU seconds of the ops or repetitions timed.
fn quiet_s(cpu_seconds: &[f64]) -> f64 {
    percentile(&sorted(cpu_seconds.to_vec()), 10.0)
}

/// Repeats set-up (at least 3 times, then up to 15 while less than 3 s
/// are spent) and returns the last state with the repetitions' first
/// decile of CPU seconds.
fn repeated_setup<W: Workload>(w: &W) -> (W::State, f64) {
    let off = Recorder::new(false);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut st = None;
    while times.len() < 3 || (times.len() < 15 && start.elapsed().as_secs_f64() < 3.0) {
        // One state alive at a time, so repetitions do not raise the peak.
        drop(st.take());
        let c0 = cpu_seconds();
        st = Some(w.setup(&off));
        times.push(cpu_seconds() - c0);
    }
    (st.expect("set-up ran"), quiet_s(&times))
}

/// The end-to-end run: no spans, no counting.
pub fn run_e2e<W: Workload>(w: &W, args: &RunArgs) -> Outcome {
    set_thread_override(Some(KERNEL_THREADS));
    let (mut st, setup_s) = repeated_setup(w);
    let mut h = Fnv::default();
    w.digest(&st, &mut h);

    let mut b = Block::new();
    let start = Instant::now();
    for i in 0.. {
        let now = b.time_op(w, &mut st, i, |w, st, i| w.op(st, i));
        if args.phase_over(i + 1, (now - start).as_secs_f64(), args.seconds) {
            break;
        }
    }
    // Before the checks below build their in-RAM references.
    let rss = peak_rss_mb();

    let mut errors = b.errors;
    if let Err(e) = w.verify(&mut st) {
        errors.push(format!("verify: {e}"));
    }
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("op_cpu_ms", quiet_s(&b.samples.cpu()) * 1e3);
    m.set("peak_rss_mb", rss);
    println!(
        "  {} ops timed, {} unit(s) of work each; op medians: wall {:.6} ms, cpu {:.6} ms; \
         the metrics are first deciles of CPU time (see README)",
        b.samples.count,
        w.units_per_op(),
        median(&b.samples.wall()) * 1e3,
        median(&b.samples.cpu()) * 1e3,
    );
    Outcome {
        correct: errors.is_empty() && b.failed == 0,
        attempted: b.attempted,
        failed: b.failed,
        metrics: m,
        digest: h.0,
        errors,
    }
}

/// Ops run with the allocator counting, on a fresh state, so the counts
/// depend on the seed alone.
const COUNTED_OPS: u64 = 3;

/// Spans are kept in memory, so the traced ops of a run are capped; a
/// workload whose op takes microseconds reaches this long before its
/// time is up, with far more samples than a median needs.
const MAX_TRACED_OPS: u64 = 4096;

/// The traced run: the counted ops, plain and traced ops alternating in
/// one process, then the layer probes.
pub fn run_traced<W: Workload>(w: &W, name: &str, args: &RunArgs, gen_s: f64) -> Outcome {
    set_thread_override(Some(KERNEL_THREADS));
    let rec = Recorder::new(true);
    let off = Recorder::new(false);
    let mut m = Metrics::default();
    m.set("graph.gen_s", gen_s);

    // Two states from the same inputs: one for the call the end-to-end
    // run times, one (its set-up under spans) for the traced twin.
    let mut plain_st = w.setup(&off);
    let mut h = Fnv::default();
    w.digest(&plain_st, &mut h);
    rec.set_op(NO_OP);
    let mut st = rec.span("setup", || w.setup(&rec));

    let mut counted = Block::new();
    alloc::start();
    for i in 0..COUNTED_OPS {
        counted.time_op(w, &mut st, i, |w, st, i| w.op(st, i));
    }
    let counts = alloc::stop();
    m.set(
        "mem.alloc_bytes_per_op",
        counts.bytes as f64 / COUNTED_OPS as f64,
    );
    m.set(
        "mem.alloc_calls_per_op",
        counts.calls as f64 / COUNTED_OPS as f64,
    );
    m.set("mem.peak_live_bytes", counts.peak_live_bytes as f64);

    // Plain and traced ops alternate, so drift in the machine's speed
    // falls on both alike and their difference is the tracing.
    let (mut plain, mut traced) = (Block::new(), Block::new());
    let start = Instant::now();
    for i in 0.. {
        plain.time_op(w, &mut plain_st, i, |w, st, i| w.op(st, i));
        let now = traced.time_op(w, &mut st, COUNTED_OPS + i, |w, st, i| {
            rec.set_op(i as i64);
            let out = rec.span("op", || w.traced_op(st, i, &rec));
            rec.set_op(NO_OP);
            out
        });
        let elapsed = (now - start).as_secs_f64();
        if args.phase_over(i + 1, elapsed, args.seconds * 0.6) || i + 1 >= MAX_TRACED_OPS {
            break;
        }
    }
    let attempted = plain.attempted + counted.attempted + traced.attempted;
    let failed = plain.failed + counted.failed + traced.failed;
    let mut errors = plain.errors;
    errors.extend(counted.errors);
    errors.extend(traced.errors);
    if let Err(e) = w.verify_twin(&plain_st, &st) {
        errors.push(format!("traced ops diverged from plain ops: {e}"));
    }
    drop(plain_st);

    let plain_wall = plain.samples.wall();
    let plain_op = median(&plain_wall);
    let traced_op = median(&traced.samples.wall());
    m.set("obs.plain_op_ms", plain_op * 1e3);
    m.set("obs.traced_op_ms", traced_op * 1e3);
    m.set(
        "obs.trace_overhead_share",
        (traced_op - plain_op) / plain_op,
    );

    let mut t = Traced {
        rec: &rec,
        plain_op_s: &plain_wall,
        metrics: m,
        derived: Vec::new(),
    };
    w.layers(&mut st, &mut t);
    let Traced {
        metrics: mut m,
        derived,
        ..
    } = t;

    // The layer table: span self times per op, then what the workload
    // derived from reports and probes; the remainder is unattributed,
    // so the rows add up to the traced median op by construction.
    let mut rows: Vec<(&str, f64)> = rec
        .op_self_medians()
        .into_iter()
        .filter(|(n, _)| *n != "op")
        .collect();
    rows.extend(derived);
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    let unattributed = traced_op - attributed;
    m.set("obs.unattributed_share", unattributed / traced_op);
    println!(
        "  traced op: median {:.6} s over {} ops (plain {:.6} s over {})",
        traced_op, traced.samples.count, plain_op, plain.samples.count
    );
    for (n, s) in &rows {
        println!(
            "    {:<34} {:>12.6} s  {:>6.2} %",
            n,
            s,
            100.0 * s / traced_op
        );
    }
    println!(
        "    {:<34} {:>12.6} s  {:>6.2} %",
        "(unattributed)",
        unattributed,
        100.0 * unattributed / traced_op
    );

    if let Some(path) = &args.trace_out {
        if let Err(e) = rec.write_jsonl(path, name) {
            errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: m,
        digest: h.0,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_keep_every_stride_th_op() {
        let mut s = Samples::new();
        let n = 5 * Samples::CAPACITY as u64 / 2;
        for i in 0..n {
            s.push(OpTime {
                wall: i as f64,
                cpu: 0.0,
            });
        }
        assert_eq!(s.count, n);
        // Filled twice over: the stride doubled twice.
        assert_eq!(s.stride, 4);
        assert!(s.kept.len() <= Samples::CAPACITY);
        assert!(s
            .kept
            .iter()
            .enumerate()
            .all(|(k, t)| t.wall == (k as u64 * s.stride) as f64));
        assert_eq!(s.kept.len() as u64, n.div_ceil(s.stride));
    }

    #[test]
    fn timing_metrics_read_the_quiet_tenth_of_a_run() {
        // 80 ops of 10 ms; interference doubles 70 of them.
        let mut ops = vec![0.020; 80];
        ops[20..30].iter_mut().for_each(|x| *x = 0.010);
        assert_eq!(quiet_s(&ops), 0.010);
        // Three repetitions: the fastest.
        assert_eq!(quiet_s(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn the_cpu_clock_advances_while_the_process_works() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > c0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
    }
}
