//! Persistent worker-pool data parallelism.
//!
//! FlexGraph's feature-fusion kernels are embarrassingly parallel over
//! destination vertices, and its dense update stage is parallel over row
//! blocks. The paper runs both inside long-lived libgrape-lite worker
//! threads; the seed implementation here instead spawned fresh crossbeam
//! scoped threads on *every* kernel call, which the serial-vs-planned
//! scatter timings showed costing more than the parallelism recovered at
//! medium scales.
//!
//! This module now owns a process-wide, lazily-initialized pool of worker
//! threads parked on a condvar. A kernel call packages its work as a set
//! of disjoint chunks; workers (plus the calling thread, which always
//! participates) claim chunk indices from an atomic counter and run them.
//! Chunk *boundaries* are computed exactly as the seed did — `ceil(n /
//! threads)`-sized runs in ascending order — and chunk *contents* never
//! depend on which thread executes them, so every kernel stays
//! bitwise-deterministic for any `FLEXGRAPH_THREADS` (the PR-1
//! invariant). No hot-path call pays thread-spawn cost again: workers are
//! spawned once, high-water-marked by the largest thread count ever
//! requested, and parked between jobs.
//!
//! Nested or concurrent dispatches degrade gracefully: a `parallel_for`
//! issued from inside a pool job (either on a worker or on a thread that
//! is currently dispatching) runs its chunks inline on the caller, which
//! is equivalent by the chunk-invariance contract and cannot deadlock.

use crate::tensor::Tensor;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide thread-count override; 0 means "use the environment".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count of all parallel kernels at runtime
/// (`Some(n)` forces `n`, `None` restores the `FLEXGRAPH_THREADS` /
/// auto-detected default).
///
/// Exists so tests and benches can sweep thread counts within one
/// process — the environment variable is latched once. Changing the
/// count mid-flight is harmless by construction: every kernel is
/// bitwise-deterministic in the thread count. Raising the count grows
/// the worker pool (once); lowering it simply leaves extra workers
/// parked.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Number of compute threads used by parallel kernels.
///
/// Defaults to the machine's available parallelism, capped at 16 (the
/// paper's per-machine worker count is far larger, but our graphs are
/// laptop-scale and oversubscription hurts). Override with the
/// `FLEXGRAPH_THREADS` environment variable, or per-process with
/// [`set_thread_override`].
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(s) = std::env::var("FLEXGRAPH_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(16))
            .unwrap_or(4)
    })
}

// ---------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------

/// One dispatched job. Participants claim chunk indices from `next`
/// until exhausted; the dispatcher blocks until `done == chunks`, so the
/// type-erased `task` pointer is never dereferenced after the borrow it
/// was created from ends.
struct Job {
    /// The chunk runner, lifetime-erased. Valid until the dispatcher's
    /// `wait` returns; never called after `next` exceeds `chunks`.
    task: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
    /// Mutex+condvar pair signalling `done == chunks` to the dispatcher.
    fin: Mutex<()>,
    fin_cv: Condvar,
}

// SAFETY: `task` points at a `Sync` closure that outlives the job's
// execution (the dispatcher blocks until every chunk completes before
// returning), and all other fields are atomics or sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until the counter is exhausted. Called by
    /// the dispatcher and by any woken worker; extra participants that
    /// find no chunks left return immediately.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: the dispatcher cannot return (and invalidate the
            // borrow behind `task`) until `done` reaches `chunks`, which
            // requires this chunk to finish first.
            let task = unsafe { &*self.task };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
                // Last chunk: wake the dispatcher. Taking the lock
                // orders this notify against the dispatcher's re-check,
                // so the wakeup cannot be lost.
                let _g = lock(&self.fin);
                self.fin_cv.notify_all();
            }
        }
    }

    /// Blocks until every chunk has run.
    fn wait(&self) {
        let mut g = lock(&self.fin);
        while self.done.load(Ordering::Acquire) < self.chunks {
            g = self
                .fin_cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The job slot workers watch: a sequence number bumped per dispatch
/// plus the current job. Workers sleep until the sequence moves.
struct JobSlot {
    seq: u64,
    job: Option<Arc<Job>>,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    /// Number of spawned workers (high-water mark; workers are never
    /// torn down, parked workers cost nothing).
    workers: Mutex<usize>,
    /// Serializes dispatches: one job owns the pool at a time.
    dispatch: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool workers always, and on a dispatching thread for the
    /// duration of its dispatch: any parallel call made from such a
    /// thread runs inline instead of re-entering the pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Pool {
    fn new() -> Self {
        Pool {
            shared: Arc::new(PoolShared {
                slot: Mutex::new(JobSlot { seq: 0, job: None }),
                work_cv: Condvar::new(),
            }),
            workers: Mutex::new(0),
            dispatch: Mutex::new(()),
        }
    }

    /// Grows the pool to at least `want` workers. Never shrinks.
    fn ensure_workers(&self, want: usize) {
        let mut count = lock(&self.workers);
        while *count < want {
            let shared = Arc::clone(&self.shared);
            // Record the current sequence before the worker exists so a
            // job published immediately after is still observed.
            let seen = lock(&shared.slot).seq;
            std::thread::Builder::new()
                .name(format!("flexgraph-pool-{}", *count))
                .spawn(move || worker_loop(&shared, seen))
                .expect("spawn pool worker");
            *count += 1;
        }
    }
}

fn worker_loop(shared: &PoolShared, mut seen: u64) {
    IN_POOL.with(|f| f.set(true));
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            while slot.seq == seen {
                slot = shared
                    .work_cv
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            seen = slot.seq;
            slot.job.clone()
        };
        if let Some(job) = job {
            job.participate();
        }
    }
}

/// Number of live pool worker threads (the high-water mark of
/// `num_threads() - 1` over all dispatches so far). Exposed for the
/// pool-lifecycle tests; 0 until the first parallel dispatch.
pub fn pool_worker_count() -> usize {
    POOL.get().map_or(0, |p| *lock(&p.workers))
}

/// Erases the borrow lifetime of a chunk-runner reference so it can sit
/// in the shared [`Job`]. Sound because the dispatcher blocks until all
/// chunks complete before the borrow ends.
fn erase<'a>(task: &'a (dyn Fn(usize) + Sync)) -> *const (dyn Fn(usize) + Sync) {
    // SAFETY: fat-pointer layout is identical; only the lifetime changes.
    unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
    }
}

/// Runs `task(i)` for every `i in 0..chunks`, distributing chunks over
/// the persistent pool plus the calling thread. Falls back to inline
/// serial execution when there is a single chunk, when called from
/// inside a pool job, or when another thread is mid-dispatch — all
/// equivalent by the chunk-invariance contract.
pub(crate) fn pool_run(chunks: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    if chunks <= 1 || IN_POOL.with(Cell::get) {
        for i in 0..chunks {
            task(i);
        }
        return;
    }
    let pool = POOL.get_or_init(Pool::new);
    let _dispatch = match pool.dispatch.try_lock() {
        Ok(g) => g,
        // A prior dispatch unwound while holding the lock (job panic,
        // re-raised below); the pool itself is still consistent.
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            // Pool busy with a concurrent dispatch (e.g. two test
            // threads); run inline rather than queueing.
            for i in 0..chunks {
                task(i);
            }
            return;
        }
    };
    pool.ensure_workers(threads.saturating_sub(1).min(chunks - 1));
    let job = Arc::new(Job {
        task: erase(task),
        chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        fin: Mutex::new(()),
        fin_cv: Condvar::new(),
    });
    {
        let mut slot = lock(&pool.shared.slot);
        slot.seq += 1;
        slot.job = Some(Arc::clone(&job));
    }
    pool.shared.work_cv.notify_all();
    // The dispatcher is a participant too; mark it so nested parallel
    // calls from inside `task` run inline instead of self-deadlocking
    // on the dispatch lock.
    IN_POOL.with(|f| f.set(true));
    job.participate();
    IN_POOL.with(|f| f.set(false));
    job.wait();
    // Drop the slot's reference so the job (and its dangling task
    // pointer) does not linger until the next dispatch.
    lock(&pool.shared.slot).job = None;
    if job.panicked.load(Ordering::Relaxed) {
        panic!("parallel worker panicked");
    }
}

/// A raw pointer that may cross thread boundaries; used to hand each
/// pool participant its *disjoint* sub-slice of an output buffer.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr(*mut f32);

// SAFETY: callers only ever touch disjoint regions behind the pointer.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    pub(crate) fn new(p: *mut f32) -> Self {
        SendPtr(p)
    }

    /// By-value accessor: closures calling this capture the whole
    /// `Sync` wrapper rather than (via precise field capture) the raw
    /// pointer inside it.
    pub(crate) fn get(self) -> *mut f32 {
        self.0
    }
}

/// Runs `body(first_row, chunk)` over disjoint row chunks of `out`.
///
/// `out` is treated as `n_rows` logical rows of `row_width` elements; each
/// chunk is a maximal run of whole rows, sized `ceil(n_rows / threads)`
/// exactly as the seed's scoped-thread splitter did. Falls back to a
/// single serial call when the work is small, so tiny tensors do not pay
/// even the (cheap) pool-dispatch cost.
pub fn parallel_for<F>(n_rows: usize, out: &mut [f32], row_width: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let no_scratch = &mut Tensor::zeros(num_threads(), 0);
    parallel_for_scratch(n_rows, out, row_width, no_scratch, |r0, chunk, _| {
        body(r0, chunk)
    });
}

/// [`parallel_for`] that also lends each chunk its own row of `scratch`,
/// so it runs no more chunks than `scratch` has rows.
pub(crate) fn parallel_for_scratch<F>(
    n_rows: usize,
    out: &mut [f32],
    row_width: usize,
    scratch: &mut Tensor,
    body: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), n_rows * row_width);
    let (slots, width) = scratch.shape();
    let threads = num_threads().min(slots);
    // Small-work cutoff: measured crossover for dispatch overhead.
    if threads <= 1 || n_rows * row_width < 16 * 1024 {
        body(0, out, &mut scratch.data_mut()[..width]);
        return;
    }
    let rows_per = n_rows.div_ceil(threads);
    let chunks = n_rows.div_ceil(rows_per);
    let base = SendPtr::new(out.as_mut_ptr());
    let lent = SendPtr::new(scratch.data_mut().as_mut_ptr());
    let total = out.len();
    let body = &body;
    pool_run(chunks, threads, &move |i| {
        let start = i * rows_per * row_width;
        let take = (rows_per * row_width).min(total - start);
        // SAFETY: chunk `i` covers elements `start..start + take` of
        // `out` and row `i` of `scratch`: disjoint, and in bounds as
        // `chunks ≤ threads ≤ slots`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), take) };
        let slot = unsafe { std::slice::from_raw_parts_mut(lent.get().add(i * width), width) };
        body(i * rows_per, chunk, slot);
    });
}

/// Runs `body(range)` for disjoint index sub-ranges of `0..n` in parallel,
/// for kernels that only read shared state and write through interior
/// mutability or return values through their own channel.
pub fn parallel_ranges<F>(n: usize, min_grain: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let threads = num_threads();
    if threads <= 1 || n <= min_grain {
        body(0..n);
        return;
    }
    let per = n.div_ceil(threads).max(min_grain);
    let chunks = n.div_ceil(per);
    let body = &body;
    pool_run(chunks, threads, &|i| {
        let start = i * per;
        body(start..(start + per).min(n));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_row_exactly_once() {
        let rows = 1000;
        let width = 32;
        let mut out = vec![0.0f32; rows * width];
        parallel_for(rows, &mut out, width, |r0, chunk| {
            for (i, row) in chunk.chunks_mut(width).enumerate() {
                for x in row.iter_mut() {
                    *x += (r0 + i) as f32;
                }
            }
        });
        for r in 0..rows {
            assert!(out[r * width..(r + 1) * width]
                .iter()
                .all(|&x| x == r as f32));
        }
    }

    #[test]
    fn serial_fallback_for_small_work() {
        let mut out = vec![0.0f32; 8];
        parallel_for(2, &mut out, 4, |r0, chunk| {
            assert_eq!(r0, 0);
            assert_eq!(chunk.len(), 8);
        });
    }

    #[test]
    fn ranges_partition_the_domain() {
        let n = 100_001;
        let count = AtomicUsize::new(0);
        parallel_ranges(n, 1, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
    }

    #[test]
    fn ranges_respect_min_grain_serially() {
        let calls = AtomicUsize::new(0);
        parallel_ranges(10, 100, |r| {
            assert_eq!(r, 0..10);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    /// Serializes tests that force a thread count (the override is
    /// process-global). Safe to race with non-forcing tests: every
    /// kernel is thread-count-invariant by contract.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_forced_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = FORCE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_thread_override(Some(n));
        let r = f();
        set_thread_override(None);
        r
    }

    #[test]
    fn pool_path_covers_every_row_exactly_once() {
        // Force multiple threads so the pool genuinely dispatches even
        // on a single-core host.
        with_forced_threads(4, || {
            let rows = 1000;
            let width = 32;
            let mut out = vec![0.0f32; rows * width];
            parallel_for(rows, &mut out, width, |r0, chunk| {
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    for x in row.iter_mut() {
                        *x += (r0 + i) as f32;
                    }
                }
            });
            for r in 0..rows {
                assert!(out[r * width..(r + 1) * width]
                    .iter()
                    .all(|&x| x == r as f32));
            }
            assert!(pool_worker_count() >= 1, "pool must have spawned workers");
        });
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        with_forced_threads(4, || {
            let hits = AtomicUsize::new(0);
            parallel_ranges(100_000, 1, |outer| {
                // A nested dispatch from inside a pool job must not
                // re-enter the pool (deadlock) — it runs inline.
                parallel_ranges(10, 1, |inner| {
                    hits.fetch_add(outer.len() * inner.len(), Ordering::Relaxed);
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), 100_000 * 10);
        });
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        with_forced_threads(4, || {
            let result = std::panic::catch_unwind(|| {
                parallel_ranges(100_000, 1, |r| {
                    if r.start == 0 {
                        panic!("boom");
                    }
                });
            });
            assert!(result.is_err());
            // The pool must remain usable after a panicked job.
            let count = AtomicUsize::new(0);
            parallel_ranges(100_000, 1, |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 100_000);
        });
    }
}
