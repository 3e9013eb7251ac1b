//! Lifecycle of the persistent worker pool.
//!
//! This integration test is its own process, so the pool here is virgin:
//! we can pin the ambient thread count with `FLEXGRAPH_THREADS` before
//! any kernel runs, then sweep the runtime override and watch exactly
//! when workers come into existence. The pool contract under test:
//!
//! * no workers are spawned while every dispatch is single-threaded,
//! * raising the thread count lazily grows the pool to `threads - 1`
//!   workers (the dispatcher is the remaining participant),
//! * lowering the count never tears workers down (high-water mark), and
//!   repeated dispatches at any count spawn nothing further — i.e. no
//!   thread leak per call, which is the regression the pool exists to
//!   prevent.
//!
//! Everything runs inside ONE `#[test]` so the override transitions are
//! strictly ordered without relying on harness scheduling.

use flexgraph_tensor::{num_threads, pool_worker_count, set_thread_override, Tensor};

/// A dispatch big enough to clear every serial cutoff (1024 output rows
/// are sixteen matmul row blocks, past the tiling cutoff), checked for
/// correctness so the sweep also proves the kernels stay right while
/// the pool grows under them: `t · I` is `t`, bit for bit.
fn run_kernel() {
    let rows = 1024;
    let cols = 64;
    let t = Tensor::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect());
    assert_eq!(t.matmul(&Tensor::eye(cols)), t);
}

#[test]
fn pool_lifecycle_under_override_sweep() {
    // Latch the environment-derived count to 1 before the first kernel.
    std::env::set_var("FLEXGRAPH_THREADS", "1");
    assert_eq!(num_threads(), 1);

    // Phase 1: single-threaded dispatches never touch the pool.
    for _ in 0..3 {
        run_kernel();
    }
    assert_eq!(
        pool_worker_count(),
        0,
        "serial dispatches must not spawn workers"
    );

    // Phase 2: 1 → 8. The first eight-way dispatch grows the pool to 7
    // workers (dispatcher + 7), and further dispatches add none.
    set_thread_override(Some(8));
    run_kernel();
    assert_eq!(pool_worker_count(), 7, "8-way dispatch spawns 7 workers");
    for _ in 0..10 {
        run_kernel();
    }
    assert_eq!(
        pool_worker_count(),
        7,
        "repeated dispatches must not leak threads"
    );

    // Phase 3: 8 → 2. The pool is a high-water mark: nothing is torn
    // down, nothing new appears, extra workers just stay parked.
    set_thread_override(Some(2));
    for _ in 0..10 {
        run_kernel();
    }
    assert_eq!(
        pool_worker_count(),
        7,
        "lowering the count neither shrinks nor grows the pool"
    );

    set_thread_override(None);
}
