//! The worker seam: one step machine, two drivers.
//!
//! A distributed worker is written once, as a sans-IO [`SimTask`] that
//! talks to its cluster through a [`WorkerCtx`] and hands control back
//! with a [`TaskStep`] whenever it must block. It cannot tell which of
//! its two drivers is running it:
//!
//! * [`crate::VirtualCluster::run`] steps every task of a cluster from
//!   the event wheel, with [`crate::TaskCtx`] as the context — compute
//!   is *modeled* nanoseconds on the virtual clock;
//! * [`drive_blocking`] steps one task on its own OS thread over a
//!   [`WorkerComm`], blocking in the fabric where the scheduler would
//!   park — compute is *measured* nanoseconds.
//!
//! Under either, a link delivers its payloads exactly once and in send
//! order (one receive half, `link::LinkRecv`, serves both transports).

use crate::fabric::{CommError, Message, WorkerComm};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// What a task wants from its driver after a `step`.
///
/// A task returning [`TaskStep::Recv`] is parked until a matching
/// message is available, then stepped again — it must re-enter the
/// state that called [`WorkerCtx::try_recv`] and retry. A task returning
/// [`TaskStep::Barrier`] must *first* advance its own state past the
/// barrier: when released, its next step resumes there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStep {
    /// Park until a message with `tag` from `from` is available.
    Recv {
        /// Sender rank to wait on.
        from: usize,
        /// Tag to wait on.
        tag: u32,
    },
    /// Park until every worker reaches the barrier.
    Barrier,
    /// The task is finished (successfully or not); never stepped again.
    Done,
}

/// Everything a worker sees of its cluster while being stepped.
pub trait WorkerCtx {
    /// This worker's rank.
    fn rank(&self) -> usize;
    /// Number of workers.
    fn num_workers(&self) -> usize;
    /// Sends `payload` to `to` with `tag`, reliably. An error (this
    /// worker's scheduled crash, or a latched peer failure) ends the
    /// attempt: the task records it and returns [`TaskStep::Done`].
    fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError>;
    /// Non-blocking receive of the next payload with `tag` from `from`,
    /// in per-link send order (nothing is handed over before everything
    /// sent earlier on the link, under any tag, has arrived). `None`
    /// means the caller should park by returning [`TaskStep::Recv`] with
    /// the same coordinates.
    fn try_recv(&mut self, from: usize, tag: u32) -> Option<Bytes>;
    /// The latched failure, if this attempt is lost. Checked at the top
    /// of every step; once set the task must finish without parking.
    fn failed(&self) -> Option<CommError>;
    /// This worker's compute-time multiplier (1.0 unless straggling).
    fn compute_factor(&self) -> f64;
    /// Accounts `units` of deterministic work just performed and
    /// returns the nanoseconds it took — modeled or measured, depending
    /// on the driver. Only `units` may reach a byte-stable trace.
    fn charge(&mut self, units: u64) -> u64;
}

/// A cooperative worker: a state machine stepped by a driver.
pub trait SimTask {
    /// Runs until the task must block or finishes, returning what to
    /// wait on. Called again when the wait is satisfied — or when a
    /// failure is latched, which the task must check via
    /// [`WorkerCtx::failed`] at entry.
    fn step<C: WorkerCtx>(&mut self, ctx: &mut C) -> TaskStep;
}

/// [`WorkerCtx`] over the threaded fabric.
struct FabricCtx<'a> {
    comm: &'a mut WorkerComm,
    /// The message the driver just blocked for.
    ready: Option<Message>,
    failed: Option<CommError>,
    /// Where the span measured by the next `charge` starts: the later
    /// of the previous `charge` and the last return from a blocking
    /// call, so waiting is never billed as compute.
    mark: Instant,
}

impl WorkerCtx for FabricCtx<'_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn num_workers(&self) -> usize {
        self.comm.num_workers()
    }

    fn send(&mut self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        self.comm
            .send(to, tag, payload)
            .inspect_err(|e| self.failed = Some(e.clone()))
    }

    fn try_recv(&mut self, from: usize, tag: u32) -> Option<Bytes> {
        let msg = self.ready.take_if(|m| m.from == from && m.tag == tag);
        msg.map(|m| m.payload)
    }

    fn failed(&self) -> Option<CommError> {
        self.failed.clone()
    }

    fn compute_factor(&self) -> f64 {
        1.0
    }

    fn charge(&mut self, _units: u64) -> u64 {
        let now = Instant::now();
        let ns = (now - self.mark).as_nanos() as u64;
        self.mark = now;
        ns
    }
}

/// Runs `task` to completion on the calling thread, blocking in `comm`
/// wherever the task parks. A fabric error is latched and the task is
/// stepped once more so it can record the failure and finish; nothing
/// hangs, because every blocking fabric call is patience-bounded. A
/// task that finished cleanly then waits at an exit barrier: the
/// channel is FIFO, so once it has passed, everything the peers sent
/// this worker before it — injected duplicates included — has been
/// taken in and counted (its error — a peer died after we finished — is
/// that peer's failure to report, not ours).
///
/// Returns the task's wall time up to `Done`, counted from the release
/// of its first barrier when it has one: workers leave their entry
/// barrier in lockstep, and the wait before it is thread start-up skew.
pub fn drive_blocking<T: SimTask>(task: &mut T, comm: &mut WorkerComm) -> Duration {
    let mut started = Instant::now();
    let mut entered = false;
    let mut ctx = FabricCtx {
        comm,
        ready: None,
        failed: None,
        mark: started,
    };
    loop {
        let blocked = match task.step(&mut ctx) {
            TaskStep::Done => break,
            TaskStep::Barrier => {
                let released = ctx.comm.barrier();
                if !std::mem::replace(&mut entered, true) {
                    started = Instant::now();
                }
                released
            }
            TaskStep::Recv { from, tag } => ctx
                .comm
                .recv_tag_from(from, tag)
                .map(|msg| ctx.ready = Some(msg)),
        };
        if let Err(e) = blocked {
            ctx.failed = Some(e);
        }
        ctx.mark = Instant::now();
    }
    let wall = started.elapsed();
    if ctx.failed.is_none() {
        let _ = ctx.comm.barrier();
    }
    wall
}
