#![warn(missing_docs)]

//! Simulated MPI controller for shared-nothing distributed training.
//!
//! The paper runs FlexGraph on a 16-machine HPC cluster with a 3.25 GB/s
//! NIC behind an MPI controller. This crate simulates that fabric on one
//! machine: each *worker* is an OS thread, all cross-worker traffic goes
//! through a [`Fabric`] of crossbeam channels, and every message both
//! moves real bytes and accrues a calibrated wire-time model
//! ([`CostModel`]). Messages are delivered only after their modeled wire
//! time has elapsed, so computation genuinely overlaps communication —
//! which is what makes the pipeline-processing experiment (Figure 15b/c)
//! produce real speedups rather than bookkeeping ones.
//!
//! The fabric is fault-tolerant, standing in for the fault-tolerance
//! module of the paper's architecture diagram (Figure 12): a seeded
//! [`ChaosSchedule`] can deterministically inject drops, duplicates,
//! reorders, delays, and single-worker crashes, and whatever it does
//! every payload is delivered exactly once and in send order, a crash
//! becomes a structured [`CommError`] on every survivor, and no blocking
//! call outlives its patience — the substrate `tests/chaos.rs` uses to
//! prove bitwise-identical epoch outputs under any fault schedule. The
//! channels themselves lose nothing, so a drop costs what the schedule
//! says it costs — a sender's retransmit timers, folded into the
//! packet's delivery time — with no acknowledgement protocol run
//! against it.
//!
//! For cluster sizes beyond the host's core count, [`det`] provides a
//! deterministic virtual-time discrete-event runtime with the same
//! send/recv/barrier surface on cooperative tasks instead of threads;
//! [`link`] is the link model and [`clock`] the timeout shapes both
//! transports share, and [`worker`] the seam that lets one worker step
//! machine run on either.

pub mod chaos;
pub mod clock;
pub mod codec;
pub mod det;
pub mod fabric;
pub mod link;
pub mod stats;
pub mod worker;

pub use chaos::{ChaosSchedule, CrashPoint};
pub use codec::{
    decode_rows, decode_rows_with, decode_serve_frame, encode_flat_rows, encode_rows,
    try_decode_rows, try_decode_rows_with, try_decode_serve_frame, DecodeError, RowWriter,
    ServeFrame, ServeFrameError,
};
pub use det::{
    fnv1a, EventWheel, FlakyRack, LinkSpec, NetProfile, SimConfig, Straggler, TaskCtx, VMessage,
    VirtualCluster, VirtualStats, Vt,
};
pub use fabric::{CommError, Fabric, Message, RetryPolicy, WorkerComm};
pub use stats::{CommStats, CostModel};
pub use worker::{drive_blocking, SimTask, TaskStep, WorkerCtx};
