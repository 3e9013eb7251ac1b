#![warn(missing_docs)]

//! Simulated MPI controller for shared-nothing distributed training.
//!
//! The paper runs FlexGraph on a 16-machine HPC cluster with a 3.25 GB/s
//! NIC behind an MPI controller. This crate simulates that controller on
//! one machine, with two drivers for one worker ([`worker`]):
//!
//! * [`det`] — the deterministic virtual-time discrete-event runtime.
//!   Workers are cooperative tasks on an event wheel, wire time is
//!   modeled per link ([`NetProfile`]), and it is the one place faults
//!   live, standing in for the fault-tolerance module of the paper's
//!   architecture diagram (Figure 12): a seeded [`ChaosSchedule`]
//!   injects drops, duplicates, reorders, delays and single-worker
//!   crashes, whatever it does every payload is delivered exactly once
//!   and in send order ([`link`]), and a crash becomes a structured
//!   [`CommError`] on every survivor — the substrate `tests/chaos.rs`
//!   uses to prove bitwise-identical epoch outputs under any fault
//!   schedule. [`clock`] holds its timeout shapes.
//! * [`Fabric`] — each worker an OS thread, all cross-worker traffic on
//!   a reliable mesh of crossbeam channels that accounts bytes and a
//!   calibrated wire-cost model ([`CostModel`]) but injects nothing and
//!   never sleeps; its one wait, the receive patience, keeps a panicked
//!   peer from hanging the fleet.
//!
//! [`codec`] is the row wire format both carry.

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
    decode_rows, decode_rows_with, encode_flat_rows, encode_rows, try_decode_rows,
    try_decode_rows_with, DecodeError, RowWriter,
};
pub use det::{
    fnv1a, EventWheel, FlakyRack, LinkSpec, NetProfile, SimConfig, Straggler, TaskCtx, VMessage,
    VirtualCluster, VirtualStats, Vt,
};
pub use fabric::{CommError, Fabric, Message, RetryPolicy, WorkerComm};
pub use stats::{CommStats, CostModel};
pub use worker::{drive_blocking, SimTask, TaskStep, WorkerCtx};
