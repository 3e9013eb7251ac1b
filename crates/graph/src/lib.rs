#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Parallel graph-processing substrate (the libgrape-lite stand-in).
//!
//! FlexGraph integrates the libgrape-lite graph engine for everything the
//! NN runtime cannot express: compact adjacency storage, random walks,
//! metapath instance search, BFS, and graph partitioning. This crate
//! provides those facilities from scratch:
//!
//! * [`Graph`] — immutable CSR + CSC adjacency with `u32` vertex ids,
//! * [`hetero::TypedGraph`] — vertex-typed graphs for heterogeneous models
//!   such as MAGNN,
//! * [`gen`] — synthetic dataset generators standing in for Reddit / FB91 /
//!   Twitter / IMDB (see DESIGN.md §2 for the substitution argument),
//! * [`walk`] — random walks with visit counting (PinSage neighbor
//!   selection, paper Figure 5),
//! * [`metapath`] — metapath instance matching (MAGNN neighbor selection),
//! * [`partition`] — hash and label-propagation (PuLP-family) partitioners
//!   plus edge-cut / balance metrics,
//! * [`bfs`] — traversal orders and hop-distance shells (JK-Net),
//! * [`crc`] — the CRC-32 trailer of checkpoints and of the paged store
//!   (`flexgraph-store`, the storage layer of Figure 12).

pub mod bfs;
pub mod crc;
pub mod csr;
pub mod gen;
pub mod hetero;
pub mod metapath;
pub mod partition;
pub mod walk;

pub use csr::{Graph, GraphBuilder, VertexId};
pub use hetero::TypedGraph;
pub use partition::Partitioning;
