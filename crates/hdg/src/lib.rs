#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Hierarchical dependency graphs (HDGs) — the paper's §3.1/§4.1 data
//! structure.
//!
//! An HDG encodes, for every *root* vertex, how its feature is aggregated
//! from its "neighbors": leaves (input-graph vertices) feed *neighbor
//! instances*, instances feed *schema-tree* leaves (neighbor types), and
//! types feed the root. The storage follows the paper's revised-CSC
//! optimization (Figure 9):
//!
//! * **Neighbor-instance subgraph** (level `max` ↔ `max−1`): stored as an
//!   offset array over instances plus a flat array of leaf vertex ids.
//! * **In-between subgraph** (instances → schema-tree leaves): every
//!   instance has exactly one outgoing edge, so instances are ordered
//!   consecutively by `(root, type)` group and the destination array is
//!   *omitted* — only a group-offset array is kept.
//! * **Schema trees**: a single global [`SchemaTree`] shared by every
//!   root; no per-root copies exist.
//!
//! The same structure covers all three model categories: DNFA/INFA HDGs
//! are "flat" (every instance holds exactly one leaf), INHA HDGs carry
//! multi-vertex instances.

pub mod build;
pub mod schema;
pub mod stats;
pub mod storage;

pub use build::HdgBuilder;
pub use schema::SchemaTree;
pub use stats::HdgStats;
pub use storage::Hdg;
