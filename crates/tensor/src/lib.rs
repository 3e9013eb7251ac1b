#![warn(missing_docs)]
// Offset-range loops over CSR/CSC arrays read clearer with explicit
// indices than with zipped iterators; the kernels keep them.
#![allow(clippy::needless_range_loop)]

//! Dense 2-D tensor library with reverse-mode autograd.
//!
//! This crate is the NN substrate of FlexGraph-RS. The paper runs on top of
//! PyTorch; the Rust ecosystem has no equivalent offline, so this crate
//! implements the subset FlexGraph actually needs, from scratch:
//!
//! * a row-major dense `f32` matrix type ([`Tensor`]),
//! * sparse *scatter* reductions (`scatter_add`/`mean`/`softmax`, over a
//!   cached [`ScatterPlan`]) and row `gather`, the building blocks of
//!   GAS-style sparse aggregation (paper §3.3, Figure 8),
//! * a tape-based reverse-mode autograd engine ([`autograd::Graph`]) so
//!   that GCN / PinSage / MAGNN train end-to-end,
//! * the Adam optimizer and a softmax cross-entropy loss,
//! * chunked, auto-vectorizable inner loops and a persistent worker-pool
//!   `parallel_for` standing in for the paper's AVX-512 feature-fusion
//!   kernels inside long-lived workers (§6, "Hybrid aggregate
//!   executions"), plus a cache-blocked matmul for the dense update
//!   stage that reads either operand transposed in place.
//!
//! # Examples
//!
//! ```
//! use flexgraph_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

pub mod autograd;
pub mod fusion;
pub mod init;
pub mod optim;
pub mod par;
pub mod scatter;
pub mod simd;
pub mod tensor;

pub use autograd::{Graph, NodeId, Strategy};
pub use fusion::{segment_reduce, HierarchyIndex, Reduce, SegmentIndex};
pub use init::xavier_uniform;
pub use optim::{Adam, Optimizer, ParamSet};
pub use par::{num_threads, pool_worker_count, set_thread_override};
pub use scatter::{
    gather_rows, scatter_add, scatter_add_with_plan, scatter_mean, scatter_mean_with_plan,
    scatter_softmax_with_plan, ScatterPlan,
};
pub use tensor::Tensor;
