#![warn(missing_docs)]

//! GNN models expressed in NAU (paper §3.3, Figure 7), trainable
//! end-to-end through the autograd engine.
//!
//! One model per category of the paper's §2.2 taxonomy, plus the two
//! INHA models §3.2 sketches as expressible:
//!
//! | model | category | NeighborSelection | Aggregation |
//! |---|---|---|---|
//! | [`gcn::Gcn`] | DNFA | input graph (no HDG) | flat sum |
//! | [`gin::Gin`] | DNFA | input graph (no HDG) | flat sum + (1+ε)·self, MLP update |
//! | [`ggcn::GGcn`] | DNFA | input graph (no HDG) | gated (data-dependent) sum |
//! | [`pinsage::PinSage`] | INFA | top-k random-walk visits, per epoch | flat sum |
//! | [`magnn::Magnn`] | INHA | metapath instances, once | mean → mean → dense mean |
//! | [`pgnn::Pgnn`] | INHA | k anchor-sets, once | mean → mean → dense mean |
//! | [`jknet::JkNet`] | INHA | exact hop shells, once | mean per shell → dense mean |
//!
//! [`train::Trainer`] owns the parameter set and runs full
//! forward/backward epochs with per-stage wall times (the paper's
//! Table 4 breakdown).

pub mod checkpoint;
pub mod gcn;
pub mod ggcn;
pub mod gin;
pub mod golden;
pub mod jknet;
pub mod magnn;
mod memo;
pub mod pgnn;
pub mod pinsage;
mod set_mean;
pub mod train;

pub use gcn::Gcn;
pub use ggcn::GGcn;
pub use gin::Gin;
pub use jknet::JkNet;
pub use magnn::Magnn;
pub use pgnn::Pgnn;
pub use pinsage::PinSage;
pub use train::{EpochStats, Model, TrainConfig, Trainer};
