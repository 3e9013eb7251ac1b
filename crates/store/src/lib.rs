#![warn(missing_docs)]

//! Paged on-disk graph storage — the out-of-core substrate under the
//! in-RAM `graph`/`hdg`/`engine` stack (DESIGN.md §15).
//!
//! FlexGraph's headline results run on billion-edge graphs; everything
//! in this workspace above this crate assumes the graph fits in RAM.
//! This crate removes that cap without disturbing a single computed
//! bit:
//!
//! * [`format`] — the FGPS chunked CSR/CSC segment codec: fixed
//!   vertex-range segments, delta-varint edge compression, per-segment
//!   CRC-32 trailers (`graph::crc::crc32`) and a footer index for random
//!   access.
//! * [`file`] — [`StoreWriter`] (streaming, header patched at finish)
//!   and [`StoreReader`] (footer discovery, validate-before-allocate,
//!   CRC-checked segment reads).
//! * [`cache`] — [`PageCache`]: decoded segments under an explicit
//!   byte budget priced by the engine's `segment_residency_bytes`,
//!   LRU eviction, pin counts for in-flight reads.
//! * [`paged`] — [`PagedGraph`]: the reader behind the cache, with the
//!   in-RAM adjacency API and a bitwise-lossless `to_graph()`.
//! * [`stream`] — [`rmat_to_store`]: R-MAT generation straight to
//!   disk through per-segment spill buckets, RNG-compatible with
//!   `graph::gen::rmat` (same seed → bitwise-identical graph).
//! * [`ooc`] — out-of-core HDG construction (direct neighbors, capped
//!   hop shells — record-identical to `hdg::build`) and
//!   [`forward_out_of_core`], the partitioned engine forward pass.
//!
//! The determinism contract: the store affects *where bytes live*,
//! never *what they decode to*. Cache budget, eviction order, segment
//! width, and partition size are all invisible in the computed
//! features — proven by the `paged_store_parity` suite.

pub mod cache;
pub mod err;
pub mod file;
pub mod format;
pub mod ooc;
pub mod paged;
pub mod stream;

pub use cache::{PageCache, PinnedSegment};
pub use err::StoreError;
pub use file::{expected_segments, write_graph, StoreReader, StoreSummary, StoreWriter};
pub use format::Segment;
pub use ooc::{
    forward_out_of_core, hdg_from_direct_neighbors, hdg_from_hop_shells_capped, paged_hop_shells,
    Neighborhood,
};
pub use paged::PagedGraph;
pub use stream::{rmat_to_store, StreamSummary};
