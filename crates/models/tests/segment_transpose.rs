//! GCN's aggregation backward pulls over the transpose of the graph's
//! CSC, and the transpose is built once: by the first backward, kept
//! with the graph, and read — not rebuilt, not copied — by every epoch
//! after. A counting `#[global_allocator]` (which is why this file holds
//! nothing else) watches for the two allocations a transpose build
//! makes: its segment list (`|E|` `u32`s) and its offsets (`|V| + 1`
//! `usize`s).

use flexgraph_graph::gen::community;
use flexgraph_models::{Gcn, TrainConfig, Trainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocation sizes to count (0 = none) and how many were seen.
static WATCH: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
static SEEN: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note(size: usize) {
    if WATCH.iter().any(|w| w.load(Relaxed) == size) {
        SEEN.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // i.e. from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn the_first_backward_builds_the_transpose_and_later_epochs_reuse_it() {
    let ds = community(1000, 4, 8, 3, 12, 3);
    let (v, e) = (ds.graph.num_vertices(), ds.graph.num_edges());
    let mut tr = Trainer::new(
        Gcn::new(24, ds.feature_dim(), ds.num_classes),
        TrainConfig::default(),
    );
    WATCH[0].store(e * std::mem::size_of::<u32>(), Relaxed);
    WATCH[1].store((v + 1) * std::mem::size_of::<usize>(), Relaxed);
    let mut seen = Vec::new();
    for epoch in 0..4 {
        SEEN.store(0, Relaxed);
        tr.epoch(&ds, epoch);
        seen.push(SEEN.load(Relaxed));
    }
    assert_eq!(seen, [2, 0, 0, 0], "index-sized allocations per epoch");
}
