//! A MAGNN epoch holds one pass's buffers, and the first epoch no more
//! than the others.
//!
//! An instance-sized tensor (`instances × hidden` `f32`) is the largest
//! thing a MAGNN tape holds, and a pass holds one: layer 2's attention
//! weights, kept for its backward. The hierarchical pool writes no other
//! instance- or group-sized tensor, and layer 1's pool — over the
//! feature leaf, which needs no gradient — returns its weights to the
//! free list at once, where layer 2's draw finds them.
//! Everything else a pass holds is `|V| × hidden` or smaller, so the
//! bound is one instance-sized tensor plus a measured `|V| × hidden`
//! slack.
//!
//! The first epoch's `EpochStats::tape_bytes` is checked against the
//! same count: it may not claim more than was live.
//!
//! A counting `#[global_allocator]` needs its own test binary, which is
//! why this file holds nothing else. Live and peak bytes are counted per
//! thread: the tape's buffers are all drawn on the training thread, and
//! the harness's own threads cannot disturb the count.

use flexgraph_graph::gen::hetero_imdb;
use flexgraph_hdg::build::from_metapaths;
use flexgraph_models::magnn::imdb_metapaths;
use flexgraph_models::{Magnn, Model, TrainConfig, Trainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed, and the most that
    /// was live at once since the last [`reset_peak`]. Const-initialised
    /// and without a destructor, so touching them inside the allocator
    /// neither allocates nor outlives the thread's TLS.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // i.e. from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Input width = hidden width, so layer 1's instance-sized tensors are
/// exactly as long as layer 2's.
const HIDDEN: usize = 16;
const CAP: usize = 30;

/// `|V| × hidden` tensors a pass may hold besides its instance-sized
/// one: the feature leaf, the memoised aggregate, layer 2's input, its
/// gradient and the pool's output among them (measured: 10.3 in all).
const VERTEX_SLACK: i64 = 12;

#[test]
fn every_magnn_epoch_holds_one_instance_sized_tensor() {
    let ds = hetero_imdb(300, 6, 3, HIDDEN, 5);
    let paths = imdb_metapaths();
    let instances = {
        let roots = (0..ds.graph.num_vertices() as u32).collect();
        from_metapaths(&ds.typed(), roots, &paths, CAP).num_instances()
    };
    let bytes = |rows: usize| (rows * HIDDEN * 4) as i64;
    let (inst, vertex) = (bytes(instances), bytes(ds.graph.num_vertices()));
    // The bound below tells one instance-sized tensor from two only if
    // an instance-sized tensor outweighs the slack.
    assert!(
        inst > VERTEX_SLACK * vertex,
        "{instances} instances, {} vertices",
        ds.graph.num_vertices()
    );
    let bound = inst + VERTEX_SLACK * vertex;

    let model = Magnn::new(HIDDEN, HIDDEN, ds.num_classes, paths, CAP);
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: 3,
    };
    let mut tr = Trainer::new(model, cfg);
    // The HDGs are built before the count starts: what is measured is
    // the tape, plus the one `|V| × hidden` aggregate the memo keeps.
    tr.model.selection(&ds, 0);
    let base = live();
    let mut tape_bytes = Vec::new();
    let peaks: Vec<i64> = (0..4)
        .map(|epoch| {
            reset_peak();
            tape_bytes.push(tr.epoch(&ds, epoch).tape_bytes as i64);
            peak() - base
        })
        .collect();

    // The first tape, on a thread with nothing parked, reports every
    // buffer it drew; all of them are live until it drops.
    assert!(
        0 < tape_bytes[0] && tape_bytes[0] <= peaks[0],
        "first epoch's tape reports {} bytes against a counted peak of {}",
        tape_bytes[0],
        peaks[0]
    );

    // The warm-up epoch allocates what every later one adopts, plus the
    // memo's `|V| × hidden` copy.
    assert!(
        peaks[0] <= peaks[1] + vertex,
        "warm-up peak {} vs steady {} bytes ({peaks:?})",
        peaks[0],
        peaks[1]
    );
    for (epoch, &p) in peaks.iter().enumerate() {
        assert!(
            p <= bound,
            "epoch {epoch}: peak {p} bytes > {bound}: {:.2} instance-sized tensors \
             beyond the vertex slack ({peaks:?})",
            (p - VERTEX_SLACK * vertex) as f64 / inst as f64,
        );
    }
}
