//! A MAGNN epoch holds one pass's buffers, and the first epoch no more
//! than the others.
//!
//! An instance-sized tensor (`instances × hidden` `f32`) is the largest
//! thing a MAGNN tape holds. A pass needs two of them: layer 2's instance
//! means, and the softmax-pool's weights, which backward rewrites into
//! the means' gradient. Layer 1's pair is collapsed into a leaf as soon
//! as it is recorded, so the warm-up epoch — which records it — draws its
//! layer-2 pair from the buffers the collapse released, and hands the
//! next epoch no more than that epoch needs. Everything else a pass holds
//! is `groups × hidden` or smaller (`groups = 6 |V|`), so the bound is two
//! instance-sized tensors plus a few group-sized ones.
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

/// Group-sized tensors a pass may hold besides its two instance-sized
/// ones: the pool's output and, in backward, its gradient, plus every
/// `|V| × hidden` and smaller buffer — about a dozen, under two more
/// (measured: 3.8 in all).
const GROUP_SLACK: i64 = 5;

#[test]
fn every_magnn_epoch_holds_two_instance_sized_tensors() {
    let ds = hetero_imdb(300, 6, 3, HIDDEN, 5);
    let paths = imdb_metapaths();
    let (instances, groups) = {
        let roots = (0..ds.graph.num_vertices() as u32).collect();
        let hdg = from_metapaths(&ds.typed(), roots, &paths, CAP);
        (hdg.num_instances(), hdg.num_groups())
    };
    let bytes = |rows: usize| (rows * HIDDEN * 4) as i64;
    let (inst, group, vertex) = (
        bytes(instances),
        bytes(groups),
        bytes(ds.graph.num_vertices()),
    );
    // The bound below tells two instance-sized tensors from three only
    // if an instance-sized tensor outweighs the slack's headroom.
    assert!(inst > 2 * group, "{instances} instances, {groups} groups");
    let bound = 2 * inst + GROUP_SLACK * group;

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
    let peaks: Vec<i64> = (0..4)
        .map(|epoch| {
            reset_peak();
            tr.epoch(&ds, epoch);
            peak() - base
        })
        .collect();

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
             beyond the group slack ({peaks:?})",
            (p - GROUP_SLACK * group) as f64 / inst as f64,
        );
    }
}
