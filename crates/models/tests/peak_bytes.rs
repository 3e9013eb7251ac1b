//! A MAGNN epoch holds no instance-sized tensor, and the first epoch no
//! more than the others; a GCN epoch holds no transpose; neither copies
//! the feature matrix or the memoised aggregate, nor keeps a ReLU's
//! pre-activation.
//!
//! The hierarchical pool writes no instance- or group-sized tensor: it
//! folds each group's instance means and softmax weights into per-thread
//! scratch (the largest group's worth), and its backward recomputes both
//! there instead of keeping the weights. Everything a pass holds is then
//! `|V| × hidden` or smaller, or that scratch, so the bound is a
//! measured `|V| × hidden` slack plus the pool's scratch — less than one
//! instance-sized (`instances × hidden` `f32`) tensor.
//!
//! The first epoch's `EpochStats::tape_bytes` is checked against the
//! same count: it may not claim more than was live.
//!
//! A matmul's backward reads both of its operands in place, so a GCN
//! pass holds its `|V| × hidden` values and gradients and no transpose
//! of the aggregate or of the hidden layer.
//!
//! The tape lends the feature matrix and shares layer 1's memoised
//! aggregate instead of copying either, and a ReLU rides on its matmul
//! and keeps no pre-activation: both bounds are three `|V| × hidden`
//! tensors below what a tape with those copies and that pre-activation
//! holds.
//!
//! MAGNN's selection writes its HDG in the form the model keeps — a
//! prefix tree grown a quarter at a time, with no per-instance key or
//! offset on the side — so its peak stays near the HDG's own bytes, and
//! the HA epochs read that tree as it is, never building a flat view.
//!
//! A counting `#[global_allocator]` needs its own test binary, which is
//! why this file holds nothing else. Live and peak bytes are counted per
//! thread: the tape's buffers are all drawn on the training thread, and
//! the harness's own threads cannot disturb the count.

use flexgraph_graph::gen::{community, hetero_imdb};
use flexgraph_hdg::build::from_metapaths;
use flexgraph_models::magnn::imdb_metapaths;
use flexgraph_models::{Gcn, Magnn, Model, TrainConfig, Trainer};
use flexgraph_tensor::num_threads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Input width = hidden width, so layer 1's instance-sized tensors would
/// be exactly as long as layer 2's.
const HIDDEN: usize = 16;
const CAP: usize = 30;

/// `|V| × hidden` tensors a pass may hold: the memoised aggregate,
/// layer 2's input, its gradient and the pool's output among them
/// (measured: 6.63 at 1 thread and 6.76 at 4; 9.67 and 9.80 while the
/// tape copied the feature matrix and the memo and kept the ReLU's
/// pre-activation; 9.84 and 9.93 while the matmul backward also kept a
/// transpose of its input).
const VERTEX_SLACK: i64 = 7;

#[test]
fn no_magnn_epoch_holds_an_instance_sized_tensor() {
    let ds = hetero_imdb(300, 6, 3, HIDDEN, 5);
    let paths = imdb_metapaths();
    let hdg = {
        let roots = (0..ds.graph.num_vertices() as u32).collect();
        from_metapaths(&ds.typed(), roots, &paths, CAP)
    };
    let bytes = |rows: usize| (rows * HIDDEN * 4) as i64;
    let (inst, vertex) = (bytes(hdg.num_instances()), bytes(ds.graph.num_vertices()));
    // The pool's scratch, a row per forward thread and one for the
    // backward: the largest group's means and weights and five
    // `hidden`-rows (`HierarchyIndex::scratch_len`).
    let widest = hdg
        .hierarchy()
        .groups()
        .windows(2)
        .map(|w| w[1] - w[0])
        .max();
    let scratch = (num_threads() + 1) as i64 * bytes(2 * widest.unwrap() + 5);
    let bound = VERTEX_SLACK * vertex + scratch;
    // The bound tells no instance-sized tensor from one only if an
    // instance-sized tensor outweighs it.
    assert!(
        inst > bound,
        "{} instances, {} vertices, {scratch} scratch bytes",
        hdg.num_instances(),
        ds.graph.num_vertices()
    );

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
    // `|V| × hidden` aggregate the memo keeps.
    assert!(
        peaks[0] <= peaks[1] + vertex,
        "warm-up peak {} vs steady {} bytes ({peaks:?})",
        peaks[0],
        peaks[1]
    );
    for (epoch, &p) in peaks.iter().enumerate() {
        assert!(
            p <= bound,
            "epoch {epoch}: peak {p} bytes > {bound}: {:.2} `|V| × hidden` tensors beyond \
             the pool's scratch, {:.2} instance-sized tensors ({peaks:?})",
            (p - scratch) as f64 / vertex as f64,
            p as f64 / inst as f64,
        );
    }
}

/// The counted peak while `Magnn::selection` runs, over the
/// `heap_bytes` of the HDG it builds (measured 1.10; 1.84 while the
/// flat builder grew doubling `Vec`s and kept a group key per
/// instance).
const SELECTION_PEAK_OVER_HDG: f64 = 1.25;

#[test]
fn magnn_selection_peaks_near_its_hdg_and_ha_epochs_build_no_flat_view() {
    // The benchmark's IMDB stand-in, at the test's hidden width.
    let ds = hetero_imdb(2000, 3, 4, HIDDEN, 1);
    let paths = imdb_metapaths();
    let roots = (0..ds.graph.num_vertices() as u32).collect();
    let hdg_bytes = from_metapaths(&ds.typed(), roots, &paths, CAP).heap_bytes();
    let model = Magnn::new(HIDDEN, HIDDEN, ds.num_classes, paths, CAP);
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: 3,
    };
    let mut tr = Trainer::new(model, cfg);
    let base = live();
    reset_peak();
    tr.model.selection(&ds, 0);
    let ratio = (peak() - base) as f64 / hdg_bytes as f64;
    assert!(
        ratio <= SELECTION_PEAK_OVER_HDG,
        "selection peaked at {ratio:.2} × the HDG's {hdg_bytes} bytes"
    );

    let index = Arc::clone(tr.model.hierarchy().expect("selection ran"));
    let index_bytes = index.heap_bytes();
    for epoch in 0..4 {
        tr.epoch(&ds, epoch);
    }
    assert_eq!(
        index.heap_bytes(),
        index_bytes,
        "an HA epoch built the index's flat view"
    );
}

/// `|V| × hidden` tensors a GCN pass may hold beyond the CSC transpose
/// its first backward keeps (measured: 5.70 at 1 thread and 5.71 at 4;
/// 8.71 while the tape copied the feature matrix and the memo and kept
/// the ReLU's pre-activation, and 9.84 while the matmul backward also
/// kept transposes of the aggregate and the hidden layer, both of which
/// this bound rejects).
const GCN_VERTEX_SLACK: i64 = 6;

#[test]
fn no_gcn_epoch_holds_a_transpose() {
    // Input width = hidden width: a transpose of the aggregate or of the
    // hidden layer is one `|V| × hidden` tensor either way.
    let ds = community(2000, 4, 6, 2, HIDDEN, 5);
    let vertex = (ds.graph.num_vertices() * HIDDEN * 4) as i64;
    let model = Gcn::new(HIDDEN, ds.feature_dim(), ds.num_classes);
    let cfg = TrainConfig {
        epochs: 0,
        lr: 0.01,
        seed: 3,
    };
    let mut tr = Trainer::new(model, cfg);
    tr.model.selection(&ds, 0);
    let csc = ds.graph.in_index();
    let (csc_bytes, base) = (csc.heap_bytes() as i64, live());
    let peaks: Vec<i64> = (0..4)
        .map(|epoch| {
            reset_peak();
            tr.epoch(&ds, epoch);
            peak() - base
        })
        .collect();
    // The first backward builds the CSC's transpose and keeps it.
    let kept = csc.heap_bytes() as i64 - csc_bytes;
    let bound = GCN_VERTEX_SLACK * vertex + kept;
    for (epoch, &p) in peaks.iter().enumerate() {
        assert!(
            p <= bound,
            "epoch {epoch}: peak {p} bytes > {bound}: {:.2} `|V| × hidden` tensors beyond \
             the CSC transpose ({peaks:?})",
            (p - kept) as f64 / vertex as f64,
        );
    }
}
