//! NeighborSelection allocates per *array*, not per *record*.
//!
//! Each constructor runs on two graphs over the same vertices, the
//! second with about four times the edges (the importance walk: on one
//! graph, over its roots once and four times). The second run produces
//! thousands more records; its allocator calls may exceed the first
//! run's only by the few extra doublings of the builder's (and the walk
//! scratch's) `Vec`s. A counting `#[global_allocator]` needs its own
//! test binary, which is why this file holds nothing else; the count is
//! per thread, so the harness's own threads cannot disturb it.

use flexgraph_graph::gen::{community, hetero_imdb};
use flexgraph_graph::metapath::Metapath;
use flexgraph_graph::walk::WalkConfig;
use flexgraph_hdg::build::{
    from_direct_neighbors, from_hop_shells_capped, from_importance_walks, from_metapaths,
    from_neighbor_lists,
};
use flexgraph_hdg::Hdg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` / `alloc_zeroed` / `realloc` calls made by this thread.
    /// Const-initialised and without a destructor, so reading it inside
    /// the allocator neither allocates nor outlives the thread's TLS.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // i.e. from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Records built and allocator calls made by one `build()`.
fn measure(build: impl FnOnce() -> Hdg) -> (usize, u64) {
    let before = CALLS.with(Cell::get);
    let hdg = build();
    let calls = CALLS.with(Cell::get) - before;
    (hdg.num_instances(), calls)
}

/// Extra calls four times the edges (or roots) may cost: every growing
/// `Vec` on the path (three in the builder, three in the hop-shell walk,
/// two in the importance walk) doubles a couple more times (measured, in
/// order below: 6, 2, 6, 0 and 10 extra calls).
const GROWTH_SLACK: u64 = 24;

fn assert_per_array(name: &str, sparse: (usize, u64), dense: (usize, u64)) {
    let ((records_1x, calls_1x), (records_4x, calls_4x)) = (sparse, dense);
    assert!(
        records_4x >= records_1x + 2000,
        "{name}: the dense graph must add records ({records_1x} → {records_4x})"
    );
    assert!(
        calls_4x <= calls_1x + GROWTH_SLACK,
        "{name}: {records_1x} → {records_4x} records took {calls_1x} → {calls_4x} allocator calls"
    );
}

#[test]
fn allocator_calls_do_not_grow_with_the_record_count() {
    // Same 600 vertices; 4 vs 16 intra-community edges drawn per vertex.
    let [sparse, dense] = [4, 16].map(|deg| community(600, 4, deg, 1, 4, 7).graph);
    assert!(dense.num_edges() >= 3 * sparse.num_edges());
    let roots = || (0..600u32).collect::<Vec<_>>();

    assert_per_array(
        "from_direct_neighbors",
        measure(|| from_direct_neighbors(&sparse, roots())),
        measure(|| from_direct_neighbors(&dense, roots())),
    );

    // The walker writes its lists once, into two arrays; its visit
    // buffers are reused from root to root. The 600 vertices four times
    // over add records, not allocator calls, and one root costs what a
    // handful of arrays cost, not a walk of the graph.
    let walk = WalkConfig::default();
    let walked = |roots: Vec<u32>| measure(|| from_importance_walks(&sparse, roots, &walk, 5));
    let (once, four_times) = (walked(roots()), walked(roots().repeat(4)));
    assert_per_array("from_importance_walks", once, four_times);
    let (_, one_root) = walked(vec![17]);
    assert!(
        once.1 < 100 && four_times.1 < 100 && one_root < 100,
        "from_importance_walks: {once:?} / {four_times:?} (records, calls), one root {one_root} calls"
    );

    let [lists_1x, lists_4x] = [&sparse, &dense].map(|g| {
        (0..600u32)
            .map(|v| g.in_neighbors(v).to_vec())
            .collect::<Vec<_>>()
    });
    assert_per_array(
        "from_neighbor_lists",
        measure(|| from_neighbor_lists(roots(), &lists_1x)),
        measure(|| from_neighbor_lists(roots(), &lists_4x)),
    );

    // Two shells per root on both graphs: the record count is pinned at
    // 1 200 while the shells under them grow, so equal counts is the
    // whole assertion. Cap 8 binds on most shells of either graph.
    let (shells_1x, calls_1x) = measure(|| from_hop_shells_capped(&sparse, roots(), 2, 8, 3));
    let (shells_4x, calls_4x) = measure(|| from_hop_shells_capped(&dense, roots(), 2, 8, 3));
    assert!(shells_1x >= 1000 && shells_4x >= shells_1x);
    assert!(
        calls_4x <= calls_1x + GROWTH_SLACK && calls_1x < 100,
        "from_hop_shells_capped: {shells_1x} → {shells_4x} shells took {calls_1x} → {calls_4x} allocator calls"
    );

    // 400 movies with 3 vs 12 actors each; uncapped movie–actor–movie
    // instances grow with the square of that.
    let [typed_1x, typed_4x] = [3, 12].map(|actors| hetero_imdb(400, actors, 3, 4, 7).typed());
    let paths = [Metapath::new(vec![0, 1, 0]), Metapath::new(vec![0, 2, 0])];
    let all = |g: &flexgraph_graph::TypedGraph| (0..g.graph().num_vertices() as u32).collect();
    assert_per_array(
        "from_metapaths",
        measure(|| from_metapaths(&typed_1x, all(&typed_1x), &paths, 0)),
        measure(|| from_metapaths(&typed_4x, all(&typed_4x), &paths, 0)),
    );
}
