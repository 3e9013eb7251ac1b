//! A hostile row-frame header cannot make the decoder allocate.
//!
//! `try_decode_rows` and `try_decode_rows_with` read a row count and a
//! width off the wire; they must compare what those promise with the
//! bytes that are there before they reserve anything sized by them. A counting `#[global_allocator]` needs
//! its own test binary, which is why this file holds nothing else; the
//! count is per thread, so the harness's own threads cannot disturb it.
//! A request past [`REFUSE`] is refused (the process then aborts), so a
//! regression cannot reserve gigabytes on the machine running the test.

use bytes::Bytes;
use flexgraph_comm::{try_decode_rows, try_decode_rows_with};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked the allocator for. Const-initialised
    /// and without a destructor, so reading it inside the allocator
    /// neither allocates nor outlives the thread's TLS.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// No decode of a frame this small has a reason to ask for more.
const REFUSE: usize = 1 << 30;

struct Counting;

/// Counts a request of `size` bytes; `false` refuses it.
fn note(size: usize) -> bool {
    let _ = BYTES.try_with(|b| b.set(b.get().saturating_add(size)));
    size <= REFUSE
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, or returns null, which the
// contract allows for any failed allocation; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // i.e. from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A row frame: the `count` and `dim` header words, then `rest`.
fn frame(count: u32, dim: u32, rest: &[u8]) -> Bytes {
    let mut b = count.to_le_bytes().to_vec();
    b.extend_from_slice(&dim.to_le_bytes());
    b.extend_from_slice(rest);
    Bytes::from(b)
}

/// Runs `decode`, returning whether it decoded any row and the bytes it
/// asked the allocator for meanwhile.
fn probe(decode: impl FnOnce() -> Option<usize>) -> (Option<usize>, usize) {
    let before = BYTES.with(Cell::get);
    let rows = decode();
    (rows, BYTES.with(Cell::get) - before)
}

#[test]
fn hostile_headers_are_refused_before_anything_is_reserved() {
    let max = u32::MAX;
    let cases = [
        // No rows of u32::MAX floats: 8 bytes that promised a 17 GB
        // scratch row to the streaming decoder.
        ("count 0, huge dim", frame(0, max, &[])),
        ("huge count", frame(max, 0, &[])),
        ("count × width overflows", frame(max, max, &[])),
        // One row of u32::MAX floats, its id present.
        ("one row, huge dim", frame(1, max, &[0; 8])),
    ];
    for (what, buf) in cases {
        let owned = probe(|| try_decode_rows(&buf).ok().map(|(_, rows)| rows.len()));
        let streamed = probe(|| {
            let mut rows = 0;
            try_decode_rows_with(&buf, |_, _| rows += 1)
                .ok()
                .map(|_| rows)
        });
        for (decoder, (rows, asked)) in [("owned", owned), ("streaming", streamed)] {
            assert!(
                matches!(rows, None | Some(0)),
                "{what}, {decoder}: decoded {rows:?} rows"
            );
            assert!(
                asked < 64 << 10,
                "{what}, {decoder}: asked the allocator for {asked} bytes"
            );
        }
    }
}
