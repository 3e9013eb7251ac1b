//! A hostile serve-frame header cannot make the decoder allocate.
//!
//! `try_decode_serve_frame` reads counts and widths off the wire; it
//! must compare what they promise with the bytes that are there before
//! it reserves anything for them. A counting `#[global_allocator]` needs
//! its own test binary, which is why this file holds nothing else; the
//! count is per thread, so the harness's own threads cannot disturb it.
//! A request past [`REFUSE`] is refused (the process then aborts), so a
//! regression cannot reserve gigabytes on the machine running the test.

use bytes::Bytes;
use flexgraph_comm::try_decode_serve_frame;
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

/// A frame of `kind` with zero round, tenant and version, then `rest`.
fn frame(kind: u8, rest: &[&[u8]]) -> Bytes {
    let mut b = vec![kind];
    b.extend_from_slice(&[0; 24]);
    for part in rest {
        b.extend_from_slice(part);
    }
    Bytes::from(b)
}

#[test]
fn hostile_headers_are_refused_before_anything_is_reserved() {
    let max = u32::MAX.to_le_bytes();
    let zero = 0u32.to_le_bytes();
    let one = 1u32.to_le_bytes();
    let cases = [
        // Rows: one row of u32::MAX floats, its id and hit flag present
        // (42 bytes that promised 17 GB).
        ("rows, huge dim", frame(4, &[&max, &one, &[0; 8], &[1]])),
        ("rows, huge count", frame(4, &[&zero, &max])),
        ("rows, count × width overflows", frame(4, &[&max, &max])),
        ("exec, huge count", frame(1, &[&max])),
        ("swap, huge checkpoint", frame(2, &[&[0; 4], &max])),
    ];
    for (what, buf) in cases {
        let before = BYTES.with(Cell::get);
        let decoded = try_decode_serve_frame(&buf);
        let asked = BYTES.with(Cell::get) - before;
        assert!(decoded.is_err(), "{what}: decoded {decoded:?}");
        assert!(
            asked < 64 << 10,
            "{what}: asked the allocator for {asked} bytes"
        );
    }
}
