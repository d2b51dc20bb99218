//! A counting global allocator: the benchmark binary counts heap
//! allocation calls around the regions it measures, from outside the
//! program. The count is a relaxed atomic add on each allocation, the same
//! in every run and on every commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // `alloc_zeroed` and `realloc` are forwarded too: the trait's defaults
    // would turn `calloc` into malloc + memset and an in-place `realloc`
    // into a copy, and the benchmark would time that instead of the program.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocation calls made by all threads while `f` ran.
pub fn alloc_calls<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}
