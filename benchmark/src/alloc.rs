//! The harness's counting allocator: every `alloc`/`realloc` the process
//! makes while counting is on. It lives in the harness only — the
//! product binaries keep the system allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: neither value publishes other data, so Relaxed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (alloc + alloc_zeroed + realloc) counted so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Runs `f` with counting on and returns its result and the number of
/// allocator calls it made. Exact when nothing else runs concurrently.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    let before = calls();
    let out = f();
    let made = calls() - before;
    ENABLED.store(was, Ordering::Relaxed);
    (out, made)
}
