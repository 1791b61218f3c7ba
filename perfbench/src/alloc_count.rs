//! A counting global allocator, as `tests/tests/alloc_free.rs` uses. Only
//! the traced binary installs it; the end-to-end binary keeps the system
//! allocator, so the end-to-end numbers pay nothing for the count.
//!
//! The allocator counts only inside [`counted`]. Everywhere else it reads
//! one flag that nothing writes, so the timed parts of the traced run share
//! no written cache line between threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations and reallocations made inside [`counted`]; frees are
/// not counted.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a lock-free atomic load and
// increment, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with counting on and returns its result with the allocations
/// every thread made meanwhile (0 unless [`CountingAlloc`] is the global
/// allocator).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Whether [`CountingAlloc`] is this process's global allocator.
pub fn installed() -> bool {
    counted(|| drop(std::hint::black_box(Box::new(0u64)))).1 > 0
}
