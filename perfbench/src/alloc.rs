//! A counting global allocator: the `alloc.per_op` work counter and the
//! heap high-water mark behind `peak_heap_mb`.
//!
//! Every allocation and reallocation bumps a process-wide counter and
//! the live byte total, then defers to the system allocator. All
//! orderings are relaxed: the counters are statistics that publish no
//! other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

/// The counters share one cache line, so an allocation touches one.
#[repr(align(64))]
struct Counters {
    allocations: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

static COUNTERS: Counters = Counters {
    allocations: AtomicU64::new(0),
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
};

fn grew(bytes: usize) {
    COUNTERS.allocations.fetch_add(1, Ordering::Relaxed);
    let live = COUNTERS.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if live > COUNTERS.peak.load(Ordering::Relaxed) {
        COUNTERS.peak.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    COUNTERS.live.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump touches
// no memory handed out by the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) since process start.
pub fn allocations() -> u64 {
    COUNTERS.allocations.load(Ordering::Relaxed)
}

/// The most heap bytes live at once since process start.
pub fn peak_bytes() -> u64 {
    COUNTERS.peak.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live now. Call it only
/// while no other thread allocates.
pub fn reset_peak() {
    COUNTERS
        .peak
        .store(COUNTERS.live.load(Ordering::Relaxed), Ordering::Relaxed);
}
