//! Heap measurements: allocation counts and peak live heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// `System`, counting each thread's allocations (and reallocations) in a
/// thread-local cell, so threads never contend on a shared counter, and,
/// while [`peak_heap_during`] runs, the live heap bytes of all threads.
pub struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn track(delta: i64) {
    if TRACKING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns its result with the heap allocations the calling
/// thread made meanwhile.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the peak of the heap bytes
/// allocated and not yet freed, by any thread, since `f` started, in MiB.
/// Every allocation costs two shared atomic updates meanwhile, so time
/// nothing inside. Calls must not overlap.
pub fn peak_heap_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    let out = f();
    TRACKING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let (v, n) = allocs_during(|| std::hint::black_box(vec![1u8; 64]));
        assert_eq!(n, 1);
        drop(v);
        let (_, none) = allocs_during(|| std::hint::black_box(1 + 1));
        assert_eq!(none, 0);
    }

    #[test]
    fn peak_heap_sees_a_freed_buffer() {
        let ((), mb) = peak_heap_during(|| {
            let v = std::hint::black_box(vec![0u8; 4 << 20]);
            drop(v);
        });
        assert!(mb >= 3.9, "{mb}");
    }
}
