//! Allocation tracking for the Fig 15 construction-memory experiment.
//!
//! The paper reports the *CPU memory footprint during construction* of every
//! filter (Fig 15). To reproduce that without external profilers, benchmark
//! binaries install [`TrackingAllocator`] as the global allocator and read
//! [`TrackingAllocator::peak_bytes`] around each construction. The tracker
//! keeps two atomics (live and peak bytes); its overhead is a couple of
//! relaxed atomic operations per allocation, which is negligible next to the
//! allocations themselves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A global allocator wrapper that tracks live and peak heap usage.
///
/// Install it in a binary with:
/// ```ignore
/// #[global_allocator]
/// static ALLOC: habf_util::alloc::TrackingAllocator = habf_util::alloc::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// Currently live heap bytes allocated through this allocator.
    #[must_use]
    pub fn live_bytes() -> usize {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark of live heap bytes since the last
    /// [`TrackingAllocator::reset_peak`].
    #[must_use]
    pub fn peak_bytes() -> usize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live byte count, so a subsequent
    /// `peak_bytes()` reflects only what the measured region allocated.
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Runs `f` and returns `(result, peak_bytes_during_f)`, where the peak
    /// is measured relative to the live bytes when `f` started.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let base = Self::live_bytes();
        Self::reset_peak();
        let out = f();
        let peak = Self::peak_bytes();
        (out, peak.saturating_sub(base))
    }
}

fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    // Update the peak with a CAS loop; contention is irrelevant here because
    // the harness is single-threaded, but the loop keeps it correct anyway.
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while live > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(cur) => peak = cur,
        }
    }
}

fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: delegates directly to `System` for every operation; the wrapper
// only maintains byte counters and never touches the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: forwards the caller's contract (non-zero-sized `layout`)
    // to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unmodified.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: forwards the caller's contract (`ptr` was returned by this
    // allocator with this `layout`) to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from the caller, who owns the block.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    // SAFETY: same contract as `alloc`, forwarded to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unmodified.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: forwards the caller's contract (`ptr` owned by this
    // allocator, `new_size` non-zero) to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: all three arguments come from the caller, who owns the
        // block being resized.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is NOT installed globally in unit tests (that would
    // affect the whole test binary); we exercise the counter plumbing
    // directly instead.

    /// The counters are process-global and these tests assert exact values
    /// on them, so they must not run concurrently with each other.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counters() -> std::sync::MutexGuard<'static, ()> {
        // A failed test poisons the lock; the counters it leaves behind
        // are rebased by every test's own baseline, so keep going.
        COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_track_alloc_dealloc() {
        let _serial = counters();
        let live0 = TrackingAllocator::live_bytes();
        on_alloc(1000);
        assert_eq!(TrackingAllocator::live_bytes(), live0 + 1000);
        assert!(TrackingAllocator::peak_bytes() >= live0 + 1000);
        on_dealloc(1000);
        assert_eq!(TrackingAllocator::live_bytes(), live0);
    }

    #[test]
    fn reset_peak_rebases() {
        let _serial = counters();
        on_alloc(5000);
        TrackingAllocator::reset_peak();
        let p = TrackingAllocator::peak_bytes();
        assert_eq!(p, TrackingAllocator::live_bytes());
        on_dealloc(5000);
    }

    #[test]
    fn measure_reports_region_peak() {
        let _serial = counters();
        let (val, peak) = TrackingAllocator::measure(|| {
            on_alloc(4096);
            on_dealloc(4096);
            7u32
        });
        assert_eq!(val, 7);
        assert!(peak >= 4096, "peak {peak} missed the 4096-byte spike");
    }
}
