//! In-repo counting allocator for compiler-cost measurement.
//!
//! [`CountingAlloc`] wraps the system allocator with four global atomic
//! counters: total bytes requested, allocation calls, currently live bytes,
//! and the peak of the live count. Binaries that measure allocations (the
//! `incline-bench` binary, the allocation-budget test) register it with
//! `#[global_allocator]`; the library itself never does, so ordinary
//! builds pay nothing.
//!
//! Measurement windows are taken with [`start_window`]/[`Window::finish`]:
//! counters are global and monotone, so a window is a pair of snapshots.
//! Counts are deterministic for a single-threaded measured section, which
//! every figure's is (the VM starts no thread); windows open on several
//! threads at once would still add up exactly but could not tell whose
//! bytes were whose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Total bytes requested from the allocator (alloc + realloc growth).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Number of allocation calls (alloc + realloc).
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Currently live bytes.
static CURRENT: AtomicI64 = AtomicI64::new(0);
/// Peak of [`CURRENT`] since the last window reset.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// A `#[global_allocator]`-ready wrapper over [`System`] that counts every
/// allocation. See the module docs for the measurement protocol.
pub struct CountingAlloc;

fn on_alloc(bytes: usize) {
    TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    CURRENT.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the new block as one allocation of its full size and
            // retire the old block, matching a grow-by-copy model.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        p
    }
}

/// Allocation counts accumulated inside one measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Bytes requested during the window (alloc + realloc growth).
    pub total_bytes: u64,
    /// Allocation calls during the window.
    pub calls: u64,
    /// Peak net growth of live bytes over the window start.
    pub peak_bytes: u64,
}

/// An open measurement window (a snapshot of the global counters).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    start_total: u64,
    start_calls: u64,
    start_current: i64,
}

/// Opens a measurement window, resetting the peak tracker to the current
/// live count.
pub fn start_window() -> Window {
    let current = CURRENT.load(Ordering::Relaxed);
    PEAK.store(current, Ordering::Relaxed);
    Window {
        start_total: TOTAL_BYTES.load(Ordering::Relaxed),
        start_calls: CALLS.load(Ordering::Relaxed),
        start_current: current,
    }
}

impl Window {
    /// Closes the window and returns the counts it accumulated.
    pub fn finish(self) -> WindowStats {
        WindowStats {
            total_bytes: TOTAL_BYTES.load(Ordering::Relaxed) - self.start_total,
            calls: CALLS.load(Ordering::Relaxed) - self.start_calls,
            peak_bytes: (PEAK.load(Ordering::Relaxed) - self.start_current).max(0) as u64,
        }
    }
}

/// Whether a counting allocator is actually registered in this binary:
/// windows only observe non-zero counts when the final binary declared
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub fn counting_enabled() -> bool {
    let w = start_window();
    let probe = vec![0u8; 1024];
    std::hint::black_box(&probe);
    drop(probe);
    w.finish().calls > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The bench library's own test binary does not register the counting
    // allocator, so windows must read as empty — the probe is the same
    // check the budget test uses to fail loudly on misconfiguration.
    #[test]
    fn windows_are_inert_without_registration() {
        assert!(!counting_enabled());
        let w = start_window();
        let v = vec![1u8; 4096];
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(w.finish(), WindowStats::default());
    }
}
