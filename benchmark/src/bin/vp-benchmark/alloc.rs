//! A counting global allocator for the traced pass.
//!
//! Installed in the harness binary only; the libraries under test are
//! untouched. Counting is off unless [`set_counting`] turned it on, and the
//! untraced pass never does: there the cost is one relaxed load per
//! allocator call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Plain statistics: none of these publishes other data, so Relaxed is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting began. Signed: memory
/// that predates counting may be freed while it is on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK_LIVE.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side statistics that never influence
// what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator activity while counting was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    pub count: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Turns counting on (resetting the counters) or off.
pub fn set_counting(on: bool) {
    if on {
        COUNT.store(0, Relaxed);
        BYTES.store(0, Relaxed);
        LIVE.store(0, Relaxed);
        PEAK_LIVE.store(0, Relaxed);
    }
    ENABLED.store(on, Relaxed);
}

pub fn stats() -> AllocStats {
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed).max(0) as u64,
    }
}
