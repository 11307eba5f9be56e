//! Benchmark-owned counting allocator (the `alloc.*` layer metrics).
//!
//! Wraps the system allocator. Counting is off except inside the traced
//! pass, where an untraced repetition would otherwise pay four relaxed
//! atomic updates per allocation; with counting off the only added cost is
//! one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// All statistics: they publish no other data, so Relaxed is enough.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: blocks allocated before counting started may be freed after.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals since [`start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    pub count: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// `self - earlier` for the cumulative fields; the peak is kept.
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// Zero the statistics and start counting.
pub fn start() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

pub fn stop() {
    ON.store(false, Relaxed);
}

pub fn snapshot() -> AllocStats {
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}
