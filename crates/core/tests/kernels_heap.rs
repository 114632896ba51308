//! The heap a [`PairKernels`] build takes. Its tables are a legality
//! bitset and sparse rows, so a 24×24 grid (1 680 devices) peaks below
//! 4 MB, where dense devices×devices `f64` tables of `topo` and `noise`
//! would take 45 MB.
//!
//! A counting global allocator sees every allocation of the process,
//! so this check lives alone in its binary, in a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use youtiao_chip::topology;
use youtiao_core::PairKernels;

/// A counting wrapper around the system allocator: live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// two atomic counters and never touches the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` obligations pass through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn kernels_build_at_24x24_peaks_below_four_megabytes() {
    let chip = topology::square_grid(24, 24);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let kernels = PairKernels::build(&chip);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(kernels.num_devices(), 1680);
    assert!(
        peak < 4_000_000,
        "PairKernels::build at 24x24 peaked at {peak} bytes"
    );
}
