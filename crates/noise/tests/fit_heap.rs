//! The heap `characterize_xy` takes. It drops its synthesized samples
//! once the weight grid holds their classes and targets, before the
//! cross-validation allocates its buffers, so its peak stays well below
//! the samples plus the fit's own peak: on heavy-hex 127 (15 500
//! samples, 496 000 bytes) 1.16–1.21 MB with the fit's helper and
//! 1.00 MB without, where a fit that keeps its samples peaks at
//! 1.65–1.70 MB and 1.50 MB.
//!
//! A counting global allocator sees every allocation of the process,
//! so this check lives alone in its binary, in a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use youtiao_chip::topology;
use youtiao_noise::{
    characterize_xy, fit_crosstalk_model, synthesize, CrosstalkKind, CrosstalkSample, FitConfig,
    SynthConfig,
};

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

/// The most bytes live above the start while `f` runs.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
#[ignore = "a 127-qubit paper fit is slow in debug builds; run with --release"]
fn characterize_drops_its_samples_before_cross_validating() {
    let chip = topology::ibm_heavy_hex(127);
    let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 3);
    let sample_bytes = samples.capacity() * std::mem::size_of::<CrosstalkSample>();
    // The weight grid and the CV's buffers, over samples made before.
    let fit = peak_above_start(|| fit_crosstalk_model(&samples, &FitConfig::paper()).unwrap());
    drop(samples);
    let characterize = peak_above_start(|| characterize_xy(&chip, 3).unwrap());
    // Half the samples is far above what a run's threads move the peak
    // by (the helper's buffers, about 150 KB here).
    assert!(
        characterize + sample_bytes / 2 < sample_bytes + fit,
        "characterize_xy peaked at {characterize} bytes: the samples ({sample_bytes} bytes) \
         live through a fit that peaks at {fit}"
    );
}
