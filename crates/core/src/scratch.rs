//! Reusable scratch arenas for the planner's hot loops.
//!
//! PR 4 and PR 7 kernelized the grouping and allocation inner loops,
//! but every plan still paid a fixed tax of per-call buffer
//! allocations: densified activity masks, per-cell score vectors,
//! frequency/zone/slot arrays, lazily-filled scaling-row tables. A
//! [`Scratch`] arena retires those buffers instead of dropping them and
//! hands the capacity back on the next checkout, so steady-state
//! planning (sweeps, the serve pool, the bench harness's timed loops)
//! performs **zero hot-loop buffer allocations** after warm-up.
//!
//! # Checkout discipline (DESIGN.md §4j)
//!
//! Arenas are owned by [`crate::PlanContext`] behind a [`ScratchPool`]:
//! each planning stage *checks out* a whole [`Scratch`] for the
//! duration of its work and returns it when dropped. Two rules keep
//! this safe under the deterministic parallel layer:
//!
//! 1. a checked-out [`Scratch`] is exclusively owned (`&mut`) by one
//!    stage on one thread — never shared, never aliased;
//! 2. concurrent stages (parallel regions, the two frequency bands)
//!    each check out their *own* arena, so plans sharing a
//!    [`crate::PlanContext`] across threads stay safe, and the pool
//!    simply grows to the peak concurrency ever observed.
//!
//! Buffer *contents* never survive a checkout observably: every `take`
//! clears and re-fills the buffer before returning it, so arena reuse
//! cannot change plan bytes (the cross-thread differential suite pins
//! this).
//!
//! # Probes
//!
//! Like the kernel-build counters, two process-wide probes make reuse
//! assertable: [`fresh_count`] counts takes that had to allocate (no
//! retired buffer, or retired capacity too small) and [`reuse_count`]
//! counts takes served entirely from retired capacity. The bench
//! harness asserts a zero `fresh` delta across its timed plan loops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Global count of arena takes that had to allocate. The bench harness
/// asserts this does not advance across warmed-up plan loops.
static FRESH: AtomicU64 = AtomicU64::new(0);

/// Global count of arena takes served from retired capacity.
static REUSED: AtomicU64 = AtomicU64::new(0);

/// Cumulative arena takes that allocated fresh capacity (probe).
pub fn fresh_count() -> u64 {
    FRESH.load(Ordering::Relaxed)
}

/// Cumulative arena takes served from retired capacity (probe).
pub fn reuse_count() -> u64 {
    REUSED.load(Ordering::Relaxed)
}

/// Takes a retired buffer, resized to `len` filled with `fill`,
/// counting the take against the fresh/reuse probes. Best-fit: the
/// smallest retired buffer whose capacity avoids a realloc is chosen,
/// so interleaved takes of different sizes (a score buffer between two
/// full-width tables, the XY band after the readout band) keep their
/// capacities matched regardless of retire order.
fn take_buf<T: Clone>(retired: &mut Vec<Vec<T>>, len: usize, fill: T) -> Vec<T> {
    let fit = retired
        .iter()
        .enumerate()
        .filter(|(_, b)| b.capacity() >= len)
        .min_by_key(|(_, b)| b.capacity())
        .map(|(i, _)| i);
    match fit {
        Some(i) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            let mut buf = retired.swap_remove(i);
            buf.clear();
            buf.resize(len, fill);
            buf
        }
        // No retired capacity is large enough: grow the biggest one (a
        // realloc, counted fresh) so the arena converges on the peak
        // sizes instead of hoarding too-small buffers.
        None => match retired.pop() {
            Some(mut buf) => {
                FRESH.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.resize(len, fill);
                buf
            }
            None => {
                FRESH.fetch_add(1, Ordering::Relaxed);
                vec![fill; len]
            }
        },
    }
}

/// Takes a retired nested buffer shaped to `len` *cleared* inner
/// vectors (inner capacity retained — the whole point), counting the
/// take. Unlike [`take_buf`], reuse demands an **exact** outer-length
/// match: shrinking a retired table would drop its tail of warm inner
/// vectors, so a plan that alternates two table shapes (the XY band's
/// wide scaling table, then the readout band's narrow one) would
/// cannibalize the wide table every cycle and re-allocate its rows
/// forever. Exact matching lets the distinct shapes coexist in the
/// store, one warm table per shape.
fn take_nested<T>(retired: &mut Vec<Vec<Vec<T>>>, len: usize) -> Vec<Vec<T>> {
    match retired.iter().position(|o| o.len() == len) {
        Some(i) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            let mut outer = retired.swap_remove(i);
            for inner in &mut outer {
                inner.clear();
            }
            outer
        }
        // No table of this shape retired yet: allocate one, leaving any
        // differently-shaped tables in the store for their own takers.
        None => {
            FRESH.fetch_add(1, Ordering::Relaxed);
            let mut outer = Vec::with_capacity(len);
            outer.resize_with(len, Vec::new);
            outer
        }
    }
}

/// One stage's worth of reusable buffers. Checked out of a
/// [`ScratchPool`] (or built standalone via `Scratch::default()` for
/// context-free planning), used exclusively by one stage on one
/// thread, and returned on drop.
#[derive(Debug, Default)]
pub struct Scratch {
    f64_bufs: Vec<Vec<f64>>,
    u64_bufs: Vec<Vec<u64>>,
    u32_bufs: Vec<Vec<u32>>,
    usize_bufs: Vec<Vec<usize>>,
    bool_bufs: Vec<Vec<bool>>,
    row_tables: Vec<Vec<Vec<f64>>>,
}

impl Scratch {
    /// Takes an `f64` buffer of `len` entries, every entry `fill`.
    pub fn take_f64(&mut self, len: usize, fill: f64) -> Vec<f64> {
        take_buf(&mut self.f64_bufs, len, fill)
    }

    /// Retires an `f64` buffer, keeping its capacity for the next take.
    pub fn retire_f64(&mut self, buf: Vec<f64>) {
        self.f64_bufs.push(buf);
    }

    /// Takes a `u64` buffer of `len` zeroed-to-`fill` entries.
    pub fn take_u64(&mut self, len: usize, fill: u64) -> Vec<u64> {
        take_buf(&mut self.u64_bufs, len, fill)
    }

    /// Retires a `u64` buffer.
    pub fn retire_u64(&mut self, buf: Vec<u64>) {
        self.u64_bufs.push(buf);
    }

    /// Takes a `u32` buffer of `len` entries, every entry `fill`.
    pub fn take_u32(&mut self, len: usize, fill: u32) -> Vec<u32> {
        take_buf(&mut self.u32_bufs, len, fill)
    }

    /// Retires a `u32` buffer.
    pub fn retire_u32(&mut self, buf: Vec<u32>) {
        self.u32_bufs.push(buf);
    }

    /// Takes a `usize` buffer of `len` entries, every entry `fill`.
    pub fn take_usize(&mut self, len: usize, fill: usize) -> Vec<usize> {
        take_buf(&mut self.usize_bufs, len, fill)
    }

    /// Retires a `usize` buffer.
    pub fn retire_usize(&mut self, buf: Vec<usize>) {
        self.usize_bufs.push(buf);
    }

    /// Takes a `bool` buffer of `len` entries, every entry `fill`.
    pub fn take_bool(&mut self, len: usize, fill: bool) -> Vec<bool> {
        take_buf(&mut self.bool_bufs, len, fill)
    }

    /// Retires a `bool` buffer.
    pub fn retire_bool(&mut self, buf: Vec<bool>) {
        self.bool_bufs.push(buf);
    }

    /// Takes a row table of `len` *empty* rows (inner capacity
    /// retained): the lazily-filled [`crate::ScalingTable`] shape,
    /// where an empty row means "not materialized yet".
    pub fn take_rows(&mut self, len: usize) -> Vec<Vec<f64>> {
        take_nested(&mut self.row_tables, len)
    }

    /// Retires a row table.
    pub fn retire_rows(&mut self, rows: Vec<Vec<f64>>) {
        self.row_tables.push(rows);
    }
}

/// A checkout pool of [`Scratch`] arenas, owned by
/// [`crate::PlanContext`].
///
/// Checkout pops an arena (or creates one when the pool is empty — the
/// only time after warm-up being a *new* level of concurrency), and the
/// guard returns it on drop. The pool therefore holds as many arenas as
/// the peak number of concurrent stages ever observed.
///
/// The pool is deliberately **identity-free**: cloning a context gives
/// the clone a fresh empty pool, and every pool compares equal, so
/// arenas can never make two contexts with equal planning inputs look
/// different (`PlanContext` derives `PartialEq` for exactly that
/// staleness check).
#[derive(Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Checks an arena out of the pool (creating one if none is
    /// retired). The guard returns it on drop.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        let scratch = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        ScratchGuard {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Number of arenas currently resting in the pool (test probe).
    pub fn idle(&self) -> usize {
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool").finish_non_exhaustive()
    }
}

impl Clone for ScratchPool {
    /// A cloned pool starts empty: arenas are warm capacity, not state.
    fn clone(&self) -> Self {
        ScratchPool::new()
    }
}

impl PartialEq for ScratchPool {
    /// Pools never differentiate their owners: arena capacity is not
    /// observable planning state.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Exclusive access to one checked-out [`Scratch`]; returns the arena
/// to its pool on drop.
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: Option<Scratch>,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.lock_pool().push(scratch);
        }
    }
}

impl ScratchPool {
    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_checkout_returns_arenas_on_drop() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let g1 = pool.checkout();
            let g2 = pool.checkout();
            assert_eq!(pool.idle(), 0);
            drop(g1);
            assert_eq!(pool.idle(), 1);
            drop(g2);
        }
        assert_eq!(pool.idle(), 2, "pool grew to peak concurrency");
        {
            let mut g = pool.checkout();
            let buf = g.take_u32(8, 7);
            g.retire_u32(buf);
        }
        assert_eq!(pool.idle(), 2, "checkout reuses resting arenas");
    }

    #[test]
    fn pools_are_identity_free() {
        let a = ScratchPool::new();
        {
            let mut g = a.checkout();
            let buf = g.take_u64(16, 0);
            g.retire_u64(buf);
        }
        let b = a.clone();
        assert_eq!(b.idle(), 0, "clones start empty");
        assert_eq!(a, b, "pools always compare equal");
    }
}
