//! Deterministic intra-plan parallel execution.
//!
//! [`ParallelExec`] is the planner's small scoped-thread fan-out
//! primitive, reusing the sweep engine's index-ordered-merge pattern:
//! the caller and its helpers pull item indices from one atomic
//! counter and send `(index, result)` pairs over a channel, and the
//! caller slots them by index. Because the merge order is the *item*
//! order — never the completion order — every consumer observes
//! results exactly as a serial loop would produce them, so plans stay
//! **byte-identical across any thread count** (the PR 4 / PR 7
//! determinism contract, extended from "kernelized = naive" to
//! "parallel = serial").
//!
//! Rules the planner's parallel stages follow (DESIGN.md §4j):
//!
//! 1. **Index-ordered merge** — concurrent per-item outputs are always
//!    reassembled in item-index order before anything downstream reads
//!    them; completion order is unobservable.
//! 2. **Fixed-order reduction** — when per-thread partial buffers must
//!    be combined, the reduction walks the chunks in fixed ascending
//!    order, and no floating-point sum is ever split across threads
//!    (IEEE addition is not associative).
//! 3. **Serial fast path** — one thread or one item short-circuits to
//!    a plain loop with zero thread overhead, and that loop is the
//!    semantic definition the parallel path must reproduce.
//!
//! Item panics propagate to the caller when the scope joins, so a
//! poisoned stage cannot silently return partial results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A deterministic scoped-thread executor for the planner's
/// embarrassingly-parallel stages (the plan's XY, Z and readout chains,
/// scaling-row fills, per-die plans).
///
/// Cheap to construct — it owns no threads; each [`Self::run`] spawns
/// short-lived scoped helpers. The thread count is resolved once at
/// construction: `0` means one per available core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExec {
    threads: usize,
}

impl ParallelExec {
    /// Creates an executor with `threads` workers; `0` resolves to one
    /// per available core (as reported by the OS, min 1).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ParallelExec { threads }
    }

    /// A serial executor (the planner default).
    pub fn serial() -> Self {
        ParallelExec { threads: 1 }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether [`Self::run`] would actually fan out for `items` items.
    pub fn is_parallel_for(&self, items: usize) -> bool {
        self.threads > 1 && items > 1
    }

    /// Maps `f` over `0..items`, returning the results in index order.
    ///
    /// With one thread (or fewer than two items) this is a plain serial
    /// loop. Otherwise it spawns `min(threads, items) − 1` helpers and
    /// the calling thread works beside them: every thread pulls indices
    /// from one atomic counter, and the results are merged strictly in
    /// index order, so the returned vector is identical to the serial
    /// loop's no matter how the threads raced.
    ///
    /// # Panics
    ///
    /// Re-raises any item's panic, the caller's own included, once every
    /// helper has finished.
    pub fn run<R, F>(&self, items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if !self.is_parallel_for(items) {
            return (0..items).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let work = |tx: mpsc::Sender<(usize, R)>| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= items || tx.send((index, f(index))).is_err() {
                break;
            }
        };
        let (tx, rx) = mpsc::channel();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items);
        slots.resize_with(items, || None);
        std::thread::scope(|s| {
            let work = &work;
            for _ in 1..self.threads.min(items) {
                let tx = tx.clone();
                s.spawn(move || work(tx));
            }
            work(tx);
            for (index, result) in rx {
                slots[index] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        assert!(ParallelExec::new(0).threads() >= 1);
        assert_eq!(ParallelExec::new(3).threads(), 3);
        assert_eq!(ParallelExec::serial().threads(), 1);
    }

    #[test]
    fn run_merges_in_index_order_across_thread_counts() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            let exec = ParallelExec::new(threads);
            assert_eq!(exec.run(37, |i| i * i), expected, "{threads} threads");
        }
    }

    #[test]
    fn run_handles_empty_and_singleton_inputs() {
        let exec = ParallelExec::new(4);
        assert_eq!(exec.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.run(1, |i| i + 10), vec![10]);
        assert!(!exec.is_parallel_for(1));
        assert!(exec.is_parallel_for(2));
    }

    #[test]
    fn run_puts_its_caller_to_work() {
        // Each item waits until `threads` items are running at once, so
        // every thread of the fan-out runs exactly one of them.
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            let barrier = Barrier::new(threads);
            let ran_on = ParallelExec::new(threads).run(threads, |_| {
                barrier.wait();
                std::thread::current().id()
            });
            assert!(ran_on.contains(&caller), "{threads} threads");
        }
    }

    #[test]
    fn caller_panics_propagate_after_helpers_finish() {
        // The helper's item finishes only once the caller's item has
        // panicked and its unwinding dropped `Unwound`.
        struct Unwound(mpsc::Sender<()>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let helper_done = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ParallelExec::new(2).run(2, |_| {
                barrier.wait();
                if std::thread::current().id() == caller {
                    let _unwound = Unwound(tx.clone());
                    panic!("caller's item");
                }
                rx.lock().unwrap().recv().unwrap();
                helper_done.store(true, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the caller's item panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller's item"));
        assert!(helper_done.load(Ordering::SeqCst));
    }

    #[test]
    fn worker_panics_propagate() {
        let exec = ParallelExec::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
    }
}
