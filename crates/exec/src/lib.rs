//! One CPU budget per process, and the deterministic fork that spends it.
//!
//! The process reads its core count once ([`cores`]) and keeps one
//! gauge of busy threads. Top-level work — a pool job, a sweep's point
//! worker, any thread that starts a fork without a unit — holds one unit
//! of it while it runs ([`hold`]); a thread blocked on a channel,
//! condvar or join holds none. A fork keeps its caller's unit and leases helpers only from
//! idle units ([`lease`]), and each helper leaves between items once the
//! gauge reads above the core count ([`Lease::stay`]). Top-level work is
//! never refused: its unit may push the gauge above the core count, and
//! that is what sends other forks' helpers home. So a lone request
//! spreads over the idle cores, and concurrent requests get one thread
//! each.
//!
//! [`ParallelExec`] is the fork the planner's chains and band rows, the
//! multi-die flow's dies and the sweep engine's contexts and points use;
//! the crosstalk fit leases its one helper directly. Forks nest: a fork
//! inside a helper's item keeps that helper's unit, so when every core
//! is busy it leases nothing and runs serially.
//!
//! No result depends on how many helpers a fork got. Every fork follows
//! the planner's rules (DESIGN.md §4j):
//!
//! 1. **Index-ordered merge** — concurrent per-item outputs are
//!    reassembled in item-index order before anything downstream reads
//!    them; completion order is unobservable.
//! 2. **Fixed-order reduction** — when per-thread partial buffers must
//!    be combined, the reduction walks the chunks in fixed ascending
//!    order, and no floating-point sum is ever split across threads
//!    (IEEE addition is not associative).
//! 3. **Serial fast path** — one thread, one item or no idle unit
//!    short-circuits to a plain loop with zero thread overhead, and that
//!    loop is the semantic definition the parallel path must reproduce.
//!
//! Threads are scoped spawns, one per leased unit per fork: item panics
//! reach the caller when the scope joins, and a helper's unit comes back
//! when it leaves, finishes or unwinds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::thread::{self, Scope};

/// A budget: the cores it spends and the units busy on them.
#[derive(Debug)]
struct Budget {
    cores: usize,
    /// Units held or leased. Every access is `Relaxed`: the gauge
    /// publishes no data, it only steers how many helpers run.
    busy: AtomicUsize,
}

/// The process's budget.
static GLOBAL: OnceLock<Budget> = OnceLock::new();

thread_local! {
    /// The budget whose unit this thread holds, if any.
    static HOLDS: Cell<Option<&'static Budget>> = const { Cell::new(None) };
}

impl Budget {
    fn new(cores: usize) -> Self {
        Budget {
            cores: cores.max(1),
            busy: AtomicUsize::new(0),
        }
    }

    fn global() -> &'static Budget {
        GLOBAL.get_or_init(|| {
            Budget::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
        })
    }

    fn hold(&'static self) -> Hold {
        let previous = HOLDS.get();
        if previous.is_some_and(|held| std::ptr::eq(held, self)) {
            return Hold(None);
        }
        self.busy.fetch_add(1, Ordering::Relaxed);
        HOLDS.set(Some(self));
        Hold(Some((self, previous)))
    }

    fn lease(&'static self, want: usize) -> Leases {
        let mut busy = self.busy.load(Ordering::Relaxed);
        let count = loop {
            let count = self.cores.saturating_sub(busy).min(want);
            if count == 0 {
                break 0;
            }
            match self.busy.compare_exchange_weak(
                busy,
                busy + count,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break count,
                Err(now) => busy = now,
            }
        };
        Leases {
            budget: self,
            count,
        }
    }

    /// Gives one unit back if the gauge reads above the core count.
    fn shed(&self) -> bool {
        let mut busy = self.busy.load(Ordering::Relaxed);
        while busy > self.cores {
            match self.busy.compare_exchange_weak(
                busy,
                busy - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => busy = now,
            }
        }
        false
    }

    fn release(&self, units: usize) {
        self.busy.fetch_sub(units, Ordering::Relaxed);
    }
}

/// The cores this process may run on, as
/// [`std::thread::available_parallelism`] reports them (it honours CPU
/// affinity masks and cgroup quotas), read once per process.
pub fn cores() -> usize {
    Budget::global().cores
}

/// Holds one unit of the process budget for top-level work until the
/// guard drops. The unit is taken even when no core is idle. A thread
/// that already holds a unit keeps it, and its guard does nothing.
pub fn hold() -> Hold {
    Budget::global().hold()
}

/// Leases up to `want` idle units of the process budget for a fork's
/// helpers: never more than the cores minus the units busy.
pub fn lease(want: usize) -> Leases {
    Budget::global().lease(want)
}

/// A thread's unit of the budget, given back when the guard drops (see
/// [`hold`]).
#[must_use = "the unit is given back when the guard drops"]
#[derive(Debug)]
pub struct Hold(Option<(&'static Budget, Option<&'static Budget>)>);

impl Drop for Hold {
    fn drop(&mut self) {
        if let Some((budget, previous)) = self.0 {
            budget.release(1);
            HOLDS.set(previous);
        }
    }
}

/// Units leased for a fork's helpers (see [`lease`]); the ones no
/// helper took go back when this drops.
#[must_use = "leased units are given back when this drops"]
#[derive(Debug)]
pub struct Leases {
    budget: &'static Budget,
    count: usize,
}

impl Leases {
    /// Spawns one helper per leased unit on `scope`. Each runs `work`
    /// with its unit, holding it for any fork inside, and gives it back
    /// when `work` returns or unwinds. A helper that cannot start gives
    /// its unit back at once, and the caller does its share.
    pub fn spawn<'scope, W>(mut self, scope: &'scope Scope<'scope, '_>, work: &'scope W)
    where
        W: Fn(&mut Lease) + Sync,
    {
        let budget = self.budget;
        while self.count > 0 {
            self.count -= 1;
            let lease = Lease { budget, held: true };
            // A failed spawn drops the closure, and the lease with it.
            let _ = thread::Builder::new().spawn_scoped(scope, move || {
                let mut lease = lease;
                HOLDS.set(Some(budget));
                work(&mut lease);
            });
        }
    }
}

impl Drop for Leases {
    fn drop(&mut self) {
        self.budget.release(self.count);
    }
}

/// One helper's unit of the budget (see [`Leases::spawn`]).
#[derive(Debug)]
pub struct Lease {
    budget: &'static Budget,
    held: bool,
}

impl Lease {
    /// Whether the helper should take another item. Once the gauge reads
    /// above the core count the unit goes back, and the answer is `false`
    /// from then on; the caller finishes the items left.
    pub fn stay(&mut self) -> bool {
        if self.held && self.budget.shed() {
            self.held = false;
        }
        self.held
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.held {
            self.budget.release(1);
        }
    }
}

/// A deterministic fork over the process budget, for the planner's
/// embarrassingly-parallel stages (the plan's XY, Z and readout chains,
/// scaling-row fills, per-die plans) and the sweep engine's contexts
/// and points.
///
/// Cheap to construct — it owns no threads, and the core count behind
/// it is read once per process; each [`Self::run`] spawns short-lived
/// scoped helpers on the units it leases.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExec {
    threads: usize,
    budget: &'static Budget,
}

impl ParallelExec {
    /// An executor whose forks run on at most `threads` threads, the
    /// caller included; `0` sets no cap, so the idle cores alone decide.
    pub fn new(threads: usize) -> Self {
        ParallelExec {
            threads,
            budget: Budget::global(),
        }
    }

    /// A serial executor (the planner default).
    pub fn serial() -> Self {
        ParallelExec::new(1)
    }

    /// The most threads a fork may run: the cap, or without one, the
    /// process's cores.
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            self.budget.cores
        } else {
            self.threads
        }
    }

    /// Whether [`Self::run`] may fan out for `items` items.
    pub fn is_parallel_for(&self, items: usize) -> bool {
        self.threads() > 1 && items > 1
    }

    /// Maps `f` over `0..items`, returning the results in index order.
    ///
    /// With one thread, fewer than two items or no idle unit this is a
    /// plain serial loop. Otherwise the caller, holding its unit, works
    /// beside one helper per leased unit (at most `threads − 1`, at most
    /// `items − 1`): every thread pulls indices from one atomic counter,
    /// a helper leaves between items once the budget is over, and the
    /// results are merged strictly in index order, so the returned
    /// vector is identical to the serial loop's no matter how the threads
    /// raced.
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
        let _unit = self.budget.hold();
        let leases = self.budget.lease(self.threads().min(items) - 1);
        if leases.count == 0 {
            return (0..items).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items);
        slots.resize_with(items, || None);
        let helper = |lease: &mut Lease| {
            while lease.stay() {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items {
                    break;
                }
                tx.send((index, f(index)))
                    .expect("the receiver outlives the scope");
            }
        };
        thread::scope(|s| {
            leases.spawn(s, &helper);
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items {
                    break;
                }
                slots[index] = Some(f(index));
            }
        });
        for (index, result) in rx.try_iter() {
            slots[index] = Some(result);
        }
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
    use std::time::{Duration, Instant};

    /// A private budget of `cores`, so a test's leases do not depend on
    /// the host or on tests running beside it. Leaked: threads mark the
    /// budget they hold with a `'static` reference.
    fn budget(cores: usize) -> &'static Budget {
        Box::leak(Box::new(Budget::new(cores)))
    }

    fn on(budget: &'static Budget, threads: usize) -> ParallelExec {
        ParallelExec { threads, budget }
    }

    fn busy(budget: &Budget) -> usize {
        budget.busy.load(Ordering::Relaxed)
    }

    /// Waits until `ready` holds, failing the test after ten seconds.
    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let started = Instant::now();
        while !ready() {
            assert!(started.elapsed() < Duration::from_secs(10), "{what}");
            thread::yield_now();
        }
    }

    #[test]
    fn threads_resolve_against_the_cores_read_once() {
        assert!(cores() >= 1);
        assert_eq!(ParallelExec::new(0).threads(), cores());
        assert_eq!(ParallelExec::new(3).threads(), 3);
        assert_eq!(ParallelExec::serial().threads(), 1);
        assert_eq!(on(budget(8), 0).threads(), 8);
        assert_eq!(Budget::new(0).cores, 1);
    }

    #[test]
    fn leases_never_exceed_the_idle_units() {
        let b = budget(4);
        let caller = b.hold();
        let again = b.hold();
        assert_eq!(busy(b), 1, "a thread holds one unit");
        let first = b.lease(2);
        assert_eq!(first.count, 2);
        let second = b.lease(5);
        assert_eq!(second.count, 1, "one unit was idle");
        assert_eq!(b.lease(1).count, 0);
        // Top-level work is never refused; it pushes the gauge over.
        let other = thread::scope(|s| {
            s.spawn(|| {
                let _unit = b.hold();
                busy(b)
            })
            .join()
            .expect("the holder ran")
        });
        assert_eq!(other, 5);
        drop((first, second, again));
        assert_eq!(busy(b), 1);
        drop(caller);
        assert_eq!(busy(b), 0);
    }

    #[test]
    fn a_helper_leaves_between_items_once_the_gauge_is_over() {
        let b = budget(2);
        let caller = thread::current().id();
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = (Mutex::new(started_tx), Mutex::new(started_rx));
        let go_rx = Mutex::new(go_rx);
        let helper_waited = AtomicBool::new(false);
        let caller_waited = AtomicBool::new(false);
        let results = on(b, 0).run(8, |i| {
            let me = thread::current().id();
            if me != caller && !helper_waited.swap(true, Ordering::SeqCst) {
                started_tx.lock().unwrap().send(()).unwrap();
                go_rx.lock().unwrap().recv().unwrap();
            } else if me == caller && !caller_waited.swap(true, Ordering::SeqCst) {
                started_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the helper took an item");
                // Another job starts: the gauge reads above the cores,
                // and the helper leaves while items are left.
                b.busy.fetch_add(1, Ordering::Relaxed);
                go_tx.send(()).unwrap();
                wait_until("the helper gave its unit back", || busy(b) == 2);
            }
            (i * i, me)
        });
        let values: Vec<usize> = results.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..8).map(|i| i * i).collect::<Vec<_>>());
        let on_helper = results.iter().filter(|&&(_, t)| t != caller).count();
        assert_eq!(on_helper, 1, "the helper left after its one item");
        assert_eq!(busy(b), 1, "only the other job's unit is left");
        b.release(1);
    }

    #[test]
    fn units_come_back_when_an_item_panics() {
        let b = budget(2);
        let caller = thread::current().id();
        for panics_on_caller in [false, true] {
            let barrier = Barrier::new(2);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on(b, 0).run(2, |_| {
                    barrier.wait();
                    assert!(
                        (thread::current().id() == caller) != panics_on_caller,
                        "item panicked"
                    );
                })
            }));
            assert!(result.is_err(), "the panic reached the caller");
            assert_eq!(busy(b), 0, "every unit came back");
        }
    }

    #[test]
    fn a_fork_in_a_helpers_item_leases_nothing_when_every_core_is_busy() {
        let b = budget(2);
        let caller = thread::current().id();
        let (before, after) = (Barrier::new(2), Barrier::new(2));
        let results = on(b, 0).run(2, |i| {
            before.wait();
            let me = thread::current().id();
            let inner = on(b, 0).run(5, |j| {
                // Each inner fork keeps its thread's unit: none is added.
                assert_eq!(busy(b), 2, "the inner fork held a unit of its own");
                (i * 5 + j, thread::current().id())
            });
            after.wait();
            assert!(
                inner.iter().all(|&(_, t)| t == me),
                "the inner fork ran serially"
            );
            (
                me != caller,
                inner.into_iter().map(|(v, _)| v).collect::<Vec<_>>(),
            )
        });
        assert!(results.iter().any(|&(on_helper, _)| on_helper));
        let inner: Vec<usize> = results.into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(inner, (0..10).collect::<Vec<_>>());
        assert_eq!(busy(b), 0);
    }

    #[test]
    fn merges_equal_the_serial_loop_at_every_budget_size() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for cores in [1, 2, 8] {
            let b = budget(cores);
            for threads in [0, 1, 2, 4, 8] {
                let exec = on(b, threads);
                assert_eq!(exec.run(37, |i| i * i), expected, "{cores}/{threads}");
                let nested = exec.run(5, |i| exec.run(7, |j| i * 7 + j));
                assert_eq!(nested.concat(), (0..35).collect::<Vec<_>>());
            }
            assert_eq!(busy(b), 0, "{cores} cores");
        }
    }

    #[test]
    fn run_handles_empty_and_singleton_inputs() {
        let exec = on(budget(4), 4);
        assert_eq!(exec.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.run(1, |i| i + 10), vec![10]);
        assert!(!exec.is_parallel_for(1));
        assert!(exec.is_parallel_for(2));
        assert!(!on(budget(1), 0).is_parallel_for(2));
    }

    #[test]
    fn run_puts_its_caller_to_work() {
        // Each item waits until `threads` items are running at once, so
        // every thread of the fork runs exactly one of them.
        let caller = thread::current().id();
        for threads in [2, 4] {
            let barrier = Barrier::new(threads);
            let ran_on = on(budget(8), threads).run(threads, |_| {
                barrier.wait();
                thread::current().id()
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
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let helper_done = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            on(budget(2), 2).run(2, |_| {
                barrier.wait();
                if thread::current().id() == caller {
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
        let exec = on(budget(2), 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
    }
}
