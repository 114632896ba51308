//! The std-only worker pool.
//!
//! One OS thread per core (by default) pulls tasks from a shared
//! `Mutex<VecDeque>` guarded by a condvar, runs them through a
//! caller-supplied [`Executor`], and streams finished [`JobRecord`]s
//! back over an `mpsc` channel. Per-job semantics:
//!
//! * **deadline** — each task gets a [`CancelToken`] armed with its
//!   deadline; the executor polls it between pipeline stages, and an
//!   expiry is reported as [`ErrorKind::Timeout`];
//! * **bounded retry** — a transient [`ExecError`] is retried up to
//!   `max_retries` times, the attempt number flowing back into the
//!   executor so it can perturb the characterization seed; the deadline
//!   spans *all* attempts of a job;
//! * **graceful shutdown** — [`WorkerPool::join`] stops intake, lets
//!   workers drain every queued task, and returns the not-yet-consumed
//!   records; [`WorkerPool::abort`] additionally cancels queued and
//!   in-flight tasks, which then complete as [`ErrorKind::Cancelled`]
//!   records rather than vanishing — even when a job's deadline has
//!   *also* expired, the explicit abort wins the classification.
//!
//! Panics in the executor are caught per job (`catch_unwind`) and
//! surfaced as [`ErrorKind::Internal`] records: a poisoned job never
//! takes the process or the pool down.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use youtiao_obs::Tracer;

use crate::cancel::CancelToken;
use crate::job::{ErrorKind, ErrorRecord, ExecError, JobRecord};

/// The work a pool runs: `(payload, attempt context) -> result`.
///
/// The executor must poll `ctx.cancel` between expensive stages for
/// deadlines and aborts to take effect, and should vary any stochastic
/// seeding by `ctx.attempt` so retries explore different seeds.
pub type Executor<J, R> = Arc<dyn Fn(&J, &AttemptCtx) -> Result<R, ExecError> + Send + Sync>;

/// Per-attempt context handed to the executor.
#[derive(Debug, Clone)]
pub struct AttemptCtx {
    /// 0 for the first attempt, 1.. for retries.
    pub attempt: u32,
    /// The job's batch index, stable across attempts. Deterministic
    /// per-job behaviour (e.g. seeded fault schedules) keys on it.
    pub index: usize,
    /// Deadline/abort flag to poll between stages.
    pub cancel: CancelToken,
    /// The job's tracer (disabled unless [`PoolOptions::trace`] is
    /// set); executors open stage spans on it.
    pub tracer: Tracer,
}

impl AttemptCtx {
    /// An untraced context for job index 0 (tests and simple executors).
    pub fn new(attempt: u32, cancel: CancelToken) -> Self {
        AttemptCtx {
            attempt,
            index: 0,
            cancel,
            tracer: Tracer::disabled(),
        }
    }

    /// The same context for a different job index.
    pub fn with_index(mut self, index: usize) -> Self {
        self.index = index;
        self
    }
}

/// Pool sizing and retry policy.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Retries after the first attempt of a transiently failing job.
    pub max_retries: u32,
    /// Default per-job deadline; per-task deadlines override it.
    pub deadline: Option<Duration>,
    /// Record a span trace per job (attempt spans, queue wait, plus
    /// whatever stage spans the executor opens) and attach it to the
    /// job's record.
    pub trace: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            workers: 0,
            max_retries: 2,
            deadline: None,
            trace: false,
        }
    }
}

impl PoolOptions {
    /// The worker-thread count this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The `--plan-threads` × `--jobs` oversubscription policy: resolves
/// the intra-plan thread count a serve front-end should hand the
/// planner, given the pool's effective worker count.
///
/// * An explicit request (`requested > 0`) always wins — the operator
///   opted into `workers × requested` threads knowingly.
/// * Auto (`requested == 0`) with more than one pool worker resolves to
///   **1**: the pool already saturates the cores with independent jobs,
///   and nesting per-plan fan-out on top would oversubscribe every one
///   of them.
/// * Auto with a single worker resolves to **0** (one thread per core
///   at the planner level): tail latency of the lone in-flight plan is
///   all that matters, so the plan gets the whole machine.
///
/// Plans are byte-identical across any resolved value, so this policy
/// is pure scheduling — it can never change a served plan.
pub fn effective_plan_threads(requested: usize, workers: usize) -> usize {
    if requested > 0 {
        requested
    } else if workers > 1 {
        1
    } else {
        0
    }
}

struct Task<J> {
    index: usize,
    id: String,
    payload: J,
    deadline: Option<Duration>,
    submitted: Instant,
}

struct Shared<J> {
    queue: Mutex<VecDeque<Task<J>>>,
    available: Condvar,
    closed: AtomicBool,
    aborted: AtomicBool,
    /// Cancel tokens of in-flight tasks, keyed by task index, so
    /// [`WorkerPool::abort`] can reach running jobs.
    in_flight: Mutex<HashMap<usize, CancelToken>>,
}

/// A fixed-size pool of design workers streaming [`JobRecord`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use youtiao_serve::{PoolOptions, WorkerPool};
///
/// let mut pool = WorkerPool::new(
///     Arc::new(|n: &u64, _ctx| Ok(n * 2)),
///     PoolOptions { workers: 2, ..Default::default() },
/// );
/// for n in 0..4u64 {
///     pool.submit(n as usize, format!("job-{n}"), n, None);
/// }
/// let mut records = pool.join();
/// records.sort_by_key(|r| r.index);
/// assert_eq!(records.len(), 4);
/// assert_eq!(records[3].result, Some(6));
/// ```
pub struct WorkerPool<J, R> {
    shared: Arc<Shared<J>>,
    results: Receiver<JobRecord<R>>,
    handles: Vec<JoinHandle<()>>,
    submitted: usize,
}

impl<J, R> WorkerPool<J, R>
where
    J: Send + 'static,
    R: Send + 'static,
{
    /// Spawns the worker threads.
    pub fn new(executor: Executor<J, R>, options: PoolOptions) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            in_flight: Mutex::new(HashMap::new()),
        });
        let (sender, results) = channel::<JobRecord<R>>();
        let handles = (0..options.effective_workers())
            .map(|_| {
                let shared = Arc::clone(&shared);
                let executor = Arc::clone(&executor);
                let options = options.clone();
                let sender = sender.clone();
                std::thread::spawn(move || worker_loop(&shared, &executor, &options, &sender))
            })
            .collect();
        WorkerPool {
            shared,
            results,
            handles,
            submitted: 0,
        }
    }

    /// Enqueues a task. Returns `false` (dropping the task) once the
    /// pool is closed or aborted.
    pub fn submit(
        &mut self,
        index: usize,
        id: String,
        payload: J,
        deadline: Option<Duration>,
    ) -> bool {
        if self.shared.closed.load(Ordering::SeqCst) {
            return false;
        }
        self.shared
            .queue
            .lock()
            .expect("pool queue")
            .push_back(Task {
                index,
                id,
                payload,
                deadline,
                submitted: Instant::now(),
            });
        self.shared.available.notify_one();
        self.submitted += 1;
        true
    }

    /// Tasks accepted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// The stream of finished records, in completion order.
    pub fn results(&self) -> &Receiver<JobRecord<R>> {
        &self.results
    }

    /// Cancels queued and in-flight tasks. Every affected task still
    /// yields a [`JobStatus::Error`](crate::JobStatus::Error) record
    /// with kind [`ErrorKind::Cancelled`].
    pub fn abort(&self) {
        {
            // Store under the queue lock: a worker reads `closed` and
            // starts waiting within one critical section, so it either
            // sees the flag or is already waiting when `notify_all`
            // runs. A store outside the lock could land between its
            // read and its wait, and that worker would sleep forever.
            let _queue = self.shared.queue.lock().expect("pool queue");
            self.shared.aborted.store(true, Ordering::SeqCst);
            self.shared.closed.store(true, Ordering::SeqCst);
        }
        for token in self
            .shared
            .in_flight
            .lock()
            .expect("in-flight set")
            .values()
        {
            token.cancel();
        }
        self.shared.available.notify_all();
    }

    /// Graceful shutdown: stops intake, drains every queued task, joins
    /// the workers, and returns the records not yet consumed through
    /// [`Self::results`].
    pub fn join(self) -> Vec<JobRecord<R>> {
        {
            // Under the queue lock, as in `abort`.
            let _queue = self.shared.queue.lock().expect("pool queue");
            self.shared.closed.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for handle in self.handles {
            let _ = handle.join();
        }
        // All senders are gone once workers exit; drain what is left.
        self.results.try_iter().collect()
    }
}

fn worker_loop<J, R>(
    shared: &Shared<J>,
    executor: &Executor<J, R>,
    options: &PoolOptions,
    sender: &Sender<JobRecord<R>>,
) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.closed.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("pool queue");
            }
        };
        let Some(task) = task else { return };
        let record = run_task(shared, executor, options, task);
        if sender.send(record).is_err() {
            return; // Receiver dropped; nobody wants further results.
        }
    }
}

fn run_task<J, R>(
    shared: &Shared<J>,
    executor: &Executor<J, R>,
    options: &PoolOptions,
    task: Task<J>,
) -> JobRecord<R> {
    let start = Instant::now();
    if shared.aborted.load(Ordering::SeqCst) {
        return JobRecord::error(
            task.index,
            task.id,
            ErrorRecord {
                kind: ErrorKind::Cancelled,
                message: "pool aborted before the job started".into(),
            },
            0,
            0.0,
        );
    }
    let deadline = task.deadline.or(options.deadline);
    let token = CancelToken::with_optional_deadline(deadline);
    {
        // Register the token, then re-check the abort flag while still
        // holding the lock. `abort()` stores `aborted` before locking
        // `in_flight`, so the two interleavings are exhaustive: either
        // the store is visible here (cancel our own token), or the
        // abort's sweep runs after this insert and finds the token in
        // the map. Checking `aborted` only before the insert left a
        // window where an abort cancelled nothing and the job ran to
        // completion.
        let mut in_flight = shared.in_flight.lock().expect("in-flight set");
        in_flight.insert(task.index, token.clone());
        if shared.aborted.load(Ordering::SeqCst) {
            token.cancel();
        }
    }

    let tracer = if options.trace {
        Tracer::new(task.id.clone())
    } else {
        Tracer::disabled()
    };
    tracer.annotate(
        "queue_wait_ms",
        start.duration_since(task.submitted).as_secs_f64() * 1e3,
    );

    let mut attempt: u32 = 0;
    let outcome = loop {
        let ctx = AttemptCtx {
            attempt,
            index: task.index,
            cancel: token.clone(),
            tracer: tracer.clone(),
        };
        let span = tracer.span("attempt");
        let result = catch_unwind(AssertUnwindSafe(|| executor(&task.payload, &ctx)))
            .unwrap_or_else(|panic| {
                Err(ExecError::permanent(
                    ErrorKind::Internal,
                    panic_message(&panic),
                ))
            });
        drop(span);
        match result {
            Ok(value) => break Ok(value),
            Err(e) if e.transient && attempt < options.max_retries && !token.is_cancelled() => {
                attempt += 1;
            }
            Err(e) => break Err(e),
        }
    };
    shared
        .in_flight
        .lock()
        .expect("in-flight set")
        .remove(&task.index);

    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let attempts = attempt + 1;
    tracer.annotate("attempts", attempts as u64);
    let trace = tracer.try_finish();
    match outcome {
        Ok(value) => {
            JobRecord::ok(task.index, task.id, value, attempts, latency_ms).with_trace(trace)
        }
        Err(e) => {
            // An executor that stopped at a checkpoint reports Cancelled;
            // whether that was the deadline or an abort is the token's
            // knowledge, not the pipeline's. An explicit abort takes
            // precedence: a job that was both aborted and past its
            // deadline is `Cancelled`, not `Timeout`.
            let (kind, message) = if e.kind == ErrorKind::Cancelled
                && token.deadline_expired()
                && !token.cancelled_explicitly()
            {
                let budget = deadline.unwrap_or_default();
                (
                    ErrorKind::Timeout,
                    format!("deadline of {} ms expired", budget.as_millis()),
                )
            } else {
                (e.kind, e.message)
            };
            JobRecord::error(
                task.index,
                task.id,
                ErrorRecord { kind, message },
                attempts,
                latency_ms,
            )
            .with_trace(trace)
        }
    }
}

/// Best-effort panic payload extraction.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("executor panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("executor panicked: {s}")
    } else {
        "executor panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobStatus;
    use std::sync::atomic::AtomicU32;

    fn doubling_pool(workers: usize) -> WorkerPool<u64, u64> {
        WorkerPool::new(
            Arc::new(|n: &u64, _ctx| Ok(n * 2)),
            PoolOptions {
                workers,
                ..Default::default()
            },
        )
    }

    #[test]
    fn completes_all_jobs_across_workers() {
        let mut pool = doubling_pool(4);
        for n in 0..32u64 {
            assert!(pool.submit(n as usize, format!("j{n}"), n, None));
        }
        let mut records = pool.join();
        records.sort_by_key(|r| r.index);
        assert_eq!(records.len(), 32);
        for (n, record) in records.iter().enumerate() {
            assert_eq!(record.status, JobStatus::Ok);
            assert_eq!(record.result, Some(n as u64 * 2));
            assert_eq!(record.attempts, 1);
        }
    }

    #[test]
    fn transient_errors_retry_with_attempt_numbers() {
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in = Arc::clone(&calls);
        let executor: Executor<u32, u32> = Arc::new(move |_, ctx| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            if ctx.attempt < 2 {
                Err(ExecError::transient(ErrorKind::Plan, "crowded"))
            } else {
                Ok(ctx.attempt)
            }
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                max_retries: 2,
                deadline: None,
                trace: false,
            },
        );
        pool.submit(0, "retry".into(), 0, None);
        let records = pool.join();
        assert_eq!(records[0].status, JobStatus::Ok);
        assert_eq!(records[0].result, Some(2));
        assert_eq!(records[0].attempts, 3);
        assert_eq!(records[0].retries(), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let executor: Executor<u32, u32> =
            Arc::new(|_, _| Err(ExecError::permanent(ErrorKind::InvalidRequest, "bad")));
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                max_retries: 5,
                deadline: None,
                trace: false,
            },
        );
        pool.submit(0, "perm".into(), 0, None);
        let records = pool.join();
        assert_eq!(records[0].attempts, 1);
        let error = records[0].error.as_ref().unwrap();
        assert_eq!(error.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn expired_deadline_reports_timeout() {
        let executor: Executor<u32, u32> = Arc::new(|_, ctx| {
            ctx.cancel
                .checkpoint()
                .map_err(|_| ExecError::cancelled())?;
            Ok(1)
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                ..Default::default()
            },
        );
        pool.submit(0, "late".into(), 0, Some(Duration::ZERO));
        let records = pool.join();
        let error = records[0].error.as_ref().unwrap();
        assert_eq!(error.kind, ErrorKind::Timeout, "{error:?}");
        assert!(error.message.contains("deadline"));
    }

    #[test]
    fn abort_cancels_queued_jobs_with_records() {
        let executor: Executor<u32, u32> = Arc::new(|n, ctx| {
            // Busy-wait until cancelled so queued tasks pile up.
            if *n == 0 {
                while ctx.cancel.checkpoint().is_ok() {
                    std::thread::yield_now();
                }
                return Err(ExecError::cancelled());
            }
            Ok(*n)
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                ..Default::default()
            },
        );
        for n in 0..8u32 {
            pool.submit(n as usize, format!("j{n}"), n, None);
        }
        // Give the single worker time to start job 0, then abort.
        std::thread::sleep(Duration::from_millis(20));
        pool.abort();
        let mut records = pool.join();
        records.sort_by_key(|r| r.index);
        assert_eq!(records.len(), 8, "every job yields a record");
        assert_eq!(
            records[0].error.as_ref().unwrap().kind,
            ErrorKind::Cancelled
        );
        assert!(records
            .iter()
            .skip(1)
            .all(|r| r.error.as_ref().unwrap().kind == ErrorKind::Cancelled));
    }

    /// Both orderings of abort vs. deadline expiry: the explicit abort
    /// wins the classification either way. The expired-deadline case
    /// reported `Timeout` before the precedence fix.
    #[test]
    fn abort_takes_precedence_over_expired_deadline() {
        let executor: Executor<u32, u32> = Arc::new(|_, ctx| {
            // Wait out the abort, so the deadline is long expired by
            // the time the executor stops at its checkpoint.
            while !ctx.cancel.cancelled_explicitly() {
                std::thread::yield_now();
            }
            Err(ExecError::cancelled())
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                ..Default::default()
            },
        );
        pool.submit(0, "both".into(), 0, Some(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(20));
        pool.abort();
        let records = pool.join();
        let error = records[0].error.as_ref().unwrap();
        assert_eq!(
            error.kind,
            ErrorKind::Cancelled,
            "abort must not be reported as a timeout: {error:?}"
        );
    }

    #[test]
    fn abort_before_deadline_expiry_reports_cancelled() {
        let executor: Executor<u32, u32> = Arc::new(|_, ctx| {
            while ctx.cancel.checkpoint().is_ok() {
                std::thread::yield_now();
            }
            Err(ExecError::cancelled())
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                ..Default::default()
            },
        );
        pool.submit(0, "aborted".into(), 0, Some(Duration::from_secs(3600)));
        std::thread::sleep(Duration::from_millis(10));
        pool.abort();
        let records = pool.join();
        assert_eq!(
            records[0].error.as_ref().unwrap().kind,
            ErrorKind::Cancelled
        );
    }

    #[test]
    fn attempt_ctx_carries_the_job_index() {
        let executor: Executor<u32, usize> = Arc::new(|_, ctx| Ok(ctx.index));
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 2,
                ..Default::default()
            },
        );
        for n in 0..6u32 {
            pool.submit(10 + n as usize, format!("j{n}"), n, None);
        }
        let records = pool.join();
        for record in records {
            assert_eq!(record.result, Some(record.index));
        }
        assert_eq!(
            AttemptCtx::new(0, CancelToken::new()).with_index(7).index,
            7
        );
    }

    #[test]
    fn traced_pool_attaches_attempt_spans() {
        let executor: Executor<u32, u32> = Arc::new(|_, ctx| {
            let _work = ctx.tracer.span("work");
            if ctx.attempt == 0 {
                Err(ExecError::transient(ErrorKind::Plan, "first try fails"))
            } else {
                Ok(7)
            }
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 1,
                trace: true,
                ..Default::default()
            },
        );
        pool.submit(0, "traced".into(), 0, None);
        let records = pool.join();
        let trace = records[0].trace.as_ref().unwrap();
        assert_eq!(trace.job, "traced");
        let attempts: Vec<_> = trace.spans.iter().filter(|s| s.name == "attempt").collect();
        assert_eq!(attempts.len(), 2, "one span per attempt");
        assert!(attempts[1].find("work").is_some());
        assert_eq!(trace.annotations["attempts"], 2u64);
        assert!(trace.annotations["queue_wait_ms"].as_f64().unwrap() >= 0.0);

        // Without the option, records stay bare.
        let mut pool = doubling_pool(1);
        pool.submit(0, "bare".into(), 1, None);
        assert!(pool.join()[0].trace.is_none());
    }

    #[test]
    fn executor_panic_becomes_internal_error() {
        let executor: Executor<u32, u32> = Arc::new(|n, _| {
            if *n == 1 {
                panic!("boom {n}");
            }
            Ok(*n)
        });
        let mut pool = WorkerPool::new(
            executor,
            PoolOptions {
                workers: 2,
                ..Default::default()
            },
        );
        pool.submit(0, "fine".into(), 0, None);
        pool.submit(1, "boom".into(), 1, None);
        let mut records = pool.join();
        records.sort_by_key(|r| r.index);
        assert_eq!(records[0].status, JobStatus::Ok);
        let error = records[1].error.as_ref().unwrap();
        assert_eq!(error.kind, ErrorKind::Internal);
        assert!(error.message.contains("boom"), "{}", error.message);
    }

    #[test]
    fn submit_after_close_is_rejected() {
        let pool = doubling_pool(1);
        pool.abort();
        let mut pool = pool;
        assert!(!pool.submit(0, "late".into(), 1, None));
        assert!(pool.join().is_empty());
    }

    #[test]
    fn plan_thread_policy_resolves_oversubscription() {
        // Explicit requests always win, whatever the pool looks like.
        assert_eq!(effective_plan_threads(4, 1), 4);
        assert_eq!(effective_plan_threads(4, 8), 4);
        assert_eq!(effective_plan_threads(1, 8), 1);
        // Auto: a multi-worker pool keeps plans serial; a lone worker
        // hands the plan one thread per core (planner-level 0).
        assert_eq!(effective_plan_threads(0, 2), 1);
        assert_eq!(effective_plan_threads(0, 16), 1);
        assert_eq!(effective_plan_threads(0, 1), 0);
    }
}
