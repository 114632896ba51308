//! Deterministic, seeded fault injection for the serving layer.
//!
//! A [`FaultPlan`] is a serde-defined schedule of failures: per-attempt
//! rates for transient errors, permanent errors, executor panics,
//! injected delays (which force deadline expiry) and self-cancellation,
//! plus batch-level faults — a mid-run [`abort_after`](FaultPlan)
//! threshold and a [`CacheFault`] that mangles the persisted plan-cache
//! file. A [`FaultInjector`] wraps any [`Executor`] with the plan and
//! counts what it injected in [`FaultCounters`].
//!
//! The daemon tier adds three more session-level faults, following the
//! `abort_after`/`cache_fault` field precedent rather than the
//! per-attempt schedule (they perturb the *service*, not an attempt):
//! an [`overload_burst`](FaultPlan) that injects phantom queue depth
//! into admission control over a fixed request range (so shed/accept
//! outcomes are pure functions of the plan, independent of real
//! timing), a [`slow_client_ms`](FaultPlan) stall before response
//! writes (exercising backpressure without touching computed bytes),
//! and a [`shard_loss`](FaultPlan) that deletes one cache shard's
//! persistence file before the session loads.
//!
//! # Determinism contract
//!
//! Whether attempt `a` of job `i` faults — and how — is the pure
//! function [`FaultPlan::fault_at`]`(i, a)`: a splitmix64 hash of
//! `(seed, i, a)` mapped to a unit float and compared against the
//! cumulative fault rates, in the fixed order *transient, permanent,
//! panic, delay, cancel, drift* (new kinds append, so a plan that
//! leaves them at rate 0 keeps its historical schedule bit-for-bit).
//! No wall clock, thread id or queue order
//! enters the schedule, so the same seed over the same batch always
//! injects the same faults into the same attempts — and with canonical
//! record emission (latency zeroed, traces dropped) and request-order
//! output two equal-seed chaos runs produce byte-identical record
//! streams. Tests exploit the same property in reverse: given the plan
//! they recompute each job's expected outcome and compare it against
//! the pool's actual record.
//!
//! Two faults are deliberately outside the byte-identical contract:
//! `abort_after` (which jobs are still queued when the abort lands
//! depends on scheduling) and `Delay` raced against a deadline of
//! similar magnitude. Plans that want reproducible *outcomes* from
//! delays pick `delay_ms` well past the deadline, so every delayed job
//! deterministically times out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::job::{ErrorKind, ExecError};
use crate::pool::Executor;

/// What a scheduled per-attempt fault does to the executor call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// Fail the attempt with a transient [`ExecError`] (the pool
    /// retries it, so a job can fault and still succeed).
    Transient,
    /// Fail the attempt with a permanent [`ExecError`].
    Permanent,
    /// Panic inside the executor (the pool must contain it).
    Panic,
    /// Sleep for [`FaultPlan::delay_ms`] before running the real
    /// executor, so an armed deadline expires mid-attempt.
    Delay,
    /// Cancel the job's own token, as an abort would.
    Cancel,
    /// Mutate the request before running the real executor — a
    /// mid-batch input drift (e.g. a crosstalk-calibration shift) that
    /// exercises the warm repair path. The mutation is a pure function
    /// of the schedule, so the drifted result is itself deterministic;
    /// injectors wrapped without a mutator ([`FaultInjector::wrap`])
    /// count the fault and run the request unchanged.
    Drift,
}

impl FaultKind {
    /// Wire name of the variant, matching the serialized form.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Transient => "Transient",
            FaultKind::Permanent => "Permanent",
            FaultKind::Panic => "Panic",
            FaultKind::Delay => "Delay",
            FaultKind::Cancel => "Cancel",
            FaultKind::Drift => "Drift",
        }
    }
}

/// A deterministic overload wave for the daemon's admission control:
/// design requests whose session index falls in `[start, start+count)`
/// see `extra` phantom jobs ahead of them in the queue. Phantom depth
/// sheds exactly like real depth, so a plan with an extreme `extra`
/// pins shed/accept outcomes regardless of real scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OverloadBurst {
    /// First design-request index hit by the burst. Default 0.
    pub start: Option<usize>,
    /// How many consecutive design requests the burst covers. Default 0
    /// (off).
    pub count: Option<usize>,
    /// Phantom jobs injected ahead of each covered request. Default 0.
    pub extra: Option<usize>,
}

impl OverloadBurst {
    /// Phantom queue depth this burst injects for design request
    /// `index` (0 outside the burst window).
    pub fn phantom(&self, index: usize) -> usize {
        let start = self.start.unwrap_or(0);
        let count = self.count.unwrap_or(0);
        if index >= start && index < start.saturating_add(count) {
            self.extra.unwrap_or(0)
        } else {
            0
        }
    }
}

/// Corruption applied to a persisted cache file (torn-write simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CacheFault {
    /// Keep only the first half of the file — a write that died midway.
    Truncate,
    /// Overwrite the first byte with garbage — bit rot / a torn sector.
    Corrupt,
}

/// A seeded fault schedule. All fields are optional in JSON; a missing
/// field means "off" (rate 0) or its documented default, so `{}` is the
/// no-fault plan.
///
/// # Example
///
/// ```
/// use youtiao_serve::FaultPlan;
///
/// let plan: FaultPlan =
///     serde_json::from_str(r#"{"seed": 7, "transient_rate": 1.0}"#).unwrap();
/// plan.validate().unwrap();
/// assert_eq!(plan.seed(), 7);
/// assert!(plan.fault_at(0, 0).is_some());
/// assert_eq!(plan.fault_at(0, 0), plan.fault_at(0, 0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Schedule seed; equal seeds give equal schedules. Default 0.
    pub seed: Option<u64>,
    /// Probability an attempt fails with a transient error.
    pub transient_rate: Option<f64>,
    /// Probability an attempt fails with a permanent error.
    pub permanent_rate: Option<f64>,
    /// Probability an attempt panics.
    pub panic_rate: Option<f64>,
    /// Probability an attempt is delayed by [`Self::delay_ms`].
    pub delay_rate: Option<f64>,
    /// Injected delay length, milliseconds. Default 100.
    pub delay_ms: Option<u64>,
    /// Probability an attempt cancels its own job.
    pub cancel_rate: Option<f64>,
    /// Probability an attempt's request is drifted before execution.
    pub drift_rate: Option<f64>,
    /// Abort the pool after this many pooled records complete, leaving
    /// the rest to finish as `Cancelled` records.
    pub abort_after: Option<usize>,
    /// Mangle the persisted cache file (shard 0's, when sharded)
    /// before the session loads it.
    pub cache_fault: Option<CacheFault>,
    /// Inject phantom queue depth into daemon admission control over a
    /// fixed design-request range.
    pub overload_burst: Option<OverloadBurst>,
    /// Stall this many milliseconds before daemon response writes — a
    /// client that reads slowly. Default 0 (off).
    pub slow_client_ms: Option<u64>,
    /// Apply the slow-client stall to every Nth response (1 = all).
    pub slow_client_every: Option<usize>,
    /// Delete this cache shard's persistence file before the session
    /// loads its cache (shard-loss simulation).
    pub shard_loss: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing (same as `Default`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A small high-rate preset for smoke tests: over even a handful of
    /// jobs it reliably injects transient errors (some of which retry
    /// into successes), permanent errors, panics and cancellations.
    pub fn smoke(seed: u64) -> Self {
        FaultPlan {
            seed: Some(seed),
            transient_rate: Some(0.35),
            permanent_rate: Some(0.15),
            panic_rate: Some(0.10),
            cancel_rate: Some(0.10),
            ..FaultPlan::default()
        }
    }

    /// Schedule seed (default 0).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// Transient-error rate (default 0).
    pub fn transient_rate(&self) -> f64 {
        self.transient_rate.unwrap_or(0.0)
    }

    /// Permanent-error rate (default 0).
    pub fn permanent_rate(&self) -> f64 {
        self.permanent_rate.unwrap_or(0.0)
    }

    /// Panic rate (default 0).
    pub fn panic_rate(&self) -> f64 {
        self.panic_rate.unwrap_or(0.0)
    }

    /// Delay rate (default 0).
    pub fn delay_rate(&self) -> f64 {
        self.delay_rate.unwrap_or(0.0)
    }

    /// Injected delay length in milliseconds (default 100).
    pub fn delay_ms(&self) -> u64 {
        self.delay_ms.unwrap_or(100)
    }

    /// Self-cancel rate (default 0).
    pub fn cancel_rate(&self) -> f64 {
        self.cancel_rate.unwrap_or(0.0)
    }

    /// Request-drift rate (default 0).
    pub fn drift_rate(&self) -> f64 {
        self.drift_rate.unwrap_or(0.0)
    }

    /// Phantom queue depth the overload burst injects for design
    /// request `index` (0 with no burst configured).
    pub fn overload_phantom(&self, index: usize) -> usize {
        self.overload_burst
            .as_ref()
            .map_or(0, |burst| burst.phantom(index))
    }

    /// The slow-client stall to apply before writing response number
    /// `seq` (0-based), or `None` when this response writes at speed.
    pub fn slow_client_stall(&self, seq: usize) -> Option<Duration> {
        let stall = self.slow_client_ms.unwrap_or(0);
        if stall == 0 {
            return None;
        }
        let every = self.slow_client_every.unwrap_or(1).max(1);
        seq.is_multiple_of(every)
            .then(|| Duration::from_millis(stall))
    }

    /// Checks every rate is a probability and the rates sum to at most
    /// 1 (they partition the unit interval).
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("transient_rate", self.transient_rate()),
            ("permanent_rate", self.permanent_rate()),
            ("panic_rate", self.panic_rate()),
            ("delay_rate", self.delay_rate()),
            ("cancel_rate", self.cancel_rate()),
            ("drift_rate", self.drift_rate()),
        ];
        let mut total = 0.0;
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
            total += rate;
        }
        if total > 1.0 + 1e-12 {
            return Err(format!("fault rates sum to {total:.3}, must be <= 1"));
        }
        Ok(())
    }

    /// The schedule itself: which fault (if any) hits attempt `attempt`
    /// of job `index`. Pure in `(self.seed, index, attempt)` — see the
    /// module docs for the determinism contract.
    pub fn fault_at(&self, index: usize, attempt: u32) -> Option<FaultKind> {
        let mixed = splitmix64(
            self.seed()
                .wrapping_add(splitmix64(index as u64).rotate_left(17))
                .wrapping_add(splitmix64(attempt as u64 ^ 0xa5a5_5a5a)),
        );
        // 53 uniform bits -> [0, 1).
        let u = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = 0.0;
        for (rate, kind) in [
            (self.transient_rate(), FaultKind::Transient),
            (self.permanent_rate(), FaultKind::Permanent),
            (self.panic_rate(), FaultKind::Panic),
            (self.delay_rate(), FaultKind::Delay),
            (self.cancel_rate(), FaultKind::Cancel),
            (self.drift_rate(), FaultKind::Drift),
        ] {
            edge += rate;
            if u < edge {
                return Some(kind);
            }
        }
        None
    }
}

/// splitmix64 — a strong, cheap 64-bit mixer (Steele et al.), the same
/// finalizer the planner's seeded RNG family uses. Shared with the
/// request module's deterministic drift synthesis.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counts of faults actually injected during a run, by kind. Included
/// in [`ServeMetrics`](crate::ServeMetrics) for chaos runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultCounters {
    /// Transient errors injected.
    pub transient: u64,
    /// Permanent errors injected.
    pub permanent: u64,
    /// Panics injected.
    pub panics: u64,
    /// Delays injected.
    pub delays: u64,
    /// Self-cancellations injected.
    pub cancels: u64,
    /// Request drifts injected.
    pub drifts: u64,
}

impl FaultCounters {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.transient + self.permanent + self.panics + self.delays + self.cancels + self.drifts
    }
}

#[derive(Default)]
struct AtomicCounters {
    transient: AtomicU64,
    permanent: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
    cancels: AtomicU64,
    drifts: AtomicU64,
}

/// A deterministic request mutation for `Drift` faults: maps the
/// original job plus a schedule-derived seed to the drifted job.
pub type RequestMutator<J> = Arc<dyn Fn(&J, u64) -> J + Send + Sync>;

/// Applies a [`FaultPlan`] to executors: [`wrap`](Self::wrap) produces
/// a chaos executor that injects the scheduled faults around the real
/// one and counts what it injected.
///
/// Cloning shares the counters, so the wrapped executor (moved into the
/// pool's threads) and the caller observe the same totals.
#[derive(Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: Arc<AtomicCounters>,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            counters: Arc::new(AtomicCounters::default()),
        }
    }

    /// The plan this injector schedules from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injected-fault counters.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            transient: self.counters.transient.load(Ordering::Relaxed),
            permanent: self.counters.permanent.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
            cancels: self.counters.cancels.load(Ordering::Relaxed),
            drifts: self.counters.drifts.load(Ordering::Relaxed),
        }
    }

    /// Wraps `inner` with the fault schedule: each attempt first
    /// consults [`FaultPlan::fault_at`] for the job's index and attempt
    /// number, injects the scheduled fault (recording a `"fault"` trace
    /// event), and only reaches `inner` when the schedule says run.
    /// Scheduled `Drift` faults are counted but leave the job unchanged
    /// — use [`wrap_with`](Self::wrap_with) to supply the mutation.
    pub fn wrap<J, R>(&self, inner: Executor<J, R>) -> Executor<J, R>
    where
        J: 'static,
        R: 'static,
    {
        self.wrap_inner(inner, None)
    }

    /// [`wrap`](Self::wrap) plus a request mutator for `Drift` faults:
    /// when the schedule says an attempt drifts, the job passed to
    /// `inner` is `mutator(job, drift_seed)`, where `drift_seed` is a
    /// pure function of `(plan seed, index, attempt)` — so the mutation
    /// (and therefore the drifted result) is as deterministic as the
    /// schedule itself.
    pub fn wrap_with<J, R>(
        &self,
        inner: Executor<J, R>,
        mutator: RequestMutator<J>,
    ) -> Executor<J, R>
    where
        J: 'static,
        R: 'static,
    {
        self.wrap_inner(inner, Some(mutator))
    }

    fn wrap_inner<J, R>(
        &self,
        inner: Executor<J, R>,
        mutator: Option<RequestMutator<J>>,
    ) -> Executor<J, R>
    where
        J: 'static,
        R: 'static,
    {
        let injector = self.clone();
        Arc::new(move |job, ctx| {
            let Some(kind) = injector.plan.fault_at(ctx.index, ctx.attempt) else {
                return inner(job, ctx);
            };
            ctx.tracer.event(
                "fault",
                format!("injected {} (attempt {})", kind.as_str(), ctx.attempt),
            );
            match kind {
                FaultKind::Transient => {
                    injector.counters.transient.fetch_add(1, Ordering::Relaxed);
                    Err(ExecError::transient(
                        ErrorKind::Internal,
                        format!(
                            "injected transient fault (job {}, attempt {})",
                            ctx.index, ctx.attempt
                        ),
                    ))
                }
                FaultKind::Permanent => {
                    injector.counters.permanent.fetch_add(1, Ordering::Relaxed);
                    Err(ExecError::permanent(
                        ErrorKind::Internal,
                        format!(
                            "injected permanent fault (job {}, attempt {})",
                            ctx.index, ctx.attempt
                        ),
                    ))
                }
                FaultKind::Panic => {
                    injector.counters.panics.fetch_add(1, Ordering::Relaxed);
                    panic!(
                        "injected panic (job {}, attempt {})",
                        ctx.index, ctx.attempt
                    );
                }
                FaultKind::Delay => {
                    injector.counters.delays.fetch_add(1, Ordering::Relaxed);
                    // Sleep in slices so an armed deadline or an abort
                    // cuts the delay short instead of blocking a worker
                    // for the full budget.
                    let budget = Duration::from_millis(injector.plan.delay_ms());
                    let started = Instant::now();
                    while started.elapsed() < budget {
                        if ctx.cancel.is_cancelled() {
                            return Err(ExecError::cancelled());
                        }
                        let left = budget.saturating_sub(started.elapsed());
                        std::thread::sleep(left.min(Duration::from_millis(2)));
                    }
                    if ctx.cancel.is_cancelled() {
                        return Err(ExecError::cancelled());
                    }
                    inner(job, ctx)
                }
                FaultKind::Cancel => {
                    injector.counters.cancels.fetch_add(1, Ordering::Relaxed);
                    ctx.cancel.cancel();
                    Err(ExecError::cancelled())
                }
                FaultKind::Drift => {
                    injector.counters.drifts.fetch_add(1, Ordering::Relaxed);
                    match &mutator {
                        Some(mutator) => {
                            // Pure in (seed, index, attempt), decorrelated
                            // from fault_at's own hash by the tweak.
                            let drift_seed = splitmix64(
                                injector
                                    .plan
                                    .seed()
                                    .wrapping_add(splitmix64(ctx.index as u64 ^ 0xd21f_7d21))
                                    .wrapping_add(splitmix64(ctx.attempt as u64)),
                            );
                            inner(&mutator(job, drift_seed), ctx)
                        }
                        None => inner(job, ctx),
                    }
                }
            }
        })
    }
}

/// Mangles the file at `path` per `fault` — the torn-write / bit-rot
/// injection the crash-safe cache loader must reject cleanly.
pub fn apply_cache_fault(path: &std::path::Path, fault: CacheFault) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    let mangled = match fault {
        CacheFault::Truncate => bytes[..bytes.len() / 2].to_vec(),
        CacheFault::Corrupt => {
            let mut bytes = bytes;
            if let Some(first) = bytes.first_mut() {
                *first = b'@';
            }
            bytes
        }
    };
    std::fs::write(path, mangled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{AttemptCtx, PoolOptions, WorkerPool};
    use crate::CancelToken;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan: FaultPlan = serde_json::from_str("{}").unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.seed(), 0);
        for index in 0..50 {
            for attempt in 0..3 {
                assert_eq!(plan.fault_at(index, attempt), None);
            }
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan {
            seed: Some(9),
            transient_rate: Some(0.25),
            cache_fault: Some(CacheFault::Truncate),
            abort_after: Some(3),
            ..FaultPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.cache_fault, Some(CacheFault::Truncate));
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_index_attempt() {
        let a = FaultPlan::smoke(42);
        let b = FaultPlan::smoke(42);
        let c = FaultPlan::smoke(43);
        let mut differs = false;
        for index in 0..200 {
            for attempt in 0..3 {
                assert_eq!(a.fault_at(index, attempt), b.fault_at(index, attempt));
                differs |= a.fault_at(index, attempt) != c.fault_at(index, attempt);
            }
        }
        assert!(differs, "different seeds produced identical schedules");
    }

    #[test]
    fn rates_partition_the_unit_interval() {
        let all = FaultPlan {
            transient_rate: Some(1.0),
            ..FaultPlan::default()
        };
        for index in 0..50 {
            assert_eq!(all.fault_at(index, 0), Some(FaultKind::Transient));
        }
        // Rates roughly govern frequency: with 30% transient the hit
        // count over 1000 slots lands well inside [200, 400].
        let third = FaultPlan {
            transient_rate: Some(0.3),
            ..FaultPlan::default()
        };
        let hits = (0..1000)
            .filter(|&i| third.fault_at(i, 0).is_some())
            .count();
        assert!((200..=400).contains(&hits), "{hits} hits");
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let negative = FaultPlan {
            panic_rate: Some(-0.1),
            ..FaultPlan::default()
        };
        assert!(negative.validate().unwrap_err().contains("panic_rate"));
        let oversubscribed = FaultPlan {
            transient_rate: Some(0.7),
            permanent_rate: Some(0.7),
            ..FaultPlan::default()
        };
        assert!(oversubscribed.validate().unwrap_err().contains("sum"));
        FaultPlan::smoke(0).validate().unwrap();
    }

    #[test]
    fn wrapped_executor_matches_the_schedule_mirror() {
        // Inner executor always succeeds; therefore every record's
        // outcome is decided purely by the schedule, and we can mirror
        // it: walk attempts through fault_at exactly as the pool will.
        let plan = FaultPlan::smoke(7);
        let injector = FaultInjector::new(plan.clone());
        let executor: Executor<u32, u32> = injector.wrap(Arc::new(|n, _| Ok(*n)));
        let options = PoolOptions {
            workers: 4,
            max_retries: 2,
            ..Default::default()
        };
        let max_retries = options.max_retries;
        let mut pool = WorkerPool::new(executor, options);
        let jobs = 64usize;
        for index in 0..jobs {
            pool.submit(index, format!("j{index}"), index as u32, None);
        }
        let mut records = pool.join();
        records.sort_by_key(|r| r.index);
        assert_eq!(records.len(), jobs);

        for record in &records {
            // Mirror the retry loop: transient faults retry, everything
            // else is terminal. No deadline is armed, so Delay runs the
            // inner executor after sleeping.
            let mut attempt = 0u32;
            let expected = loop {
                match plan.fault_at(record.index, attempt) {
                    Some(FaultKind::Transient) if attempt < max_retries => attempt += 1,
                    Some(FaultKind::Transient) | Some(FaultKind::Permanent) => {
                        break Some(ErrorKind::Internal)
                    }
                    Some(FaultKind::Panic) => break Some(ErrorKind::Internal),
                    Some(FaultKind::Cancel) => break Some(ErrorKind::Cancelled),
                    Some(FaultKind::Delay) | Some(FaultKind::Drift) | None => break None,
                }
            };
            let id = &record.id;
            match expected {
                None => {
                    assert_eq!(record.result, Some(record.index as u32), "{id}");
                    assert_eq!(record.attempts, attempt + 1, "{id}");
                }
                Some(kind) => {
                    let error = record.error.as_ref().expect(id);
                    assert_eq!(error.kind, kind, "{id}: {error:?}");
                }
            }
        }

        // The counters saw every injection, including mid-retry ones.
        let counters = injector.counters();
        assert!(counters.total() > 0, "smoke plan injected nothing");
        assert_eq!(
            counters.panics,
            records
                .iter()
                .filter(|r| r
                    .error
                    .as_ref()
                    .is_some_and(|e| e.message.contains("panicked")))
                .count() as u64
        );
    }

    #[test]
    fn injected_faults_leave_trace_events() {
        let plan = FaultPlan {
            transient_rate: Some(1.0),
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan);
        let executor: Executor<u32, u32> = injector.wrap(Arc::new(|n, _| Ok(*n)));
        let tracer = youtiao_obs::Tracer::new("j0");
        let ctx = AttemptCtx {
            attempt: 0,
            index: 0,
            cancel: CancelToken::new(),
            tracer: tracer.clone(),
        };
        assert!(executor(&1, &ctx).is_err());
        let trace = tracer.finish();
        let fault = trace.find("fault").unwrap();
        assert_eq!(
            fault.annotations["detail"],
            "injected Transient (attempt 0)"
        );
        assert_eq!(injector.counters().transient, 1);
    }

    #[test]
    fn cancel_fault_cancels_the_jobs_own_token() {
        let plan = FaultPlan {
            cancel_rate: Some(1.0),
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan);
        let executor: Executor<u32, u32> = injector.wrap(Arc::new(|n, _| Ok(*n)));
        let ctx = AttemptCtx::new(0, CancelToken::new());
        let err = executor(&1, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Cancelled);
        assert!(ctx.cancel.cancelled_explicitly());
    }

    #[test]
    fn drift_faults_mutate_requests_deterministically() {
        let plan = FaultPlan {
            seed: Some(3),
            drift_rate: Some(1.0),
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        assert_eq!(plan.fault_at(0, 0), Some(FaultKind::Drift));

        // wrap_with: the inner executor sees job + drift seed, and the
        // same (plan seed, index, attempt) always drifts identically.
        let run = |plan: &FaultPlan| {
            let injector = FaultInjector::new(plan.clone());
            let executor: Executor<u64, u64> = injector.wrap_with(
                Arc::new(|n, _| Ok(*n)),
                Arc::new(|n: &u64, seed: u64| n ^ seed),
            );
            let out = executor(&5, &AttemptCtx::new(0, CancelToken::new())).unwrap();
            (out, injector.counters().drifts)
        };
        let (a, drifts) = run(&plan);
        let (b, _) = run(&plan);
        assert_ne!(a, 5, "drift mutated the request");
        assert_eq!(a, b, "equal schedules drift equally");
        assert_eq!(drifts, 1);
        let reseeded = FaultPlan {
            seed: Some(4),
            ..plan.clone()
        };
        assert_ne!(run(&reseeded).0, a, "different seeds drift differently");

        // Plain wrap counts the fault but runs the job unchanged.
        let injector = FaultInjector::new(plan.clone());
        let executor: Executor<u64, u64> = injector.wrap(Arc::new(|n, _| Ok(*n)));
        let out = executor(&5, &AttemptCtx::new(0, CancelToken::new())).unwrap();
        assert_eq!(out, 5);
        assert_eq!(injector.counters().drifts, 1);

        // Appending Drift at rate 0 leaves historical schedules intact.
        let legacy = FaultPlan::smoke(2);
        for index in 0..64 {
            for attempt in 0..3 {
                assert_ne!(legacy.fault_at(index, attempt), Some(FaultKind::Drift));
            }
        }
    }

    #[test]
    fn session_faults_are_pure_field_accessors() {
        // Overload burst: phantom depth only inside [start, start+count).
        let plan: FaultPlan = serde_json::from_str(
            r#"{"overload_burst": {"start": 3, "count": 4, "extra": 1000000},
                "slow_client_ms": 5, "slow_client_every": 2, "shard_loss": 1}"#,
        )
        .unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.overload_phantom(2), 0);
        assert_eq!(plan.overload_phantom(3), 1_000_000);
        assert_eq!(plan.overload_phantom(6), 1_000_000);
        assert_eq!(plan.overload_phantom(7), 0);
        assert_eq!(plan.shard_loss, Some(1));

        // Slow client: every 2nd response (0-based) stalls 5ms.
        assert_eq!(plan.slow_client_stall(0), Some(Duration::from_millis(5)));
        assert_eq!(plan.slow_client_stall(1), None);
        assert_eq!(plan.slow_client_stall(2), Some(Duration::from_millis(5)));

        // Defaults: everything off, and none of it enters fault_at.
        let off = FaultPlan::none();
        assert_eq!(off.overload_phantom(0), 0);
        assert_eq!(off.slow_client_stall(0), None);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan, "session faults roundtrip");
        assert_eq!(back.fault_at(0, 0), None, "no per-attempt faults scheduled");
    }

    #[test]
    fn cache_faults_mangle_files_deterministically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("youtiao-fault-test-{}.json", std::process::id()));
        let body =
            r#"{"schema":"youtiao-plan-cache/v1","count":1,"entries":{"00000000000000aa":1}}"#;

        std::fs::write(&path, body).unwrap();
        apply_cache_fault(&path, CacheFault::Truncate).unwrap();
        let torn = std::fs::read_to_string(&path).unwrap();
        assert_eq!(torn.len(), body.len() / 2);
        assert!(serde_json::from_str::<serde::Value>(&torn).is_err());

        std::fs::write(&path, body).unwrap();
        apply_cache_fault(&path, CacheFault::Corrupt).unwrap();
        let rotted = std::fs::read_to_string(&path).unwrap();
        assert!(rotted.starts_with('@'));
        assert!(serde_json::from_str::<serde::Value>(&rotted).is_err());

        let _ = std::fs::remove_file(&path);
    }
}
