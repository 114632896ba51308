//! The serving layer, wired to the design flow.
//!
//! `youtiao-serve` is pipeline-agnostic (any executor, any result
//! type); this module instantiates it with the real thing:
//! [`repairing_design_executor_threads`] runs
//! [`design_chip_traced`] for a [`DesignRequest`], classifying
//! [`DesignError`]s into the pool's transient/permanent retry taxonomy.
//! [`run_design_batch`] is the JSONL batch session behind `youtiao
//! batch` — and, with [`DaemonOptions::faults`] set, behind `youtiao
//! chaos`: injected faults flow through the same classification and
//! retry path as real pipeline failures. [`run_design_daemon`] is the
//! `youtiao serve` session. Both run on the same request engine.
//!
//! Requests carrying a [`DeltaSpec`] take the warm repair path instead:
//! the base plan is looked up in (or computed into) a [`RepairStore`]
//! and incrementally repaired toward the delta'd inputs by
//! `youtiao_repair`, with hit/miss/fallback counters surfaced in
//! [`ServeMetrics::repair`].
//!
//! # Example
//!
//! ```
//! use youtiao::serve::{run_design_batch, DaemonOptions};
//!
//! let jobs = r#"{"chip":{"topology":"square","rows":3,"cols":3}}"#;
//! let mut out = Vec::new();
//! let metrics =
//!     run_design_batch(&DaemonOptions::default(), std::io::Cursor::new(jobs), &mut out)
//!         .unwrap();
//! assert_eq!(metrics.ok, 1);
//! assert!(std::str::from_utf8(&out).unwrap().contains("\"status\":\"Ok\""));
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use youtiao_chip::spec::ChipSpec;
use youtiao_chip::{Chip, CouplerId, DeviceId};
use youtiao_core::tdm::brickwork_activity;
use youtiao_core::PlanError;
use youtiao_noise::FitError;
use youtiao_repair::{diff_inputs, repair_plan, PlanInputs, RepairConfig, RepairOutcome};

pub use youtiao_serve::*;

use crate::flow::{
    complete_plan_traced, design_chip_traced, DesignError, DesignOptions, DesignReport,
    ReportSummary,
};
use crate::multi::{design_multi_chip, MultiDesignOptions};

/// Derives the characterization seed for a retry attempt: attempt 0
/// keeps the requested seed (so results are reproducible), later
/// attempts mix in a golden-ratio step so transient failures explore
/// fresh synthetic data.
pub fn perturbed_seed(seed: u64, attempt: u32) -> u64 {
    seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Maps a pipeline failure onto the pool's retry taxonomy.
fn classify(error: DesignError) -> ExecError {
    let kind = match &error {
        // The chip's shape decides this at every seed: the request asks
        // for a chip the fit cannot cross-validate.
        DesignError::Plan(PlanError::Characterize(FitError::NotEnoughSamples {
            available,
            required,
        })) => {
            return ExecError::permanent(
                ErrorKind::InvalidRequest,
                format!(
                    "chip too small to characterize: {available} finite qubit-pair samples, \
                     at least {required} needed (one per cross-validation fold)"
                ),
            )
        }
        DesignError::Plan(_) => ErrorKind::Plan,
        DesignError::Route(_) => ErrorKind::Route,
        DesignError::Validation(_) => ErrorKind::Validation,
        DesignError::Cancelled { .. } => return ExecError::cancelled(),
        // Retrying a shed request would hit the same admission verdict;
        // the client should back off or relax the deadline.
        DesignError::Shed { .. } => {
            return ExecError::permanent(ErrorKind::Shed, error.to_string())
        }
    };
    if error.is_transient() {
        ExecError::transient(kind, error.to_string())
    } else {
        ExecError::permanent(kind, error.to_string())
    }
}

/// One independently locked slice of a [`RepairStore`].
type StoreShard = Mutex<HashMap<u64, Arc<DesignReport>>>;

/// Resident base plans for the warm repair path, keyed by
/// [`DesignRequest::base_key`]. Delta-carrying requests look their base
/// up here and answer by incremental repair instead of replanning; a
/// miss computes the base inline (once) and stores it for the next
/// delta over the same base.
///
/// Entries are full [`DesignReport`]s — plan, [`PlanContext`] and
/// model — because that is exactly what `youtiao_repair::repair_plan`
/// starts from. The store is capacity-capped: once full, new bases are
/// still planned but not retained. Cloning shares the entries and the
/// hit/miss/fallback counters, so the executor (moved into pool
/// threads) and the session observe the same state.
///
/// Like the plan cache, the store shards by [`shard_of_key`]: each
/// shard has its own lock (lookups on different shards never contend)
/// and its own slice of the capacity budget.
///
/// [`PlanContext`]: youtiao_core::PlanContext
#[derive(Clone)]
pub struct RepairStore {
    shards: Arc<Vec<StoreShard>>,
    per_shard: usize,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    fallbacks: Arc<AtomicU64>,
}

impl RepairStore {
    /// A store of `shards` independently locked shards (min 1) splitting
    /// a total budget of `capacity` base plans.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        RepairStore {
            shards: Arc::new((0..shards).map(|_| Mutex::new(HashMap::new())).collect()),
            per_shard,
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            fallbacks: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards the store spreads its entries over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<DesignReport>>> {
        &self.shards[shard_of_key(key, self.shards.len())]
    }

    /// Resident base plans, summed over shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("repair store lock").len())
            .sum()
    }

    /// Whether no base plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the repair counters: every successfully answered
    /// delta job increments exactly one of hits (base was resident,
    /// repaired locally), misses (base computed inline, then repaired
    /// locally), or fallbacks (repair replanned in full).
    pub fn stats(&self) -> RepairStats {
        RepairStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    fn lookup(&self, key: u64) -> Option<Arc<DesignReport>> {
        self.shard(key)
            .lock()
            .expect("repair store lock")
            .get(&key)
            .cloned()
    }

    /// Stores `report` under `key` unless its shard is full; either way
    /// the caller gets the entry to repair from. Concurrent misses on
    /// the same key store the same content-addressed value, so the race
    /// is benign.
    fn insert(&self, key: u64, report: DesignReport) -> Arc<DesignReport> {
        let report = Arc::new(report);
        let mut entries = self.shard(key).lock().expect("repair store lock");
        if entries.len() < self.per_shard || entries.contains_key(&key) {
            entries.insert(key, Arc::clone(&report));
        }
        report
    }
}

/// The design-flow executor: resolves the request's chip, runs
/// characterize → plan → tally → route under the attempt's cancel
/// token, and returns the report summary. Stage spans land on the
/// attempt's tracer (a no-op unless the pool runs with tracing). When
/// `validate` is set, every finished plan is checked against the wiring
/// invariants and a violation fails the job permanently with
/// [`ErrorKind::Validation`]. `plan_threads` is injected into every
/// request's [`PlannerConfig`] (`0` = no cap: the plan's helpers run on
/// whatever cores the process's CPU budget finds idle); sessions pass
/// their `plan_threads` option. Plans are byte-identical across any
/// value, so the knob never enters the plan cache or repair-store keys.
///
/// Requests whose [`DesignRequest::effective_delta`] is set take the
/// warm repair path: the base plan is looked up in (or computed into)
/// `store` and repaired toward the delta'd inputs — the `repair` span
/// on the attempt's tracer records the outcome, invalidated kernel
/// rows, and regrouped device counts. Two determinism properties the
/// chaos suite relies on:
///
/// * the base plan is always characterized with the *request's* seed,
///   never the attempt-perturbed one — the store is content-addressed
///   by [`DesignRequest::base_key`], so the entry must not depend on
///   which attempt (or which job) populated it;
/// * a store miss computes the base inline and repairs from it — the
///   executor never plans the delta'd inputs directly — so a delta
///   job's result is a pure function of (base inputs, delta) however
///   jobs race across pool threads.
///
/// [`PlannerConfig`]: youtiao_core::PlannerConfig
pub fn repairing_design_executor_threads(
    validate: bool,
    store: RepairStore,
    plan_threads: usize,
) -> Executor<DesignRequest, ReportSummary> {
    Arc::new(move |request, ctx| {
        if request.chip.is_multi() {
            return multi_request(request, ctx, validate, plan_threads);
        }
        let chip = request
            .chip
            .build()
            .map_err(|e| ExecError::permanent(ErrorKind::InvalidRequest, e.to_string()))?;
        let options = DesignOptions {
            planner: {
                let mut planner = request.planner_config();
                planner.plan_threads = plan_threads;
                planner
            },
            seed: perturbed_seed(request.seed(), ctx.attempt),
            routing: if request.wants_routing() {
                DesignOptions::default().routing
            } else {
                None
            },
            validate,
        };
        match request.effective_delta() {
            Some(delta) => repair_request(&store, request, delta, &chip, &options, ctx),
            None => design_chip_traced(&chip, &options, &ctx.cancel, &ctx.tracer)
                .map(|report| report.summary())
                .map_err(classify),
        }
    })
}

fn invalid(message: impl Into<String>) -> ExecError {
    ExecError::permanent(ErrorKind::InvalidRequest, message.into())
}

/// The multi-die path of the design executor: tile the chiplet array,
/// plan every die ([`design_multi_chip`]), and answer with the combined
/// cryostat-level summary. The warm repair path is per-die state the
/// multi flow does not thread yet, so delta requests are rejected as
/// invalid rather than silently replanned.
fn multi_request(
    request: &DesignRequest,
    ctx: &AttemptCtx,
    validate: bool,
    plan_threads: usize,
) -> Result<ReportSummary, ExecError> {
    if request.effective_delta().is_some() {
        return Err(invalid(
            "delta repair is not supported for multi-die requests",
        ));
    }
    let mdc = request
        .chip
        .build_multi()
        .map_err(|e| invalid(e.to_string()))?;
    let options = MultiDesignOptions {
        planner: {
            let mut planner = request.planner_config();
            planner.plan_threads = plan_threads;
            planner
        },
        seed: perturbed_seed(request.seed(), ctx.attempt),
        use_model: true,
        budget: request
            .coax_budget
            .map(|coax_lines| youtiao_core::CryostatBudget { coax_lines }),
        validate,
    };
    ctx.cancel
        .checkpoint()
        .map_err(|_| ExecError::cancelled())?;
    let span = ctx.tracer.span("multi");
    let report = design_multi_chip(&mdc, &options).map_err(classify)?;
    span.annotate("dies", report.outcome.dies.len() as u64);
    span.annotate("link_swaps", report.outcome.reconcile.swapped as u64);
    Ok(report.summary(&mdc))
}

/// The delta path of [`repairing_design_executor_threads`]: resolve the base,
/// materialize the delta'd snapshot, diff, repair, and run the back
/// half of the flow (cost/route/validate) over the repaired plan.
fn repair_request(
    store: &RepairStore,
    request: &DesignRequest,
    delta: &DeltaSpec,
    chip: &Chip,
    options: &DesignOptions,
    ctx: &AttemptCtx,
) -> Result<ReportSummary, ExecError> {
    let base_key = request.base_key().map_err(|e| invalid(e.to_string()))?;
    if let Some(expected) = &request.base {
        let computed = format!("{base_key:016x}");
        if *expected != computed {
            return Err(invalid(format!(
                "base content-address mismatch: request names {expected}, server computed {computed}"
            )));
        }
    }

    // Resolve the base plan: resident, or planned inline on a miss.
    let (base, resident) = match store.lookup(base_key) {
        Some(base) => (base, true),
        None => {
            let base_options = DesignOptions {
                seed: request.seed(),
                ..options.clone()
            };
            let report = design_chip_traced(chip, &base_options, &ctx.cancel, &ctx.tracer)
                .map_err(classify)?;
            (store.insert(base_key, report), false)
        }
    };

    // Materialize the post-delta snapshot from the base context.
    let span = ctx.tracer.span("repair");
    let new_chip = delta_chip(chip, delta)?;
    let mut new_xtalk = base.context.crosstalk().clone();
    for entry in delta.drift.iter().flatten() {
        let n = chip.num_qubits() as u32;
        if entry.a >= n || entry.b >= n || entry.a == entry.b {
            return Err(invalid(format!(
                "drift entry ({}, {}) does not name a qubit pair of the {n}-qubit base chip",
                entry.a, entry.b
            )));
        }
        new_xtalk.set(entry.a.into(), entry.b.into(), entry.xtalk);
    }
    let base_activity = brickwork_activity(chip);
    let mut new_activity = brickwork_activity(&new_chip);
    for over in delta.activity.iter().flatten() {
        let device = match (over.qubit, over.coupler) {
            (Some(q), None) if (q as usize) < new_chip.num_qubits() => DeviceId::Qubit(q.into()),
            (None, Some(c)) if (c as usize) < new_chip.num_couplers() => {
                DeviceId::Coupler(CouplerId::new(c))
            }
            _ => {
                return Err(invalid(
                    "activity override must name exactly one in-range qubit or coupler",
                ))
            }
        };
        new_activity.insert(device, over.mask);
    }

    let old_inputs = PlanInputs {
        chip,
        xtalk: base.context.crosstalk(),
        activity: &base_activity,
    };
    let new_inputs = PlanInputs {
        chip: &new_chip,
        xtalk: &new_xtalk,
        activity: &new_activity,
    };
    let changes = diff_inputs(&old_inputs, &new_inputs);

    // The flow plans with the model-fitted weights baked into the base
    // context; the repair pass (and its byte-identical fallback) must
    // agree with them, not with the config's balanced default.
    let mut planner = options.planner.clone();
    planner.weights = base.context.weights();
    let repaired = repair_plan(
        &base.plan,
        &base.context,
        &new_inputs,
        &changes,
        &planner,
        &RepairConfig::default(),
    )
    .map_err(|e| classify(DesignError::Plan(e)))?;

    span.annotate("outcome", repaired.outcome.as_str());
    span.annotate("changes", changes.len() as u64);
    span.annotate("invalidated_rows", repaired.invalidated_rows as u64);
    span.annotate("dirty_groups", repaired.dirty_groups as u64);
    span.annotate("regrouped_devices", repaired.regrouped_devices as u64);
    if matches!(repaired.outcome, RepairOutcome::FullReplan { .. }) {
        store.fallbacks.fetch_add(1, Ordering::Relaxed);
    } else if resident {
        store.hits.fetch_add(1, Ordering::Relaxed);
    } else {
        store.misses.fetch_add(1, Ordering::Relaxed);
    }
    drop(span);

    // Back half of the flow over the repaired plan, validated against
    // the delta'd activity profile (not the brickwork default).
    complete_plan_traced(
        &new_chip,
        base.model.clone(),
        repaired.context,
        repaired.plan,
        options,
        Some(&new_activity),
        &ctx.cancel,
        &ctx.tracer,
    )
    .map(|report| report.summary())
    .map_err(classify)
}

/// The delta'd chip: the base chip minus every coupler named dead.
/// Every named coupler must exist (endpoint order is irrelevant).
fn delta_chip(chip: &Chip, delta: &DeltaSpec) -> Result<Chip, ExecError> {
    let dead: Vec<(u32, u32)> = delta
        .dead_couplers
        .iter()
        .flatten()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    if dead.is_empty() {
        return Ok(chip.clone());
    }
    let mut spec = ChipSpec::from_chip(chip);
    for &(a, b) in &dead {
        let before = spec.couplers.len();
        spec.couplers
            .retain(|&(x, y)| (x.min(y), x.max(y)) != (a, b));
        if spec.couplers.len() == before {
            return Err(invalid(format!(
                "dead coupler ({a}, {b}) is not a coupler of the base chip"
            )));
        }
    }
    spec.to_chip().map_err(|e| invalid(e.to_string()))
}

/// The executor of a design session and the repair store behind it:
/// the store shards like the plan cache.
fn session_executor(
    options: &DaemonOptions,
) -> (Executor<DesignRequest, ReportSummary>, RepairStore) {
    let store = RepairStore::new(256, options.shards);
    let executor =
        repairing_design_executor_threads(options.validate, store.clone(), options.plan_threads);
    (executor, store)
}

/// Runs the JSONL design requests read from `input` as one batch
/// session, writing one JSON record per request into `out` in request
/// order, and returns the run's [`ServeMetrics`]. See [`run_batch`].
///
/// # Errors
///
/// Returns [`BatchError`] for input, output and cache-file problems
/// only; per-job failures (bad requests, plan errors, timeouts) are
/// emitted as structured error records.
pub fn run_design_batch<In, W>(
    options: &DaemonOptions,
    input: In,
    out: &mut W,
) -> Result<ServeMetrics, BatchError>
where
    In: std::io::BufRead + Send + 'static,
    W: Write,
{
    let (executor, store) = session_executor(options);
    let metrics = run_batch(executor, options, input, out)?;
    Ok(metrics.with_repair(store.stats()))
}

/// One `youtiao serve` daemon session over the real design flow:
/// framed requests in, responses out, with the sharded plan cache,
/// admission control, and warm repair path all wired in. See
/// [`run_daemon`] for the protocol and determinism contract.
pub fn run_design_daemon<In, Out>(
    options: &DaemonOptions,
    input: In,
    output: &mut Out,
) -> Result<DaemonReport, BatchError>
where
    In: std::io::BufRead + Send + 'static,
    Out: Write,
{
    let (executor, store) = session_executor(options);
    let mut report = run_daemon(executor, options, input, output)?;
    report.metrics = report.metrics.with_repair(store.stats());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serial design executor over its own small repair store.
    fn executor(validate: bool) -> Executor<DesignRequest, ReportSummary> {
        repairing_design_executor_threads(validate, RepairStore::new(8, 1), 1)
    }

    /// Runs `requests` as one batch session, one JSONL line each.
    fn batch(
        requests: &[DesignRequest],
        options: &DaemonOptions,
        out: &mut Vec<u8>,
    ) -> ServeMetrics {
        let jobs: String = requests
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        run_design_batch(options, std::io::Cursor::new(jobs), out).unwrap()
    }

    #[test]
    fn attempt_zero_keeps_the_seed() {
        assert_eq!(perturbed_seed(42, 0), 42);
        assert_ne!(perturbed_seed(42, 1), 42);
        assert_ne!(perturbed_seed(42, 1), perturbed_seed(42, 2));
    }

    #[test]
    fn executor_classifies_invalid_and_plan_errors() {
        let executor = executor(false);
        let ctx = AttemptCtx::new(0, CancelToken::new());

        let bad_chip = DesignRequest::new(ChipRequest::named("tesseract"));
        let err = executor(&bad_chip, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        assert!(!err.transient);

        let mut bad_config = DesignRequest::new(ChipRequest::grid("square", 2, 2));
        bad_config.fdm_capacity = Some(0);
        let err = executor(&bad_config, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Plan);
        assert!(!err.transient);
    }

    #[test]
    fn running_out_of_pads_fails_after_one_attempt() {
        // A routed 10x10 grid needs more nets than its perimeter has
        // pads, whatever the seed: a permanent error, so one attempt
        // where a transient one would take all three.
        let request = DesignRequest::new(ChipRequest::grid("square", 10, 10));
        let options = DaemonOptions {
            canonical: true,
            ..Default::default()
        };
        assert_eq!(options.max_retries, 2);
        let mut out = Vec::new();
        let metrics = batch(&[request], &options, &mut out);
        assert_eq!((metrics.errors, metrics.retries), (1, 0));
        let record: serde::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(record["attempts"], 1);
        assert_eq!(record["error"]["kind"], "Route");
    }

    #[test]
    fn chips_too_small_to_characterize_fail_after_one_attempt() {
        // Two qubits give two ordered pairs, fewer than the fit's five
        // folds, whatever the seed: a permanent InvalidRequest, not a
        // panic, for a monolithic chip and for a chiplet array of such
        // dies.
        let mut linear = ChipRequest::named("linear");
        linear.size = Some(2);
        let mut array = linear.clone();
        array.chiplets = Some(2);
        let requests = [
            DesignRequest::new(linear),
            DesignRequest::new(ChipRequest::grid("square", 1, 2)),
            DesignRequest::new(array),
        ];
        let options = DaemonOptions {
            canonical: true,
            ..Default::default()
        };
        let mut out = Vec::new();
        let metrics = batch(&requests, &options, &mut out);
        assert_eq!((metrics.errors, metrics.retries), (3, 0));
        for line in std::str::from_utf8(&out).unwrap().lines() {
            let record: serde::Value = serde_json::from_str(line).unwrap();
            assert_eq!(record["attempts"], 1, "{line}");
            assert_eq!(record["error"]["kind"], "InvalidRequest", "{line}");
            let message = record["error"]["message"].as_str().unwrap();
            assert!(message.contains("2 finite qubit-pair samples"), "{message}");
            assert!(message.contains("at least 5 needed"), "{message}");
        }
    }

    #[test]
    fn chains_too_small_to_characterize_are_invalid_requests() {
        let executor = executor(false);
        let ctx = AttemptCtx::new(0, CancelToken::new());
        // n qubits in a chain give n(n - 1) ordered pairs.
        for (qubits, samples) in [(1, 0), (2, 2)] {
            let mut chain = ChipRequest::named("linear");
            chain.size = Some(qubits);
            let err = executor(&DesignRequest::new(chain), &ctx).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidRequest, "{qubits} qubits");
            assert!(!err.transient, "{qubits} qubits");
            let want = format!("{samples} finite qubit-pair samples, at least 5 needed");
            assert!(err.message.contains(&want), "{}", err.message);
        }
    }

    #[test]
    fn chaos_over_the_real_design_flow_is_deterministic() {
        // Injected panics are contained by the pool; keep the default
        // hook's per-panic output out of the test log.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with("injected panic") {
                previous(info);
            }
        }));

        let requests: Vec<DesignRequest> = (0..8)
            .map(|i| {
                let mut r = DesignRequest::new(ChipRequest::grid("square", 2 + i % 3, 2));
                r.id = Some(format!("chaos{i}"));
                r
            })
            .collect();
        let run = || {
            let options = DaemonOptions {
                workers: 3,
                faults: Some(FaultPlan::smoke(11)),
                canonical: true,
                ..Default::default()
            };
            let mut out = Vec::new();
            let metrics = batch(&requests, &options, &mut out);
            let mut lines: Vec<String> = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(String::from)
                .collect();
            lines.sort_by_key(|line| {
                serde_json::from_str::<serde::Value>(line).unwrap()["index"]
                    .as_u64()
                    .unwrap()
            });
            (lines.join("\n"), metrics)
        };
        let (a, metrics_a) = run();
        let (b, metrics_b) = run();
        assert_eq!(a, b, "equal seeds must give byte-identical sorted streams");
        assert_eq!(metrics_a.faults, metrics_b.faults);
        assert!(metrics_a.faults.total() > 0, "smoke plan injected nothing");
        // Injected faults surface through the normal classification
        // path: real results for clean jobs, structured errors for the
        // faulted ones.
        assert_eq!(metrics_a.jobs, 8);
        assert!(metrics_a.ok > 0, "every job faulted permanently");
        assert!(metrics_a.errors > 0, "no job faulted");
    }

    #[test]
    fn delta_requests_repair_over_the_resident_base() {
        let store = RepairStore::new(8, 1);
        let executor = repairing_design_executor_threads(false, store.clone(), 1);
        let ctx = AttemptCtx::new(0, CancelToken::new());

        let base_req = DesignRequest::new(ChipRequest::grid("square", 5, 5));
        let mut drifted = base_req.clone();
        drifted.delta = Some(DeltaSpec {
            drift: Some(vec![DriftEntry {
                a: 6,
                b: 18,
                xtalk: 3e-3,
            }]),
            ..DeltaSpec::default()
        });

        // First delta over an empty store: miss — the base is planned
        // inline, stored, and repaired from.
        let first = executor(&drifted, &ctx).unwrap();
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.len(), 1);

        // Same delta again: hit, and byte-identical summary.
        let second = executor(&drifted, &ctx).unwrap();
        assert_eq!(store.stats().hits, 1);
        assert_eq!(first, second, "warm repair must be deterministic");

        // The drifted answer is a real design over the same chip, not
        // the base answer recycled.
        let base_summary = executor(&base_req, &ctx).unwrap();
        assert_eq!(base_summary.plan.total_qubits, first.plan.total_qubits);

        // A structural delta (dead coupler) falls back to a full replan.
        let mut dead = base_req.clone();
        dead.delta = Some(DeltaSpec {
            dead_couplers: Some(vec![(0, 1)]),
            ..DeltaSpec::default()
        });
        executor(&dead, &ctx).unwrap();
        assert_eq!(store.stats().fallbacks, 1);
        assert_eq!(store.stats().total(), 3);
    }

    #[test]
    fn delta_requests_validate_their_base_address_and_inputs() {
        let store = RepairStore::new(8, 1);
        let executor = repairing_design_executor_threads(false, store.clone(), 1);
        let ctx = AttemptCtx::new(0, CancelToken::new());

        let mut request = DesignRequest::new(ChipRequest::grid("square", 3, 3));
        request.delta = Some(DeltaSpec {
            drift: Some(vec![DriftEntry {
                a: 0,
                b: 4,
                xtalk: 2e-3,
            }]),
            ..DeltaSpec::default()
        });

        // A wrong base content-address is rejected before any planning.
        let mut wrong = request.clone();
        wrong.base = Some("00000000deadbeef".into());
        let err = executor(&wrong, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        assert!(err.message.contains("mismatch"), "{}", err.message);
        assert!(store.is_empty(), "rejected requests must not plan");

        // The correct address is accepted.
        let mut right = request.clone();
        right.base = Some(format!("{:016x}", right.base_key().unwrap()));
        executor(&right, &ctx).unwrap();

        // Out-of-range drift endpoints are invalid, not a panic.
        let mut oob = request.clone();
        oob.delta = Some(DeltaSpec {
            drift: Some(vec![DriftEntry {
                a: 0,
                b: 99,
                xtalk: 2e-3,
            }]),
            ..DeltaSpec::default()
        });
        let err = executor(&oob, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);

        // A dead coupler that never existed is invalid too.
        let mut ghost = request.clone();
        ghost.delta = Some(DeltaSpec {
            dead_couplers: Some(vec![(0, 8)]),
            ..DeltaSpec::default()
        });
        let err = executor(&ghost, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn multi_die_requests_plan_through_the_executor() {
        let executor = executor(true);
        let ctx = AttemptCtx::new(0, CancelToken::new());

        let mut request = DesignRequest::new(ChipRequest::grid("square", 4, 4));
        request.chip.chiplets = Some(4);
        let multi = executor(&request, &ctx).unwrap();
        assert_eq!(multi.plan.total_qubits, 64);
        assert!(multi.routing.is_none(), "multi-die requests do not route");

        // A 1×1 chiplet request is byte-identical to the monolithic one.
        let mut one = DesignRequest::new(ChipRequest::grid("square", 4, 4));
        one.routing = Some(false);
        let mono = executor(&one, &ctx).unwrap();
        one.chip.chiplets = Some(1);
        let single = executor(&one, &ctx).unwrap();
        assert_eq!(
            serde_json::to_string(&single).unwrap(),
            serde_json::to_string(&mono).unwrap()
        );

        // Delta repair is rejected on the multi path.
        let mut drifted = request.clone();
        drifted.delta = Some(DeltaSpec {
            drift: Some(vec![DriftEntry {
                a: 0,
                b: 4,
                xtalk: 2e-3,
            }]),
            ..DeltaSpec::default()
        });
        let err = executor(&drifted, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);

        // An infeasible cryostat budget is a structured validation
        // failure, not a panic.
        let mut broke = request.clone();
        broke.coax_budget = Some(2);
        let err = executor(&broke, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Validation);
    }

    #[test]
    fn executor_honours_cancellation() {
        let executor = executor(false);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = AttemptCtx::new(0, cancel);
        let request = DesignRequest::new(ChipRequest::grid("square", 3, 3));
        let err = executor(&request, &ctx).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Cancelled);
    }
}
