//! The parallel sweep engine.
//!
//! [`run_sweep`] turns a [`SweepSpec`] into the full cartesian grid of
//! design points and plans them as forks under the process's CPU budget
//! (`youtiao-exec`):
//!
//! * **Shared planning context** — the expensive per-chip precomputation
//!   (equivalent-distance matrix, crosstalk matrix, fitted noise model)
//!   is built **once** per (chip, seed) axis value into a
//!   [`PlanContext`] and shared by reference across every thread that
//!   plans a point on that chip; the planner skips its internal
//!   matrices stage entirely. The contexts build as one fork.
//! * **Deterministic output** — a point worker and the helpers its fork
//!   leases pull grid indices from an atomic counter and send
//!   `(index, record)` pairs back over a channel; the main thread
//!   reorders them through a buffer and streams JSONL strictly in grid
//!   order, so the byte stream is identical no matter how many threads
//!   raced to produce it (with timings off, the default).
//! * **Plan cache reuse** — results are memoized in a one-shard
//!   [`ShardedCache`] under a content key of the full point parameters,
//!   so overlapping sweeps (and re-runs via `--cache`) skip replanning.
//! * **Pareto + marginals** — after the grid drains, the engine
//!   extracts the dominance-based Pareto front over the configured
//!   objectives and per-axis marginal means for every swept axis.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use youtiao_chip::{Chip, ChipSpec, QubitId};
use youtiao_core::fdm::FdmLine;
use youtiao_core::freq::{allocate_frequencies, FreqConfig};
use youtiao_core::tdm::DemuxLevel;
use youtiao_core::{
    die_seed, plan_multi, MultiPlanConfig, PairKernels, ParallelExec, PartitionConfig, PlanContext,
    PlanError, PlannerConfig, YoutiaoPlanner,
};
use youtiao_cost::WiringTally;
use youtiao_noise::{characterize_xy, CrosstalkModel};
use youtiao_serve::cache::content_key;
use youtiao_serve::{ChipRequest, ShardedCache};

use crate::eval::{default_simulator, per_qubit_gate_error, FdmScenario};
use crate::grid::{GridPoint, SweepGrid};
use crate::pareto::{pareto_front, Objective, ObjectiveKind, ParetoEntry};
use crate::record::{PointResult, StageMs, SweepRecord};
use crate::spec::{SpecError, SweepMode, SweepSpec};

/// How [`run_sweep`] executes a spec.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Threads planning points at once, at most; `0` means one per
    /// available core. Every thread past the first runs on a core the
    /// process's CPU budget finds idle.
    pub threads: usize,
    /// Intra-plan threads injected into every point's planner config,
    /// and the cap on the context builds' fork (`0` = no cap: the CPU
    /// budget's idle cores decide). Plans are byte-identical across any
    /// value, so sweep records and the plan cache are unaffected — the
    /// knob is excluded from point cache keys.
    pub plan_threads: usize,
    /// Pareto objectives (conventional directions).
    pub objectives: Vec<Objective>,
    /// Record per-point latency and per-stage timings. Timings are
    /// wall-clock and vary run to run — leave off (the default) for
    /// byte-deterministic output.
    pub timings: bool,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Load/save the plan cache at this path across runs.
    pub cache_path: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            plan_threads: 0,
            objectives: vec![
                Objective::conventional(ObjectiveKind::Cost),
                Objective::conventional(ObjectiveKind::Fidelity),
            ],
            timings: false,
            cache_capacity: 1024,
            cache_path: None,
        }
    }
}

/// Errors running a sweep.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// The spec did not validate into a grid.
    Spec(SpecError),
    /// The objective list is unusable (e.g. latency without timings).
    Objective(String),
    /// Writing records or cache files failed.
    Io(std::io::Error),
    /// A persisted cache file did not parse.
    Cache(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "invalid sweep spec: {e}"),
            SweepError::Objective(msg) => write!(f, "invalid objectives: {msg}"),
            SweepError::Io(e) => write!(f, "sweep I/O failed: {e}"),
            SweepError::Cache(msg) => write!(f, "plan cache unusable: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Spec(e) => Some(e),
            SweepError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// Marginal means of the effective objectives for one value of one
/// swept axis.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AxisMarginal {
    /// Axis name (`theta`, `chip`, …).
    pub axis: String,
    /// The axis value, rendered.
    pub value: String,
    /// Successful records at this value.
    pub points: usize,
    /// Mean objective values (parallel to the effective objective
    /// list); `None` when no record at this value carries the metric.
    pub means: Vec<Option<f64>>,
}

/// What a sweep did, beyond the record stream.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SweepSummary {
    /// Spec name, if any.
    pub name: Option<String>,
    /// Grid points executed.
    pub points: usize,
    /// Successful records.
    pub ok: usize,
    /// Failed records.
    pub errors: usize,
    /// The most threads that planned points at once (the `threads`
    /// option resolved against the cores and the grid).
    pub threads: usize,
    /// Shared planning contexts built (one per chip × characterization
    /// seed — the probe for "matrices built once, not per point").
    pub contexts_built: usize,
    /// Pairwise grouping kernels built during the run (process-global
    /// probe delta). In a dedicated sweep process this equals
    /// `contexts_built`: every point reuses its context's kernels
    /// instead of rebuilding the pairwise tables per plan.
    pub kernels_built: usize,
    /// Plan-cache hits during this run.
    pub cache_hits: u64,
    /// Plan-cache misses during this run.
    pub cache_misses: u64,
    /// Plan chains recalled from the shared contexts' chain memos,
    /// summed over contexts (`PlanContext::chain_stats`).
    pub chain_hits: u64,
    /// Plan chains that ran because no memo held them, summed over
    /// contexts.
    pub chain_misses: u64,
    /// The effective objective list, rendered (`min(cost)`, …).
    pub objectives: Vec<String>,
    /// The Pareto front over the effective objectives.
    pub pareto: Vec<ParetoEntry>,
    /// Per-axis marginal means for every swept (multi-valued) axis.
    pub marginals: Vec<AxisMarginal>,
    /// Wall time of the whole sweep, milliseconds.
    pub elapsed_ms: f64,
}

impl SweepSummary {
    /// Human-readable multi-line rendering (the `youtiao sweep` stderr
    /// report).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let name = self.name.as_deref().unwrap_or("sweep");
        s.push_str(&format!(
            "{name}: {} points ({} ok, {} errors) on {} threads in {:.0} ms\n",
            self.points, self.ok, self.errors, self.threads, self.elapsed_ms
        ));
        s.push_str(&format!(
            "contexts built: {} ({} kernel builds); cache: {} hits / {} misses; \
             chains: {} hits / {} misses\n",
            self.contexts_built,
            self.kernels_built,
            self.cache_hits,
            self.cache_misses,
            self.chain_hits,
            self.chain_misses
        ));
        if self.objectives.is_empty() {
            s.push_str("pareto front: no usable objectives\n");
        } else {
            s.push_str(&format!(
                "pareto front over [{}]: {} points\n",
                self.objectives.join(", "),
                self.pareto.len()
            ));
            for entry in &self.pareto {
                let values: Vec<String> = entry.values.iter().map(|v| format!("{v:.4}")).collect();
                s.push_str(&format!(
                    "  #{:<4} {}  [{}]\n",
                    entry.index,
                    entry.id,
                    values.join(", ")
                ));
            }
        }
        for m in &self.marginals {
            let means: Vec<String> = m
                .means
                .iter()
                .map(|v| match v {
                    Some(v) => format!("{v:.4}"),
                    None => "-".into(),
                })
                .collect();
            s.push_str(&format!(
                "  {}={} ({} ok): [{}]\n",
                m.axis,
                m.value,
                m.points,
                means.join(", ")
            ));
        }
        s
    }
}

/// A finished sweep: every record (in grid order) plus the summary.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// All records, sorted by grid index.
    pub records: Vec<SweepRecord>,
    /// Front, marginals and counters.
    pub summary: SweepSummary,
}

/// The shared per-(chip, seed) planning context: everything expensive
/// that does not depend on the planner knobs being swept.
struct ChipCtx {
    label: String,
    chip: Chip,
    request: ChipRequest,
    spec_key: u64,
    model: Option<CrosstalkModel>,
    plan_ctx: PlanContext,
}

/// Runs a sweep with a private or persisted cache (per
/// [`SweepOptions::cache_path`]), streaming JSONL records to `out`.
///
/// # Errors
///
/// [`SweepError::Spec`] for invalid specs, [`SweepError::Objective`]
/// for unusable objective lists, [`SweepError::Io`]/
/// [`SweepError::Cache`] for record or cache file problems. Planner
/// failures at individual grid points do **not** fail the sweep — they
/// become `status: "Error"` records.
pub fn run_sweep<W: Write>(
    spec: &SweepSpec,
    options: &SweepOptions,
    out: &mut W,
) -> Result<SweepOutcome, SweepError> {
    let cache = match &options.cache_path {
        Some(path) => {
            ShardedCache::load(path, 1, options.cache_capacity, false)
                .map_err(|e| SweepError::Cache(e.to_string()))?
                .0
        }
        None => ShardedCache::new(1, options.cache_capacity),
    };
    let outcome = run_sweep_with_cache(spec, options, &cache, out)?;
    if let Some(path) = &options.cache_path {
        // Temp-and-rename, so a crash mid-save never tears the file.
        cache.save_atomic(path)?;
    }
    Ok(outcome)
}

/// [`run_sweep`] against a caller-owned [`ShardedCache`] (e.g. one
/// shared with a `youtiao-serve` batch service).
pub fn run_sweep_with_cache<W: Write>(
    spec: &SweepSpec,
    options: &SweepOptions,
    cache: &ShardedCache<PointResult>,
    out: &mut W,
) -> Result<SweepOutcome, SweepError> {
    let started = Instant::now();
    let grid = SweepGrid::resolve(spec)?;
    if !options.timings
        && options
            .objectives
            .iter()
            .any(|o| o.kind == ObjectiveKind::Latency)
    {
        return Err(SweepError::Objective(
            "the latency objective needs timings enabled (`--timings`)".into(),
        ));
    }

    // Phase 1: one shared context per (chip, characterization seed) —
    // the whole point of the exercise. Matrices, model fits and grouping
    // kernels happen here, once, not inside the per-point loop. The
    // contexts build as one fork, capped like a plan's threads (a
    // context is a plan's matrices stage), and the first error in
    // (chip, seed) order is the sweep's.
    let kernels_before = PairKernels::build_count();
    let mut chips = Vec::with_capacity(grid.chips.len());
    for (index, request) in grid.chips.iter().enumerate() {
        if request.is_multi() {
            return Err(SweepError::Spec(SpecError::Chip {
                index,
                message: "per-chip `chiplets` is not a sweep input; use the top-level \
                          `chiplets`/`link_topologies` axes"
                    .into(),
            }));
        }
        let chip = request.build().map_err(|e| {
            SweepError::Spec(SpecError::Chip {
                index,
                message: e.to_string(),
            })
        })?;
        let spec_key = content_key(&ChipSpec::from_chip(&chip));
        chips.push((chip, spec_key));
    }
    let fallback = PlannerConfig::default().weights;
    let ctx_seeds: Vec<u64> = if spec.uses_model() {
        let mut seeds = Vec::new();
        for &seed in &grid.seeds {
            if !seeds.contains(&seed) {
                seeds.push(seed);
            }
        }
        seeds
    } else {
        vec![0]
    };
    let ctx_keys: Vec<(usize, u64)> = (0..chips.len())
        .flat_map(|chip_idx| ctx_seeds.iter().map(move |&seed| (chip_idx, seed)))
        .collect();
    let built: Vec<Result<ChipCtx, SweepError>> =
        ParallelExec::new(options.plan_threads).run(ctx_keys.len(), |k| {
            let (chip_idx, seed) = ctx_keys[k];
            let (chip, spec_key) = &chips[chip_idx];
            let model = spec
                .uses_model()
                .then(|| characterize_xy(chip, seed))
                .transpose()
                .map_err(|e| {
                    SweepError::Spec(SpecError::Chip {
                        index: chip_idx,
                        message: PlanError::Characterize(e).to_string(),
                    })
                })?;
            let plan_ctx = PlanContext::build(chip, model.as_ref(), fallback);
            Ok(ChipCtx {
                label: chip.name().to_string(),
                chip: chip.clone(),
                request: grid.chips[chip_idx].clone(),
                spec_key: *spec_key,
                model,
                plan_ctx,
            })
        });
    let mut contexts: HashMap<(usize, u64), ChipCtx> = HashMap::new();
    for (key, ctx) in ctx_keys.into_iter().zip(built) {
        contexts.insert(key, ctx?);
    }
    let contexts_built = contexts.len();
    let cache_before = cache.stats();

    // Phase 2: the points run as one fork of at most `threads` threads
    // on a point worker, which holds its unit of the CPU budget, while
    // this thread, holding none, reorders completions and streams JSONL
    // strictly in index order. Writing record k overlaps planning point
    // k + 1. Intra-plan threads nest under the same budget: a plan's
    // chains lease only the cores the points leave idle.
    let total = grid.len();
    let threads = if options.threads == 0 {
        youtiao_exec::cores()
    } else {
        options.threads
    }
    .clamp(1, total);

    let (tx, rx) = mpsc::channel::<(usize, SweepRecord)>();
    let mut records: Vec<SweepRecord> = Vec::with_capacity(total);
    let mut io_error: Option<std::io::Error> = None;
    {
        let grid = &grid;
        let contexts = &contexts;
        // Set once the writer stops: later points are skipped.
        let stopped = &AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _unit = youtiao_exec::hold();
                ParallelExec::new(threads).run(total, |index| {
                    if stopped.load(Ordering::Relaxed) {
                        return;
                    }
                    let point = grid.point(index);
                    let seed_key = if spec.uses_model() { point.seed } else { 0 };
                    let ctx = &contexts[&(point.chip_idx, seed_key)];
                    let record = run_point(&point, ctx, spec, options, cache);
                    if tx.send((index, record)).is_err() {
                        stopped.store(true, Ordering::Relaxed);
                    }
                });
            });
            let mut pending: BTreeMap<usize, SweepRecord> = BTreeMap::new();
            let mut next_write = 0usize;
            for (index, record) in rx {
                pending.insert(index, record);
                while let Some(record) = pending.remove(&next_write) {
                    let line = serde_json::to_string(&record).expect("records always serialize");
                    if let Err(e) = writeln!(out, "{line}") {
                        io_error = Some(e);
                        break;
                    }
                    records.push(record);
                    next_write += 1;
                }
                if io_error.is_some() {
                    break;
                }
            }
        });
    }
    if let Some(e) = io_error {
        return Err(SweepError::Io(e));
    }

    // Phase 3: front + marginals + counters.
    let (effective, pareto) = pareto_front(&records, &options.objectives);
    let marginals = axis_marginals(&grid, &records, &effective);
    let cache_delta = cache.stats().since(&cache_before);
    let (chain_hits, chain_misses) = contexts.values().fold((0, 0), |(hits, misses), ctx| {
        let stats = ctx.plan_ctx.chain_stats();
        (hits + stats.hits, misses + stats.misses)
    });
    let ok = records.iter().filter(|r| r.is_ok()).count();
    let summary = SweepSummary {
        name: spec.name.clone(),
        points: records.len(),
        ok,
        errors: records.len() - ok,
        threads,
        contexts_built,
        kernels_built: usize::try_from(PairKernels::build_count() - kernels_before)
            .unwrap_or(usize::MAX),
        cache_hits: cache_delta.hits,
        cache_misses: cache_delta.misses,
        chain_hits,
        chain_misses,
        objectives: effective.iter().map(Objective::to_string).collect(),
        pareto,
        marginals,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    Ok(SweepOutcome { records, summary })
}

/// Plans (or recalls) one grid point and fills its record.
fn run_point(
    point: &GridPoint,
    ctx: &ChipCtx,
    spec: &SweepSpec,
    options: &SweepOptions,
    cache: &ShardedCache<PointResult>,
) -> SweepRecord {
    let started = Instant::now();
    let skeleton = SweepRecord::skeleton(point, &ctx.label, ctx.chip.num_qubits() * point.chiplets);
    let key = point_key(point, ctx, spec);
    let mut record = if let Some(hit) = cache.get(key) {
        skeleton.with_result(&hit)
    } else {
        match catch_unwind(AssertUnwindSafe(|| {
            compute_point(point, ctx, spec, options.timings, options.plan_threads)
        })) {
            Ok(Ok((result, stages))) => {
                cache.insert(key, result.clone());
                let mut record = skeleton.with_result(&result);
                if options.timings {
                    record.stages = Some(stages);
                }
                record
            }
            Ok(Err(message)) => skeleton.with_error(message),
            Err(_) => skeleton.with_error("panic while planning this point"),
        }
    };
    if options.timings {
        record.latency_ms = Some(started.elapsed().as_secs_f64() * 1e3);
    }
    record
}

/// The content key a point's result is memoized under: every input
/// that can change the [`PointResult`]. (Nested ≤3-tuples — the
/// vendored serde's tuple arity limit.)
fn point_key(point: &GridPoint, ctx: &ChipCtx, spec: &SweepSpec) -> u64 {
    let key = content_key(&(
        ("xplore-v1", ctx.spec_key, point.mode.to_string()),
        (
            (
                point.theta,
                point.max_shared_slots,
                point.fdm_capacity as u64,
            ),
            (
                point.readout_capacity as u64,
                point.one_to_eight,
                if spec.uses_model() { point.seed } else { 0 },
            ),
        ),
        (
            spec.uses_model(),
            spec.wants_fidelity(),
            spec.partition_target.unwrap_or(0) as u64,
        ),
    ));
    // Chiplet knobs fold in only for multi-die points, so every
    // monolithic key (and any cache persisted before the chiplet axes
    // existed) stays stable.
    if point.chiplets > 1 {
        content_key(&(
            key,
            point.chiplets as u64,
            point.link_topology.name().to_string(),
        ))
    } else {
        key
    }
}

/// Per-qubit error evaluation shared by both modes: all-driven
/// processor fidelity and mean gate fidelity.
fn evaluate_fidelity(
    scenario: &FdmScenario<'_>,
    timings: bool,
    stages: &mut Vec<StageMs>,
) -> (Option<f64>, Option<f64>) {
    let started = Instant::now();
    let errs = per_qubit_gate_error(scenario, &default_simulator());
    let fidelity: f64 = errs.iter().map(|e| 1.0 - e).product();
    let mean = 1.0 - errs.iter().sum::<f64>() / errs.len() as f64;
    if timings {
        stages.push(StageMs {
            name: "fidelity".into(),
            ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }
    (Some(fidelity), Some(mean))
}

/// The actual work at one grid point.
fn compute_point(
    point: &GridPoint,
    ctx: &ChipCtx,
    spec: &SweepSpec,
    timings: bool,
    plan_threads: usize,
) -> Result<(PointResult, Vec<StageMs>), String> {
    if point.chiplets > 1 {
        return compute_multi_point(point, ctx, spec, timings, plan_threads);
    }
    let chip = &ctx.chip;
    let mut stages = Vec::new();
    let dedicated = WiringTally::google(chip);

    match point.mode {
        SweepMode::Dedicated => {
            let (fidelity, mean) = if spec.wants_fidelity() {
                let model = ctx.model.as_ref().expect("fidelity implies a model");
                // Dedicated wiring: one XY line per qubit.
                let lines: Vec<FdmLine> = (0..chip.num_qubits())
                    .map(|i| FdmLine::new(vec![QubitId::from(i)]))
                    .collect();
                let freqs = allocate_frequencies(
                    chip,
                    &lines,
                    ctx.plan_ctx.crosstalk(),
                    &FreqConfig::default(),
                )
                .map_err(|e| e.to_string())?;
                let scenario = FdmScenario {
                    chip,
                    lines: &lines,
                    freqs: &freqs,
                    model,
                };
                evaluate_fidelity(&scenario, timings, &mut stages)
            } else {
                (None, None)
            };
            Ok((
                PointResult {
                    qubits: chip.num_qubits(),
                    xy_lines: dedicated.xy_lines,
                    z_lines: dedicated.z_lines,
                    readout_feedlines: dedicated.readout_feedlines,
                    coax_lines: dedicated.coax_lines(),
                    cost_kusd: dedicated.cost_kusd(),
                    dedicated_coax: dedicated.coax_lines(),
                    dedicated_cost_kusd: dedicated.cost_kusd(),
                    demux_deep: 0,
                    demux_one_to_two: 0,
                    demux_direct: chip.num_z_devices(),
                    fidelity,
                    mean_gate_fidelity: mean,
                },
                stages,
            ))
        }
        SweepMode::Youtiao => {
            let mut config = PlannerConfig::default();
            config.tdm.theta = point.theta;
            config.tdm.max_shared_slots = point.max_shared_slots;
            config.tdm.allow_one_to_eight = point.one_to_eight;
            config.fdm_capacity = point.fdm_capacity;
            config.readout_capacity = point.readout_capacity;
            // Intra-plan parallelism: byte-identical plans at any
            // count, so this never enters `point_key`.
            config.plan_threads = plan_threads;
            if let Some(target) = spec.partition_target {
                config.partition = Some(PartitionConfig::for_target_size(chip, target));
            }
            let mut planner = YoutiaoPlanner::new(chip)
                .with_config(config)
                .with_context(&ctx.plan_ctx);
            if let Some(model) = &ctx.model {
                planner = planner.with_crosstalk_model(model);
            }
            let plan = planner
                .plan_with_hook(&mut |stage, elapsed| {
                    if timings {
                        stages.push(StageMs {
                            name: stage.to_string(),
                            ms: elapsed.as_secs_f64() * 1e3,
                        });
                    }
                })
                .map_err(|e| e.to_string())?;

            let tally = WiringTally::youtiao(&plan);
            let (mut deep, mut one_to_two, mut direct) = (0, 0, 0);
            for group in plan.tdm_groups() {
                match group.level() {
                    DemuxLevel::OneToEight | DemuxLevel::OneToFour => deep += group.len(),
                    DemuxLevel::OneToTwo => one_to_two += group.len(),
                    _ => direct += group.len(),
                }
            }
            let (fidelity, mean) = if spec.wants_fidelity() {
                let model = ctx.model.as_ref().expect("fidelity implies a model");
                let scenario = FdmScenario {
                    chip,
                    lines: plan.fdm_lines(),
                    freqs: plan.frequency_plan(),
                    model,
                };
                evaluate_fidelity(&scenario, timings, &mut stages)
            } else {
                (None, None)
            };
            Ok((
                PointResult {
                    qubits: chip.num_qubits(),
                    xy_lines: tally.xy_lines,
                    z_lines: tally.z_lines,
                    readout_feedlines: tally.readout_feedlines,
                    coax_lines: tally.coax_lines(),
                    cost_kusd: tally.cost_kusd(),
                    dedicated_coax: dedicated.coax_lines(),
                    dedicated_cost_kusd: dedicated.cost_kusd(),
                    demux_deep: deep,
                    demux_one_to_two: one_to_two,
                    demux_direct: direct,
                    fidelity,
                    mean_gate_fidelity: mean,
                },
                stages,
            ))
        }
    }
}

/// Folds per-qubit gate errors into the all-driven processor fidelity
/// and the mean gate fidelity.
fn fold_errors(errs: &[f64]) -> (Option<f64>, Option<f64>) {
    let fidelity: f64 = errs.iter().map(|e| 1.0 - e).product();
    let mean = 1.0 - errs.iter().sum::<f64>() / errs.len() as f64;
    (Some(fidelity), Some(mean))
}

/// The actual work at a multi-die grid point: tile the chip into a
/// chiplet array, plan every die (per-die characterization seeds, link
/// reconciliation), and report cryostat-level totals. Fidelity is the
/// product over dies of the per-die all-driven fidelity — each die
/// evaluated against its own characterization.
fn compute_multi_point(
    point: &GridPoint,
    ctx: &ChipCtx,
    spec: &SweepSpec,
    timings: bool,
    plan_threads: usize,
) -> Result<(PointResult, Vec<StageMs>), String> {
    let mut stages = Vec::new();
    let mut chip_request = ctx.request.clone();
    chip_request.chiplets = Some(point.chiplets);
    chip_request.link_topology = Some(point.link_topology.name().to_string());
    let mdc = chip_request.build_multi().map_err(|e| e.to_string())?;
    let dedicated = WiringTally::sum(mdc.dies().iter().map(WiringTally::google));
    let seed = if spec.uses_model() { point.seed } else { 0 };

    match point.mode {
        SweepMode::Dedicated => {
            let (fidelity, mean) = if spec.wants_fidelity() {
                let started = Instant::now();
                // Dedicated wiring: one XY line per qubit, identical on
                // every die; only the per-die characterization differs.
                let lines: Vec<FdmLine> = (0..ctx.chip.num_qubits())
                    .map(|i| FdmLine::new(vec![QubitId::from(i)]))
                    .collect();
                let freqs = allocate_frequencies(
                    &ctx.chip,
                    &lines,
                    ctx.plan_ctx.crosstalk(),
                    &FreqConfig::default(),
                )
                .map_err(|e| e.to_string())?;
                let mut errs = Vec::with_capacity(mdc.total_qubits());
                for die in 0..mdc.num_dies() {
                    let model = characterize_xy(&ctx.chip, die_seed(seed, die))
                        .map_err(|e| PlanError::Characterize(e).to_string())?;
                    let scenario = FdmScenario {
                        chip: &ctx.chip,
                        lines: &lines,
                        freqs: &freqs,
                        model: &model,
                    };
                    errs.extend(per_qubit_gate_error(&scenario, &default_simulator()));
                }
                if timings {
                    stages.push(StageMs {
                        name: "fidelity".into(),
                        ms: started.elapsed().as_secs_f64() * 1e3,
                    });
                }
                fold_errors(&errs)
            } else {
                (None, None)
            };
            Ok((
                PointResult {
                    qubits: mdc.total_qubits(),
                    xy_lines: dedicated.xy_lines,
                    z_lines: dedicated.z_lines,
                    readout_feedlines: dedicated.readout_feedlines,
                    coax_lines: dedicated.coax_lines(),
                    cost_kusd: dedicated.cost_kusd(),
                    dedicated_coax: dedicated.coax_lines(),
                    dedicated_cost_kusd: dedicated.cost_kusd(),
                    demux_deep: 0,
                    demux_one_to_two: 0,
                    demux_direct: mdc.total_z_devices(),
                    fidelity,
                    mean_gate_fidelity: mean,
                },
                stages,
            ))
        }
        SweepMode::Youtiao => {
            let mut config = PlannerConfig::default();
            config.tdm.theta = point.theta;
            config.tdm.max_shared_slots = point.max_shared_slots;
            config.tdm.allow_one_to_eight = point.one_to_eight;
            config.fdm_capacity = point.fdm_capacity;
            config.readout_capacity = point.readout_capacity;
            config.plan_threads = plan_threads;
            if let Some(target) = spec.partition_target {
                config.partition = Some(PartitionConfig::for_target_size(&ctx.chip, target));
            }
            let multi_config = MultiPlanConfig {
                planner: config,
                use_model: spec.uses_model(),
                seed,
                budget: None,
            };
            let exec = ParallelExec::new(plan_threads);
            let started = Instant::now();
            let outcome = plan_multi(&mdc, &multi_config, &exec).map_err(|e| e.to_string())?;
            if timings {
                stages.push(StageMs {
                    name: "plan_multi".into(),
                    ms: started.elapsed().as_secs_f64() * 1e3,
                });
            }

            let tally =
                WiringTally::sum(outcome.dies.iter().map(|d| WiringTally::youtiao(&d.plan)));
            let (mut deep, mut one_to_two, mut direct) = (0, 0, 0);
            for die in &outcome.dies {
                for group in die.plan.tdm_groups() {
                    match group.level() {
                        DemuxLevel::OneToEight | DemuxLevel::OneToFour => deep += group.len(),
                        DemuxLevel::OneToTwo => one_to_two += group.len(),
                        _ => direct += group.len(),
                    }
                }
            }
            let (fidelity, mean) = if spec.wants_fidelity() {
                let started = Instant::now();
                let mut errs = Vec::with_capacity(mdc.total_qubits());
                for (chip, die) in mdc.dies().iter().zip(&outcome.dies) {
                    let model = die.model.as_ref().expect("fidelity implies a model");
                    let scenario = FdmScenario {
                        chip,
                        lines: die.plan.fdm_lines(),
                        freqs: die.plan.frequency_plan(),
                        model,
                    };
                    errs.extend(per_qubit_gate_error(&scenario, &default_simulator()));
                }
                if timings {
                    stages.push(StageMs {
                        name: "fidelity".into(),
                        ms: started.elapsed().as_secs_f64() * 1e3,
                    });
                }
                fold_errors(&errs)
            } else {
                (None, None)
            };
            Ok((
                PointResult {
                    qubits: mdc.total_qubits(),
                    xy_lines: tally.xy_lines,
                    z_lines: tally.z_lines,
                    readout_feedlines: tally.readout_feedlines,
                    coax_lines: tally.coax_lines(),
                    cost_kusd: tally.cost_kusd(),
                    dedicated_coax: dedicated.coax_lines(),
                    dedicated_cost_kusd: dedicated.cost_kusd(),
                    demux_deep: deep,
                    demux_one_to_two: one_to_two,
                    demux_direct: direct,
                    fidelity,
                    mean_gate_fidelity: mean,
                },
                stages,
            ))
        }
    }
}

/// Per-axis marginal means of the effective objectives, for every axis
/// the spec actually sweeps (more than one value).
fn axis_marginals(
    grid: &SweepGrid,
    records: &[SweepRecord],
    objectives: &[Objective],
) -> Vec<AxisMarginal> {
    type Extract = fn(&SweepRecord) -> String;
    let axes: [(&str, usize, Extract); 10] = [
        ("chip", grid.chips.len(), |r| r.chip.clone()),
        ("mode", grid.modes.len(), |r| r.mode.to_string()),
        ("theta", grid.thetas.len(), |r| r.theta.to_string()),
        ("max_shared_slots", grid.max_shared_slots.len(), |r| {
            r.max_shared_slots.to_string()
        }),
        ("fdm_capacity", grid.fdm_capacities.len(), |r| {
            r.fdm_capacity.to_string()
        }),
        ("readout_capacity", grid.readout_capacities.len(), |r| {
            r.readout_capacity.to_string()
        }),
        ("one_to_eight", grid.one_to_eight.len(), |r| {
            r.one_to_eight.to_string()
        }),
        ("chiplets", grid.chiplets.len(), |r| r.chiplets.to_string()),
        ("link_topology", grid.link_topologies.len(), |r| {
            r.link_topology.clone()
        }),
        ("seed", grid.seeds.len(), |r| r.seed.to_string()),
    ];

    let mut marginals = Vec::new();
    for (axis, cardinality, extract) in axes {
        if cardinality < 2 {
            continue;
        }
        // Group Ok records by axis value, preserving first-seen order
        // (which is grid order, hence spec order).
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<&SweepRecord>> = HashMap::new();
        for record in records.iter().filter(|r| r.is_ok()) {
            let value = extract(record);
            if !groups.contains_key(&value) {
                order.push(value.clone());
            }
            groups.entry(value).or_default().push(record);
        }
        for value in order {
            let group = &groups[&value];
            let means = objectives
                .iter()
                .map(|o| {
                    let values: Vec<f64> = group.iter().filter_map(|r| o.value(r)).collect();
                    if values.is_empty() {
                        None
                    } else {
                        Some(values.iter().sum::<f64>() / values.len() as f64)
                    }
                })
                .collect();
            marginals.push(AxisMarginal {
                axis: axis.to_string(),
                value,
                points: group.len(),
                means,
            });
        }
    }
    marginals
}
