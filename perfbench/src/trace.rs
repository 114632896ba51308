//! The traced run: spans recorded from the benchmark's own code around
//! each layer's public calls.
//!
//! [`Replay`] is a design executor that replays what
//! `serve::repairing_design_executor_threads` does — characterize,
//! context, plan, tally, route; base lookup, diff and repair for
//! deltas; the multi-die flow for chiplet arrays — through the layers'
//! public functions, in flow order, timing every call. It runs under
//! `serve::run_daemon`, so its responses are rendered by the daemon
//! and compared byte for byte with the untraced session's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use youtiao::chip::spec::ChipSpec;
use youtiao::chip::{Chip, CouplerId, DeviceId};
use youtiao::core::tdm::brickwork_activity;
use youtiao::core::{CryostatBudget, PlanContext, WiringPlan, YoutiaoPlanner};
use youtiao::cost::WiringTally;
use youtiao::flow::{DesignError, DesignOptions, DesignReport, ReportSummary};
use youtiao::multi::{design_multi_chip, MultiDesignOptions};
use youtiao::noise::data::{synthesize, CrosstalkKind, SynthConfig};
use youtiao::noise::fit::{fit_crosstalk_model, FitConfig};
use youtiao::noise::CrosstalkModel;
use youtiao::repair::{diff_inputs, repair_plan, PlanInputs, RepairConfig, RepairOutcome};
use youtiao::route::channel::channel_route;
use youtiao::route::router::NetSpec;
use youtiao::serve::{
    effective_plan_threads, perturbed_seed, AttemptCtx, DeltaSpec, DesignRequest, ErrorKind,
    ExecError, Executor, PoolOptions,
};

/// One timed call. Times are milliseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation index within the measured phase.
    pub op: usize,
    /// Executor attempt (0 for spans recorded outside the executor).
    pub attempt: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    /// Planner sub-stage reported by `plan_with_hook`: detail inside
    /// `core.plan`, not a child for self-time accounting.
    pub stage: bool,
    /// The call returned an error.
    pub failed: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            r#"{{"op":{},"attempt":{},"id":{},"parent":{parent},"name":"{}","start_ms":{},"end_ms":{},"stage":{},"failed":{}}}"#,
            self.op,
            self.attempt,
            self.id,
            self.name,
            self.start_ms,
            self.end_ms,
            self.stage,
            self.failed
        )
    }
}

/// Span recorder for one call tree (one attempt, one client-side
/// operation, or one sweep). Spans stay in memory.
pub struct Recorder {
    epoch: Instant,
    op: usize,
    attempt: u32,
    ids: Arc<AtomicU64>,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, ids: Arc<AtomicU64>, op: usize, attempt: u32) -> Recorder {
        Recorder {
            epoch,
            op,
            attempt,
            ids,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Times `f` as a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.ids.fetch_add(1, Ordering::Relaxed) as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ms = self.now_ms();
        let out = f(self);
        let end_ms = self.now_ms();
        self.stack.pop();
        self.spans.push(Span {
            op: self.op,
            attempt: self.attempt,
            id,
            parent,
            name,
            start_ms,
            end_ms,
            stage: false,
            failed: false,
        });
        out
    }

    /// [`time`](Self::time) for a fallible call: marks the span failed
    /// on `Err`.
    pub fn try_time<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> Result<T, E>,
    ) -> Result<T, E> {
        let out = self.time(name, f);
        if out.is_err() {
            self.spans.last_mut().expect("just pushed").failed = true;
        }
        out
    }

    /// Records a planner sub-stage that just ended after `elapsed`.
    fn stage(&mut self, name: &'static str, elapsed: std::time::Duration) {
        let end_ms = self.now_ms();
        let id = self.ids.fetch_add(1, Ordering::Relaxed) as u32;
        self.spans.push(Span {
            op: self.op,
            attempt: self.attempt,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ms: end_ms - elapsed.as_secs_f64() * 1e3,
            end_ms,
            stage: true,
            failed: false,
        });
    }

    /// Times one `plan_with_hook` call as `core.plan`, recording every
    /// sub-stage the hook reports except the closing `total`.
    pub fn plan(
        &mut self,
        planner: YoutiaoPlanner<'_>,
    ) -> Result<WiringPlan, youtiao::core::PlanError> {
        self.try_time("core.plan", |rec| {
            planner.plan_with_hook(&mut |stage, elapsed| {
                if stage != "total" {
                    rec.stage(stage, elapsed);
                }
            })
        })
    }
}

/// Mirror of the facade's private failure classification.
fn classify(error: DesignError) -> ExecError {
    let kind = match &error {
        DesignError::Plan(_) => ErrorKind::Plan,
        DesignError::Route(_) => ErrorKind::Route,
        DesignError::Validation(_) => ErrorKind::Validation,
        DesignError::Cancelled { .. } => return ExecError::cancelled(),
        DesignError::Shed { .. } => {
            return ExecError::permanent(ErrorKind::Shed, error.to_string())
        }
        _ => ErrorKind::Internal,
    };
    if error.is_transient() {
        ExecError::transient(kind, error.to_string())
    } else {
        ExecError::permanent(kind, error.to_string())
    }
}

fn invalid(message: impl Into<String>) -> ExecError {
    ExecError::permanent(ErrorKind::InvalidRequest, message.into())
}

/// Operation indices at or past this mark belong to set-up frames.
const MEASURED_OPS_END: usize = usize::MAX / 2;

/// The replaying executor's state: spans, counters and its own repair
/// store (the facade's is private to its executor).
pub struct Replay {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    plan_threads: usize,
    store: Mutex<HashMap<u64, Arc<DesignReport>>>,
    pub spans: Mutex<Vec<Span>>,
    /// Measured delta attempts answered by a local repair, not a full
    /// replan.
    pub local_repairs: AtomicU64,
    /// Design frames sent before the measured phase; `ctx.index` minus
    /// this is the measured operation index.
    setup_frames: usize,
}

impl Replay {
    pub fn new(epoch: Instant, ids: Arc<AtomicU64>, setup_frames: usize) -> Arc<Replay> {
        // The daemon's defaults: one worker per core, and the
        // oversubscription policy for intra-plan threads.
        let workers = PoolOptions::default().effective_workers();
        Arc::new(Replay {
            epoch,
            ids,
            plan_threads: effective_plan_threads(0, workers),
            store: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
            local_repairs: AtomicU64::new(0),
            setup_frames,
        })
    }

    pub fn executor(self: &Arc<Self>) -> Executor<DesignRequest, ReportSummary> {
        let replay = Arc::clone(self);
        Arc::new(move |request, ctx| replay.attempt(request, ctx))
    }

    fn attempt(
        &self,
        request: &DesignRequest,
        ctx: &AttemptCtx,
    ) -> Result<ReportSummary, ExecError> {
        // Set-up frames get op indices past any measured one; the
        // aggregation ignores them.
        let op = ctx
            .index
            .checked_sub(self.setup_frames)
            .unwrap_or(MEASURED_OPS_END + ctx.index);
        let mut rec = Recorder::new(self.epoch, Arc::clone(&self.ids), op, ctx.attempt);
        let result = rec.time("serve.exec", |rec| self.run(request, ctx, rec));
        self.spans.lock().expect("span sink lock").extend(rec.spans);
        result
    }

    fn run(
        &self,
        request: &DesignRequest,
        ctx: &AttemptCtx,
        rec: &mut Recorder,
    ) -> Result<ReportSummary, ExecError> {
        let mut planner = request.planner_config();
        planner.plan_threads = self.plan_threads;
        let seed = perturbed_seed(request.seed(), ctx.attempt);
        if request.chip.is_multi() {
            if request.effective_delta().is_some() {
                return Err(invalid(
                    "delta repair is not supported for multi-die requests",
                ));
            }
            let mdc = rec
                .time("chip.build", |_| request.chip.build_multi())
                .map_err(|e| invalid(e.to_string()))?;
            let options = MultiDesignOptions {
                planner,
                seed,
                use_model: true,
                budget: request
                    .coax_budget
                    .map(|coax_lines| CryostatBudget { coax_lines }),
                validate: false,
            };
            let report = rec
                .try_time("multi", |_| design_multi_chip(&mdc, &options))
                .map_err(classify)?;
            return Ok(report.summary(&mdc));
        }
        let chip = rec
            .time("chip.build", |_| request.chip.build())
            .map_err(|e| invalid(e.to_string()))?;
        let options = DesignOptions {
            planner,
            seed,
            routing: if request.wants_routing() {
                DesignOptions::default().routing
            } else {
                None
            },
            validate: false,
        };
        match request.effective_delta() {
            Some(delta) => self.repair(request, delta, &chip, &options, rec),
            None => design(&chip, &options, rec)
                .map(|report| report.summary())
                .map_err(classify),
        }
    }

    /// The delta path: resolve the base (resident, or designed inline
    /// with the request's own seed), materialize the delta, diff,
    /// repair, and finish the flow over the repaired plan.
    fn repair(
        &self,
        request: &DesignRequest,
        delta: &DeltaSpec,
        chip: &Chip,
        options: &DesignOptions,
        rec: &mut Recorder,
    ) -> Result<ReportSummary, ExecError> {
        let base_key = request.base_key().map_err(|e| invalid(e.to_string()))?;
        let resident = self
            .store
            .lock()
            .expect("replay store lock")
            .get(&base_key)
            .cloned();
        let base = match resident {
            Some(base) => base,
            None => {
                let base_options = DesignOptions {
                    seed: request.seed(),
                    ..options.clone()
                };
                let report = Arc::new(design(chip, &base_options, rec).map_err(classify)?);
                self.store
                    .lock()
                    .expect("replay store lock")
                    .insert(base_key, Arc::clone(&report));
                report
            }
        };

        let new_chip = delta_chip(chip, delta)?;
        let mut new_xtalk = base.context.crosstalk().clone();
        for entry in delta.drift.iter().flatten() {
            new_xtalk.set(entry.a.into(), entry.b.into(), entry.xtalk);
        }
        let base_activity = brickwork_activity(chip);
        let mut new_activity = brickwork_activity(&new_chip);
        for over in delta.activity.iter().flatten() {
            let device = match (over.qubit, over.coupler) {
                (Some(q), None) => DeviceId::Qubit(q.into()),
                (None, Some(c)) => DeviceId::Coupler(CouplerId::new(c)),
                _ => return Err(invalid("activity override must name exactly one device")),
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
        let changes = rec.time("repair.diff", |_| diff_inputs(&old_inputs, &new_inputs));
        let mut planner = options.planner.clone();
        planner.weights = base.context.weights();
        let repaired = rec
            .try_time("repair.plan", |_| {
                repair_plan(
                    &base.plan,
                    &base.context,
                    &new_inputs,
                    &changes,
                    &planner,
                    &RepairConfig::default(),
                )
            })
            .map_err(|e| classify(DesignError::Plan(e)))?;
        let local = !matches!(repaired.outcome, RepairOutcome::FullReplan { .. });
        if local && rec.op < MEASURED_OPS_END {
            self.local_repairs.fetch_add(1, Ordering::Relaxed);
        }
        complete(
            &new_chip,
            base.model.clone(),
            repaired.context,
            repaired.plan,
            options,
            rec,
        )
        .map(|report| report.summary())
        .map_err(classify)
    }
}

/// Characterize → context → plan, then the back half of the flow.
fn design(
    chip: &Chip,
    options: &DesignOptions,
    rec: &mut Recorder,
) -> Result<DesignReport, DesignError> {
    let samples = rec.time("noise.synthesize", |_| {
        synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), options.seed)
    });
    let model = rec
        .time("noise.fit", |_| {
            fit_crosstalk_model(&samples, &FitConfig::paper())
        })
        .expect("synthesized data always fits");
    let context = rec.time("core.context", |_| {
        PlanContext::build(chip, Some(&model), options.planner.weights)
    });
    let plan = rec.plan(
        YoutiaoPlanner::new(chip)
            .with_crosstalk_model(&model)
            .with_config(options.planner.clone())
            .with_context(&context),
    )?;
    complete(chip, model, context, plan, options, rec)
}

/// Tally and route an already-built plan (validation is off, as in the
/// daemon's default options).
fn complete(
    chip: &Chip,
    model: CrosstalkModel,
    context: PlanContext,
    plan: WiringPlan,
    options: &DesignOptions,
    rec: &mut Recorder,
) -> Result<DesignReport, DesignError> {
    let dedicated = WiringTally::google(chip);
    let multiplexed = WiringTally::youtiao(&plan);
    let routing = match &options.routing {
        Some(config) => {
            let nets = plan_nets(chip, &plan);
            Some(rec.try_time("route.channel", |_| channel_route(chip, &nets, config))?)
        }
        None => None,
    };
    Ok(DesignReport {
        model,
        context,
        plan,
        dedicated,
        multiplexed,
        routing,
    })
}

/// The flow's net list: chained FDM lines, chained TDM groups, readout
/// feedlines.
fn plan_nets(chip: &Chip, plan: &WiringPlan) -> Vec<NetSpec> {
    let qubit_pos = |q| {
        chip.qubit(q)
            .expect("plan qubits are on the chip")
            .position()
    };
    let mut nets = Vec::new();
    for (i, line) in plan.fdm_lines().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("xy{i}"),
            line.qubits().iter().map(|&q| qubit_pos(q)).collect(),
        ));
    }
    for (i, group) in plan.tdm_groups().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("z{i}"),
            group
                .devices()
                .iter()
                .map(|&d| chip.device_position(d))
                .collect(),
        ));
    }
    for (i, line) in plan.readout_lines().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("ro{i}"),
            line.iter().map(|&q| qubit_pos(q)).collect(),
        ));
    }
    nets
}

/// The base chip minus every coupler the delta names dead.
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

/// Layer of a span name, for self-time shares.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "chip.build" => "chip",
        "serve.key" | "serve.request" | "serve.exec" => "serve",
        "noise.synthesize" | "noise.fit" => "noise",
        "core.context" | "core.plan" => "core",
        "route.channel" => "route",
        "repair.diff" | "repair.plan" => "repair",
        "multi" => "multi",
        "xplore.sweep" | "xplore.point" => "xplore",
        _ => "other",
    }
}

/// Layers in report order.
pub const LAYERS: [&str; 8] = [
    "chip", "serve", "noise", "core", "route", "repair", "multi", "xplore",
];

/// Self time of every non-stage span: its duration minus the part its
/// (non-stage) children cover. Children may run on other threads
/// (executor attempts under a client-side request span), so they are
/// matched by id.
pub fn self_times(spans: &[Span]) -> HashMap<u32, f64> {
    let mut child_ms: HashMap<u32, f64> = HashMap::new();
    for span in spans.iter().filter(|s| !s.stage) {
        if let Some(parent) = span.parent {
            *child_ms.entry(parent).or_default() += span.ms();
        }
    }
    spans
        .iter()
        .filter(|s| !s.stage)
        .map(|s| (s.id, s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)))
        .collect()
}
