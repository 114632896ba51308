//! One-call design flow: characterize → plan → route → cost.
//!
//! [`design_chip`] runs the full YOUTIAO pipeline on a chip and returns
//! everything a hardware team reviews in one report: the wiring plan,
//! both cost tallies, and the chip-level routing result.

use youtiao_chip::Chip;
use youtiao_core::tdm::ActivityProfile;
use youtiao_core::{
    PlanContext, PlanError, PlanSummary, PlannerConfig, WiringPlan, YoutiaoPlanner,
};
use youtiao_cost::WiringTally;
use youtiao_noise::{characterize_xy, CrosstalkModel};
use youtiao_obs::validate::{
    check_plan, check_plan_with_activity, check_routing, ValidationReport,
};
use youtiao_obs::Tracer;
use youtiao_route::channel::{channel_route, ChannelConfig, ChannelResult};
use youtiao_route::router::{NetSpec, RouteError};
use youtiao_serve::CancelToken;

/// Options for [`design_chip`].
#[derive(Debug, Clone)]
pub struct DesignOptions {
    /// Planner configuration (FDM capacity, θ, partitioning, …).
    pub planner: PlannerConfig,
    /// Seed for synthetic crosstalk characterization (substitute for
    /// measured chip data).
    pub seed: u64,
    /// Route the chip level too (skipped when `None`).
    pub routing: Option<ChannelConfig>,
    /// Check every plan invariant after the pipeline and fail with
    /// [`DesignError::Validation`] on a violation. Debug builds run the
    /// checks regardless (asserting instead of erroring), so the test
    /// suite exercises the validator on every flow run.
    pub validate: bool,
}

impl Default for DesignOptions {
    fn default() -> Self {
        DesignOptions {
            planner: PlannerConfig::default(),
            seed: 0x594F_5554,
            routing: Some(ChannelConfig {
                margin_mm: 5.0,
                ..Default::default()
            }),
            validate: false,
        }
    }
}

/// The output of [`design_chip`].
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// The fitted crosstalk model used for grouping and allocation.
    pub model: CrosstalkModel,
    /// The plan context (matrices + pair kernels) the plan was built
    /// from — what the serve layer's warm repair path starts from.
    pub context: PlanContext,
    /// The YOUTIAO wiring plan.
    pub plan: WiringPlan,
    /// Resource tally under dedicated (Google-style) wiring.
    pub dedicated: WiringTally,
    /// Resource tally under the YOUTIAO plan.
    pub multiplexed: WiringTally,
    /// Chip-level routing of the multiplexed netlist, when requested.
    pub routing: Option<ChannelResult>,
}

impl DesignReport {
    /// Wiring-cost reduction factor (dedicated / multiplexed).
    pub fn cost_reduction(&self) -> f64 {
        self.dedicated.cost_kusd() / self.multiplexed.cost_kusd()
    }

    /// Coax-line reduction factor.
    pub fn coax_reduction(&self) -> f64 {
        self.dedicated.coax_lines() as f64 / self.multiplexed.coax_lines() as f64
    }

    /// The serializable face of the report (what batch output and the
    /// CLI `--json` path share).
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            plan: PlanSummary::from_plan(&self.plan),
            dedicated: self.dedicated,
            multiplexed: self.multiplexed,
            cost_reduction: self.cost_reduction(),
            coax_reduction: self.coax_reduction(),
            routing: self.routing.as_ref().map(RoutingSummary::from_result),
        }
    }
}

/// Serializing a [`DesignReport`] emits its [`summary`](DesignReport::summary).
impl serde::Serialize for DesignReport {
    fn to_value(&self) -> serde::Value {
        self.summary().to_value()
    }
}

/// Chip-level routing summary of a [`ChannelResult`]: the scalar
/// figures a sweep compares, without per-net geometry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RoutingSummary {
    /// Nets routed.
    pub nets: usize,
    /// Total metal length, millimetres.
    pub total_length_mm: f64,
    /// Routing area (length × pitch), mm².
    pub routing_area_mm2: f64,
    /// Perimeter interface pads consumed.
    pub num_interfaces: usize,
    /// Horizontal routing channels used.
    pub channels: usize,
    /// Peak channel occupancy as a fraction of track capacity.
    pub max_channel_utilization: f64,
}

impl RoutingSummary {
    /// Extracts the summary from a routed layout.
    pub fn from_result(result: &ChannelResult) -> Self {
        RoutingSummary {
            nets: result.routing.nets.len(),
            total_length_mm: result.routing.total_length_mm,
            routing_area_mm2: result.routing.routing_area_mm2,
            num_interfaces: result.routing.num_interfaces,
            channels: result.channels.iter().filter(|c| c.used > 0).count(),
            max_channel_utilization: result
                .channels
                .iter()
                .filter(|c| c.capacity > 0)
                .map(|c| c.used as f64 / c.capacity as f64)
                .fold(0.0, f64::max),
        }
    }
}

/// The serializable summary of a [`DesignReport`]: wiring plan, both
/// cost tallies, reduction factors, and the routing figures. This is
/// the `result` payload of every `youtiao batch` output record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReportSummary {
    /// The wiring plan (line memberships, frequencies, DEMUX levels).
    pub plan: PlanSummary,
    /// Resource tally under dedicated (Google-style) wiring.
    pub dedicated: WiringTally,
    /// Resource tally under the YOUTIAO plan.
    pub multiplexed: WiringTally,
    /// Wiring-cost reduction factor (dedicated / multiplexed).
    pub cost_reduction: f64,
    /// Coax-line reduction factor.
    pub coax_reduction: f64,
    /// Chip-level routing summary, when routing ran.
    pub routing: Option<RoutingSummary>,
}

/// Errors from [`design_chip`].
#[derive(Debug)]
#[non_exhaustive]
pub enum DesignError {
    /// Planning failed.
    Plan(PlanError),
    /// Chip-level routing failed.
    Route(RouteError),
    /// The pipeline stopped at a stage boundary because its
    /// [`CancelToken`] tripped (deadline expiry or explicit abort).
    Cancelled {
        /// The stage that was about to run.
        stage: &'static str,
    },
    /// The finished plan violated a wiring invariant (only produced
    /// when [`DesignOptions::validate`] is set).
    Validation(ValidationReport),
    /// Admission control refused the request before it ran: its
    /// deadline was infeasible at the serving layer's queue depth
    /// (daemon sessions under load shedding).
    Shed {
        /// Why admission refused the request.
        reason: String,
    },
}

impl DesignError {
    /// Whether re-running with a perturbed characterization seed may
    /// plausibly succeed. Frequency crowding and unroutable nets depend
    /// on the synthesized crosstalk data and the plan built from it;
    /// config and chip-shape errors recur on every retry, and so does
    /// running out of perimeter pads, which only the chip's size decides.
    pub fn is_transient(&self) -> bool {
        match self {
            DesignError::Plan(e) => matches!(e, PlanError::FrequencyCrowded { .. }),
            DesignError::Route(e) => !matches!(e, RouteError::OutOfInterfaces),
            _ => false,
        }
    }
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Plan(e) => write!(f, "planning failed: {e}"),
            DesignError::Route(e) => write!(f, "routing failed: {e}"),
            DesignError::Cancelled { stage } => write!(f, "cancelled before the {stage} stage"),
            DesignError::Validation(report) => {
                write!(f, "plan validation failed: {}", report.render())
            }
            DesignError::Shed { reason } => {
                write!(f, "request shed by admission control: {reason}")
            }
        }
    }
}

impl std::error::Error for DesignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DesignError::Plan(e) => Some(e),
            DesignError::Route(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for DesignError {
    fn from(e: PlanError) -> Self {
        DesignError::Plan(e)
    }
}

impl From<RouteError> for DesignError {
    fn from(e: RouteError) -> Self {
        DesignError::Route(e)
    }
}

/// Runs the full YOUTIAO design flow on `chip`.
///
/// # Errors
///
/// Returns [`DesignError`] when characterization, planning or routing
/// fails; a chip too small to characterize (fewer than three qubits)
/// fails with [`PlanError::Characterize`].
///
/// # Example
///
/// ```
/// use youtiao::chip::topology;
/// use youtiao::flow::{design_chip, DesignOptions};
///
/// let chip = topology::heavy_square(3, 3);
/// let report = design_chip(&chip, &DesignOptions::default())?;
/// assert!(report.cost_reduction() > 2.0);
/// assert!(report.routing.is_some());
/// # Ok::<(), youtiao::flow::DesignError>(())
/// ```
pub fn design_chip(chip: &Chip, options: &DesignOptions) -> Result<DesignReport, DesignError> {
    design_chip_with_cancel(chip, options, &CancelToken::new())
}

/// [`design_chip`] with cooperative cancellation: `cancel` is polled at
/// every stage boundary, so a tripped token (deadline expiry, service
/// abort) stops the pipeline within one stage instead of running the
/// flow to completion.
///
/// # Errors
///
/// Returns [`DesignError`] when planning or routing fails, or
/// [`DesignError::Cancelled`] naming the stage that was skipped.
pub fn design_chip_with_cancel(
    chip: &Chip,
    options: &DesignOptions,
    cancel: &CancelToken,
) -> Result<DesignReport, DesignError> {
    design_chip_traced(chip, options, cancel, &Tracer::disabled())
}

/// [`design_chip_with_cancel`] with stage-level tracing: every pipeline
/// stage opens a span on `tracer` (with the planner's sub-stages
/// grafted as children of the `plan` span), so a finished trace shows
/// where a job's wall time went. Pass [`Tracer::disabled`] to trace
/// nothing at zero cost.
///
/// # Errors
///
/// Same as [`design_chip_with_cancel`], plus
/// [`DesignError::Validation`] when [`DesignOptions::validate`] is set
/// and the finished plan violates a wiring invariant.
pub fn design_chip_traced(
    chip: &Chip,
    options: &DesignOptions,
    cancel: &CancelToken,
    tracer: &Tracer,
) -> Result<DesignReport, DesignError> {
    let checkpoint = |stage: &'static str| {
        cancel
            .checkpoint()
            .map_err(|_| DesignError::Cancelled { stage })
    };

    // 1. Characterize: synthesize measurements and fit the model.
    checkpoint("characterize")?;
    let model = {
        let span = tracer.span("characterize");
        // One sample per ordered qubit pair.
        let n = chip.num_qubits();
        span.annotate("samples", (n * n.saturating_sub(1)) as u64);
        characterize_xy(chip, options.seed).map_err(PlanError::Characterize)?
    };

    // 2. Plan. The matrices are built as a shared-ready PlanContext
    // (what a sweep reuses across points); the planner then skips its
    // internal matrices stage, so the "matrices" sub-span is recorded
    // here from the context build instead of via the plan hook.
    checkpoint("plan")?;
    let (context, plan) = {
        let span = tracer.span("plan");
        let started = std::time::Instant::now();
        let context = PlanContext::build(chip, Some(&model), options.planner.weights);
        tracer.record("matrices", started.elapsed());
        let plan = YoutiaoPlanner::new(chip)
            .with_crosstalk_model(&model)
            .with_config(options.planner.clone())
            .with_context(&context)
            .plan_with_hook(&mut |stage, elapsed| tracer.record(stage, elapsed))?;
        span.annotate("xy_lines", plan.num_xy_lines() as u64);
        span.annotate("z_lines", plan.num_z_lines() as u64);
        span.annotate("readout_lines", plan.num_readout_lines() as u64);
        (context, plan)
    };

    complete_plan_traced(chip, model, context, plan, options, None, cancel, tracer)
}

/// The back half of the design flow: cost tally, chip-level routing,
/// and validation over an already-built plan. [`design_chip_traced`]
/// calls this after planning; the serve layer's warm repair path calls
/// it directly over a *repaired* plan (skipping characterize + plan
/// entirely), passing the post-delta activity profile so validation
/// judges the plan against the inputs it was actually repaired for —
/// `None` validates against the default brickwork schedule.
///
/// # Errors
///
/// Returns [`DesignError`] when routing fails, the token trips at a
/// stage boundary, or (with [`DesignOptions::validate`]) the plan
/// violates a wiring invariant.
#[allow(clippy::too_many_arguments)]
pub fn complete_plan_traced(
    chip: &Chip,
    model: CrosstalkModel,
    context: PlanContext,
    plan: WiringPlan,
    options: &DesignOptions,
    activity: Option<&ActivityProfile>,
    cancel: &CancelToken,
    tracer: &Tracer,
) -> Result<DesignReport, DesignError> {
    let checkpoint = |stage: &'static str| {
        cancel
            .checkpoint()
            .map_err(|_| DesignError::Cancelled { stage })
    };

    // 3. Tally.
    checkpoint("cost")?;
    let (dedicated, multiplexed) = {
        let _span = tracer.span("cost");
        (WiringTally::google(chip), WiringTally::youtiao(&plan))
    };

    // 4. Route the multiplexed netlist at chip level.
    let routing = match &options.routing {
        Some(config) => {
            checkpoint("route")?;
            let span = tracer.span("route");
            let nets = plan_nets(chip, &plan);
            span.annotate("nets", nets.len() as u64);
            let result = channel_route(chip, &nets, config)?;
            span.annotate("total_length_mm", result.routing.total_length_mm);
            Some(result)
        }
        None => None,
    };

    // 5. Validate: on request it is a first-class stage with a
    // structured error; in debug builds it always runs so every test
    // that exercises the flow also exercises the invariants.
    if options.validate || cfg!(debug_assertions) {
        let span = tracer.span("validate");
        let mut report = match activity {
            Some(activity) => check_plan_with_activity(chip, &plan, &options.planner, activity),
            None => check_plan(chip, &plan, &options.planner),
        };
        if let Some(result) = &routing {
            report.merge(check_routing(&plan, result));
        }
        span.annotate("violations", report.len() as u64);
        if !report.is_clean() {
            if options.validate {
                return Err(DesignError::Validation(report));
            }
            // Reaching this without --validate means a pipeline stage
            // broke an invariant the flow is supposed to preserve.
            debug_assert!(false, "plan invariants violated: {}", report.render());
        }
    }

    Ok(DesignReport {
        model,
        context,
        plan,
        dedicated,
        multiplexed,
        routing,
    })
}

/// Net list for a plan: chained FDM lines, chained TDM groups, readout
/// feedlines (select lines excluded — they route on the DC layer).
fn plan_nets(chip: &Chip, plan: &WiringPlan) -> Vec<NetSpec> {
    let qubit_pos = |q: youtiao_chip::QubitId| chip.qubit(q).expect("in range").position();
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

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::topology;

    #[test]
    fn design_flow_end_to_end() {
        let chip = topology::square_grid(4, 4);
        let report = design_chip(&chip, &DesignOptions::default()).unwrap();
        assert!(report.coax_reduction() > 2.0);
        assert!(report.cost_reduction() > 1.5);
        let routing = report.routing.unwrap();
        assert_eq!(
            routing.routing.nets.len(),
            report.plan.num_xy_lines()
                + report.plan.num_z_lines()
                + report.plan.num_readout_lines()
        );
    }

    #[test]
    fn routing_can_be_skipped() {
        let chip = topology::linear(6);
        let options = DesignOptions {
            routing: None,
            ..Default::default()
        };
        let report = design_chip(&chip, &options).unwrap();
        assert!(report.routing.is_none());
        assert!(report.multiplexed.coax_lines() < report.dedicated.coax_lines());
    }

    #[test]
    fn errors_are_displayed() {
        let e = DesignError::Plan(PlanError::EmptyChip);
        assert!(e.to_string().contains("planning failed"));
    }

    #[test]
    fn error_sources_and_transience_classify() {
        use std::error::Error;
        let plan = DesignError::Plan(PlanError::EmptyChip);
        assert!(plan.source().is_some());
        assert!(!plan.is_transient());
        let crowded = DesignError::Plan(PlanError::FrequencyCrowded { qubit: 0u32.into() });
        assert!(crowded.is_transient());
        let unroutable = DesignError::Route(RouteError::Unroutable { net: "xy0".into() });
        assert!(unroutable.source().is_some());
        assert!(unroutable.is_transient());
        // Pad capacity does not depend on the seed: retrying would fail
        // the same way after paying for another characterization.
        let out_of_pads = DesignError::Route(RouteError::OutOfInterfaces);
        assert!(out_of_pads.source().is_some());
        assert!(!out_of_pads.is_transient());
        let cancelled = DesignError::Cancelled { stage: "plan" };
        assert!(cancelled.source().is_none());
        assert!(!cancelled.is_transient());
        assert!(cancelled.to_string().contains("plan"));
    }

    #[test]
    fn cancelled_token_stops_before_first_stage() {
        let chip = topology::square_grid(3, 3);
        let token = CancelToken::new();
        token.cancel();
        let err = design_chip_with_cancel(&chip, &DesignOptions::default(), &token).unwrap_err();
        assert!(matches!(
            err,
            DesignError::Cancelled {
                stage: "characterize"
            }
        ));
    }

    #[test]
    fn traced_flow_records_one_span_per_stage() {
        let chip = topology::square_grid(4, 4);
        let tracer = Tracer::new("flow-test");
        let options = DesignOptions {
            validate: true,
            ..Default::default()
        };
        let report = design_chip_traced(&chip, &options, &CancelToken::new(), &tracer).unwrap();
        assert!(report.routing.is_some());

        let trace = tracer.finish();
        let top: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(top, ["characterize", "plan", "cost", "route", "validate"]);

        // The planner's sub-stages are children of the plan span.
        let plan_span = trace.find("plan").unwrap();
        for sub in [
            "matrices",
            "fdm_grouping",
            "tdm_grouping",
            "freq.place",
            "freq.swap",
            "freq_alloc",
            "readout.place",
            "readout.swap",
            "readout",
        ] {
            assert!(plan_span.find(sub).is_some(), "missing sub-stage {sub}");
        }
        assert_eq!(
            plan_span.annotations["z_lines"],
            report.plan.num_z_lines() as u64
        );
        assert_eq!(
            trace.find("validate").unwrap().annotations["violations"],
            0u64
        );

        // Stage durations account for (approximately all of) the job's
        // wall time: nothing substantial runs outside a span.
        let stage_sum: f64 = trace.spans.iter().map(|s| s.ms).sum();
        assert!(stage_sum <= trace.total_ms + 1e-6);
        assert!(
            stage_sum >= 0.8 * trace.total_ms,
            "spans cover {stage_sum} of {} ms",
            trace.total_ms
        );
    }

    #[test]
    fn untraced_flow_is_unchanged() {
        let chip = topology::square_grid(3, 3);
        let options = DesignOptions {
            validate: true,
            ..Default::default()
        };
        assert!(design_chip(&chip, &options).is_ok());
    }

    #[test]
    fn validation_error_renders_and_classifies() {
        let mut report = ValidationReport::default();
        report.push("tdm-budget", "group 0 over budget".to_string());
        let e = DesignError::Validation(report);
        assert!(!e.is_transient());
        assert!(e.to_string().contains("tdm-budget"));
        use std::error::Error;
        assert!(e.source().is_none());
    }

    #[test]
    fn report_serializes_as_its_summary() {
        let chip = topology::square_grid(3, 3);
        let report = design_chip(&chip, &DesignOptions::default()).unwrap();
        let summary = report.summary();
        assert_eq!(summary.plan.total_qubits, 9);
        assert!(summary.cost_reduction > 1.5);
        let routing = summary.routing.as_ref().unwrap();
        assert!(routing.total_length_mm > 0.0);
        assert!(routing.max_channel_utilization > 0.0);
        assert!(routing.max_channel_utilization <= 1.0);

        let direct = serde_json::to_string(&report).unwrap();
        let via_summary = serde_json::to_string(&summary).unwrap();
        assert_eq!(direct, via_summary);
        let back: ReportSummary = serde_json::from_str(&direct).unwrap();
        assert_eq!(back, summary);
    }
}
