//! The incremental repair pass.
//!
//! Given a base plan, the [`youtiao_core::PlanContext`] it was planned
//! against, the new input snapshot, and the [`ChangeSet`] separating
//! them, [`repair_plan`] either:
//!
//! 1. returns the base plan unchanged (empty change set);
//! 2. repairs locally — hand the context the new crosstalk matrix,
//!    dissolve only the TDM groups touching a dirty device,
//!    regroup and refine that pool, stitch it onto the untouched
//!    groups, patch frequencies for the dirty qubits, and validate the
//!    stitched plan; or
//! 3. falls back to a full replan — for structural changes, change
//!    sets past the fallback threshold, or a stitched plan that fails
//!    validation. The fallback is byte-identical to planning the new
//!    snapshot from scratch ([`replan_from_snapshot`]) by construction.

use std::collections::HashSet;

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{DeviceId, QubitId};
use youtiao_core::refine::refine_tdm_groups;
use youtiao_core::tdm::{group_extra_windows, group_tdm, ActivityProfile};
use youtiao_core::{
    FdmLine, PlanContext, PlanError, PlannerConfig, TdmGroup, WiringPlan, YoutiaoPlanner,
};
use youtiao_obs::validate::{check_plan_with_activity, ValidationReport};

use crate::diff::{ChangeSet, PlanInputs};
use crate::patch::patch_frequencies;

/// Configuration of the repair pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Fall back to a full replan when the dirty devices exceed this
    /// fraction of all chip devices; `0.0` always replans, `1.0` never
    /// gives up on a local repair.
    pub fallback_fraction: f64,
    /// Validate the repaired plan with
    /// [`check_plan_with_activity`] and fall back on any violation.
    pub validate: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            fallback_fraction: 0.25,
            validate: true,
        }
    }
}

/// How the repair pass resolved a change set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The change set was empty; the base plan is returned as is.
    Unchanged,
    /// The plan was repaired locally.
    Repaired,
    /// The pass fell back to a full replan.
    FullReplan {
        /// Why the local repair was not attempted (or was rejected).
        reason: &'static str,
    },
}

impl RepairOutcome {
    /// Short machine-readable label (`unchanged` / `repaired` /
    /// `full_replan`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RepairOutcome::Unchanged => "unchanged",
            RepairOutcome::Repaired => "repaired",
            RepairOutcome::FullReplan { .. } => "full_replan",
        }
    }
}

/// The result of a repair pass.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired (or replanned, or unchanged) plan.
    pub plan: WiringPlan,
    /// A context consistent with `plan` and the new snapshot — the
    /// delta-patched base context on the repair path, a fresh build on
    /// the fallback path. Callers serving further deltas store this as
    /// the new base.
    pub context: PlanContext,
    /// How the change set was resolved.
    pub outcome: RepairOutcome,
    /// Device rows the delta invalidated: each dirty qubit and every
    /// coupler incident to one (0 on fallback paths).
    pub invalidated_rows: usize,
    /// Qubits touched by value-only crosstalk changes.
    pub dirty_qubits: usize,
    /// TDM groups dissolved and regrouped.
    pub dirty_groups: usize,
    /// Devices pooled into the regrouping.
    pub regrouped_devices: usize,
    /// Validation of the returned plan, when requested.
    pub validation: Option<ValidationReport>,
}

/// Plans the new snapshot from scratch: a context built from the
/// explicit matrix via [`PlanContext::from_matrix`] and a full
/// planner run against it. This is the *definition* of the fallback
/// path — the differential suite pins `repair_plan`'s fallback output
/// byte-identical to this function.
///
/// # Errors
///
/// Any [`PlanError`] the planner raises.
pub fn replan_from_snapshot(
    new: &PlanInputs<'_>,
    planner: &PlannerConfig,
) -> Result<(WiringPlan, PlanContext), PlanError> {
    let context = PlanContext::from_matrix(new.chip, planner.weights, new.xtalk.clone());
    let plan = YoutiaoPlanner::new(new.chip)
        .with_activity(new.activity)
        .with_config(planner.clone())
        .with_context(&context)
        .plan()?;
    Ok((plan, context))
}

fn full_replan(
    new: &PlanInputs<'_>,
    planner: &PlannerConfig,
    config: &RepairConfig,
    reason: &'static str,
    dirty_qubits: usize,
) -> Result<RepairReport, PlanError> {
    let (plan, context) = replan_from_snapshot(new, planner)?;
    let validation = config
        .validate
        .then(|| check_plan_with_activity(new.chip, &plan, planner, new.activity));
    Ok(RepairReport {
        plan,
        context,
        outcome: RepairOutcome::FullReplan { reason },
        invalidated_rows: 0,
        dirty_qubits,
        dirty_groups: 0,
        regrouped_devices: 0,
        validation,
    })
}

/// Repairs `base` (planned against `context`) toward the new input
/// snapshot, given the `changes` separating the snapshots (from
/// [`crate::diff_inputs`]). See the module docs for the three
/// resolution paths.
///
/// On the repair path, FDM lines, readout-line membership, and the
/// partition are byte-identical to `base`; TDM groups
/// not touching a dirty device are byte-identical and keep their
/// relative order, with regrouped ones appended.
///
/// # Errors
///
/// Any [`PlanError`] from the frequency patcher that a full replan
/// also cannot absorb, or from the fallback planner run.
pub fn repair_plan(
    base: &WiringPlan,
    context: &PlanContext,
    new: &PlanInputs<'_>,
    changes: &ChangeSet,
    planner: &PlannerConfig,
    config: &RepairConfig,
) -> Result<RepairReport, PlanError> {
    if changes.is_empty() {
        return Ok(RepairReport {
            plan: base.clone(),
            context: context.clone(),
            outcome: RepairOutcome::Unchanged,
            invalidated_rows: 0,
            dirty_qubits: 0,
            dirty_groups: 0,
            regrouped_devices: 0,
            validation: None,
        });
    }
    if changes.structural() {
        return full_replan(new, planner, config, "structural change", 0);
    }
    if context.is_stale(new.chip) {
        // Non-structural change set but a context for a different
        // chip: the caller paired mismatched snapshots. Replan.
        return full_replan(new, planner, config, "stale plan context", 0);
    }

    let dirty_qubits = changes.dirty_qubits();

    // The dirty device set: dirty qubits, their incident couplers, and
    // devices whose activity mask changed.
    let mut dirty_devices: HashSet<DeviceId> = HashSet::new();
    for &q in &dirty_qubits {
        dirty_devices.insert(DeviceId::Qubit(q));
        for &c in new.chip.couplers_of(q) {
            dirty_devices.insert(DeviceId::Coupler(c));
        }
    }
    for d in changes.activity_devices() {
        dirty_devices.insert(d);
    }

    let num_devices = new.chip.num_qubits() + new.chip.num_couplers();
    let fraction = dirty_devices.len() as f64 / num_devices as f64;
    if fraction > config.fallback_fraction {
        return full_replan(
            new,
            planner,
            config,
            "change set exceeds the fallback threshold",
            dirty_qubits.len(),
        );
    }

    // The context takes the new matrix; grouping reads crosstalk from
    // it, so nothing but the freq kernels is rebuilt.
    let mut ctx = context.clone();
    let invalidated_rows = if dirty_qubits.is_empty() {
        0
    } else {
        match ctx.apply_crosstalk_delta(new.chip, new.xtalk.clone(), &dirty_qubits) {
            Ok(rows) => rows,
            Err(_) => {
                return full_replan(
                    new,
                    planner,
                    config,
                    "kernel delta rejected",
                    dirty_qubits.len(),
                )
            }
        }
    };

    // Dissolve only the TDM groups touching a dirty device; keep the
    // rest byte-identical and in order.
    let mut kept: Vec<TdmGroup> = Vec::new();
    let mut pool: Vec<DeviceId> = Vec::new();
    let mut dirty_groups = 0usize;
    for group in base.tdm_groups() {
        if group.devices().iter().any(|d| dirty_devices.contains(d)) {
            dirty_groups += 1;
            pool.extend_from_slice(group.devices());
        } else {
            kept.push(group.clone());
        }
    }
    pool.sort_unstable();
    let regrouped_devices = pool.len();

    let mut regrouped = group_tdm(&ctx, &planner.tdm, &pool, new.activity);
    if let Some(refine) = &planner.refine {
        (regrouped, _) = refine_tdm_groups(&ctx, new.activity, &planner.tdm, regrouped, refine);
    }
    let mut tdm_groups = kept;
    tdm_groups.extend(regrouped);

    // Frequencies: untouched for activity-only deltas; locally patched
    // for the dirty qubits otherwise (both bands share the patcher,
    // exactly as the planner shares the allocator).
    let (frequency_plan, readout_frequency_plan) = if dirty_qubits.is_empty() {
        (
            base.frequency_plan().clone(),
            base.readout_frequency_plan().clone(),
        )
    } else {
        let xy_lines: Vec<&[QubitId]> = base.fdm_lines().iter().map(FdmLine::qubits).collect();
        let ro_lines: Vec<&[QubitId]> = base.readout_lines().iter().map(Vec::as_slice).collect();
        // The context took the crosstalk delta above, so its freq
        // kernels match `new.xtalk` — both bands patch with the
        // allocator's exact kernelized cost model.
        let xy = patch_frequencies(
            new.chip,
            &xy_lines,
            base.frequency_plan(),
            ctx.freq_kernels(),
            new.xtalk,
            &planner.freq,
            &dirty_qubits,
        );
        let ro = patch_frequencies(
            new.chip,
            &ro_lines,
            base.readout_frequency_plan(),
            ctx.freq_kernels(),
            new.xtalk,
            &planner.readout_freq,
            &dirty_qubits,
        );
        match (xy, ro) {
            (Ok(xy), Ok(ro)) => (xy, ro),
            _ => {
                return full_replan(
                    new,
                    planner,
                    config,
                    "frequency patch failed",
                    dirty_qubits.len(),
                )
            }
        }
    };

    let plan = WiringPlan::from_parts(
        base.fdm_lines().to_vec(),
        frequency_plan,
        tdm_groups,
        base.readout_lines().to_vec(),
        readout_frequency_plan,
        base.partition().cloned(),
    );

    let validation = config
        .validate
        .then(|| check_plan_with_activity(new.chip, &plan, planner, new.activity));
    if let Some(report) = &validation {
        if !report.is_clean() {
            return full_replan(
                new,
                planner,
                config,
                "repaired plan failed validation",
                dirty_qubits.len(),
            );
        }
    }

    Ok(RepairReport {
        plan,
        context: ctx,
        outcome: RepairOutcome::Repaired,
        invalidated_rows,
        dirty_qubits: dirty_qubits.len(),
        dirty_groups,
        regrouped_devices,
        validation,
    })
}

/// Side-by-side quality comparison of two plans over the same snapshot
/// — the measurable half of the repair-vs-replan tie-break contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// XY coax line counts (left, right).
    pub xy_lines: (usize, usize),
    /// Z coax line counts.
    pub z_lines: (usize, usize),
    /// Readout feedline counts.
    pub readout_lines: (usize, usize),
    /// Total TDM extra scheduling windows under the activity profile.
    pub extra_windows: (u32, u32),
    /// Qubit-band spectral crosstalk objectives.
    pub freq_objective: (f64, f64),
    /// Readout-band spectral crosstalk objectives.
    pub readout_objective: (f64, f64),
}

impl QualityReport {
    /// Compares plan `a` against plan `b` over the snapshot's crosstalk
    /// matrix and activity profile.
    pub fn compare(
        a: &WiringPlan,
        b: &WiringPlan,
        xtalk: &DistanceMatrix,
        activity: &ActivityProfile,
    ) -> Self {
        let windows = |p: &WiringPlan| -> u32 {
            p.tdm_groups()
                .iter()
                .map(|g| group_extra_windows(g.devices(), activity))
                .sum()
        };
        QualityReport {
            xy_lines: (a.num_xy_lines(), b.num_xy_lines()),
            z_lines: (a.num_z_lines(), b.num_z_lines()),
            readout_lines: (a.num_readout_lines(), b.num_readout_lines()),
            extra_windows: (windows(a), windows(b)),
            freq_objective: (
                a.frequency_plan().objective(xtalk),
                b.frequency_plan().objective(xtalk),
            ),
            readout_objective: (
                a.readout_frequency_plan().objective(xtalk),
                b.readout_frequency_plan().objective(xtalk),
            ),
        }
    }

    /// The tie-break contract (`DESIGN.md` §4g): the left plan uses no
    /// more XY, Z, or readout lines than the right, and its spectral
    /// objectives are not worse than the right's by more than the
    /// relative tolerance. Every check is one-sided: the local
    /// regrouper and patcher re-optimize against fixed global
    /// assignments and routinely match — and occasionally beat — the
    /// from-scratch pipeline's greedy order on the drifted snapshot.
    pub fn quality_equal(&self, tolerance: f64) -> bool {
        let not_worse = |(x, y): (f64, f64)| -> bool {
            let scale = x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            x - y <= tolerance * scale
        };
        self.xy_lines.0 <= self.xy_lines.1
            && self.z_lines.0 <= self.z_lines.1
            && self.readout_lines.0 <= self.readout_lines.1
            && not_worse(self.freq_objective)
            && not_worse(self.readout_objective)
    }

    /// Multi-line textual rendering for logs and the CLI.
    pub fn render(&self) -> String {
        format!(
            "xy lines        {:>8} | {:<8}\n\
             z lines         {:>8} | {:<8}\n\
             readout lines   {:>8} | {:<8}\n\
             extra windows   {:>8} | {:<8}\n\
             freq objective  {:>12.6e} | {:<12.6e}\n\
             ro objective    {:>12.6e} | {:<12.6e}\n",
            self.xy_lines.0,
            self.xy_lines.1,
            self.z_lines.0,
            self.z_lines.1,
            self.readout_lines.0,
            self.readout_lines.1,
            self.extra_windows.0,
            self.extra_windows.1,
            self.freq_objective.0,
            self.freq_objective.1,
            self.readout_objective.0,
            self.readout_objective.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff_inputs;
    use youtiao_chip::spec::ChipSpec;
    use youtiao_chip::topology;
    use youtiao_core::tdm::brickwork_activity;

    fn snapshot(
        n: usize,
    ) -> (
        youtiao_chip::Chip,
        PlanContext,
        ActivityProfile,
        PlannerConfig,
    ) {
        let chip = topology::square_grid(n, n);
        let config = PlannerConfig {
            refine: Some(youtiao_core::RefineConfig::default()),
            ..Default::default()
        };
        let ctx = PlanContext::build(&chip, None, config.weights);
        let activity = brickwork_activity(&chip);
        (chip, ctx, activity, config)
    }

    fn base_plan(
        chip: &youtiao_chip::Chip,
        ctx: &PlanContext,
        activity: &ActivityProfile,
        config: &PlannerConfig,
    ) -> WiringPlan {
        YoutiaoPlanner::new(chip)
            .with_activity(activity)
            .with_config(config.clone())
            .with_context(ctx)
            .plan()
            .unwrap()
    }

    #[test]
    fn empty_change_set_returns_the_base_plan() {
        let (chip, ctx, activity, config) = snapshot(4);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let inputs = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let report = repair_plan(
            &base,
            &ctx,
            &inputs,
            &ChangeSet::default(),
            &config,
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RepairOutcome::Unchanged);
        assert_eq!(report.plan, base);
        assert_eq!(report.context, ctx);
    }

    #[test]
    fn single_drift_repairs_locally_and_validates() {
        let (chip, ctx, activity, config) = snapshot(5);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let mut drifted = ctx.crosstalk().clone();
        let (a, b) = (
            youtiao_chip::QubitId::new(6),
            youtiao_chip::QubitId::new(18),
        );
        drifted.set(a, b, drifted.get(a, b) * 5.0 + 2e-3);
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let new = PlanInputs {
            chip: &chip,
            xtalk: &drifted,
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        let report = repair_plan(
            &base,
            &ctx,
            &new,
            &changes,
            &config,
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RepairOutcome::Repaired);
        assert!(report.invalidated_rows >= 2);
        assert!(report.dirty_groups >= 1);
        assert!(report.validation.as_ref().unwrap().is_clean());
        // Structure untouched by a value-only repair.
        assert_eq!(report.plan.fdm_lines(), base.fdm_lines());
        assert_eq!(report.plan.readout_lines(), base.readout_lines());
        // The returned context equals a fresh build for the new snapshot.
        let fresh = PlanContext::from_matrix(&chip, config.weights, drifted.clone());
        assert_eq!(report.context, fresh);
        // Quality-equal to a full replan under the tie-break contract.
        let (replanned, _) = replan_from_snapshot(&new, &config).unwrap();
        let quality = QualityReport::compare(&report.plan, &replanned, &drifted, &activity);
        assert!(quality.quality_equal(0.05), "{}", quality.render());
    }

    #[test]
    fn structural_change_falls_back_byte_identically() {
        let (chip, ctx, activity, config) = snapshot(4);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let mut spec = ChipSpec::from_chip(&chip);
        spec.couplers.pop();
        let mutated = spec.to_chip().unwrap();
        let mut_ctx = PlanContext::build(&mutated, None, config.weights);
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let new = PlanInputs {
            chip: &mutated,
            xtalk: mut_ctx.crosstalk(),
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        assert!(changes.structural());
        let report = repair_plan(
            &base,
            &ctx,
            &new,
            &changes,
            &config,
            &RepairConfig::default(),
        )
        .unwrap();
        assert!(matches!(report.outcome, RepairOutcome::FullReplan { .. }));
        let (replanned, _) = replan_from_snapshot(&new, &config).unwrap();
        assert_eq!(report.plan, replanned);
    }

    #[test]
    fn zero_fallback_fraction_always_replans() {
        let (chip, ctx, activity, config) = snapshot(4);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let mut drifted = ctx.crosstalk().clone();
        let (a, b) = (youtiao_chip::QubitId::new(1), youtiao_chip::QubitId::new(9));
        drifted.set(a, b, 0.03);
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let new = PlanInputs {
            chip: &chip,
            xtalk: &drifted,
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        let cfg = RepairConfig {
            fallback_fraction: 0.0,
            ..Default::default()
        };
        let report = repair_plan(&base, &ctx, &new, &changes, &config, &cfg).unwrap();
        assert_eq!(
            report.outcome,
            RepairOutcome::FullReplan {
                reason: "change set exceeds the fallback threshold"
            }
        );
        let (replanned, _) = replan_from_snapshot(&new, &config).unwrap();
        assert_eq!(report.plan, replanned);
    }

    #[test]
    fn activity_only_delta_keeps_frequencies_byte_identical() {
        let (chip, ctx, activity, config) = snapshot(4);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let mut shifted = activity.clone();
        let d = DeviceId::Qubit(youtiao_chip::QubitId::new(5));
        let prev = shifted.get(&d).copied().unwrap_or(0);
        shifted.insert(d, prev ^ 0b10);
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let new = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &shifted,
        };
        let changes = diff_inputs(&old, &new);
        assert_eq!(changes.len(), 1);
        let report = repair_plan(
            &base,
            &ctx,
            &new,
            &changes,
            &config,
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RepairOutcome::Repaired);
        assert_eq!(report.invalidated_rows, 0, "no kernel rows for activity");
        assert_eq!(report.plan.frequency_plan(), base.frequency_plan());
        assert_eq!(
            report.plan.readout_frequency_plan(),
            base.readout_frequency_plan()
        );
        assert!(report.validation.as_ref().unwrap().is_clean());
    }

    #[test]
    fn repair_is_deterministic() {
        let (chip, ctx, activity, config) = snapshot(5);
        let base = base_plan(&chip, &ctx, &activity, &config);
        let mut drifted = ctx.crosstalk().clone();
        drifted.set(
            youtiao_chip::QubitId::new(7),
            youtiao_chip::QubitId::new(13),
            0.0123,
        );
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let new = PlanInputs {
            chip: &chip,
            xtalk: &drifted,
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        let cfg = RepairConfig::default();
        let a = repair_plan(&base, &ctx, &new, &changes, &config, &cfg).unwrap();
        let b = repair_plan(&base, &ctx, &new, &changes, &config, &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.outcome, b.outcome);
    }
}
