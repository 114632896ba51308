//! Incremental wiring-plan repair for drift, faults, and activity deltas.
//!
//! Calibration drift, coupler degradation, and workload changes arrive
//! as small deltas against a previously planned snapshot; replanning
//! from scratch discards everything the previous plan got right and
//! pays the full pipeline cost again. This crate repairs instead:
//!
//! * [`diff`] — a structured input differ comparing two
//!   `(chip, crosstalk, activity)` snapshots into a typed [`ChangeSet`]
//!   (crosstalk-entry drift, dead/degraded coupler, device add/remove,
//!   activity delta);
//! * [`patch`] — local frequency re-placement for the dirty qubits,
//!   against the fixed assignments of everything else;
//! * [`repair`] — the repair pass itself: a crosstalk delta via
//!   [`youtiao_core::PlanContext::apply_crosstalk_delta`], dissolving
//!   and regrouping only the TDM groups touching invalidated devices,
//!   stitching the result onto the untouched remainder, and validating
//!   the stitched plan with `youtiao_obs::check_plan_with_activity`.
//!
//! Structural changes (dead couplers, device add/remove) and change
//! sets past the fallback threshold take the full-replan path, which is
//! byte-identical to planning the new snapshot from scratch by
//! construction. Non-structural repairs keep the FDM lines, readout
//! membership, zones, and partition byte-identical to the base plan and
//! are *quality-equal* to a full replan under the documented tie-break
//! contract (equal line counts, spectral objectives within tolerance,
//! validation-clean) — see `DESIGN.md` §4g.
//!
//! # Example
//!
//! ```
//! use youtiao_chip::{topology, QubitId};
//! use youtiao_core::{PlanContext, PlannerConfig, YoutiaoPlanner};
//! use youtiao_repair::{diff_inputs, repair_plan, PlanInputs, RepairConfig, RepairOutcome};
//!
//! let chip = topology::square_grid(4, 4);
//! let config = PlannerConfig::default();
//! let ctx = PlanContext::build(&chip, None, config.weights);
//! let activity = youtiao_core::tdm::brickwork_activity(&chip);
//! let base = YoutiaoPlanner::new(&chip)
//!     .with_activity(&activity)
//!     .with_config(config.clone())
//!     .with_context(&ctx)
//!     .plan()?;
//!
//! // A single crosstalk entry drifts.
//! let mut drifted = ctx.crosstalk().clone();
//! let (a, b) = (QubitId::new(2), QubitId::new(6));
//! drifted.set(a, b, drifted.get(a, b) * 3.0 + 1e-3);
//!
//! let old = PlanInputs { chip: &chip, xtalk: ctx.crosstalk(), activity: &activity };
//! let new = PlanInputs { chip: &chip, xtalk: &drifted, activity: &activity };
//! let changes = diff_inputs(&old, &new);
//! assert_eq!(changes.len(), 1);
//!
//! let report = repair_plan(&base, &ctx, &new, &changes, &config, &RepairConfig::default())?;
//! assert_eq!(report.outcome, RepairOutcome::Repaired);
//! assert_eq!(report.plan.fdm_lines(), base.fdm_lines());
//! # Ok::<(), youtiao_core::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod patch;
pub mod repair;

pub use crate::diff::{diff_inputs, Change, ChangeSet, PlanInputs};
pub use crate::patch::patch_frequencies;
pub use crate::repair::{
    repair_plan, replan_from_snapshot, QualityReport, RepairConfig, RepairOutcome, RepairReport,
};
