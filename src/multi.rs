//! One-call multi-die design flow: per-die characterize → plan, budget
//! partitioning, link reconciliation, cross-die validation, and a
//! cryostat-level cost tally.
//!
//! [`design_multi_chip`] is the chiplet-array counterpart of
//! [`design_chip`](crate::flow::design_chip): it plans every die of a
//! [`MultiDieChip`] through [`plan_multi`], validates the stitched plan
//! with [`check_multi_plan`], and sums both wiring tallies across dies
//! (coax counts and electronics are additive over a shared cryostat).
//! Chip-level routing stays per-die and is not run here — each die is
//! routed on its own interposer, so the monolithic flow applied to one
//! die already answers that question.

use youtiao_chip::multi::MultiDieChip;
use youtiao_core::{
    plan_multi, CryostatBudget, MultiPlanConfig, MultiPlanOutcome, ParallelExec, PlanSummary,
    PlannerConfig,
};
use youtiao_cost::WiringTally;
use youtiao_obs::validate::check_multi_plan;

use crate::flow::{DesignError, ReportSummary};

/// Options for [`design_multi_chip`].
#[derive(Debug, Clone)]
pub struct MultiDesignOptions {
    /// Per-die planner configuration (applied identically to every die;
    /// its `plan_threads` also caps the per-die fork, whose helpers run
    /// on idle cores of the process's CPU budget).
    pub planner: PlannerConfig,
    /// Cryostat-level characterization seed (per-die seeds derive via
    /// [`youtiao_core::die_seed`]).
    pub seed: u64,
    /// Characterize each die before planning; `false` plans
    /// structure-only from equivalent distances.
    pub use_model: bool,
    /// Optional shared cryostat coax budget to partition across dies.
    pub budget: Option<CryostatBudget>,
    /// Check per-die and cross-die invariants and fail with
    /// [`DesignError::Validation`] on a violation. Debug builds run the
    /// checks regardless, asserting instead of erroring.
    pub validate: bool,
}

impl Default for MultiDesignOptions {
    fn default() -> Self {
        MultiDesignOptions {
            planner: PlannerConfig::default(),
            seed: 0x594F_5554,
            use_model: true,
            budget: None,
            validate: false,
        }
    }
}

/// The output of [`design_multi_chip`].
#[derive(Debug, Clone)]
pub struct MultiDieReport {
    /// Per-die plans, the budget split and reconciliation counters.
    pub outcome: MultiPlanOutcome,
    /// Cryostat-level tally under dedicated (Google-style) wiring,
    /// summed over dies.
    pub dedicated: WiringTally,
    /// Cryostat-level tally under the YOUTIAO plans, summed over dies.
    pub multiplexed: WiringTally,
}

impl MultiDieReport {
    /// Wiring-cost reduction factor (dedicated / multiplexed).
    pub fn cost_reduction(&self) -> f64 {
        self.dedicated.cost_kusd() / self.multiplexed.cost_kusd()
    }

    /// Coax-line reduction factor.
    pub fn coax_reduction(&self) -> f64 {
        self.dedicated.coax_lines() as f64 / self.multiplexed.coax_lines() as f64
    }

    /// The serializable face of the report, shaped exactly like a
    /// monolithic [`ReportSummary`]: per-die plan summaries concatenated
    /// under a cryostat-global qubit numbering (die qubit and coupler
    /// ids offset by each die's base), no routing.
    pub fn summary(&self, mdc: &MultiDieChip) -> ReportSummary {
        ReportSummary {
            plan: combined_summary(mdc, &self.outcome),
            dedicated: self.dedicated,
            multiplexed: self.multiplexed,
            cost_reduction: self.cost_reduction(),
            coax_reduction: self.coax_reduction(),
            routing: None,
        }
    }
}

/// Concatenates per-die plan summaries under a global numbering.
fn combined_summary(mdc: &MultiDieChip, outcome: &MultiPlanOutcome) -> PlanSummary {
    let mut combined = PlanSummary {
        total_qubits: 0,
        xy_lines: Vec::new(),
        z_lines: Vec::new(),
        readout_lines: Vec::new(),
        demux_select_lines: 0,
    };
    let mut qubit_base = 0u32;
    let mut coupler_base = 0u32;
    for (chip, die) in mdc.dies().iter().zip(&outcome.dies) {
        let mut s = PlanSummary::from_plan(&die.plan);
        for line in s.xy_lines.iter_mut().chain(s.readout_lines.iter_mut()) {
            for q in &mut line.qubits {
                *q += qubit_base;
            }
        }
        for group in &mut s.z_lines {
            for d in &mut group.devices {
                *d = offset_device(d, qubit_base, coupler_base);
            }
        }
        combined.total_qubits += s.total_qubits;
        combined.xy_lines.extend(s.xy_lines);
        combined.z_lines.extend(s.z_lines);
        combined.readout_lines.extend(s.readout_lines);
        combined.demux_select_lines += s.demux_select_lines;
        qubit_base += chip.num_qubits() as u32;
        coupler_base += chip.num_couplers() as u32;
    }
    combined
}

/// Rewrites a `"q<i>"` / `"c<i>"` device label into the global
/// numbering.
fn offset_device(label: &str, qubit_base: u32, coupler_base: u32) -> String {
    let (prefix, base) = match label.as_bytes().first() {
        Some(b'q') => ('q', qubit_base),
        Some(b'c') => ('c', coupler_base),
        _ => return label.to_string(),
    };
    match label[1..].parse::<u32>() {
        Ok(i) => format!("{prefix}{}", i + base),
        Err(_) => label.to_string(),
    }
}

/// Runs the multi-die design flow on a chiplet array.
///
/// # Errors
///
/// Returns [`DesignError::Plan`] when any die fails to plan, or
/// [`DesignError::Validation`] when validation is requested and the
/// stitched plan violates a per-die or cross-die invariant.
///
/// # Example
///
/// ```
/// use youtiao::chip::multi::{LinkTopology, MultiDieChip};
/// use youtiao::chip::topology;
/// use youtiao::multi::{design_multi_chip, MultiDesignOptions};
///
/// let die = topology::square_grid(4, 4);
/// let array = MultiDieChip::tile(&die, 2, 2, LinkTopology::Grid).unwrap();
/// let report = design_multi_chip(&array, &MultiDesignOptions::default())?;
/// assert_eq!(report.outcome.dies.len(), 4);
/// assert!(report.coax_reduction() > 2.0);
/// # Ok::<(), youtiao::flow::DesignError>(())
/// ```
pub fn design_multi_chip(
    mdc: &MultiDieChip,
    options: &MultiDesignOptions,
) -> Result<MultiDieReport, DesignError> {
    let config = MultiPlanConfig {
        planner: options.planner.clone(),
        use_model: options.use_model,
        seed: options.seed,
        budget: options.budget,
    };
    let exec = ParallelExec::new(options.planner.plan_threads);
    let outcome = plan_multi(mdc, &config, &exec)?;

    if options.validate || cfg!(debug_assertions) {
        let allowances = outcome.partition.as_ref().map(|p| p.allowances.as_slice());
        let report = check_multi_plan(mdc, &outcome.plans(), &options.planner, allowances);
        if !report.is_clean() {
            if options.validate {
                return Err(DesignError::Validation(report));
            }
            debug_assert!(false, "multi-die invariants violated: {}", report.render());
        }
    }

    let dedicated = WiringTally::sum(mdc.dies().iter().map(WiringTally::google));
    let multiplexed = WiringTally::sum(outcome.dies.iter().map(|d| WiringTally::youtiao(&d.plan)));

    Ok(MultiDieReport {
        outcome,
        dedicated,
        multiplexed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{design_chip, DesignOptions};
    use youtiao_chip::multi::LinkTopology;
    use youtiao_chip::topology;

    #[test]
    fn multi_flow_end_to_end() {
        let die = topology::square_grid(4, 4);
        let mdc = MultiDieChip::tile(&die, 2, 2, LinkTopology::Grid).unwrap();
        let options = MultiDesignOptions {
            validate: true,
            ..Default::default()
        };
        let report = design_multi_chip(&mdc, &options).unwrap();
        assert_eq!(report.outcome.dies.len(), 4);
        assert!(report.coax_reduction() > 2.0);
        assert!(report.cost_reduction() > 1.5);
    }

    #[test]
    fn single_die_matches_monolithic_flow() {
        let die = topology::square_grid(4, 4);
        let mdc = MultiDieChip::tile(&die, 1, 1, LinkTopology::Grid).unwrap();
        let multi = design_multi_chip(&mdc, &MultiDesignOptions::default()).unwrap();
        let mono = design_chip(
            &die,
            &DesignOptions {
                routing: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(multi.outcome.dies[0].plan, mono.plan);
        assert_eq!(multi.dedicated, mono.dedicated);
        assert_eq!(multi.multiplexed, mono.multiplexed);
    }

    #[test]
    fn combined_summary_uses_global_numbering() {
        let die = topology::square_grid(3, 3);
        let mdc = MultiDieChip::tile(&die, 1, 2, LinkTopology::Grid).unwrap();
        let report = design_multi_chip(&mdc, &MultiDesignOptions::default()).unwrap();
        let summary = report.summary(&mdc);
        assert_eq!(summary.plan.total_qubits, 18);
        let mut seen: Vec<u32> = summary
            .plan
            .xy_lines
            .iter()
            .flat_map(|l| l.qubits.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..18).collect::<Vec<u32>>());
        // Die 1's devices reference the second die's id range.
        assert!(summary
            .plan
            .z_lines
            .iter()
            .flat_map(|g| g.devices.iter())
            .any(|d| d == "q9"));
        assert!(summary.routing.is_none());
    }

    #[test]
    fn infeasible_budget_fails_validation() {
        let die = topology::square_grid(3, 3);
        let mdc = MultiDieChip::tile(&die, 1, 2, LinkTopology::Isolated).unwrap();
        let options = MultiDesignOptions {
            budget: Some(CryostatBudget { coax_lines: 2 }),
            validate: true,
            ..Default::default()
        };
        match design_multi_chip(&mdc, &options) {
            Err(DesignError::Validation(report)) => {
                assert!(report.violations.iter().any(|v| v.rule == "die-budget"));
            }
            other => panic!("expected a die-budget validation error, got {other:?}"),
        }
    }

    #[test]
    fn offset_device_handles_both_kinds() {
        assert_eq!(offset_device("q3", 10, 20), "q13");
        assert_eq!(offset_device("c3", 10, 20), "c23");
        assert_eq!(offset_device("x3", 10, 20), "x3");
    }
}
