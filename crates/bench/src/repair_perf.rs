//! Repair-vs-replan micro-benchmark harness (`youtiao bench-plan
//! --repair`).
//!
//! For each square-grid size the harness plans a base snapshot, then
//! times two scenarios against it:
//!
//! * `drift-single` — one crosstalk entry drifts; the repair pass must
//!   resolve it locally (`repaired`), quality-equal to a full replan
//!   under the DESIGN.md §4g tie-break contract, and the recorded
//!   speedup (replan median / repair median) is the acceptance metric;
//! * `dead-coupler` — a structural change; the repair pass must fall
//!   back (`full_replan`) byte-identical to planning the new snapshot
//!   from scratch, pinning the fallback path's cost (speedup ≈ 1×).
//!
//! The result serializes to `BENCH_repair.json` so the repo carries a
//! repair-latency trajectory next to `BENCH_plan.json`.

use serde::Serialize;
use youtiao_chip::spec::ChipSpec;
use youtiao_chip::{topology, QubitId};
use youtiao_core::tdm::brickwork_activity;
use youtiao_core::{FdmLine, PlanContext, PlannerConfig, RefineConfig, YoutiaoPlanner};
use youtiao_repair::{
    diff_inputs, patch_frequencies, repair_plan, replan_from_snapshot, PlanInputs, QualityReport,
    RepairConfig, RepairOutcome,
};

use crate::perf::{timed, StageStats};

/// Schema tag written into the report so downstream tooling can detect
/// format changes. v2 adds `freq_patch_share` — the fraction of the
/// repair median the two `patch_frequencies` calls account for.
pub const SCHEMA: &str = "youtiao-bench-repair/v2";

/// Relative tolerance for the quality-equal tie-break check.
pub const QUALITY_TOLERANCE: f64 = 0.05;

/// Harness configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairBenchConfig {
    /// Square-grid side lengths to benchmark (`n` → an n×n chip).
    pub sizes: Vec<usize>,
    /// Timed iterations per path per scenario.
    pub iterations: usize,
}

impl Default for RepairBenchConfig {
    fn default() -> Self {
        RepairBenchConfig {
            sizes: vec![8, 12],
            iterations: 15,
        }
    }
}

/// One timed scenario: the repair path against the full-replan path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// Scenario name (`drift-single` / `dead-coupler`).
    pub scenario: String,
    /// The repair pass's resolution ([`RepairOutcome::as_str`]).
    pub outcome: String,
    /// Repaired plan quality-equal to the replanned plan (byte-identity
    /// on the fallback scenario).
    pub quality_equal: bool,
    /// Qubits marked dirty by the differ.
    pub dirty_qubits: usize,
    /// Kernel rows the delta recomputed.
    pub invalidated_rows: usize,
    /// TDM groups dissolved and regrouped.
    pub dirty_groups: usize,
    /// Repair-path wall time (µs).
    pub repair: StageStats,
    /// Full-replan wall time (µs).
    pub replan: StageStats,
    /// Replan median / repair median — the acceptance metric on the
    /// drift scenario, ≈ 1 on the fallback scenario.
    pub speedup: f64,
    /// Fraction of the repair median the two `patch_frequencies` calls
    /// (XY + readout bands) account for, timed standalone against a
    /// delta-patched context. `0.0` on the fallback scenario, which
    /// replans instead of patching.
    pub freq_patch_share: f64,
}

/// Per-chip-size results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RepairSizeReport {
    /// Chip label, e.g. `"12x12"`.
    pub label: String,
    /// Qubit count.
    pub qubits: usize,
    /// Z-controlled device count (qubits + couplers).
    pub devices: usize,
    /// Timed iterations behind each stat.
    pub iterations: usize,
    /// The timed scenarios.
    pub scenarios: Vec<ScenarioReport>,
}

/// The full harness report (`BENCH_repair.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RepairPerfReport {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// Timed iterations per path per scenario.
    pub iterations: usize,
    /// Per-size results, in the order requested.
    pub sizes: Vec<RepairSizeReport>,
}

impl RepairPerfReport {
    /// Renders a compact, human-readable table of the report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench-repair: {} iterations per path per scenario\n",
            self.iterations
        ));
        s.push_str(&format!(
            "{:<8} {:<14} {:<12} {:>12} {:>12} {:>9} {:>9} {:>8}\n",
            "chip",
            "scenario",
            "outcome",
            "repair µs",
            "replan µs",
            "speedup",
            "freq-pct",
            "quality"
        ));
        for size in &self.sizes {
            for sc in &size.scenarios {
                s.push_str(&format!(
                    "{:<8} {:<14} {:<12} {:>12.1} {:>12.1} {:>8.2}x {:>8.1}% {:>8}\n",
                    size.label,
                    sc.scenario,
                    sc.outcome,
                    sc.repair.median_us,
                    sc.replan.median_us,
                    sc.speedup,
                    sc.freq_patch_share * 100.0,
                    if sc.quality_equal { "equal" } else { "WORSE" },
                ));
            }
        }
        s
    }

    /// The drift-scenario speedup at the largest benchmarked size — the
    /// headline acceptance number.
    pub fn headline_speedup(&self) -> Option<f64> {
        self.sizes
            .last()?
            .scenarios
            .iter()
            .find(|sc| sc.scenario == "drift-single")
            .map(|sc| sc.speedup)
    }
}

/// Runs the harness.
///
/// # Panics
///
/// Panics if the configuration is empty, the drift scenario fails to
/// repair locally or misses the quality-equal contract, or the fallback
/// scenario's plan diverges from the from-scratch replan (any of which
/// would make the timings meaningless).
pub fn run(config: &RepairBenchConfig) -> RepairPerfReport {
    assert!(!config.sizes.is_empty(), "need at least one chip size");
    assert!(config.iterations > 0, "iterations must be positive");
    let iters = config.iterations;

    let mut sizes = Vec::with_capacity(config.sizes.len());
    for &n in &config.sizes {
        let label = format!("{n}x{n}");
        let chip = topology::square_grid(n, n);
        let planner = PlannerConfig {
            refine: Some(RefineConfig::default()),
            ..Default::default()
        };
        let ctx = PlanContext::build(&chip, None, planner.weights);
        let activity = brickwork_activity(&chip);
        let base = YoutiaoPlanner::new(&chip)
            .with_activity(&activity)
            .with_config(planner.clone())
            .with_context(&ctx)
            .plan()
            .expect("base plan must succeed");
        let old = PlanInputs {
            chip: &chip,
            xtalk: ctx.crosstalk(),
            activity: &activity,
        };
        let mut scenarios = Vec::with_capacity(2);

        // drift-single: one mid-grid coupler pair drifts.
        let a = QubitId::new((n * n / 2) as u32);
        let b = QubitId::new((n * n / 2 + 1) as u32);
        let mut drifted = ctx.crosstalk().clone();
        drifted.set(a, b, drifted.get(a, b) * 5.0 + 2e-3);
        let new = PlanInputs {
            chip: &chip,
            xtalk: &drifted,
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        let cfg = RepairConfig::default();
        let (repair_stats, report) = timed(iters, || {
            repair_plan(&base, &ctx, &new, &changes, &planner, &cfg)
                .expect("drift repair must succeed")
        });
        assert_eq!(
            report.outcome,
            RepairOutcome::Repaired,
            "{label}: single-entry drift must repair locally"
        );
        let (replan_stats, (replanned, _)) = timed(iters, || {
            replan_from_snapshot(&new, &planner).expect("replan must succeed")
        });
        let quality = QualityReport::compare(&report.plan, &replanned, &drifted, &activity);
        assert!(
            quality.quality_equal(QUALITY_TOLERANCE),
            "{label}: drift repair missed the tie-break contract\n{}",
            quality.render()
        );
        // Freq-patch share: time the two band patches standalone on the
        // drifted matrix, so the share isolates the `patch_frequencies`
        // cost inside the repair median.
        let dirty = changes.dirty_qubits();
        let xy_lines: Vec<&[QubitId]> = base.fdm_lines().iter().map(FdmLine::qubits).collect();
        let ro_lines: Vec<&[QubitId]> = base.readout_lines().iter().map(Vec::as_slice).collect();
        let (patch_stats, _) = timed(iters, || {
            let xy = patch_frequencies(
                &chip,
                &xy_lines,
                base.frequency_plan(),
                &drifted,
                &planner.freq,
                &dirty,
            )
            .expect("xy freq patch must succeed");
            let ro = patch_frequencies(
                &chip,
                &ro_lines,
                base.readout_frequency_plan(),
                &drifted,
                &planner.readout_freq,
                &dirty,
            )
            .expect("readout freq patch must succeed");
            (xy, ro)
        });
        scenarios.push(ScenarioReport {
            scenario: "drift-single".to_string(),
            outcome: report.outcome.as_str().to_string(),
            quality_equal: true,
            dirty_qubits: report.dirty_qubits,
            invalidated_rows: report.invalidated_rows,
            dirty_groups: report.dirty_groups,
            speedup: replan_stats.median_us / repair_stats.median_us,
            freq_patch_share: patch_stats.median_us / repair_stats.median_us,
            repair: repair_stats,
            replan: replan_stats,
        });

        // dead-coupler: structural, pins the fallback path.
        let mut spec = ChipSpec::from_chip(&chip);
        spec.couplers.pop();
        let mutated = spec.to_chip().expect("mutated chip must build");
        let mut_ctx = PlanContext::build(&mutated, None, planner.weights);
        let new = PlanInputs {
            chip: &mutated,
            xtalk: mut_ctx.crosstalk(),
            activity: &activity,
        };
        let changes = diff_inputs(&old, &new);
        assert!(changes.structural(), "{label}: coupler loss is structural");
        let (repair_stats, report) = timed(iters, || {
            repair_plan(&base, &ctx, &new, &changes, &planner, &cfg)
                .expect("fallback repair must succeed")
        });
        assert!(
            matches!(report.outcome, RepairOutcome::FullReplan { .. }),
            "{label}: a dead coupler must fall back"
        );
        let (replan_stats, (replanned, _)) = timed(iters, || {
            replan_from_snapshot(&new, &planner).expect("replan must succeed")
        });
        assert_eq!(
            report.plan, replanned,
            "{label}: the fallback plan must be byte-identical to a replan"
        );
        scenarios.push(ScenarioReport {
            scenario: "dead-coupler".to_string(),
            outcome: report.outcome.as_str().to_string(),
            quality_equal: true,
            dirty_qubits: report.dirty_qubits,
            invalidated_rows: report.invalidated_rows,
            dirty_groups: report.dirty_groups,
            speedup: replan_stats.median_us / repair_stats.median_us,
            freq_patch_share: 0.0,
            repair: repair_stats,
            replan: replan_stats,
        });

        sizes.push(RepairSizeReport {
            label,
            qubits: chip.num_qubits(),
            devices: chip.num_qubits() + chip.num_couplers(),
            iterations: iters,
            scenarios,
        });
    }

    RepairPerfReport {
        schema: SCHEMA.to_string(),
        iterations: iters,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_complete_report() {
        let report = run(&RepairBenchConfig {
            sizes: vec![4, 5],
            iterations: 2,
        });
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.sizes.len(), 2);
        for size in &report.sizes {
            assert_eq!(size.scenarios.len(), 2);
            let drift = &size.scenarios[0];
            assert_eq!(drift.scenario, "drift-single");
            assert_eq!(drift.outcome, "repaired");
            assert!(drift.quality_equal);
            assert!(drift.dirty_qubits >= 2);
            assert!(drift.invalidated_rows >= 2);
            assert!(drift.speedup.is_finite() && drift.speedup > 0.0);
            assert!(
                drift.freq_patch_share.is_finite() && drift.freq_patch_share > 0.0,
                "drift scenario must measure a positive freq-patch share"
            );
            let dead = &size.scenarios[1];
            assert_eq!(dead.scenario, "dead-coupler");
            assert_eq!(dead.outcome, "full_replan");
            assert!(dead.quality_equal);
            assert_eq!(dead.invalidated_rows, 0);
            assert_eq!(dead.freq_patch_share, 0.0);
        }
        assert!(report.headline_speedup().unwrap() > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("4x4"));
        assert!(rendered.contains("drift-single"));
        assert!(rendered.contains("dead-coupler"));
    }

    #[test]
    fn report_serializes() {
        let report = run(&RepairBenchConfig {
            sizes: vec![4],
            iterations: 1,
        });
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"schema\""));
        assert!(json.contains("drift-single"));
        assert!(json.contains("speedup"));
        assert!(json.contains("freq_patch_share"));
    }
}
