//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see EXPERIMENTS.md at the workspace root). The modules here
//! hold the evaluation logic they share:
//!
//! * [`fdm_eval`] — per-qubit gate-error evaluation for FDM wiring
//!   schemes (pulse-level in-line leakage + model-predicted cross-line
//!   crosstalk), used by Figures 12–13 and 17 (b); the physics now
//!   lives in `youtiao_xplore::eval` and is re-exported here;
//! * [`tdm_eval`] — benchmark depth/fidelity evaluation across wiring
//!   schemes, used by Figures 14–15, Table 1 and the motivation demo;
//! * [`figs`] — Figure 16/17 report builders on the sweep engine;
//! * [`nets`] — chip-level net lists for the router, used by Table 2;
//! * [`perf`] — the `youtiao bench-plan` planner micro-benchmark
//!   harness behind the tracked `BENCH_plan.json` trajectory;
//! * [`repair_perf`] — the `youtiao bench-plan --repair` repair-vs-
//!   replan harness behind the tracked `BENCH_repair.json` trajectory;
//! * [`report`] — plain-text table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fdm_eval;
pub mod figs;
pub mod nets;
pub mod perf;
pub mod repair_perf;
pub mod report;
pub mod tdm_eval;

/// The default random seed used across experiment binaries.
pub const DEFAULT_SEED: u64 = 20250705;

/// Builds the 36-qubit (6×6) evaluation chip of §5.1.
pub fn target_chip_36() -> youtiao_chip::Chip {
    youtiao_chip::topology::square_grid(6, 6)
}

/// Builds the 64-qubit (8×8) generality chip of §5.4.
pub fn target_chip_64() -> youtiao_chip::Chip {
    youtiao_chip::topology::square_grid(8, 8)
}

/// Fits the XY crosstalk model for a chip from synthesized measurements,
/// using the paper's 5-fold CV procedure: the characterization step
/// every design front-end shares, so binaries and sweeps agree.
pub fn fitted_xy_model(chip: &youtiao_chip::Chip, seed: u64) -> youtiao_noise::CrosstalkModel {
    youtiao_noise::characterize_xy(chip, seed).expect("evaluation chips have enough qubit pairs")
}
