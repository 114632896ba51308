//! Per-qubit gate-error evaluation for FDM wiring schemes.
//!
//! During a dense random-XY layer (Figures 12–13), every qubit is driven
//! through its FDM line. Qubit `i`'s error per layer is:
//!
//! * its own calibrated-gate error (pulse-level, RK4);
//! * in-line leakage: off-resonant excitation from every other channel
//!   of the same line, attenuated by the per-channel band-pass filter;
//! * cross-line leakage: spatial XY crosstalk towards every other qubit,
//!   scaled by the Lorentzian spectral-proximity factor — the term the
//!   noise-aware grouping and allocation minimize.
//!
//! This module lives in the exploration crate so that both the sweep
//! engine (per-point fidelity objectives) and the figure binaries in
//! `youtiao-bench` evaluate schemes with the same physics.

use youtiao_chip::{Chip, QubitId};
use youtiao_core::fdm::FdmLine;
use youtiao_core::freq::FrequencyPlan;
use youtiao_noise::model::frequency_scaling;
use youtiao_noise::CrosstalkModel;
use youtiao_pulse::fdm::{FdmLineSimulator, LineSimConfig};

/// An FDM wiring scheme under evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FdmScenario<'a> {
    /// The chip.
    pub chip: &'a Chip,
    /// The FDM line grouping.
    pub lines: &'a [FdmLine],
    /// The frequency assignment.
    pub freqs: &'a FrequencyPlan,
    /// The fitted crosstalk model.
    pub model: &'a CrosstalkModel,
}

/// Per-qubit single-gate error for one dense XY layer.
pub fn per_qubit_gate_error(scenario: &FdmScenario<'_>, sim: &FdmLineSimulator) -> Vec<f64> {
    let chip = scenario.chip;
    let n = chip.num_qubits();
    // Calibration floor is qubit-independent: compute once.
    let floor = sim.x_gate_on_line(&[5.0], 0).target_error();

    let line_of: Vec<Option<usize>> = (0..n)
        .map(|i| {
            scenario
                .lines
                .iter()
                .position(|l| l.contains(QubitId::from(i)))
        })
        .collect();

    (0..n)
        .map(|i| {
            let qi = QubitId::from(i);
            let fi = scenario.freqs.frequency_ghz(qi);
            let mut err = floor;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let qj = QubitId::from(j);
                let fj = scenario.freqs.frequency_ghz(qj);
                if line_of[i].is_some() && line_of[i] == line_of[j] {
                    // Shared line: the drive for q_j reaches q_i through
                    // the band-pass filter at full line amplitude.
                    err += sim.spectator_excitation(fi, fj, 1.0);
                } else {
                    // Different lines: spatial crosstalk scaled by
                    // spectral proximity.
                    err += scenario.model.predict_pair(chip, qi, qj) * frequency_scaling(fj - fi);
                }
            }
            err
        })
        .collect()
}

/// Mean single-qubit gate fidelity across the chip for one dense layer.
pub fn mean_gate_fidelity(scenario: &FdmScenario<'_>, sim: &FdmLineSimulator) -> f64 {
    let errs = per_qubit_gate_error(scenario, sim);
    1.0 - errs.iter().sum::<f64>() / errs.len() as f64
}

/// All-qubit-driven processor fidelity for a single dense XY layer:
/// `Π_i (1 − err_i)` (the Figure 17 (b) headline number).
pub fn processor_fidelity(scenario: &FdmScenario<'_>, sim: &FdmLineSimulator) -> f64 {
    processor_fidelity_after_layers(scenario, sim, 1)
}

/// Whole-processor fidelity after `layers` dense random-XY layers
/// (the Figure 13 (b) decay curve): `Π_i (1 − err_i)^layers`.
pub fn processor_fidelity_after_layers(
    scenario: &FdmScenario<'_>,
    sim: &FdmLineSimulator,
    layers: usize,
) -> f64 {
    let errs = per_qubit_gate_error(scenario, sim);
    errs.iter()
        .map(|e| (1.0 - e).max(0.0).powi(layers as i32))
        .product()
}

/// Convenience: the default pulse simulator used by all FDM experiments.
pub fn default_simulator() -> FdmLineSimulator {
    FdmLineSimulator::new(LineSimConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::equivalent_matrix;
    use youtiao_chip::topology;
    use youtiao_core::baselines::NaiveFdm;
    use youtiao_core::fdm::group_fdm;
    use youtiao_core::freq::{allocate_frequencies, FreqConfig};
    use youtiao_core::plan::crosstalk_matrix;
    use youtiao_noise::characterize_xy;

    #[test]
    fn optimized_scheme_beats_naive() {
        let chip = topology::square_grid(4, 4);
        let model = characterize_xy(&chip, 3).unwrap();
        let eq = equivalent_matrix(&chip, model.weights());
        let xtalk = crosstalk_matrix(&chip, &eq, Some(&model));
        let lines = group_fdm(&chip, &eq, 4);
        let freqs = allocate_frequencies(&chip, &lines, &xtalk, &FreqConfig::default()).unwrap();
        let naive = NaiveFdm::for_chip(&chip, 4, &FreqConfig::default());

        let sim = default_simulator();
        let opt = FdmScenario {
            chip: &chip,
            lines: &lines,
            freqs: &freqs,
            model: &model,
        };
        let nai = FdmScenario {
            chip: &chip,
            lines: naive.fdm_lines(),
            freqs: naive.frequency_plan(),
            model: &model,
        };
        let f_opt = mean_gate_fidelity(&opt, &sim);
        let f_nai = mean_gate_fidelity(&nai, &sim);
        assert!(f_opt > f_nai, "optimized {f_opt} vs naive {f_nai}");
        assert!(f_opt > 0.999);
    }

    #[test]
    fn fidelity_decays_with_layers() {
        let chip = topology::square_grid(3, 3);
        let model = characterize_xy(&chip, 4).unwrap();
        let eq = equivalent_matrix(&chip, model.weights());
        let xtalk = crosstalk_matrix(&chip, &eq, Some(&model));
        let lines = group_fdm(&chip, &eq, 4);
        let freqs = allocate_frequencies(&chip, &lines, &xtalk, &FreqConfig::default()).unwrap();
        let s = FdmScenario {
            chip: &chip,
            lines: &lines,
            freqs: &freqs,
            model: &model,
        };
        let sim = default_simulator();
        let f10 = processor_fidelity_after_layers(&s, &sim, 10);
        let f100 = processor_fidelity_after_layers(&s, &sim, 100);
        assert!(f10 > f100);
        assert!(f100 > 0.0);
    }
}
