//! The fitted crosstalk characterization model.

use youtiao_chip::distance::{topological_distance, EquivalentWeights};
use youtiao_chip::{Chip, QubitId};

use crate::forest::RandomForest;

/// Linewidth (GHz) of the Lorentzian frequency-proximity factor used when
/// scaling distance-based crosstalk by spectral separation (10 MHz —
/// the scale of drive-line selectivity on transmon chips).
pub const FREQUENCY_LINEWIDTH_GHZ: f64 = 0.01;

/// A fitted crosstalk model: equivalent-distance weights plus a
/// random-forest regressor from distance to crosstalk magnitude.
///
/// Produced by [`fit_crosstalk_model`](crate::fit::fit_crosstalk_model).
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
/// use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
/// use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
///
/// let chip = topology::square_grid(4, 4);
/// let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 11);
/// let model = fit_crosstalk_model(&samples, &FitConfig::fast())?;
/// let near = model.predict_pair(&chip, 0u32.into(), 1u32.into());
/// let far = model.predict_pair(&chip, 0u32.into(), 15u32.into());
/// assert!(near > far);
/// # Ok::<(), youtiao_noise::fit::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkModel {
    weights: EquivalentWeights,
    forest: RandomForest,
    cv_mse: f64,
}

impl CrosstalkModel {
    /// Assembles a model from fitted parts. Prefer
    /// [`fit_crosstalk_model`](crate::fit::fit_crosstalk_model).
    pub fn from_parts(weights: EquivalentWeights, forest: RandomForest, cv_mse: f64) -> Self {
        CrosstalkModel {
            weights,
            forest,
            cv_mse,
        }
    }

    /// The fitted `(w_phy, w_top)` blend.
    pub fn weights(&self) -> EquivalentWeights {
        self.weights
    }

    /// The cross-validated mean squared error achieved by the fit.
    pub fn cv_mse(&self) -> f64 {
        self.cv_mse
    }

    /// The fitted regressor.
    #[cfg(test)]
    pub(crate) fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Predicts crosstalk for raw distance components.
    pub fn predict(&self, d_phy: f64, d_top: f64) -> f64 {
        self.forest
            .predict(self.weights.combine(d_phy, d_top))
            .max(0.0)
    }

    /// Predicts crosstalk from a pre-blended equivalent distance.
    pub fn predict_equivalent(&self, d_equiv: f64) -> f64 {
        self.forest.predict(d_equiv).max(0.0)
    }

    /// Predicts crosstalk between two qubits of a chip, recomputing both
    /// distance components. Unreachable pairs predict zero crosstalk.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the chip.
    pub fn predict_pair(&self, chip: &Chip, a: QubitId, b: QubitId) -> f64 {
        let d_phy = chip.physical_distance(a, b);
        match topological_distance(chip, a, b) {
            Some(d) => self.predict(d_phy, d.value()),
            None => 0.0,
        }
    }

    /// Predicts crosstalk between two qubits additionally scaled by their
    /// spectral separation via [`frequency_scaling`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the chip.
    pub fn predict_pair_at_frequencies(
        &self,
        chip: &Chip,
        a: QubitId,
        b: QubitId,
        freq_a_ghz: f64,
        freq_b_ghz: f64,
    ) -> f64 {
        self.predict_pair(chip, a, b) * frequency_scaling(freq_a_ghz - freq_b_ghz)
    }
}

/// Lorentzian frequency-proximity factor in `(0, 1]`.
///
/// Crosstalk between two qubits is maximal when their frequencies collide
/// and falls off as `1 / (1 + (Δf/γ)²)` with detuning — the standard
/// dispersive suppression shape. `γ` is [`FREQUENCY_LINEWIDTH_GHZ`].
///
/// # Example
///
/// ```
/// use youtiao_noise::model::frequency_scaling;
/// assert_eq!(frequency_scaling(0.0), 1.0);
/// assert!(frequency_scaling(0.5) < 0.02);
/// ```
pub fn frequency_scaling(delta_ghz: f64) -> f64 {
    let x = delta_ghz / FREQUENCY_LINEWIDTH_GHZ;
    1.0 / (1.0 + x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{RandomForest, RandomForestConfig};

    fn toy_model() -> CrosstalkModel {
        // Train the forest on an exact decaying curve.
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.01 * (-x).exp()).collect();
        let forest = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        CrosstalkModel::from_parts(EquivalentWeights::balanced(), forest, 1e-9)
    }

    #[test]
    fn predict_decays() {
        let m = toy_model();
        assert!(m.predict(0.5, 0.5) > m.predict(3.0, 3.0));
        assert!(m.predict_equivalent(1.0) > m.predict_equivalent(5.0));
    }

    #[test]
    fn predictions_are_non_negative() {
        let m = toy_model();
        for i in 0..50 {
            assert!(m.predict(i as f64 * 0.3, i as f64 * 0.4) >= 0.0);
        }
    }

    #[test]
    fn pair_prediction_uses_chip_distances() {
        let chip = youtiao_chip::topology::square_grid(3, 3);
        let m = toy_model();
        let near = m.predict_pair(&chip, 0u32.into(), 1u32.into());
        let far = m.predict_pair(&chip, 0u32.into(), 8u32.into());
        assert!(near > far);
    }

    #[test]
    fn disconnected_pair_predicts_zero() {
        let chip = youtiao_chip::ChipBuilder::new("d", youtiao_chip::TopologyKind::Custom)
            .qubit(youtiao_chip::Position::new(0.0, 0.0))
            .qubit(youtiao_chip::Position::new(9.0, 0.0))
            .build()
            .unwrap();
        let m = toy_model();
        assert_eq!(m.predict_pair(&chip, 0u32.into(), 1u32.into()), 0.0);
    }

    #[test]
    fn frequency_scaling_shape() {
        assert_eq!(frequency_scaling(0.0), 1.0);
        assert_eq!(frequency_scaling(0.1), frequency_scaling(-0.1));
        assert!(frequency_scaling(0.01) > frequency_scaling(0.1));
        assert!(frequency_scaling(1.0) > 0.0);
    }

    #[test]
    fn frequency_separation_reduces_pair_crosstalk() {
        let chip = youtiao_chip::topology::square_grid(3, 3);
        let m = toy_model();
        let same = m.predict_pair_at_frequencies(&chip, 0u32.into(), 1u32.into(), 5.0, 5.0);
        let apart = m.predict_pair_at_frequencies(&chip, 0u32.into(), 1u32.into(), 5.0, 6.0);
        assert!(same > apart * 10.0);
    }
}
