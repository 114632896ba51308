//! Cross-validated fitting of the crosstalk model (§4.1).
//!
//! The paper searches for the best `(w_phy, w_top)` blend by training a
//! random forest on `d_equiv = w_phy·d_phy + w_top·d_top` and scoring MSE
//! under 5-fold cross-validation. [`fit_crosstalk_model`] implements that
//! procedure over a simplex grid `w_phy ∈ {0, 1/s, …, 1}`, `w_top = 1 −
//! w_phy` (scaling both weights by a common factor leaves tree splits
//! unchanged, so the simplex is the full effective search space).

use std::error::Error;
use std::fmt;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::EquivalentWeights;
use youtiao_chip::Chip;

use crate::data::{synthesize, CrosstalkKind, CrosstalkSample, SynthConfig};
use crate::forest::{RandomForest, RandomForestConfig};
use crate::model::CrosstalkModel;
use crate::stats::mse;
use crate::tree::{Grower, RankedFeature};

/// Configuration for [`fit_crosstalk_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Number of grid steps for `w_phy` (the grid has `steps + 1` points).
    pub weight_steps: usize,
    /// Number of cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Forest hyper-parameters used both during CV and for the final fit.
    pub forest: RandomForestConfig,
}

impl FitConfig {
    /// The paper's setting: 5-fold CV over a 10-step weight grid.
    pub fn paper() -> Self {
        FitConfig {
            weight_steps: 10,
            folds: 5,
            forest: RandomForestConfig::default(),
        }
    }

    /// A cheaper setting for tests and doc examples.
    pub fn fast() -> Self {
        FitConfig {
            weight_steps: 4,
            folds: 3,
            forest: RandomForestConfig {
                num_trees: 8,
                ..Default::default()
            },
        }
    }
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig::paper()
    }
}

/// Errors from [`fit_crosstalk_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Fewer usable samples than cross-validation folds.
    NotEnoughSamples {
        /// Usable (finite) sample count.
        available: usize,
        /// Required minimum (the fold count).
        required: usize,
    },
    /// The configuration requested zero folds or zero weight steps.
    InvalidConfig,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughSamples {
                available,
                required,
            } => write!(
                f,
                "need at least {required} finite samples for cross-validation, got {available}"
            ),
            FitError::InvalidConfig => {
                write!(
                    f,
                    "fit configuration needs folds >= 2 and weight_steps >= 1"
                )
            }
        }
    }
}

impl Error for FitError {}

/// Characterizes a chip's XY crosstalk the way every design front-end
/// does: synthesizes one XY sample per ordered qubit pair with `seed`
/// ([`SynthConfig::xy`]) and fits them under [`FitConfig::paper`].
///
/// # Panics
///
/// Panics if the chip has fewer than three qubits (fewer ordered pairs
/// than the paper's five folds).
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
///
/// let model = youtiao_noise::characterize_xy(&topology::square_grid(3, 3), 7);
/// assert!(model.predict(1.0, 1.0) > model.predict(4.0, 24.0));
/// ```
pub fn characterize_xy(chip: &Chip, seed: u64) -> CrosstalkModel {
    let samples = synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed);
    fit_crosstalk_model(&samples, &FitConfig::paper()).expect("synthesized data always fits")
}

/// Fits a [`CrosstalkModel`] to measurement samples by grid-searching the
/// equivalent-distance weights under k-fold cross-validation and
/// retraining the winning configuration on all data.
///
/// Samples with non-finite distance components (disconnected pairs) are
/// ignored.
///
/// # Errors
///
/// * [`FitError::InvalidConfig`] — `folds < 2` or `weight_steps < 1`.
/// * [`FitError::NotEnoughSamples`] — fewer finite samples than folds.
///
/// # Panics
///
/// Panics if `config.forest.num_trees == 0`.
pub fn fit_crosstalk_model(
    samples: &[CrosstalkSample],
    config: &FitConfig,
) -> Result<CrosstalkModel, FitError> {
    if config.folds < 2 || config.weight_steps < 1 {
        return Err(FitError::InvalidConfig);
    }
    let usable: Vec<&CrosstalkSample> = samples
        .iter()
        .filter(|s| s.d_phy.is_finite() && s.d_top.is_finite() && s.value.is_finite())
        .collect();
    if usable.len() < config.folds {
        return Err(FitError::NotEnoughSamples {
            available: usable.len(),
            required: config.folds,
        });
    }

    // The weight grid, each point's feature ranked once.
    let grid: Vec<(EquivalentWeights, RankedFeature)> = (0..=config.weight_steps)
        .filter_map(|i| {
            let w_phy = i as f64 / config.weight_steps as f64;
            let w_top = 1.0 - w_phy;
            // The both-zero corner cannot occur on the simplex.
            let weights = EquivalentWeights::new(w_phy, w_top).ok()?;
            let xs: Vec<f64> = usable
                .iter()
                .map(|s| weights.combine(s.d_phy, s.d_top))
                .collect();
            Some((weights, RankedFeature::new(&xs)))
        })
        .collect();
    let ys: Vec<f64> = usable.iter().map(|s| s.value).collect();

    let mut best: Option<(usize, f64)> = None;
    for (point, score) in cv_mse(&grid, &ys, config).into_iter().enumerate() {
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((point, score));
        }
    }
    let (point, score) = best.expect("weight grid is non-empty");
    let (weights, feature) = &grid[point];
    let forest = RandomForest::fit_ranked(feature, &ys, config.forest);
    Ok(CrosstalkModel::from_parts(*weights, forest, score))
}

/// k-fold cross-validated MSE of every weight point, in grid order.
///
/// Each fold's forests all reseed with `config.forest.seed` and draw
/// over the same training positions, so one bootstrap per (fold, tree)
/// serves every weight point. Test predictions are accumulated per
/// distinct feature value, so no CV forest is ever stored.
///
/// The caller guarantees `ys.len() >= config.folds >= 2`, so every
/// fold has both training and test samples.
fn cv_mse(grid: &[(EquivalentWeights, RankedFeature)], ys: &[f64], config: &FitConfig) -> Vec<f64> {
    let forest = config.forest;
    assert!(forest.num_trees > 0, "forest needs at least one tree");
    let mut totals = vec![0.0; grid.len()];
    let mut grower = Grower::default();
    let mut draws = Vec::new();
    let mut preds = Vec::new();
    // Per weight point and distinct value: the trees' predictions summed
    // in tree order from −0.0, as `Iterator::sum` sums a forest's trees.
    let mut sums: Vec<Vec<f64>> = grid
        .iter()
        .map(|(_, feature)| vec![-0.0; feature.values().len()])
        .collect();
    for fold in 0..config.folds {
        let (train, test): (Vec<u32>, Vec<u32>) =
            (0..ys.len() as u32).partition(|&i| i as usize % config.folds != fold);
        let mut rng = ChaCha8Rng::seed_from_u64(forest.seed);
        for _ in 0..forest.num_trees {
            draws.clear();
            draws.extend((0..train.len()).map(|_| train[rng.gen_range(0..train.len())]));
            for ((_, feature), sums) in grid.iter().zip(&mut sums) {
                let tree = grower.grow(feature, ys, &draws, forest.tree);
                for (sum, &x) in sums.iter_mut().zip(feature.values()) {
                    *sum += tree.predict(x);
                }
            }
        }
        let test_y: Vec<f64> = test.iter().map(|&i| ys[i as usize]).collect();
        for ((total, (_, feature)), sums) in totals.iter_mut().zip(grid).zip(&mut sums) {
            preds.clear();
            preds.extend(
                test.iter()
                    .map(|&i| sums[feature.rank(i)] / forest.num_trees as f64),
            );
            *total += mse(&preds, &test_y);
            sums.fill(-0.0);
        }
    }
    totals
        .into_iter()
        .map(|total| (total / config.folds as f64).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthesize, CrosstalkKind, SynthConfig};
    use youtiao_chip::topology;

    fn samples_6x6(seed: u64) -> Vec<CrosstalkSample> {
        let chip = topology::square_grid(6, 6);
        synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed)
    }

    #[test]
    fn fit_recovers_decaying_relationship() {
        let model = fit_crosstalk_model(&samples_6x6(1), &FitConfig::fast()).unwrap();
        assert!(model.predict(1.0, 1.0) > model.predict(4.0, 10.0));
        assert!(model.cv_mse() >= 0.0);
    }

    #[test]
    fn fitted_weights_are_on_simplex() {
        let model = fit_crosstalk_model(&samples_6x6(2), &FitConfig::fast()).unwrap();
        let w = model.weights();
        assert!((w.w_phy() + w.w_top() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_prefers_informative_blend() {
        // With ground truth 0.6/0.4, the fitted w_phy should not collapse
        // to an extreme of the simplex.
        let model = fit_crosstalk_model(&samples_6x6(3), &FitConfig::paper()).unwrap();
        let w = model.weights().w_phy();
        assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn prediction_error_is_small_in_band() {
        let chip = topology::square_grid(6, 6);
        let cfg = SynthConfig::xy();
        let samples = synthesize(&chip, CrosstalkKind::Xy, &cfg, 4);
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        // Compare against the noiseless law on adjacent pairs.
        let truth = crate::data::expected_value(&cfg, 1.0, 1.0);
        let pred = model.predict(1.0, 1.0);
        assert!(
            (pred - truth).abs() / truth < 0.5,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn too_few_samples_is_error() {
        let samples = samples_6x6(1)[..2].to_vec();
        let err = fit_crosstalk_model(&samples, &FitConfig::paper()).unwrap_err();
        assert!(matches!(
            err,
            FitError::NotEnoughSamples {
                available: 2,
                required: 5
            }
        ));
    }

    #[test]
    fn invalid_config_is_error() {
        let samples = samples_6x6(1);
        let bad = FitConfig {
            folds: 1,
            ..FitConfig::fast()
        };
        assert_eq!(
            fit_crosstalk_model(&samples, &bad).unwrap_err(),
            FitError::InvalidConfig
        );
        let bad2 = FitConfig {
            weight_steps: 0,
            ..FitConfig::fast()
        };
        assert_eq!(
            fit_crosstalk_model(&samples, &bad2).unwrap_err(),
            FitError::InvalidConfig
        );
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut samples = samples_6x6(5);
        samples.push(CrosstalkSample {
            target: 0u32.into(),
            spectator: 1u32.into(),
            d_phy: f64::INFINITY,
            d_top: 1.0,
            value: 0.5,
        });
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        assert!(model.predict(1.0, 1.0).is_finite());
    }

    #[test]
    fn error_display_is_informative() {
        let e = FitError::NotEnoughSamples {
            available: 1,
            required: 5,
        };
        assert!(e.to_string().contains("5"));
        assert!(FitError::InvalidConfig.to_string().contains("folds"));
    }
}
