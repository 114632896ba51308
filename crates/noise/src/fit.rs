//! Cross-validated fitting of the crosstalk model (§4.1).
//!
//! The paper searches for the best `(w_phy, w_top)` blend by training a
//! random forest on `d_equiv = w_phy·d_phy + w_top·d_top` and scoring MSE
//! under 5-fold cross-validation. [`fit_crosstalk_model`] implements that
//! procedure over a simplex grid `w_phy ∈ {0, 1/s, …, 1}`, `w_top = 1 −
//! w_phy` (scaling both weights by a common factor leaves tree splits
//! unchanged, so the simplex is the full effective search space).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use youtiao_chip::distance::EquivalentWeights;
use youtiao_chip::Chip;

use crate::data::{synthesize, CrosstalkKind, CrosstalkSample, SynthConfig};
use crate::forest::RandomForestConfig;
use crate::model::CrosstalkModel;
use crate::tree::RankedFeature;
use crate::units::{self, best_point, Helper, Outcome, Schedule};

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
    /// The configuration requested fewer than two folds, zero weight
    /// steps or zero trees.
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
                    "fit configuration needs folds >= 2, weight_steps >= 1 and num_trees >= 1"
                )
            }
        }
    }
}

impl Error for FitError {}

/// Characterizes a chip's XY crosstalk the way every design front-end
/// does: synthesizes one XY sample per ordered qubit pair with `seed`
/// ([`SynthConfig::xy`]) and fits them under [`FitConfig::paper`]. The
/// samples are dropped once the weight grid holds their classes and
/// targets, before the cross-validation starts.
///
/// # Errors
///
/// [`FitError::NotEnoughSamples`] when the chip has fewer than three
/// qubits: fewer ordered pairs than the paper's five folds.
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
///
/// let model = youtiao_noise::characterize_xy(&topology::square_grid(3, 3), 7)?;
/// assert!(model.predict(1.0, 1.0) > model.predict(4.0, 24.0));
/// assert!(youtiao_noise::characterize_xy(&topology::linear(2), 7).is_err());
/// # Ok::<(), youtiao_noise::FitError>(())
/// ```
pub fn characterize_xy(chip: &Chip, seed: u64) -> Result<CrosstalkModel, FitError> {
    let samples = synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed);
    let grid = WeightGrid::new(&samples, &FitConfig::paper())?;
    drop(samples);
    Ok(grid.fit(Helper::Auto))
}

/// Fits a [`CrosstalkModel`] to measurement samples by grid-searching the
/// equivalent-distance weights under k-fold cross-validation and
/// retraining the winning configuration on all data.
///
/// Samples with non-finite distance components (disconnected pairs) are
/// ignored. The fit takes one helper thread while the process's CPU
/// budget (`youtiao-exec`) has an idle core; the result is the same bits
/// with or without it (DESIGN.md §4l).
///
/// # Errors
///
/// * [`FitError::InvalidConfig`] — `folds < 2`, `weight_steps < 1` or
///   `forest.num_trees == 0`.
/// * [`FitError::NotEnoughSamples`] — fewer finite samples than folds.
pub fn fit_crosstalk_model(
    samples: &[CrosstalkSample],
    config: &FitConfig,
) -> Result<CrosstalkModel, FitError> {
    Ok(WeightGrid::new(samples, config)?.fit(Helper::Auto))
}

/// A fit's weight grid, ready for cross-validation.
///
/// Samples with bit-equal `(d_phy, d_top)` form a distance class and get
/// bit-equal `d_equiv` at every weight point, so each point ranks the
/// classes, and each sample is keyed by its class.
pub(crate) struct WeightGrid {
    /// The checked configuration.
    config: FitConfig,
    /// The weight points, and each one's feature ranked over the classes.
    weights: Vec<EquivalentWeights>,
    features: Vec<RankedFeature>,
    /// Each usable sample's class.
    keys: Vec<u32>,
    /// Each usable sample's target.
    ys: Vec<f64>,
}

impl WeightGrid {
    /// Checks `config`, keeps the usable samples (finite distances and
    /// value) and ranks every weight point.
    pub(crate) fn new(samples: &[CrosstalkSample], config: &FitConfig) -> Result<Self, FitError> {
        if config.folds < 2 || config.weight_steps < 1 || config.forest.num_trees == 0 {
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
        // Class ids in order of first appearance; the map is never iterated.
        let mut class_ids: HashMap<(u64, u64), u32> = HashMap::new();
        let mut classes: Vec<(f64, f64)> = Vec::new();
        let keys: Vec<u32> = usable
            .iter()
            .map(|s| {
                *class_ids
                    .entry((s.d_phy.to_bits(), s.d_top.to_bits()))
                    .or_insert_with(|| {
                        classes.push((s.d_phy, s.d_top));
                        classes.len() as u32 - 1
                    })
            })
            .collect();
        let (weights, features) = (0..=config.weight_steps)
            .filter_map(|i| {
                let w_phy = i as f64 / config.weight_steps as f64;
                let w_top = 1.0 - w_phy;
                // The both-zero corner cannot occur on the simplex.
                let weights = EquivalentWeights::new(w_phy, w_top).ok()?;
                let xs: Vec<f64> = classes
                    .iter()
                    .map(|&(d_phy, d_top)| weights.combine(d_phy, d_top))
                    .collect();
                Some((weights, RankedFeature::new(&xs)))
            })
            .unzip();
        Ok(WeightGrid {
            config: *config,
            weights,
            features,
            keys,
            ys: usable.iter().map(|s| s.value).collect(),
        })
    }

    /// The weights of every point, in grid order.
    #[cfg(test)]
    pub(crate) fn weights(&self) -> impl Iterator<Item = EquivalentWeights> + '_ {
        self.weights.iter().copied()
    }

    /// k-fold cross-validated MSE of every weight point, in grid order.
    #[cfg(test)]
    pub(crate) fn cv_mse(&self, helper: Helper) -> Vec<f64> {
        self.run(false, helper).scores
    }

    /// The model of the weight point with the lowest CV MSE (the first
    /// of equals), its forest retrained on every sample.
    pub(crate) fn fit(&self, helper: Helper) -> CrosstalkModel {
        self.model(self.run(true, helper))
    }

    /// The model a run with the final forest found.
    fn model(&self, outcome: Outcome) -> CrosstalkModel {
        let point = best_point(&outcome.scores);
        let forest = outcome.forest.expect("the fit grows its final forest");
        CrosstalkModel::from_parts(self.weights[point], forest, outcome.scores[point])
    }

    /// Cross-validates every weight point and, with `last`, grows the
    /// final forest ([`units`] has the order the work runs in).
    ///
    /// Every fold's forests reseed ChaCha8 with `forest.seed` and draw
    /// `gen_range(0..m)` over the fold's `m` training positions
    /// ([`crate::forest::draw_positions`]), so folds of equal size draw
    /// the same positions, for every weight point. The work runs tree →
    /// fold → weight point: one draw per (training size, tree), the drawn
    /// targets summed per key once per (fold, tree), which every weight
    /// point's tree grows from. Test predictions are summed per distinct
    /// value, so no CV forest is ever stored.
    pub(crate) fn run(&self, last: bool, helper: Helper) -> Outcome {
        let schedule = Schedule::cross_validation(
            &self.features,
            self.config.folds,
            &self.keys,
            &self.ys,
            self.config.forest,
            last,
        );
        units::run(&schedule, helper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthesize, CrosstalkKind, SynthConfig};
    use crate::units::Wait;
    use youtiao_chip::surface::SurfaceCode;
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
        // Checked when the fit starts, not by the forest's assert.
        let mut no_trees = FitConfig::fast();
        no_trees.forest.num_trees = 0;
        assert_eq!(
            fit_crosstalk_model(&samples, &no_trees).unwrap_err(),
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

    /// One fit's bits, recorded from the recursive grower that the
    /// level-by-level one replaced: the chosen `w_phy`, the model's CV
    /// MSE, an FNV-1a digest of the final model's predictions
    /// ([`prediction_digest`]) and every weight point's CV MSE.
    struct Pin {
        chip: fn() -> Chip,
        seed: u64,
        w_phy: u64,
        cv_mse: u64,
        predictions: u64,
        points: [u64; 11],
    }

    /// The final model's predictions at every 1/64 from 0 to 25, then
    /// at −0.0, ±∞, NaN and −1, digested bit for bit.
    fn prediction_digest(model: &CrosstalkModel) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let grid = (0..=1600).map(|i| f64::from(i) / 64.0);
        let edges = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0];
        for x in grid.chain(edges) {
            for byte in model.forest().predict(x).to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Checks a pin on both fit paths: the caller alone, and the caller
    /// with its helper.
    fn assert_pinned(pin: &Pin) {
        let chip = (pin.chip)();
        let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), pin.seed);
        let grid = WeightGrid::new(&samples, &FitConfig::paper()).unwrap();
        for helper in [Helper::Off, Helper::On] {
            let what = format!(
                "{} qubits, seed {}, {helper:?}",
                chip.num_qubits(),
                pin.seed
            );
            let points: Vec<u64> = grid
                .cv_mse(helper)
                .iter()
                .map(|mse| mse.to_bits())
                .collect();
            for (point, (got, want)) in points.iter().zip(&pin.points).enumerate() {
                assert_eq!(got, want, "{what}: CV MSE of weight point {point}");
            }
            assert_eq!(points.len(), pin.points.len(), "{what}: weight points");
            let model = grid.fit(helper);
            assert_eq!(
                model.weights().w_phy().to_bits(),
                pin.w_phy,
                "{what}: w_phy"
            );
            assert_eq!(model.cv_mse().to_bits(), pin.cv_mse, "{what}: CV MSE");
            assert_eq!(
                prediction_digest(&model),
                pin.predictions,
                "{what}: predictions"
            );
        }
    }

    #[rustfmt::skip]
    const PINS: [Pin; 8] = [
        Pin { chip: || SurfaceCode::rotated(5).into_chip(), seed: 3, w_phy: 0x3fb999999999999a, cv_mse: 0x3dd1be206674cf58, predictions: 0x266cb1054bc08ce1,
            points: [0x3de4f6763a23e5ae, 0x3dd1be206674cf58, 0x3dd1be6ead88e6bb, 0x3dd1be6eafaf36ce, 0x3dd1bea6e60981d3, 0x3dd1beb537bf09c4, 0x3dd1bfd9b4d82f9f, 0x3dd1c24c0dd74e8d, 0x3dd1bf82cc1b2fe2, 0x3dd1ce0e92d527a1, 0x3ded007fb3e1f468] },
        Pin { chip: || SurfaceCode::rotated(5).into_chip(), seed: 41, w_phy: 0x3fe0000000000000, cv_mse: 0x3dcc652e9971e53e, predictions: 0x9b0ec3bd339bafa6,
            points: [0x3ddd5f98ecfa342e, 0x3dcc6ba7dcde174d, 0x3dcc6bd207ade84d, 0x3dcc6bd207ade84d, 0x3dcc6bea212523a3, 0x3dcc652e9971e53e, 0x3dcc688da9dad7fb, 0x3dcc693920b525f3, 0x3dcc66c99a34bd12, 0x3dcc7a552ddf61bd, 0x3de91ef8090b71b3] },
        Pin { chip: || topology::heavy_square(4, 4), seed: 3, w_phy: 0x3feccccccccccccd, cv_mse: 0x3ddcbd1396f2eeb6, predictions: 0x433b69791ad02b70,
            points: [0x3de3be4c6b6913f8, 0x3ddcbd993dc7f1d2, 0x3ddcbd993dc7f1d2, 0x3ddcbd993dc7f1d2, 0x3ddcbd993dc7f1d2, 0x3ddd06c962bc9518, 0x3ddcbd9940079630, 0x3ddcbd8e21f0572a, 0x3ddcbd46eeda1186, 0x3ddcbd1396f2eeb6, 0x3e047881277f019a] },
        Pin { chip: || topology::heavy_square(4, 4), seed: 41, w_phy: 0x3feccccccccccccd, cv_mse: 0x3dd9a1d40c00acd8, predictions: 0xfe554c12f825689d,
            points: [0x3ddedfcb67415173, 0x3dd9a367c70aa4a5, 0x3dd9a367c70aa4a5, 0x3dd9a367c70aa4a5, 0x3dd9a35e62bc6833, 0x3dd9ab7273865616, 0x3dd9a367d7e6f808, 0x3dd9a367c70aa4a5, 0x3dd9a270b9d5af3a, 0x3dd9a1d40c00acd8, 0x3e039b87cf7fbfe4] },
        Pin { chip: || topology::square_grid(8, 8), seed: 3, w_phy: 0x3feccccccccccccd, cv_mse: 0x3dc3fcfd46170092, predictions: 0xb7039a97d22417a1,
            points: [0x3ddee30d5107fcad, 0x3dc3fe5d29cbb8c7, 0x3dc3fe5d29cbb8c7, 0x3dc3fe453478ca8f, 0x3dc3fe7feaa3d4bc, 0x3dc3fe7faa00e44c, 0x3dc3fe7faa00e44c, 0x3dc3fe7faa00e44c, 0x3dc3fe7faa00e44c, 0x3dc3fcfd46170092, 0x3dc60d8885ca87ff] },
        Pin { chip: || topology::square_grid(8, 8), seed: 41, w_phy: 0x3feccccccccccccd, cv_mse: 0x3dc3ca9f64020d59, predictions: 0x52388eebeab6bfcc,
            points: [0x3dd933d0eee36662, 0x3dc3cb4f1d53265b, 0x3dc3cb4f1d53265b, 0x3dc3cb7819e56c03, 0x3dc3cb9b45fcae1d, 0x3dc3cb9f428206c6, 0x3dc3cb9f428206c6, 0x3dc3cb9f428206c6, 0x3dc3cbae680ec3fa, 0x3dc3ca9f64020d59, 0x3dc63637e4da3798] },
        Pin { chip: || topology::ibm_heavy_hex(65), seed: 3, w_phy: 0x3fb999999999999a, cv_mse: 0x3dd44640ff61175a, predictions: 0xa09bf8affcb94999,
            points: [0x3dd523a71be50f46, 0x3dd44640ff61175a, 0x3dd46288979caba6, 0x3dd48e46a13a27da, 0x3dd4c35353073ada, 0x3dd4e8f22f711608, 0x3dd58a2d82b72cf2, 0x3dd4e4648cad8342, 0x3dd4ed7b3ea4d3ba, 0x3dd599c4bbea0722, 0x3deb62d0bc115cf5] },
        Pin { chip: || topology::ibm_heavy_hex(65), seed: 41, w_phy: 0x3fb999999999999a, cv_mse: 0x3dd0ad4f07e6e562, predictions: 0xf02f098822e2383c,
            points: [0x3dd13f0f1a1e0c80, 0x3dd0ad4f07e6e562, 0x3dd0c80a9c935dea, 0x3dd1522a8c38e0fc, 0x3dd1835ae20f912d, 0x3dd1ba7880637029, 0x3dd12c76a0e09d94, 0x3dd1a2b3814c05be, 0x3dd1fa3227455f31, 0x3dd2858e1990e2f9, 0x3de7d344cc9ac4de] },
    ];

    #[rustfmt::skip]
    const HEAVY_HEX_127_PINS: [Pin; 2] = [
        Pin { chip: || topology::ibm_heavy_hex(127), seed: 3, w_phy: 0x3fb999999999999a, cv_mse: 0x3dc82831456c6d2a, predictions: 0xc30803f89ae88d85,
            points: [0x3dc998dc117ec206, 0x3dc82831456c6d2a, 0x3dc875bda91e15de, 0x3dce84de4dd3ebdd, 0x3dc8bb56840d3107, 0x3dcbbb255e4cffeb, 0x3dc94fd933c28ba1, 0x3dcb7c31b1f46063, 0x3dc9b579bc7c81bb, 0x3dcb7ec1131207c8, 0x3de09597a52daf0b] },
        Pin { chip: || topology::ibm_heavy_hex(127), seed: 41, w_phy: 0x3fb999999999999a, cv_mse: 0x3dc34cc21c4be76f, predictions: 0x9920069ca94b34b6,
            points: [0x3dc42a3ec9db3391, 0x3dc34cc21c4be76f, 0x3dc39ceae4a4f136, 0x3dc52f2ab83721fa, 0x3dc37d64a04cda5e, 0x3dc6f805e400046b, 0x3dc40eae81fe3ffc, 0x3dc4712578c5a4da, 0x3dc4bd4cd77ef9d2, 0x3dc4722f2fccc642, 0x3ddb36075852b465] },
    ];

    #[test]
    fn fits_keep_their_recorded_bits() {
        PINS.iter().for_each(assert_pinned);
    }

    #[test]
    #[ignore = "two 127-qubit paper fits are slow in debug builds; run with --release"]
    fn heavy_hex_127_fits_keep_their_recorded_bits() {
        HEAVY_HEX_127_PINS.iter().for_each(assert_pinned);
    }

    /// The helper holds the first unit of each pass: the CV's after
    /// summing its draw, so fold 0's later trees wait for it and the
    /// caller blocks on the scores; the final forest's before, until the
    /// caller blocks on the unit's position list. The bits are the pinned
    /// ones.
    #[test]
    fn a_helper_held_inside_a_unit_keeps_the_bits() {
        let pin = &PINS[4];
        let chip = (pin.chip)();
        let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), pin.seed);
        let grid = WeightGrid::new(&samples, &FitConfig::paper()).unwrap();
        let mut outcome = grid.run(true, Helper::Hold);
        let blocked = std::mem::take(&mut outcome.blocked);
        assert!(blocked.contains(&Wait::Scores), "{blocked:?}");
        // The final forest's draws follow the CV's, one per tree; its
        // third reuses the list of its first.
        let third = FitConfig::paper().forest.num_trees + 2;
        assert!(blocked.contains(&Wait::Free(third)), "{blocked:?}");
        let points: Vec<u64> = outcome.scores.iter().map(|mse| mse.to_bits()).collect();
        assert_eq!(points, pin.points);
        let model = grid.model(outcome);
        assert_eq!(model.weights().w_phy().to_bits(), pin.w_phy);
        assert_eq!(model.cv_mse().to_bits(), pin.cv_mse);
        assert_eq!(prediction_digest(&model), pin.predictions);
    }

    #[test]
    fn error_display_is_informative() {
        let e = FitError::NotEnoughSamples {
            available: 1,
            required: 5,
        };
        assert!(e.to_string().contains("5"));
        assert!(FitError::InvalidConfig.to_string().contains("folds"));
        assert!(FitError::InvalidConfig.to_string().contains("num_trees"));
    }
}
