//! Test oracles: the straightforward tree builder, forest and
//! cross-validation loop the production fit replaced, kept to pin the
//! production fit to them bit for bit (DESIGN.md §4l).
//!
//! Each oracle tree copies and comparison-sorts its sample and rescans
//! it at every node; each oracle forest keeps its trees and averages
//! their walks; the oracle CV draws fresh bootstraps for every weight
//! point.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::EquivalentWeights;

use crate::data::CrosstalkSample;
use crate::fit::{FitConfig, FitError};
use crate::forest::RandomForestConfig;
use crate::stats::mse;
use crate::tree::TreeConfig;

#[derive(Debug)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A regression tree grown by sorting and rescanning.
#[derive(Debug)]
pub(crate) struct Tree {
    root: Node,
}

impl Tree {
    pub(crate) fn fit(xs: &[f64], ys: &[f64], config: TreeConfig) -> Self {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let sx: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
        let sy: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        Tree {
            root: build(&sx, &sy, 0, config),
        }
    }

    pub(crate) fn predict(&self, x: f64) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    threshold,
                    left,
                    right,
                } => node = if x <= *threshold { left } else { right },
            }
        }
    }

    pub(crate) fn thresholds(&self) -> Vec<f64> {
        fn walk(node: &Node, out: &mut Vec<f64>) {
            if let Node::Split {
                threshold,
                left,
                right,
            } = node
            {
                out.push(*threshold);
                walk(left, out);
                walk(right, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

fn build(xs: &[f64], ys: &[f64], depth: usize, config: TreeConfig) -> Node {
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    if depth >= config.max_depth || ys.len() < config.min_samples_split {
        return Node::Leaf { prediction: mean };
    }
    match best_split(xs, ys) {
        None => Node::Leaf { prediction: mean },
        Some(split_idx) => {
            let threshold = (xs[split_idx - 1] + xs[split_idx]) / 2.0;
            let left = build(&xs[..split_idx], &ys[..split_idx], depth + 1, config);
            let right = build(&xs[split_idx..], &ys[split_idx..], depth + 1, config);
            Node::Split {
                threshold,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }
}

fn best_split(xs: &[f64], ys: &[f64]) -> Option<usize> {
    let n = ys.len();
    let total_sum: f64 = ys.iter().sum();
    let total_sq: f64 = ys.iter().map(|y| y * y).sum();
    let parent_sse = total_sq - total_sum * total_sum / n as f64;

    let mut best: Option<(usize, f64)> = None;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    for i in 1..n {
        left_sum += ys[i - 1];
        left_sq += ys[i - 1] * ys[i - 1];
        if xs[i - 1] == xs[i] {
            continue;
        }
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let sse = (left_sq - left_sum * left_sum / i as f64)
            + (right_sq - right_sum * right_sum / (n - i) as f64);
        if best.map_or(sse < parent_sse - 1e-15, |(_, b)| sse < b) {
            best = Some((i, sse));
        }
    }
    best.map(|(i, _)| i)
}

/// A bagged forest that keeps its trees and walks every one.
#[derive(Debug)]
pub(crate) struct Forest {
    pub(crate) trees: Vec<Tree>,
}

impl Forest {
    pub(crate) fn fit(xs: &[f64], ys: &[f64], config: RandomForestConfig) -> Self {
        let n = xs.len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.num_trees);
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        for _ in 0..config.num_trees {
            for i in 0..n {
                let j = rng.gen_range(0..n);
                bx[i] = xs[j];
                by[i] = ys[j];
            }
            trees.push(Tree::fit(&bx, &by, config.tree));
        }
        Forest { trees }
    }

    pub(crate) fn predict(&self, x: f64) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }
}

/// The oracle fit: the chosen weights, their CV MSE and the final forest.
pub(crate) fn fit(
    samples: &[CrosstalkSample],
    config: &FitConfig,
) -> Result<(EquivalentWeights, f64, Forest), FitError> {
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
    let mut best: Option<(EquivalentWeights, f64)> = None;
    for i in 0..=config.weight_steps {
        let w_phy = i as f64 / config.weight_steps as f64;
        let w_top = 1.0 - w_phy;
        let Ok(weights) = EquivalentWeights::new(w_phy, w_top) else {
            continue;
        };
        let score = cv_mse(&usable, weights, config);
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((weights, score));
        }
    }
    let (weights, score) = best.expect("weight grid is non-empty");
    let xs: Vec<f64> = usable
        .iter()
        .map(|s| weights.combine(s.d_phy, s.d_top))
        .collect();
    let ys: Vec<f64> = usable.iter().map(|s| s.value).collect();
    Ok((weights, score, Forest::fit(&xs, &ys, config.forest)))
}

fn cv_mse(samples: &[&CrosstalkSample], weights: EquivalentWeights, config: &FitConfig) -> f64 {
    let n = samples.len();
    let mut total = 0.0;
    let mut folds_used = 0usize;
    for fold in 0..config.folds {
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            let x = weights.combine(s.d_phy, s.d_top);
            if i % config.folds == fold {
                test_x.push(x);
                test_y.push(s.value);
            } else {
                train_x.push(x);
                train_y.push(s.value);
            }
        }
        if train_x.is_empty() || test_x.is_empty() {
            continue;
        }
        let forest = Forest::fit(&train_x, &train_y, config.forest);
        let preds: Vec<f64> = test_x.iter().map(|&x| forest.predict(x)).collect();
        total += mse(&preds, &test_y);
        folds_used += 1;
    }
    if folds_used == 0 {
        f64::INFINITY
    } else {
        total / folds_used as f64
    }
    .max(if n == 0 { f64::INFINITY } else { 0.0 })
}

/// Differential tests: the production fit against the oracles.
mod tests {
    use super::*;
    use crate::data::{synthesize, CrosstalkKind, SynthConfig};
    use crate::fit::WeightGrid;
    use crate::forest::RandomForest;
    use crate::model::CrosstalkModel;
    use crate::tree::RegressionTree;
    use crate::units::Helper;
    use youtiao_chip::surface::SurfaceCode;
    use youtiao_chip::{topology, Chip};

    /// Every threshold, its neighbours one ulp away, the signed zeros,
    /// the infinities, NaN, and the extra points given.
    fn probes(thresholds: &[f64], extra: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for &t in thresholds {
            out.extend([t, t.next_up(), t.next_down()]);
        }
        out.extend_from_slice(extra);
        out
    }

    /// The largest relative difference from the oracle a CV MSE or a
    /// prediction may show (DESIGN.md §4l).
    const TOL: f64 = 1e-12;

    fn assert_close(what: &str, x: f64, got: f64, want: f64) {
        let close = got == want
            || (got.is_nan() && want.is_nan())
            || (got - want).abs() <= TOL * want.abs();
        assert!(close, "{what} at x = {x:e}: got {got:e}, oracle {want:e}");
    }

    fn assert_tree_matches(xs: &[f64], ys: &[f64], config: TreeConfig) {
        let got = RegressionTree::fit(xs, ys, config);
        let want = Tree::fit(xs, ys, config);
        for x in probes(&want.thresholds(), xs) {
            assert_close("tree", x, got.predict(x), want.predict(x));
        }
    }

    fn assert_forest_matches(xs: &[f64], ys: &[f64], config: RandomForestConfig) {
        assert_forest_close(
            xs,
            &RandomForest::fit(xs, ys, config),
            &Forest::fit(xs, ys, config),
        );
    }

    fn assert_forest_close(xs: &[f64], got: &RandomForest, want: &Forest) {
        let thresholds: Vec<f64> = want.trees.iter().flat_map(Tree::thresholds).collect();
        for x in probes(&thresholds, xs) {
            assert_close("forest", x, got.predict(x), want.predict(x));
        }
    }

    /// Both fit paths: the caller alone, and the caller with its helper.
    const PATHS: [Helper; 2] = [Helper::Off, Helper::On];

    /// Every point's CV MSE is within the tolerance of the oracle's, and
    /// bit-equal on both fit paths.
    fn assert_cv_matches(samples: &[CrosstalkSample], config: &FitConfig) {
        let grid = match WeightGrid::new(samples, config) {
            Ok(grid) => grid,
            Err(e) => {
                assert_eq!(fit(samples, config).err(), Some(e));
                return;
            }
        };
        let usable: Vec<&CrosstalkSample> = samples
            .iter()
            .filter(|s| s.d_phy.is_finite() && s.d_top.is_finite() && s.value.is_finite())
            .collect();
        let [alone, helped] = PATHS.map(|helper| grid.cv_mse(helper));
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&alone), bits(&helped), "CV MSE bits across fit paths");
        for ((weights, got), point) in grid.weights().zip(alone).zip(0..) {
            assert_close(
                "CV MSE",
                point as f64,
                got,
                cv_mse(&usable, weights, config),
            );
        }
    }

    /// The fit on both paths against the oracle: bit-equal weights, CV
    /// MSE and predictions within the tolerance, and the two paths
    /// bit-equal.
    fn assert_fit_matches(samples: &[CrosstalkSample], config: &FitConfig) {
        let (grid, (weights, score, forest)) =
            match (WeightGrid::new(samples, config), fit(samples, config)) {
                (Ok(grid), Ok(want)) => (grid, want),
                (got, want) => {
                    assert_eq!(got.err(), want.err());
                    return;
                }
            };
        let xs: Vec<f64> = samples
            .iter()
            .map(|s| weights.combine(s.d_phy, s.d_top))
            .collect();
        let thresholds: Vec<f64> = forest.trees.iter().flat_map(Tree::thresholds).collect();
        let probes = probes(&thresholds, &xs);
        let models = PATHS.map(|helper| grid.fit(helper));
        let bits = |model: &CrosstalkModel| -> Vec<u64> {
            let predictions = probes.iter().map(|&x| model.forest().predict(x));
            std::iter::once(model.cv_mse())
                .chain(predictions)
                .map(f64::to_bits)
                .collect()
        };
        assert!(
            bits(&models[0]) == bits(&models[1]),
            "bits across fit paths"
        );
        for model in &models {
            assert_eq!(model.weights().w_phy().to_bits(), weights.w_phy().to_bits());
            assert_eq!(model.weights().w_top().to_bits(), weights.w_top().to_bits());
            assert_close("cv_mse", f64::NAN, model.cv_mse(), score);
            for &x in &probes {
                assert_close("model", x, model.forest().predict(x), forest.predict(x));
            }
        }
    }

    fn assert_chip_matches(chip: &Chip, config: &FitConfig) {
        let samples = synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
        assert_fit_matches(&samples, config);
    }

    /// A release-only chip: the fit and its CV, under both
    /// configurations.
    fn assert_large_chip_matches(chip: &Chip) {
        let samples = synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
        assert_all_match(&samples, &FitConfig::fast());
        assert_all_match(&samples, &FitConfig::paper());
    }

    /// The fit and its CV against the oracle.
    fn assert_all_match(samples: &[CrosstalkSample], config: &FitConfig) {
        assert_fit_matches(samples, config);
        assert_cv_matches(samples, config);
    }

    fn sample(d_phy: f64, d_top: f64, value: f64) -> CrosstalkSample {
        CrosstalkSample {
            target: 0u32.into(),
            spectator: 1u32.into(),
            d_phy,
            d_top,
            value,
        }
    }

    #[test]
    fn small_chips_fit_like_the_oracle() {
        let chips = [
            topology::square_grid(4, 4),
            topology::square_grid(6, 6),
            topology::heavy_square(2, 2),
            SurfaceCode::rotated(3).into_chip(),
            topology::heavy_hexagon(1, 2),
        ];
        for chip in &chips {
            assert_chip_matches(chip, &FitConfig::fast());
            assert_chip_matches(chip, &FitConfig::paper());
        }
    }

    #[test]
    #[ignore = "the oracle's 40-qubit paper fit is too slow in debug builds; run with --release"]
    fn heavy_square_4x4_fits_like_the_oracle() {
        assert_large_chip_matches(&topology::heavy_square(4, 4));
    }

    #[test]
    #[ignore = "the oracle's 49-qubit paper fit is too slow in debug builds; run with --release"]
    fn surface_d5_fits_like_the_oracle() {
        assert_large_chip_matches(&SurfaceCode::rotated(5).into_chip());
    }

    #[test]
    #[ignore = "the oracle's 64-qubit paper fit is too slow in debug builds; run with --release"]
    fn square_8x8_fits_like_the_oracle() {
        assert_large_chip_matches(&topology::square_grid(8, 8));
    }

    #[test]
    #[ignore = "the oracle's 65-qubit paper fit is too slow in debug builds; run with --release"]
    fn heavy_hex_65_fits_like_the_oracle() {
        assert_large_chip_matches(&topology::ibm_heavy_hex(65));
    }

    #[test]
    #[ignore = "the oracle's 100-qubit paper fit is too slow in debug builds; run with --release"]
    fn square_10x10_fits_like_the_oracle() {
        assert_large_chip_matches(&topology::square_grid(10, 10));
    }

    /// 773 distance classes that merge into 113–639 values, depending on
    /// the weights.
    #[test]
    #[ignore = "the oracle's 127-qubit paper fit is too slow in debug builds; run with --release"]
    fn heavy_hex_127_fits_like_the_oracle() {
        assert_large_chip_matches(&topology::ibm_heavy_hex(127));
    }

    #[test]
    fn small_chips_cross_validate_like_the_oracle() {
        let chips = [
            topology::square_grid(4, 4),
            topology::heavy_square(2, 2),
            topology::heavy_hexagon(1, 2),
        ];
        for chip in &chips {
            let samples = synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
            assert_cv_matches(&samples, &FitConfig::fast());
            assert_cv_matches(&samples, &FitConfig::paper());
        }
    }

    #[test]
    fn sample_counts_on_and_off_the_fold_count_fit_like_the_oracle() {
        // Repeating distance classes; 30 is a multiple of both fold
        // counts (3 in `fast()`, 5 in `paper()`), 31–34 cover every other
        // remainder, so folds train on one size or on two.
        let ramp = |i: usize| {
            let d_phy = (i % 6) as f64 * 0.5 + 1.0;
            let d_top = (i % 4 + 1) as f64;
            sample(
                d_phy,
                d_top,
                1e-3 / (1.0 + d_phy * d_top) + (i % 7) as f64 * 1e-6,
            )
        };
        let all: Vec<CrosstalkSample> = (0..34).map(ramp).collect();
        for n in 30..=34 {
            assert_all_match(&all[..n], &FitConfig::fast());
            assert_all_match(&all[..n], &FitConfig::paper());
        }
    }

    #[test]
    fn classes_tying_at_some_weights_fit_like_the_oracle() {
        // (1,3), (3,1) and (2,2) tie at w_phy = ½ only; d and the next
        // float up tie wherever the weights round them together.
        let d = 2.0_f64;
        let classes = [
            (1.0, 3.0),
            (3.0, 1.0),
            (2.0, 2.0),
            (d, 5.0),
            (d.next_up(), 5.0),
            (4.0, d),
            (4.0, d.next_up()),
            (1.5, 1.5f64.next_down()),
        ];
        let samples: Vec<CrosstalkSample> = (0..48)
            .map(|i| {
                let (d_phy, d_top) = classes[(i * 5) % classes.len()];
                sample(d_phy, d_top, 1e-4 * (1 + i % 5) as f64 / (d_phy + d_top))
            })
            .collect();
        assert_all_match(&samples, &FitConfig::fast());
        assert_all_match(&samples, &FitConfig::paper());
    }

    #[test]
    fn zero_trees_is_an_invalid_config_on_both_sides() {
        let samples: Vec<CrosstalkSample> = (0..12)
            .map(|i| sample(i as f64, 1.0, 1e-4 / (1 + i) as f64))
            .collect();
        let mut config = FitConfig::fast();
        config.forest.num_trees = 0;
        assert_eq!(fit(&samples, &config).err(), Some(FitError::InvalidConfig));
        assert_all_match(&samples, &config);
    }

    #[test]
    fn degenerate_samples_fit_like_the_oracle() {
        let ramp = |i: usize| sample(i as f64 * 0.3, (i % 7) as f64, 1e-4 / (1 + i) as f64);
        // All x equal under every weight point.
        let flat: Vec<CrosstalkSample> = (0..40)
            .map(|i| sample(1.0, 2.0, (i % 5) as f64 * 1e-5))
            .collect();
        // Exactly as many samples as folds.
        let minimal: Vec<CrosstalkSample> = (0..5).map(ramp).collect();
        // Every sample twice, back to back.
        let doubled: Vec<CrosstalkSample> = (0..30).flat_map(|i| [ramp(i), ramp(i)]).collect();
        // Zero, negative-zero and negative targets.
        let signed: Vec<CrosstalkSample> = (0..36)
            .map(|i| {
                let value = [0.0, -0.0, -1e-5, 2e-5][i % 4];
                sample((i / 4) as f64, (i % 3) as f64, value)
            })
            .collect();
        let all_negative_zero: Vec<CrosstalkSample> =
            (0..24).map(|i| sample(i as f64, 1.0, -0.0)).collect();
        for samples in [&flat, &minimal, &doubled, &signed, &all_negative_zero] {
            assert_all_match(samples, &FitConfig::fast());
            assert_all_match(samples, &FitConfig::paper());
        }
        assert_fit_matches(&minimal[..4], &FitConfig::paper());
    }

    #[test]
    fn tree_and_forest_unit_inputs_match_the_oracle() {
        let cases: Vec<(Vec<f64>, Vec<f64>, TreeConfig)> = vec![
            (vec![1.0], vec![3.5], TreeConfig::default()),
            (
                (0..50).map(|i| i as f64).collect(),
                vec![2.0; 50],
                TreeConfig::default(),
            ),
            (
                vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0],
                vec![4.0, 4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0],
                TreeConfig::default(),
            ),
            (
                vec![12.0, 0.0, 11.0, 1.0, 13.0, 2.0, 10.0, 3.0],
                vec![-1.0, 4.0, -1.0, 4.0, -1.0, 4.0, -1.0, 4.0],
                TreeConfig::default(),
            ),
            (
                (0..128).map(|i| i as f64).collect(),
                (0..128).map(|i| (i as f64).sin()).collect(),
                TreeConfig {
                    max_depth: 3,
                    min_samples_split: 2,
                },
            ),
            (
                (0..8).map(|i| i as f64).collect(),
                (0..8).map(|i| i as f64 * 2.0).collect(),
                TreeConfig {
                    max_depth: 20,
                    min_samples_split: 9,
                },
            ),
            (
                vec![1.0, 1.0, 1.0, 1.0],
                vec![0.0, 10.0, 0.0, 10.0],
                TreeConfig::default(),
            ),
            (
                (0..200).map(|i| i as f64 / 20.0).collect(),
                (0..200).map(|i| (-(i as f64) / 20.0).exp()).collect(),
                TreeConfig::default(),
            ),
            (
                (0..150).map(|i| (i * 8) as f64 / 150.0).collect(),
                (0..150)
                    .map(|i| {
                        (-((i * 8) as f64) / 150.0).exp()
                            * (1.0 + 0.1 * ((i * 37 % 17) as f64 / 17.0 - 0.5))
                    })
                    .collect(),
                TreeConfig::default(),
            ),
        ];
        for (xs, ys, tree) in &cases {
            assert_tree_matches(xs, ys, *tree);
            for num_trees in [1, 8, 30, 50] {
                let config = RandomForestConfig {
                    num_trees,
                    tree: *tree,
                    ..Default::default()
                };
                assert_forest_matches(xs, ys, config);
            }
        }
    }

    /// Signed zeros, infinities and NaNs among the features: samples 2
    /// and 8 share a NaN bit pattern, sample 6 is a negative NaN.
    fn signed_zeros_infinities_and_nans() -> (Vec<f64>, Vec<f64>, TreeConfig) {
        let xs = vec![
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            -0.0,
            f64::NEG_INFINITY,
            -f64::NAN,
            2.0,
            f64::NAN,
            0.0,
            f64::INFINITY,
            2.0,
        ];
        let ys = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, -0.0, 0.0, 1.5];
        let tree = TreeConfig {
            max_depth: 6,
            min_samples_split: 2,
        };
        (xs, ys, tree)
    }

    /// The oracle forest with every bootstrap listed in sample order
    /// rather than draw order.
    fn forest_in_key_order(xs: &[f64], ys: &[f64], config: RandomForestConfig) -> Forest {
        let n = xs.len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let trees = (0..config.num_trees)
            .map(|_| {
                let mut drawn: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                drawn.sort_unstable();
                let bx: Vec<f64> = drawn.iter().map(|&j| xs[j]).collect();
                let by: Vec<f64> = drawn.iter().map(|&j| ys[j]).collect();
                Tree::fit(&bx, &by, config.tree)
            })
            .collect();
        Forest { trees }
    }

    /// The one input on which the grower and the oracle grow different
    /// trees: a bootstrap that draws a NaN-feature sample twice, as
    /// the forests of 8 or more trees on the signed-zero/±∞/NaN input
    /// do. The oracle lists NaN elements in draw order, each its own
    /// bucket (NaN != NaN), so it may split between two copies of one
    /// sample or between samples 2 and 8 drawn in turn. The grower sums
    /// a sample's copies under its key: they share a bucket, and keys
    /// of one NaN bit pattern come in key order. So its forests match
    /// the oracle on bootstraps listed in sample order instead.
    #[test]
    fn forests_drawing_a_nan_sample_twice_keep_its_copies_in_one_bucket() {
        let (xs, ys, tree) = signed_zeros_infinities_and_nans();
        assert_tree_matches(&xs, &ys, tree);
        for num_trees in [1, 8, 30, 50] {
            let config = RandomForestConfig {
                num_trees,
                tree,
                ..Default::default()
            };
            let got = RandomForest::fit(&xs, &ys, config);
            assert_forest_close(&xs, &got, &forest_in_key_order(&xs, &ys, config));
            // One tree draws no NaN sample twice and matches the oracle;
            // from 8 trees on, draw order moves the oracle's trees.
            let oracle = Forest::fit(&xs, &ys, config);
            if num_trees == 1 {
                assert_forest_close(&xs, &got, &oracle);
            } else {
                let moved = probes(&[], &xs)
                    .into_iter()
                    .any(|x| (got.predict(x) - oracle.predict(x)).abs() > 1e-3);
                assert!(moved, "{num_trees} trees");
            }
        }
    }
}
