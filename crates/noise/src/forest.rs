//! Bootstrap-aggregated regression forests.
//!
//! Bagging many [`RegressionTree`]s smooths the step-wise predictions of a
//! single tree and is the regressor the paper uses for crosstalk fitting.
//!
//! A fitted forest is stored compiled: every tree is a step function of
//! the one feature, so their mean is one too. The forest keeps the union
//! of the trees' thresholds and the mean prediction on each interval
//! between them, and predicts with one binary search.

use std::cmp::Ordering;

use rand::RngCore;

use crate::tree::{RankedFeature, RegressionTree, TreeConfig};
use crate::units::{self, Helper, Schedule};

/// Replaces `out` with `m` draws of `rng.gen_range(0..m)`, taking the
/// same words from `rng`: rand 0.8's widening multiply, rejecting low
/// halves above the zone. Rather than branch on each rejected word, it
/// writes every candidate (into one spare slot after the last
/// acceptance) and adds the accept bit to the write index.
///
/// # Panics
///
/// Panics if `m` is 0 (as `gen_range(0..0)` does) or above `u32::MAX`.
pub(crate) fn draw_positions(rng: &mut impl RngCore, m: usize, out: &mut Vec<u32>) {
    assert!(m > 0, "gen_range: empty range");
    let span = u64::from(u32::try_from(m).expect("bootstrap positions fit in u32"));
    let zone = (span << span.leading_zeros()).wrapping_sub(1);
    out.resize(m + 1, 0);
    let mut filled = 0;
    while filled < m {
        let product = u128::from(rng.next_u64()) * u128::from(span);
        out[filled] = (product >> 64) as u32;
        filled += usize::from(product as u64 <= zone);
    }
    out.truncate(m);
}

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub num_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Seed for bootstrap resampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            num_trees: 30,
            tree: TreeConfig::default(),
            seed: 0x464F_5245,
        }
    }
}

/// A fitted bootstrap-aggregated regression forest over one feature.
///
/// # Example
///
/// ```
/// use youtiao_noise::forest::{RandomForest, RandomForestConfig};
///
/// let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
/// let forest = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
/// assert!((forest.predict(5.0) - 11.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    /// The trees' distinct split thresholds, ascending. A NaN threshold
    /// sends every input right, so it bounds no interval and is dropped.
    thresholds: Vec<f64>,
    /// `values[j]` is the forest's prediction for every `x` with
    /// `thresholds[j - 1] < x <= thresholds[j]`; the last entry covers
    /// everything above the top threshold, NaN included.
    values: Vec<f64>,
    num_trees: usize,
}

impl RandomForest {
    /// Fits the forest on `(x, y)` pairs with bootstrap resampling.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, have mismatched lengths or more than
    /// `u32::MAX` elements, or if `config.num_trees == 0`.
    pub fn fit(xs: &[f64], ys: &[f64], config: RandomForestConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
        assert!(config.num_trees > 0, "forest needs at least one tree");
        let feature = RankedFeature::new(xs);
        let keys: Vec<u32> = (0..feature.num_keys() as u32).collect();
        let schedule = Schedule::forest(&feature, &keys, ys, config);
        units::run(&schedule, Helper::Off)
            .forest
            .expect("a forest schedule grows its forest")
    }

    /// Compiles trees into one step function. Every `x` in an interval
    /// takes the same branch at every threshold as the interval's right
    /// end, so one sweep of each tree's leaves over the right ends gives
    /// every interval's value.
    pub(crate) fn compile(trees: &[RegressionTree]) -> Self {
        let mut thresholds: Vec<f64> = trees
            .iter()
            .flat_map(RegressionTree::thresholds)
            .filter(|t| !t.is_nan())
            .collect();
        thresholds.sort_unstable_by(f64::total_cmp);
        // −0.0 and +0.0 split alike; keep one.
        thresholds.dedup_by(|a, b| a == b);
        // NaN fails every `x <= t`, as any x above the top threshold does.
        // Summing in tree order from −0.0 (`Iterator::sum`) makes each
        // value the bit-exact mean of the trees' own predictions.
        thresholds.push(f64::NAN);
        let mut values = vec![-0.0; thresholds.len()];
        for tree in trees {
            tree.add_predictions(&thresholds, &mut values);
        }
        thresholds.pop();
        values.iter_mut().for_each(|v| *v /= trees.len() as f64);
        RandomForest {
            thresholds,
            values,
            num_trees: trees.len(),
        }
    }

    /// Predicts the mean of all trees' predictions for feature `x`.
    pub fn predict(&self, x: f64) -> f64 {
        // Trees send `x` left at a threshold `t` iff `x <= t`; above
        // `t` or unordered with it (NaN), `x` goes right.
        let right = |t: &f64| matches!(x.partial_cmp(t), Some(Ordering::Greater) | None);
        self.values[self.thresholds.partition_point(right)]
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn noisy_exp_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-noise so the test is stable.
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (-x).exp() * (1.0 + 0.1 * ((i * 37 % 17) as f64 / 17.0 - 0.5)))
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_is_deterministic_for_seed() {
        let (xs, ys) = noisy_exp_data(100);
        let a = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        let b = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        assert_eq!(a.predict(3.0), b.predict(3.0));
    }

    #[test]
    fn forest_fits_decaying_curve() {
        let (xs, ys) = noisy_exp_data(200);
        let forest = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        for &x in &[0.5, 1.5, 3.0, 6.0] {
            assert!((forest.predict(x) - (-x).exp()).abs() < 0.08, "at x={x}");
        }
    }

    #[test]
    fn more_trees_smooths_prediction() {
        let (xs, ys) = noisy_exp_data(150);
        let small = RandomForest::fit(
            &xs,
            &ys,
            RandomForestConfig {
                num_trees: 1,
                ..Default::default()
            },
        );
        let large = RandomForest::fit(
            &xs,
            &ys,
            RandomForestConfig {
                num_trees: 50,
                ..Default::default()
            },
        );
        assert_eq!(small.num_trees(), 1);
        assert_eq!(large.num_trees(), 50);
        // The large forest should be at least as accurate on a grid.
        let err = |f: &RandomForest| -> f64 {
            (0..40)
                .map(|i| {
                    let x = i as f64 * 0.2;
                    (f.predict(x) - (-x).exp()).powi(2)
                })
                .sum()
        };
        assert!(err(&large) <= err(&small) * 1.5);
    }

    #[test]
    fn draw_positions_draws_as_gen_range() {
        // Rejected words per draw, from about none (7920: 3 %) to half
        // (powers of two, 16474, 2^20 + 1). The cross-validation trains
        // on spans like 3225/3226 (8x8) and 9900 (surface d9).
        let spans = [
            1,
            2,
            3,
            3225,
            3226,
            4290,
            7920,
            9900,
            16474,
            1 << 20,
            (1 << 20) + 1,
        ];
        let mut positions = Vec::new();
        // Ascending, then descending: a reused buffer is replaced whole.
        for m in spans.into_iter().chain(spans.into_iter().rev()) {
            for seed in [0x464F_5245, 7] {
                let mut bulk = ChaCha8Rng::seed_from_u64(seed);
                let mut one_by_one = bulk.clone();
                draw_positions(&mut bulk, m, &mut positions);
                let want: Vec<u32> = (0..m).map(|_| one_by_one.gen_range(0..m) as u32).collect();
                assert!(positions == want, "m = {m}, seed {seed}");
                // The bootstrap took the same words, no more and no fewer.
                assert_eq!(
                    bulk.next_u64(),
                    one_by_one.next_u64(),
                    "m = {m}, seed {seed}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn drawing_from_an_empty_range_panics() {
        draw_positions(&mut ChaCha8Rng::seed_from_u64(1), 0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "fit in u32")]
    fn spans_above_u32_are_rejected() {
        let m = u32::MAX as usize + 1;
        draw_positions(&mut ChaCha8Rng::seed_from_u64(1), m, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let _ = RandomForest::fit(
            &[1.0],
            &[1.0],
            RandomForestConfig {
                num_trees: 0,
                ..Default::default()
            },
        );
    }
}
