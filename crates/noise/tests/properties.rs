//! Property tests for the regression stack and statistics. Each
//! property runs over `CASES` inputs drawn from seeded ChaCha8 streams,
//! so every run checks the same cases, and a failure names its case.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_noise::forest::{RandomForest, RandomForestConfig};
use youtiao_noise::stats::{js_divergence, js_divergence_of_samples, mse, Histogram};
use youtiao_noise::tree::{RegressionTree, TreeConfig};

/// Inputs per property.
const CASES: u64 = 48;

/// Runs `property` on case `0..CASES`, each with its own stream.
fn for_each_case(mut property: impl FnMut(u64, &mut ChaCha8Rng)) {
    for case in 0..CASES {
        property(case, &mut ChaCha8Rng::seed_from_u64(case));
    }
}

/// `len` values drawn uniformly from `lo..hi`.
fn uniform(rng: &mut ChaCha8Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn bounds(ys: &[f64]) -> (f64, f64) {
    let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Tree predictions never leave the convex hull of the training
/// targets (each leaf predicts a mean).
#[test]
fn tree_predictions_bounded() {
    for_each_case(|case, rng| {
        let (xs, ys) = (
            uniform(rng, 24, -100.0, 100.0),
            uniform(rng, 24, -100.0, 100.0),
        );
        let probe = rng.gen_range(-200.0..200.0);
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        let (lo, hi) = bounds(&ys);
        let p = tree.predict(probe);
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "case {case}: {p} outside [{lo}, {hi}]"
        );
    });
}

/// Forest predictions are likewise bounded (means of tree means).
#[test]
fn forest_predictions_bounded() {
    for_each_case(|case, rng| {
        let (xs, ys) = (
            uniform(rng, 16, -100.0, 100.0),
            uniform(rng, 16, -100.0, 100.0),
        );
        let probe = rng.gen_range(-200.0..200.0);
        let config = RandomForestConfig {
            num_trees: 5,
            ..Default::default()
        };
        let forest = RandomForest::fit(&xs, &ys, config);
        let (lo, hi) = bounds(&ys);
        let p = forest.predict(probe);
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "case {case}: {p} outside [{lo}, {hi}]"
        );
    });
}

/// A tree with unlimited depth interpolates distinct training points
/// exactly.
#[test]
fn deep_tree_interpolates() {
    for_each_case(|case, rng| {
        let ys = uniform(rng, 8, -10.0, 10.0);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let config = TreeConfig {
            max_depth: 32,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&xs, &ys, config);
        for (x, y) in xs.iter().zip(&ys) {
            assert!(
                (tree.predict(*x) - y).abs() < 1e-9,
                "case {case} at x = {x}"
            );
        }
    });
}

/// MSE is non-negative and zero for identical vectors.
#[test]
fn mse_properties() {
    for_each_case(|case, rng| {
        let (a, b) = (
            uniform(rng, 12, -100.0, 100.0),
            uniform(rng, 12, -100.0, 100.0),
        );
        assert!(mse(&a, &b) >= 0.0, "case {case}");
        assert_eq!(mse(&a, &a), 0.0, "case {case}");
    });
}

/// Histograms are normalized probability vectors.
#[test]
fn histogram_normalizes() {
    for_each_case(|case, rng| {
        let len = rng.gen_range(1..60);
        let values = uniform(rng, len, -5.0, 5.0);
        let bins = rng.gen_range(1usize..20);
        let h = Histogram::build(&values, -5.0, 5.0, bins);
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
        assert!(
            h.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)),
            "case {case}"
        );
    });
}

/// JS divergence is symmetric and bounded in [0, 1] bits.
#[test]
fn js_divergence_bounds() {
    let normalized = |v: Vec<f64>| -> Vec<f64> {
        let s: f64 = v.iter().sum();
        v.iter().map(|x| x / s).collect()
    };
    for_each_case(|case, rng| {
        let p = normalized(uniform(rng, 6, 0.01, 1.0));
        let q = normalized(uniform(rng, 6, 0.01, 1.0));
        let d = js_divergence(&p, &q);
        assert!((0.0..=1.0 + 1e-9).contains(&d), "case {case}: {d}");
        assert!((d - js_divergence(&q, &p)).abs() < 1e-12, "case {case}");
        assert!(js_divergence(&p, &p).abs() < 1e-12, "case {case}");
    });
}

/// Sample-level JS of a distribution with itself is zero.
#[test]
fn js_samples_self_zero() {
    for_each_case(|case, rng| {
        let len = rng.gen_range(2..40);
        let values = uniform(rng, len, -3.0, 3.0);
        assert!(
            js_divergence_of_samples(&values, &values, 8) < 1e-12,
            "case {case}"
        );
    });
}
