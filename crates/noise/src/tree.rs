//! CART regression trees over a single scalar feature.
//!
//! The paper regresses crosstalk against the scalar equivalent distance,
//! so the trees here are one-dimensional: each internal node splits on a
//! threshold of the feature, each leaf predicts the mean of its training
//! targets. Splits greedily minimize the summed squared error of the two
//! children (equivalently, maximize variance reduction).
//!
//! A fit ranks the feature once per key ([`RankedFeature`]; a key is a
//! sample, or a class of samples that share their feature value), sums
//! each tree's sample per key ([`KeySums`]: count, Σy and Σy²) and grows
//! the tree from those sums ([`Grower`]): the keys of each distinct value
//! merge into one bucket, and running sums over the buckets score every
//! candidate split. A tree needs nothing else, so no sample is sorted or
//! scanned again. DESIGN.md §4l states how close this stays to an
//! element-by-element scan of the sorted sample.

/// Hyper-parameters of a regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
        }
    }
}

/// A tree node. Nodes are stored in pre-order: a split's left child is
/// the next node and its right child sits at index `right`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Leaf { prediction: f64 },
    Split { threshold: f64, right: u32 },
}

/// A fitted one-dimensional regression tree.
///
/// # Example
///
/// ```
/// use youtiao_noise::tree::{RegressionTree, TreeConfig};
///
/// // A step function is learned exactly.
/// let xs = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
/// let ys = [5.0, 5.0, 5.0, 1.0, 1.0, 1.0];
/// let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
/// assert_eq!(tree.predict(1.5), 5.0);
/// assert_eq!(tree.predict(11.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` have different lengths or are empty.
    pub fn fit(xs: &[f64], ys: &[f64], config: TreeConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        let feature = RankedFeature::new(xs);
        let mut every = KeySums::default();
        every.refill(xs.len(), (0..).zip(ys.iter().copied()));
        Grower::default().grow(&feature, &every, config).clone()
    }

    /// Predicts the target value for feature `x`.
    pub fn predict(&self, x: f64) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                Node::Leaf { prediction } => return prediction,
                Node::Split { threshold, right } => {
                    at = if x <= threshold {
                        at + 1
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { right, .. } => {
                    1 + depth(nodes, at + 1).max(depth(nodes, right as usize))
                }
            }
        }
        depth(&self.nodes, 0)
    }

    /// The split thresholds, in pre-order.
    pub(crate) fn thresholds(&self) -> impl Iterator<Item = f64> + '_ {
        self.nodes.iter().filter_map(|n| match *n {
            Node::Split { threshold, .. } => Some(threshold),
            Node::Leaf { .. } => None,
        })
    }

    /// Adds `predict(xs[i])` to `out[i]` for every `i`, visiting the
    /// leaves once, in order. `xs` must ascend in [`f64::total_cmp`]
    /// order.
    pub(crate) fn add_predictions(&self, xs: &[f64], out: &mut [f64]) {
        // NaN goes right at every split, but a negative NaN sorts first.
        let nan = xs.partition_point(|x| x.is_nan() && x.is_sign_negative());
        let last_leaf = self.predict(f64::NAN);
        out[..nan].iter_mut().for_each(|o| *o += last_leaf);
        self.sweep(0, &xs[nan..], &mut out[nan..]);
    }

    /// [`RegressionTree::add_predictions`] below node `at`.
    fn sweep(&self, at: usize, xs: &[f64], out: &mut [f64]) {
        match self.nodes[at] {
            Node::Leaf { prediction } => out.iter_mut().for_each(|o| *o += prediction),
            Node::Split { threshold, right } => {
                // `x <= threshold` holds on a prefix of ascending xs:
                // none if the threshold is NaN, never a trailing NaN.
                let mid = xs.partition_point(|&x| x <= threshold);
                let (left_out, right_out) = out.split_at_mut(mid);
                self.sweep(at + 1, &xs[..mid], left_out);
                self.sweep(right as usize, &xs[mid..], right_out);
            }
        }
    }
}

/// A feature ranked once: its distinct values in ascending
/// [`f64::total_cmp`] order, each key's dense rank among them, and the
/// keys in rank order (keys of one rank in key order).
///
/// Equal ranks mean bit-equal values, except that every NaN key has a
/// rank of its own: NaN != NaN, so a split may fall between any two.
#[derive(Debug)]
pub(crate) struct RankedFeature {
    values: Vec<f64>,
    ranks: Vec<u32>,
    order: Vec<u32>,
}

impl RankedFeature {
    /// Ranks `xs`, the feature value of each key.
    ///
    /// # Panics
    ///
    /// Panics if `xs` has more than `u32::MAX` keys.
    pub(crate) fn new(xs: &[f64]) -> Self {
        let n = u32::try_from(xs.len()).expect("too many keys to rank");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| xs[a as usize].total_cmp(&xs[b as usize]));
        let mut values: Vec<f64> = Vec::new();
        let mut ranks = vec![0; xs.len()];
        for &i in &order {
            let x = xs[i as usize];
            // `total_cmp` equality is bit equality.
            if x.is_nan() || values.last().is_none_or(|v| v.to_bits() != x.to_bits()) {
                values.push(x);
            }
            ranks[i as usize] = values.len() as u32 - 1;
        }
        RankedFeature {
            values,
            ranks,
            order,
        }
    }

    /// Number of keys.
    pub(crate) fn num_keys(&self) -> usize {
        self.ranks.len()
    }

    /// The distinct values, ascending.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Key `key`'s index into [`RankedFeature::values`].
    pub(crate) fn rank(&self, key: u32) -> usize {
        self.ranks[key as usize] as usize
    }
}

/// A count of targets with their sum and sum of squares. Sums start at
/// −0.0, as `Iterator::sum` does, so a sum of −0.0 targets stays −0.0.
#[derive(Debug, Clone, Copy)]
struct Sums {
    n: u32,
    sum: f64,
    sq: f64,
}

impl Sums {
    const EMPTY: Sums = Sums {
        n: 0,
        sum: -0.0,
        sq: -0.0,
    };

    fn add(&mut self, other: Sums) {
        self.n += other.n;
        self.sum += other.sum;
        self.sq += other.sq;
    }
}

/// The sample a tree grows on, summed per key: how many elements carry
/// each key, and their targets' sum and sum of squares, added in list
/// order.
#[derive(Debug, Default)]
pub(crate) struct KeySums(Vec<Sums>);

impl KeySums {
    /// Replaces the sums with those of `elements`, `(key, target)`
    /// pairs whose keys are below `num_keys`.
    pub(crate) fn refill(
        &mut self,
        num_keys: usize,
        elements: impl IntoIterator<Item = (u32, f64)>,
    ) {
        self.0.clear();
        self.0.resize(num_keys, Sums::EMPTY);
        for (key, y) in elements {
            let one = Sums {
                n: 1,
                sum: y,
                sq: y * y,
            };
            self.0[key as usize].add(one);
        }
    }
}

/// Reusable buffers for growing trees over a [`RankedFeature`].
///
/// The keys of each drawn value merge into one bucket. Nodes only ever
/// split between buckets, so every node is a run of whole buckets, and
/// the running sums a node needs are read at bucket ends.
#[derive(Debug, Default)]
pub(crate) struct Grower {
    /// Feature value of each bucket.
    values: Vec<f64>,
    /// Each bucket's count and sums: its keys' sums, added in key order.
    buckets: Vec<Sums>,
    /// Running count and sums at each bucket's end, started from the
    /// first bucket of the node that last scanned the bucket.
    running: Vec<Sums>,
    /// The split score of each candidate bucket of the node being split.
    sse: Vec<f64>,
    /// The tree grown last.
    tree: RegressionTree,
}

impl Grower {
    /// Grows a tree on the sample `sums` holds, whose keys `feature`
    /// ranks.
    pub(crate) fn grow(
        &mut self,
        feature: &RankedFeature,
        sums: &KeySums,
        config: TreeConfig,
    ) -> &RegressionTree {
        self.values.clear();
        self.buckets.clear();
        let mut last = usize::MAX;
        for &key in &feature.order {
            let key_sums = sums.0[key as usize];
            if key_sums.n == 0 {
                continue;
            }
            let rank = feature.rank(key);
            if rank == last {
                self.buckets
                    .last_mut()
                    .expect("a bucket is open")
                    .add(key_sums);
            } else {
                self.values.push(feature.values[rank]);
                self.buckets.push(key_sums);
                last = rank;
            }
        }
        let buckets = self.buckets.len();
        self.running.resize(buckets, Sums::EMPTY);
        self.tree.nodes.clear();
        self.scan(0, buckets);
        self.node(0, buckets, 0, config);
        &self.tree
    }

    /// Recomputes the running sums of buckets `lo..hi` from bucket `lo`.
    fn scan(&mut self, lo: usize, hi: usize) {
        let mut run = Sums::EMPTY;
        for b in lo..hi {
            run.add(self.buckets[b]);
            self.running[b] = run;
        }
    }

    /// Grows the node over buckets `lo..hi`, whose running sums start at
    /// its own first bucket.
    fn node(&mut self, lo: usize, hi: usize, depth: usize, config: TreeConfig) {
        let node = self.running[hi - 1];
        let len = node.n as usize;
        let mean = node.sum / len as f64;
        let split = if depth >= config.max_depth || len < config.min_samples_split {
            None
        } else {
            self.best_split(lo, hi)
        };
        let Some(b) = split else {
            self.tree.nodes.push(Node::Leaf { prediction: mean });
            return;
        };
        let at = self.tree.nodes.len();
        self.tree.nodes.push(Node::Split {
            threshold: (self.values[b - 1] + self.values[b]) / 2.0,
            right: 0,
        });
        // The left child starts where this node starts, so its running
        // sums are already in place; the right child needs a fresh pass.
        self.node(lo, b, depth + 1, config);
        let right = self.tree.nodes.len() as u32;
        if let Node::Split { right: slot, .. } = &mut self.tree.nodes[at] {
            *slot = right;
        }
        self.scan(b, hi);
        self.node(b, hi, depth + 1, config);
    }

    /// The bucket a split of node `lo..hi` should start its right child
    /// at, minimizing the children's summed squared error.
    ///
    /// Returns `None` when no split separates distinct feature values or
    /// no split improves on the parent.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<usize> {
        let Sums { n, sum, sq } = self.running[hi - 1];
        let parent_sse = sq - sum * sum / n as f64;

        // Every candidate's score first, in a loop without branches.
        // The left sums start at −0.0, which changes at most the sign of
        // a zero; the squares below remove it (DESIGN.md §4l).
        self.sse.clear();
        self.sse.extend(self.running[lo..hi - 1].iter().map(|left| {
            let (right_sum, right_sq) = (sum - left.sum, sq - left.sq);
            (left.sq - left.sum * left.sum / left.n as f64)
                + (right_sq - right_sum * right_sum / (n - left.n) as f64)
        }));
        let mut best: Option<(usize, f64)> = None;
        for (b, &sse) in (lo + 1..hi).zip(&self.sse) {
            // A split between equal feature values is not realizable.
            if self.values[b - 1] == self.values[b] {
                continue;
            }
            if best.map_or(sse < parent_sse - 1e-15, |(_, b)| sse < b) {
                best = Some((b, sse));
            }
        }
        best.map(|(b, _)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_constant() {
        let tree = RegressionTree::fit(&[1.0], &[3.5], TreeConfig::default());
        assert_eq!(tree.predict(0.0), 3.5);
        assert_eq!(tree.predict(100.0), 3.5);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn constant_targets_never_split() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys = vec![2.0; 50];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(25.0), 2.0);
    }

    #[test]
    fn learns_step_function() {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        let ys = [4.0, 4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.predict(2.0), 4.0);
        assert_eq!(tree.predict(12.0), -1.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [12.0, 0.0, 11.0, 1.0, 13.0, 2.0, 10.0, 3.0];
        let ys = [-1.0, 4.0, -1.0, 4.0, -1.0, 4.0, -1.0, 4.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.predict(2.0), 4.0);
        assert_eq!(tree.predict(12.0), -1.0);
    }

    #[test]
    fn depth_limit_respected() {
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i as f64).sin()).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&xs, &ys, cfg);
        assert!(tree.depth() <= 3);
        assert!(tree.num_leaves() <= 8);
    }

    #[test]
    fn min_samples_split_respected() {
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..8).map(|i| i as f64 * 2.0).collect();
        let cfg = TreeConfig {
            max_depth: 20,
            min_samples_split: 9,
        };
        let tree = RegressionTree::fit(&xs, &ys, cfg);
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn duplicate_features_do_not_split_between_equal_values() {
        let xs = [1.0, 1.0, 1.0, 1.0];
        let ys = [0.0, 10.0, 0.0, 10.0];
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(1.0), 5.0);
    }

    #[test]
    fn approximates_monotone_function() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-x).exp()).collect();
        let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        // Predictions should preserve ordering at well-separated points.
        assert!(tree.predict(0.5) > tree.predict(5.0));
        assert!(tree.predict(2.0) > tree.predict(8.0));
        // And be close in absolute terms.
        for &x in &[0.5, 2.0, 5.0, 8.0] {
            assert!((tree.predict(x) - (-x).exp()).abs() < 0.05);
        }
    }

    #[test]
    fn ranks_are_dense_in_total_order() {
        let f = RankedFeature::new(&[2.0, -0.0, 0.0, 2.0, -1.0]);
        assert_eq!(f.values().len(), 4, "-0.0 and +0.0 rank apart");
        let ranks: Vec<usize> = (0..5).map(|i| f.rank(i)).collect();
        assert_eq!(ranks, [3, 1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = RegressionTree::fit(&[1.0, 2.0], &[1.0], TreeConfig::default());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        let _ = RegressionTree::fit(&[], &[], TreeConfig::default());
    }
}
