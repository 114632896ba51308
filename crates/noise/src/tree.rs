//! CART regression trees over a single scalar feature.
//!
//! The paper regresses crosstalk against the scalar equivalent distance,
//! so the trees here are one-dimensional: each internal node splits on a
//! threshold of the feature, each leaf predicts the mean of its training
//! targets. Splits greedily minimize the summed squared error of the two
//! children (equivalently, maximize variance reduction).
//!
//! A fit ranks the feature once per key ([`RankedFeature`]; a key is a
//! sample, or a class of samples that share their feature value), lists
//! each tree's sample as keys and targets ([`Drawn`]) and grows the tree
//! from that list ([`Grower`]): a counting sort by rank orders the
//! targets, and prefix sums read at the ends of equal-value buckets score
//! every candidate split. DESIGN.md §4l states why this gives the bits of
//! a comparison sort followed by an element-by-element scan.

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
        let mut every = Drawn::default();
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
}

/// A feature ranked once: its distinct values in ascending
/// [`f64::total_cmp`] order and each key's dense rank among them.
///
/// Ranks order keys exactly as a `total_cmp` sort does, so a stable
/// counting sort by rank reproduces a stable comparison sort.
#[derive(Debug)]
pub(crate) struct RankedFeature {
    values: Vec<f64>,
    ranks: Vec<u32>,
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
        order.sort_unstable_by(|&a, &b| xs[a as usize].total_cmp(&xs[b as usize]));
        let mut values: Vec<f64> = Vec::new();
        let mut ranks = vec![0; xs.len()];
        for &i in &order {
            let x = xs[i as usize];
            // `total_cmp` equality is bit equality.
            if values.last().is_none_or(|v| v.to_bits() != x.to_bits()) {
                values.push(x);
            }
            ranks[i as usize] = values.len() as u32 - 1;
        }
        RankedFeature { values, ranks }
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

/// The sample a tree grows on: each element's key and target in list
/// order (repeats allowed), and how many elements carry each key.
#[derive(Debug, Default)]
pub(crate) struct Drawn {
    keys: Vec<u32>,
    ys: Vec<f64>,
    counts: Vec<u32>,
}

impl Drawn {
    /// Replaces the list with `elements`, `(key, target)` pairs whose
    /// keys are below `num_keys`.
    pub(crate) fn refill(
        &mut self,
        num_keys: usize,
        elements: impl IntoIterator<Item = (u32, f64)>,
    ) {
        self.keys.clear();
        self.ys.clear();
        self.counts.clear();
        self.counts.resize(num_keys, 0);
        for (key, y) in elements {
            self.keys.push(key);
            self.ys.push(y);
            self.counts[key as usize] += 1;
        }
    }
}

/// Reusable buffers for growing trees over a [`RankedFeature`].
///
/// The listed targets are counting-sorted into buckets of equal feature
/// value. Nodes only ever split between buckets, so every node is a run
/// of whole buckets, and the running sums a node needs are read at
/// bucket ends.
#[derive(Debug, Default)]
pub(crate) struct Grower {
    /// Per-rank element counts, then per-rank write cursors.
    cursor: Vec<u32>,
    /// The targets in sorted feature order.
    ys: Vec<f64>,
    /// Exclusive end of each bucket in `ys`.
    ends: Vec<u32>,
    /// Feature value of each bucket.
    values: Vec<f64>,
    /// Running target sum and sum of squares at each bucket's end,
    /// started (at −0.0, as `Iterator::sum` starts) from the first
    /// element of the node that last scanned the bucket.
    sum: Vec<f64>,
    sq: Vec<f64>,
    /// The split score of each candidate bucket of the node being split.
    sse: Vec<f64>,
    /// The tree grown last.
    tree: RegressionTree,
}

impl Grower {
    /// Grows a tree on `drawn`, whose keys `feature` ranks. The result
    /// equals fitting the listed `(x, y)` pairs in list order.
    pub(crate) fn grow(
        &mut self,
        feature: &RankedFeature,
        drawn: &Drawn,
        config: TreeConfig,
    ) -> &RegressionTree {
        debug_assert!(!drawn.keys.is_empty(), "a tree needs at least one sample");
        self.bucket(feature, drawn);
        self.ys.resize(drawn.keys.len(), 0.0);
        for (&key, &y) in drawn.keys.iter().zip(&drawn.ys) {
            let slot = &mut self.cursor[feature.rank(key)];
            self.ys[*slot as usize] = y;
            *slot += 1;
        }
        let buckets = self.ends.len();
        self.sum.resize(buckets, 0.0);
        self.sq.resize(buckets, 0.0);
        self.tree.nodes.clear();
        self.scan(0, buckets);
        self.node(0, buckets, 0, config);
        &self.tree
    }

    /// Lays out the buckets of a stable counting sort of `drawn` by rank
    /// and leaves `cursor` at each rank's first slot.
    fn bucket(&mut self, feature: &RankedFeature, drawn: &Drawn) {
        self.cursor.clear();
        self.cursor.resize(feature.values().len(), 0);
        for (key, &count) in (0..).zip(&drawn.counts) {
            self.cursor[feature.rank(key)] += count;
        }
        self.ends.clear();
        self.values.clear();
        let mut end = 0;
        for (slot, &value) in self.cursor.iter_mut().zip(feature.values()) {
            let count = std::mem::replace(slot, end);
            if value.is_nan() {
                // NaN != NaN, so a split may fall between any two NaN
                // samples: each one is a bucket of its own.
                for _ in 0..count {
                    end += 1;
                    self.ends.push(end);
                    self.values.push(value);
                }
            } else if count > 0 {
                end += count;
                self.ends.push(end);
                self.values.push(value);
            }
        }
    }

    /// First position of bucket `b` in `ys`.
    fn start(&self, b: usize) -> u32 {
        if b == 0 {
            0
        } else {
            self.ends[b - 1]
        }
    }

    /// Recomputes the running sums of buckets `lo..hi` from bucket
    /// `lo`'s first element.
    fn scan(&mut self, lo: usize, hi: usize) {
        let mut sum = -0.0;
        let mut sq = -0.0;
        let mut at = self.start(lo) as usize;
        for b in lo..hi {
            let end = self.ends[b] as usize;
            for &y in &self.ys[at..end] {
                sum += y;
                sq += y * y;
            }
            self.sum[b] = sum;
            self.sq[b] = sq;
            at = end;
        }
    }

    /// Grows the node over buckets `lo..hi`, whose running sums start at
    /// its own first element.
    fn node(&mut self, lo: usize, hi: usize, depth: usize, config: TreeConfig) {
        let len = (self.ends[hi - 1] - self.start(lo)) as usize;
        let mean = self.sum[hi - 1] / len as f64;
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
        let first = self.start(lo);
        let n = self.ends[hi - 1] - first;
        let total_sum = self.sum[hi - 1];
        let total_sq = self.sq[hi - 1];
        let parent_sse = total_sq - total_sum * total_sum / n as f64;

        // Every candidate's score first, in a loop without branches.
        // These sums start at −0.0, where the criterion's left sums start
        // at +0.0. That changes at most the sign of a zero, which the
        // squares below remove (DESIGN.md §4l).
        self.sse.clear();
        self.sse.extend(
            self.ends[lo..hi - 1]
                .iter()
                .zip(&self.sum[lo..hi - 1])
                .zip(&self.sq[lo..hi - 1])
                .map(|((&end, &left_sum), &left_sq)| {
                    let i = end - first;
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    (left_sq - left_sum * left_sum / i as f64)
                        + (right_sq - right_sum * right_sum / (n - i) as f64)
                }),
        );
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
