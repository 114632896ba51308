//! CART regression trees over a single scalar feature.
//!
//! The paper regresses crosstalk against the scalar equivalent distance,
//! so the trees here are one-dimensional: each internal node splits on a
//! threshold of the feature, each leaf predicts the mean of its training
//! targets. Splits greedily minimize the summed squared error of the two
//! children (equivalently, maximize variance reduction).
//!
//! A fit ranks the feature once per key (`RankedFeature`; a key is a
//! sample, or a class of samples that share their feature value), sums
//! each tree's sample per key (`KeySums`: count, Σy and Σy²) and grows
//! the tree from those sums (`Grower`): the keys of each distinct value
//! merge into one bucket, and running sums over the buckets score every
//! candidate split. The tree grows one level at a time and is written
//! out in pre-order at the end. A tree needs nothing else, so no sample
//! is sorted or scanned again. DESIGN.md §4l states how close this stays
//! to an element-by-element scan of the sorted sample.

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
/// [`f64::total_cmp`] order and each key's dense rank among them.
///
/// Equal ranks mean bit-equal values, except that every NaN key has a
/// rank of its own: NaN != NaN, so a split may fall between any two.
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

/// A node of the level being grown: its buckets `lo..hi`, and whether
/// its running sums must be computed (the root and right children) or
/// are its parent's (left children).
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: u32,
    hi: u32,
    scan: bool,
}

/// A node as grown, in level order: its first bucket, and either a
/// split's threshold and the bucket its right child starts at, or a
/// leaf's prediction and 0.
#[derive(Debug, Clone, Copy)]
struct Grown {
    value: f64,
    lo: u32,
    split: u32,
}

/// The per-bucket vectors of a [`Grower`]. They only grow: entries
/// past the tree's last bucket are stale.
#[derive(Debug, Default)]
struct Columns {
    /// Feature value of each bucket, then its count, Σy and Σy²: its
    /// keys' sums, added in key order. One entry more than there are
    /// ranks, so a leaf can read the threshold it does not use.
    values: Vec<f64>,
    counts: Vec<f64>,
    sums: Vec<f64>,
    squares: Vec<f64>,
    /// Running count, Σy and Σy² at each bucket's end, started from the
    /// first bucket of the node that last scanned the bucket, and the
    /// squared error of those running sums: a left child's error, were
    /// the node split right after the bucket.
    run_counts: Vec<f64>,
    run_sums: Vec<f64>,
    run_squares: Vec<f64>,
    left_sse: Vec<f64>,
    /// Per bucket, the number of nodes starting at it, then the
    /// pre-order position of the next one emitted.
    places: Vec<u32>,
}

/// Reusable buffers for growing trees over a [`RankedFeature`].
///
/// The keys of each drawn value merge into one bucket. Nodes only ever
/// split between buckets, so every node is a run of whole buckets. The
/// tree grows one level at a time.
#[derive(Debug, Default)]
pub(crate) struct Grower {
    /// The number of buckets of the tree being grown.
    buckets: usize,
    columns: Columns,
    /// Each rank's count, Σy and Σy², while the buckets fill; empty
    /// between trees.
    per_rank: Vec<[f64; 3]>,
    /// The nodes to grow, level after level: each level's children
    /// follow it.
    spans: Vec<Span>,
    /// Every node grown so far, in level order.
    grown: Vec<Grown>,
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
        self.fill_buckets(feature, sums);
        self.grown.clear();
        self.spans.clear();
        self.spans.push(Span {
            lo: 0,
            hi: self.buckets as u32,
            scan: true,
        });
        let (mut level, mut depth) = (0, 0);
        while level < self.spans.len() {
            let next = self.spans.len();
            self.grow_level(level..next, depth, config);
            (level, depth) = (next, depth + 1);
        }
        self.emit_pre_order();
        &self.tree
    }

    /// Sums each rank's keys in key order, then keeps the ranks the
    /// sample drew. A key the sample lacks adds `(0, −0.0, −0.0)`, which
    /// changes no bit.
    fn fill_buckets(&mut self, feature: &RankedFeature, sums: &KeySums) {
        let ranks = feature.values.len();
        let c = &mut self.columns;
        if c.values.len() <= ranks {
            self.per_rank.resize(ranks, [0.0, -0.0, -0.0]);
            for column in [
                &mut c.values,
                &mut c.counts,
                &mut c.sums,
                &mut c.squares,
                &mut c.run_counts,
                &mut c.run_sums,
                &mut c.run_squares,
                &mut c.left_sse,
            ] {
                column.resize(ranks + 1, 0.0);
            }
            c.places.resize(ranks + 1, 0);
        }
        let per_rank = &mut self.per_rank[..ranks];
        for (key, &rank) in sums.0.iter().zip(&feature.ranks) {
            let [n, sum, sq] = &mut per_rank[rank as usize];
            *n += f64::from(key.n);
            *sum += key.sum;
            *sq += key.sq;
        }
        // Keep each drawn rank, and leave every rank empty for the next
        // tree.
        let (values, counts) = (&mut c.values[..ranks], &mut c.counts[..ranks]);
        let (bucket_sums, squares) = (&mut c.sums[..ranks], &mut c.squares[..ranks]);
        let places = &mut c.places[..ranks];
        let mut kept = 0;
        for (&value, per_rank) in feature.values.iter().zip(per_rank) {
            let [n, sum, sq] = std::mem::replace(per_rank, [0.0, -0.0, -0.0]);
            values[kept] = value;
            counts[kept] = n;
            bucket_sums[kept] = sum;
            squares[kept] = sq;
            places[kept] = 0;
            kept += usize::from(n > 0.0);
        }
        self.buckets = kept;
    }

    /// Grows the nodes of one level, `spans[level]`: each becomes a leaf
    /// or a split, and a split's children join the next level.
    fn grow_level(&mut self, level: std::ops::Range<usize>, depth: usize, config: TreeConfig) {
        let Grower {
            columns: c,
            spans,
            grown,
            ..
        } = self;
        // Counts are whole numbers below 2³², exact in f64, so comparing
        // them with the rounded minimum decides as the integers would.
        let min_split = config.min_samples_split as f64;
        for i in level {
            let Span { lo, hi, scan } = spans[i];
            let (lo, hi) = (lo as usize, hi as usize);
            if scan {
                c.scan(lo, hi);
            }
            let (n, sum, sq) = (
                c.run_counts[hi - 1],
                c.run_sums[hi - 1],
                c.run_squares[hi - 1],
            );
            let b = if depth >= config.max_depth || n < min_split {
                0
            } else {
                c.best_split(lo, hi, n, sum, sq)
            };
            // Both outcomes are computed, and a split's children are
            // written either way, then dropped from a leaf.
            let split = b != 0;
            let edge = b.max(1);
            let threshold = (c.values[edge - 1] + c.values[edge]) / 2.0;
            grown.push(Grown {
                value: if split { threshold } else { sum / n },
                lo: lo as u32,
                split: b as u32,
            });
            c.places[lo] += 1;
            let (lo, b, hi) = (lo as u32, b as u32, hi as u32);
            spans.push(Span {
                lo,
                hi: b,
                scan: false,
            });
            spans.push(Span {
                lo: b,
                hi,
                scan: true,
            });
            spans.truncate(spans.len() - 2 * usize::from(!split));
        }
    }

    /// Writes the grown nodes into the tree in pre-order: a split's left
    /// child right after it, its right child after the left subtree.
    ///
    /// Pre-order sorts nodes by first bucket, then depth: a node's
    /// ancestors start at or before it, and a node before another in
    /// neither's subtree covers lower buckets. So a node's position is
    /// the number of nodes starting at lower buckets plus its shallower
    /// ancestors starting at its bucket, and a split's right child, the
    /// shallowest node at its bucket, sits where that bucket's nodes
    /// begin.
    fn emit_pre_order(&mut self) {
        // `places` holds the number of nodes starting at each bucket.
        let places = &mut self.columns.places[..self.buckets];
        let mut before = 0;
        for place in places.iter_mut() {
            (*place, before) = (before, before + *place);
        }
        // In level order, a node's shallower ancestors at its bucket come
        // first, and no node at a split's bucket precedes the split.
        // Every position is written.
        self.tree
            .nodes
            .resize(self.grown.len(), Node::Leaf { prediction: 0.0 });
        for node in &self.grown {
            let at = places[node.lo as usize];
            places[node.lo as usize] += 1;
            self.tree.nodes[at as usize] = if node.split == 0 {
                Node::Leaf {
                    prediction: node.value,
                }
            } else {
                Node::Split {
                    threshold: node.value,
                    right: places[node.split as usize],
                }
            };
        }
    }
}

impl Columns {
    /// Computes the running sums of buckets `lo..hi` from bucket `lo`,
    /// with the left child's error of a split after each bucket.
    ///
    /// Kept out of line: inlined into the level loop, the two divisions
    /// of a step are not paired.
    #[inline(never)]
    fn scan(&mut self, lo: usize, hi: usize) {
        let len = hi - lo;
        let counts = &self.counts[lo..hi];
        let sums = &self.sums[lo..hi];
        let squares = &self.squares[lo..hi];
        let run_counts = &mut self.run_counts[lo..hi];
        let run_sums = &mut self.run_sums[lo..hi];
        let run_squares = &mut self.run_squares[lo..hi];
        let left_sse = &mut self.left_sse[lo..hi];
        let (mut n, mut sum, mut sq) = (0.0, -0.0, -0.0);
        // Two buckets a step: the sums run one after the other, and the
        // two errors divide side by side.
        let mut i = 0;
        while i + 2 <= len {
            let n0 = n + counts[i];
            let s0 = sum + sums[i];
            let q0 = sq + squares[i];
            n = n0 + counts[i + 1];
            sum = s0 + sums[i + 1];
            sq = q0 + squares[i + 1];
            let (ns, ss, qs) = ([n0, n], [s0, sum], [q0, sq]);
            let mut errors = [0.0; 2];
            for k in 0..2 {
                errors[k] = qs[k] - ss[k] * ss[k] / ns[k];
            }
            run_counts[i..i + 2].copy_from_slice(&ns);
            run_sums[i..i + 2].copy_from_slice(&ss);
            run_squares[i..i + 2].copy_from_slice(&qs);
            left_sse[i..i + 2].copy_from_slice(&errors);
            i += 2;
        }
        if i < len {
            n += counts[i];
            sum += sums[i];
            sq += squares[i];
            run_counts[i] = n;
            run_sums[i] = sum;
            run_squares[i] = sq;
            left_sse[i] = sq - sum * sum / n;
        }
    }

    /// The bucket a split of node `lo..hi`, whose count and sums are
    /// `n`, `sum` and `sq`, should start its right child at, minimizing
    /// the children's summed squared error; 0 when no split separates
    /// distinct feature values or no split improves on the parent.
    fn best_split(&self, lo: usize, hi: usize, n: f64, sum: f64, sq: f64) -> usize {
        let parent_sse = sq - sum * sum / n;
        // The left sums start at −0.0, which changes at most the sign of
        // a zero; the squares below remove it (DESIGN.md §4l).
        let mut best = parent_sse - 1e-15;
        let mut at = 0;
        for (b, ((((&left_n, &left_sum), &left_sq), &left_sse), values)) in (lo + 1..hi).zip(
            self.run_counts[lo..hi - 1]
                .iter()
                .zip(&self.run_sums[lo..hi - 1])
                .zip(&self.run_squares[lo..hi - 1])
                .zip(&self.left_sse[lo..hi - 1])
                .zip(self.values[lo..hi].windows(2)),
        ) {
            let (right_sum, right_sq) = (sum - left_sum, sq - left_sq);
            let sse = left_sse + (right_sq - right_sum * right_sum / (n - left_n));
            // A split between equal feature values is not realizable:
            // NaN never wins.
            let sse = if values[0] == values[1] {
                f64::NAN
            } else {
                sse
            };
            let take = sse < best;
            at = if take { b } else { at };
            best = if take { sse } else { best };
        }
        at
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
    fn leaves_of_negative_zeros_predict_negative_zero() {
        // Both children sit at the depth limit; their sums start at
        // −0.0, as `Iterator::sum` starts, whether the leaf reads its
        // parent's running sums (left) or scans its own buckets (right).
        let cfg = TreeConfig {
            max_depth: 1,
            min_samples_split: 2,
        };
        let xs = [0.0, 1.0, 2.0, 3.0];
        let left = RegressionTree::fit(&xs, &[-0.0, -0.0, 1.0, 2.0], cfg);
        assert_eq!(left.predict(0.0).to_bits(), (-0.0f64).to_bits());
        let right = RegressionTree::fit(&xs, &[1.0, 2.0, -0.0, -0.0], cfg);
        assert_eq!(right.predict(3.0).to_bits(), (-0.0f64).to_bits());
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
