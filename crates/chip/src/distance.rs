//! Physical, topological, and *equivalent* distances (§4.1 of the paper).
//!
//! The crosstalk characterization model combines two notions of distance
//! between qubits:
//!
//! * **physical distance** `d_phy` — Euclidean distance between placements;
//! * **topological distance** `d_top` — the paper's multi-shortest-path
//!   metric: if the coupling graph has `n` distinct shortest paths of hop
//!   length `l` between two qubits, then `d_top = n · l` (multi-path
//!   metrics are more robust on square lattices, per §4.1);
//! * **equivalent distance** `d_equiv = w_phy · d_phy + w_top · d_top`.
//!
//! [`equivalent_matrix`] produces the full pairwise matrix used as the
//! adjacency representation of the paper's *equivalent graph*.

use std::collections::VecDeque;

use crate::chip::Chip;
use crate::id::QubitId;

/// Multi-shortest-path topological distance between two qubits.
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
/// use youtiao_chip::distance::topological_distance;
///
/// // On a 2x2 grid the two opposite corners are joined by two 2-hop paths.
/// let chip = topology::square_grid(2, 2);
/// let d = topological_distance(&chip, 0u32.into(), 3u32.into()).unwrap();
/// assert_eq!(d.hops(), 2);
/// assert_eq!(d.path_count(), 2);
/// assert_eq!(d.value(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologicalDistance {
    hops: u32,
    path_count: u64,
}

impl TopologicalDistance {
    /// Shortest-path hop count `l`.
    pub fn hops(self) -> u32 {
        self.hops
    }

    /// Number of distinct shortest paths `n`.
    pub fn path_count(self) -> u64 {
        self.path_count
    }

    /// The paper's metric value `d_top = n · l`.
    pub fn value(self) -> f64 {
        self.path_count as f64 * self.hops as f64
    }
}

/// Computes the multi-shortest-path topological distance between `a` and
/// `b` on the chip's coupling graph.
///
/// Returns `None` when `b` is unreachable from `a`. The distance between a
/// qubit and itself has zero hops and one path (value 0).
///
/// # Panics
///
/// Panics if either id is out of range for the chip.
pub fn topological_distance(chip: &Chip, a: QubitId, b: QubitId) -> Option<TopologicalDistance> {
    topological_row(chip, a)[b.index()]
}

/// The topological distance from `source` to every qubit, indexed by
/// qubit id, from one breadth-first search: entry `b` equals
/// [`topological_distance`]`(chip, source, b)`. Callers that need many
/// pairs should take one row per source instead of one search per pair.
///
/// # Panics
///
/// Panics if `source` is out of range for the chip.
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
/// use youtiao_chip::distance::topological_row;
///
/// let chip = topology::square_grid(2, 2);
/// let row = topological_row(&chip, 0u32.into());
/// assert_eq!(row[0].unwrap().value(), 0.0);
/// assert_eq!(row[3].unwrap().value(), 4.0);
/// ```
pub fn topological_row(chip: &Chip, source: QubitId) -> Vec<Option<TopologicalDistance>> {
    bfs_with_counts(chip, source)
        .into_iter()
        .map(|d| d.map(|(hops, path_count)| TopologicalDistance { hops, path_count }))
        .collect()
}

/// Single-source BFS returning `(hops, shortest_path_count)` per qubit.
fn bfs_with_counts(chip: &Chip, source: QubitId) -> Vec<Option<(u32, u64)>> {
    let n = chip.num_qubits();
    let mut out: Vec<Option<(u32, u64)>> = vec![None; n];
    out[source.index()] = Some((0, 1));
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let (du, cu) = out[u.index()].expect("queued nodes are labelled");
        for &v in chip.neighbors(u) {
            match out[v.index()] {
                None => {
                    out[v.index()] = Some((du + 1, cu));
                    queue.push_back(v);
                }
                Some((dv, cv)) if dv == du + 1 => {
                    out[v.index()] = Some((dv, cv.saturating_add(cu)));
                }
                Some(_) => {}
            }
        }
    }
    out
}

/// Symmetric pairwise distance matrix over a chip's qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    values: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DistanceMatrix {
            n,
            values: vec![0.0; n * n],
        }
    }

    /// Matrix dimension (number of qubits).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for a 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reads the distance between two qubits.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, a: QubitId, b: QubitId) -> f64 {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "index out of range"
        );
        self.values[a.index() * self.n + b.index()]
    }

    /// Row `a`: the distances from qubit `a` to every qubit, in id order.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn row(&self, a: QubitId) -> &[f64] {
        assert!(a.index() < self.n, "index out of range");
        &self.values[a.index() * self.n..][..self.n]
    }

    /// Writes the distance between two qubits symmetrically.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, a: QubitId, b: QubitId, value: f64) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "index out of range"
        );
        self.values[a.index() * self.n + b.index()] = value;
        self.values[b.index() * self.n + a.index()] = value;
    }

    /// Iterates over the strictly-upper-triangle entries as `(a, b, value)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (QubitId, QubitId, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            ((i + 1)..self.n).map(move |j| {
                (
                    QubitId::from(i),
                    QubitId::from(j),
                    self.values[i * self.n + j],
                )
            })
        })
    }

    /// The qubit (other than `q` itself and not in `exclude`) with the
    /// smallest distance to `q`, if any.
    pub fn nearest(&self, q: QubitId, exclude: &[QubitId]) -> Option<(QubitId, f64)> {
        let mut best: Option<(QubitId, f64)> = None;
        for j in 0..self.n {
            let cand = QubitId::from(j);
            if cand == q || exclude.contains(&cand) {
                continue;
            }
            let d = self.get(q, cand);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((cand, d));
            }
        }
        best
    }
}

/// Weights blending physical and topological distance into the paper's
/// equivalent distance `d_equiv = w_phy · d_phy + w_top · d_top`.
///
/// # Example
///
/// ```
/// use youtiao_chip::distance::EquivalentWeights;
/// let w = EquivalentWeights::new(0.3, 0.7)?;
/// assert_eq!(w.combine(2.0, 4.0), 0.3 * 2.0 + 0.7 * 4.0);
/// # Ok::<(), youtiao_chip::distance::InvalidWeights>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalentWeights {
    w_phy: f64,
    w_top: f64,
}

/// Error returned by [`EquivalentWeights::new`] for non-finite or negative
/// weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWeights;

impl std::fmt::Display for InvalidWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "equivalent-distance weights must be finite and non-negative"
        )
    }
}

impl std::error::Error for InvalidWeights {}

impl EquivalentWeights {
    /// Creates a weight pair.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWeights`] when either weight is negative, NaN, or
    /// infinite, or when both are zero.
    pub fn new(w_phy: f64, w_top: f64) -> Result<Self, InvalidWeights> {
        let ok = w_phy.is_finite() && w_top.is_finite() && w_phy >= 0.0 && w_top >= 0.0;
        if !ok || (w_phy == 0.0 && w_top == 0.0) {
            return Err(InvalidWeights);
        }
        Ok(EquivalentWeights { w_phy, w_top })
    }

    /// Equal 0.5/0.5 blend, a sensible pre-fit default.
    pub fn balanced() -> Self {
        EquivalentWeights {
            w_phy: 0.5,
            w_top: 0.5,
        }
    }

    /// The physical-distance weight.
    pub fn w_phy(self) -> f64 {
        self.w_phy
    }

    /// The topological-distance weight.
    pub fn w_top(self) -> f64 {
        self.w_top
    }

    /// Blends the two distance components.
    pub fn combine(self, d_phy: f64, d_top: f64) -> f64 {
        self.w_phy * d_phy + self.w_top * d_top
    }
}

impl Default for EquivalentWeights {
    fn default() -> Self {
        EquivalentWeights::balanced()
    }
}

/// Computes the full pairwise equivalent-distance matrix for a chip.
///
/// Unreachable pairs receive `f64::INFINITY` so that grouping never
/// prefers a disconnected qubit.
///
/// # Example
///
/// ```
/// use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
/// use youtiao_chip::topology;
///
/// let chip = topology::square_grid(3, 3);
/// let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
/// // Adjacent qubits are nearer than opposite corners.
/// assert!(m.get(0u32.into(), 1u32.into()) < m.get(0u32.into(), 8u32.into()));
/// ```
pub fn equivalent_matrix(chip: &Chip, weights: EquivalentWeights) -> DistanceMatrix {
    let n = chip.num_qubits();
    let mut m = DistanceMatrix::zeros(n);
    for a in chip.qubit_ids() {
        let row = topological_row(chip, a);
        for b in chip.qubit_ids() {
            if b <= a {
                continue;
            }
            let d = match row[b.index()] {
                Some(d_top) => weights.combine(chip.physical_distance(a, b), d_top.value()),
                None => f64::INFINITY,
            };
            m.set(a, b, d);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn self_distance_is_zero() {
        let chip = topology::square_grid(3, 3);
        let d = topological_distance(&chip, 4u32.into(), 4u32.into()).unwrap();
        assert_eq!(d.hops(), 0);
        assert_eq!(d.path_count(), 1);
        assert_eq!(d.value(), 0.0);
    }

    #[test]
    fn adjacent_distance_is_one() {
        let chip = topology::square_grid(3, 3);
        let d = topological_distance(&chip, 0u32.into(), 1u32.into()).unwrap();
        assert_eq!(d.hops(), 1);
        assert_eq!(d.path_count(), 1);
        assert_eq!(d.value(), 1.0);
    }

    #[test]
    fn multipath_counting_on_grid() {
        // 3x3 grid: q0 -> q8 (opposite corners) has 4 hops and C(4,2)=6
        // monotone lattice paths.
        let chip = topology::square_grid(3, 3);
        let d = topological_distance(&chip, 0u32.into(), 8u32.into()).unwrap();
        assert_eq!(d.hops(), 4);
        assert_eq!(d.path_count(), 6);
        assert_eq!(d.value(), 24.0);
    }

    #[test]
    fn unreachable_is_none() {
        let chip = crate::ChipBuilder::new("disc", topology::TopologyKind::Custom)
            .qubit(crate::Position::new(0.0, 0.0))
            .qubit(crate::Position::new(5.0, 0.0))
            .build()
            .unwrap();
        assert!(topological_distance(&chip, 0u32.into(), 1u32.into()).is_none());
    }

    #[test]
    fn matrix_symmetry() {
        let chip = topology::hexagon_patch(2, 2);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        for a in chip.qubit_ids() {
            for b in chip.qubit_ids() {
                assert_eq!(m.get(a, b), m.get(b, a));
            }
        }
    }

    #[test]
    fn matrix_diagonal_zero() {
        let chip = topology::square_grid(2, 3);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        for q in chip.qubit_ids() {
            assert_eq!(m.get(q, q), 0.0);
        }
    }

    #[test]
    fn unreachable_pairs_are_infinite() {
        let chip = crate::ChipBuilder::new("disc", topology::TopologyKind::Custom)
            .qubit(crate::Position::new(0.0, 0.0))
            .qubit(crate::Position::new(5.0, 0.0))
            .build()
            .unwrap();
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        assert!(m.get(0u32.into(), 1u32.into()).is_infinite());
    }

    #[test]
    fn nearest_respects_exclusion() {
        let chip = topology::linear(4);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let (first, _) = m.nearest(0u32.into(), &[]).unwrap();
        assert_eq!(first, QubitId::from(1usize));
        let (second, _) = m.nearest(0u32.into(), &[1usize.into()]).unwrap();
        assert_eq!(second, QubitId::from(2usize));
    }

    #[test]
    fn nearest_on_singleton_is_none() {
        let m = DistanceMatrix::zeros(1);
        assert!(m.nearest(0u32.into(), &[]).is_none());
    }

    #[test]
    fn weights_validation() {
        assert!(EquivalentWeights::new(-0.1, 0.5).is_err());
        assert!(EquivalentWeights::new(f64::NAN, 0.5).is_err());
        assert!(EquivalentWeights::new(0.0, 0.0).is_err());
        assert!(EquivalentWeights::new(1.0, 0.0).is_ok());
        let w = EquivalentWeights::default();
        assert_eq!(w.w_phy(), 0.5);
        assert_eq!(w.w_top(), 0.5);
    }

    #[test]
    fn iter_pairs_covers_upper_triangle() {
        let chip = topology::square_grid(2, 2);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let pairs: Vec<_> = m.iter_pairs().collect();
        assert_eq!(pairs.len(), 6); // C(4,2)
        assert!(pairs.iter().all(|&(a, b, _)| a < b));
    }

    #[test]
    fn equivalent_distance_orders_by_locality() {
        let chip = topology::square_grid(4, 4);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        // neighbour closer than diagonal, diagonal closer than far corner
        let near = m.get(0u32.into(), 1u32.into());
        let diag = m.get(0u32.into(), 5u32.into());
        let far = m.get(0u32.into(), 15u32.into());
        assert!(near < diag && diag < far);
    }
}
