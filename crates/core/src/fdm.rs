//! Noise-aware FDM qubit grouping (§4.2).
//!
//! Qubits that share an FDM XY line must sit far apart in frequency, and
//! qubits that are physically or topologically close are *naturally*
//! separated in frequency during chip design — so the grouping rule is:
//! put nearby qubits (in equivalent distance) on the same line. The
//! paper's 3-step greedy flow grows each line from a seed by repeatedly
//! adding the unassigned qubit with the smallest equivalent distance to
//! any current member (the frontier minimum of steps 2–3).

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, QubitId};

/// A group of qubits sharing one FDM XY control line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdmLine {
    qubits: Vec<QubitId>,
}

impl FdmLine {
    /// Creates a line from its member qubits.
    pub fn new(qubits: Vec<QubitId>) -> Self {
        FdmLine { qubits }
    }

    /// The qubits on this line, in the order they were grouped.
    pub fn qubits(&self) -> &[QubitId] {
        &self.qubits
    }

    /// Number of qubits multiplexed on the line.
    pub fn len(&self) -> usize {
        self.qubits.len()
    }

    /// Returns `true` for a line with no qubits.
    pub fn is_empty(&self) -> bool {
        self.qubits.is_empty()
    }

    /// Returns `true` when the line carries `q`.
    pub fn contains(&self, q: QubitId) -> bool {
        self.qubits.contains(&q)
    }
}

/// Groups every qubit of `chip` onto FDM lines of at most `capacity`
/// qubits using the paper's greedy nearest-equivalent-distance flow.
///
/// `matrix` is the equivalent-distance matrix (typically from the fitted
/// crosstalk model's weights). Grouping is deterministic: the first line
/// seeds at the lowest unassigned qubit id.
///
/// # Panics
///
/// Panics if `capacity == 0` or `matrix` does not match the chip size.
///
/// # Example
///
/// ```
/// use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
/// use youtiao_chip::topology;
/// use youtiao_core::fdm::group_fdm;
///
/// let chip = topology::square_grid(3, 3);
/// let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
/// let lines = group_fdm(&chip, &m, 5);
/// assert_eq!(lines.len(), 2); // ceil(9 / 5)
/// assert_eq!(lines.iter().map(|l| l.len()).sum::<usize>(), 9);
/// ```
pub fn group_fdm(chip: &Chip, matrix: &DistanceMatrix, capacity: usize) -> Vec<FdmLine> {
    group_fdm_subset(
        chip,
        matrix,
        capacity,
        &chip.qubit_ids().collect::<Vec<_>>(),
    )
}

/// Like [`group_fdm`], but restricted to a subset of qubits — used by the
/// generative chip partition to group each region independently.
///
/// # Panics
///
/// Panics if `capacity == 0`, the matrix does not match the chip size, or
/// `subset` contains duplicates.
pub fn group_fdm_subset(
    chip: &Chip,
    matrix: &DistanceMatrix,
    capacity: usize,
    subset: &[QubitId],
) -> Vec<FdmLine> {
    assert!(capacity > 0, "fdm line capacity must be positive");
    assert_eq!(matrix.len(), chip.num_qubits(), "matrix size mismatch");
    let mut unassigned: Vec<QubitId> = subset.to_vec();
    unassigned.sort_unstable();
    let before_dedup = unassigned.len();
    unassigned.dedup();
    assert_eq!(before_dedup, unassigned.len(), "subset contains duplicates");

    // `nearest[i]` is unassigned qubit i's smallest equivalent distance
    // to the line's members, folded with `f64::min` in member order as
    // each member joins, from the member's row of the matrix.
    let mut nearest: Vec<f64> = Vec::with_capacity(unassigned.len());
    let mut lines = Vec::new();
    while !unassigned.is_empty() {
        let seed = unassigned.remove(0);
        let mut members = vec![seed];
        let row = matrix.row(seed);
        nearest.clear();
        nearest.extend(
            unassigned
                .iter()
                .map(|&q| f64::INFINITY.min(row[q.index()])),
        );
        while members.len() < capacity && !unassigned.is_empty() {
            // Frontier minimum: the unassigned qubit with the smallest
            // equivalent distance to any current member (§4.2 step 3
            // compares the per-member nearests and takes the shortest),
            // the first of equal ones.
            let (best_idx, _) = nearest
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("unassigned is non-empty");
            nearest.remove(best_idx);
            let member = unassigned.remove(best_idx);
            members.push(member);
            let row = matrix.row(member);
            for (d, &q) in nearest.iter_mut().zip(&unassigned) {
                *d = d.min(row[q.index()]);
            }
        }
        lines.push(FdmLine::new(members));
    }
    lines
}

/// [`group_fdm_subset`] as first written: each candidate's distance to
/// the line is folded over every member again for every pick. The
/// differential tests' reference.
#[cfg(test)]
fn group_fdm_subset_reference(
    matrix: &DistanceMatrix,
    capacity: usize,
    subset: &[QubitId],
) -> Vec<FdmLine> {
    let mut unassigned: Vec<QubitId> = subset.to_vec();
    unassigned.sort_unstable();
    let mut lines = Vec::new();
    while let Some(&seed) = unassigned.first() {
        let mut members = vec![seed];
        unassigned.retain(|&q| q != seed);
        while members.len() < capacity && !unassigned.is_empty() {
            let (best_idx, _) = unassigned
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let d = members
                        .iter()
                        .map(|&m| matrix.get(m, q))
                        .fold(f64::INFINITY, f64::min);
                    (i, d)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("unassigned is non-empty");
            members.push(unassigned.remove(best_idx));
        }
        lines.push(FdmLine::new(members));
    }
    lines
}

/// Baseline grouping used for comparison: chip-local clustering that
/// fills lines in raw qubit-id (layout) order, ignoring the equivalent
/// graph entirely.
pub fn group_fdm_local(chip: &Chip, capacity: usize) -> Vec<FdmLine> {
    assert!(capacity > 0, "fdm line capacity must be positive");
    let ids: Vec<QubitId> = chip.qubit_ids().collect();
    ids.chunks(capacity)
        .map(|chunk| FdmLine::new(chunk.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
    use youtiao_chip::topology;

    fn grid_and_matrix(n: usize) -> (youtiao_chip::Chip, DistanceMatrix) {
        let chip = topology::square_grid(n, n);
        let m = equivalent_matrix(&chip, EquivalentWeights::balanced());
        (chip, m)
    }

    #[test]
    fn covers_all_qubits_exactly_once() {
        let (chip, m) = grid_and_matrix(4);
        let lines = group_fdm(&chip, &m, 5);
        let mut seen: Vec<QubitId> = lines.iter().flat_map(|l| l.qubits().to_vec()).collect();
        seen.sort_unstable();
        let all: Vec<QubitId> = chip.qubit_ids().collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn respects_capacity() {
        let (chip, m) = grid_and_matrix(5);
        for cap in 1..=6 {
            let lines = group_fdm(&chip, &m, cap);
            assert!(lines.iter().all(|l| l.len() <= cap && !l.is_empty()));
            assert_eq!(lines.len(), 25_usize.div_ceil(cap));
        }
    }

    #[test]
    fn line_count_is_ceiling_of_ratio() {
        let (chip, m) = grid_and_matrix(6);
        let lines = group_fdm(&chip, &m, 5);
        assert_eq!(lines.len(), 8); // ceil(36/5)
        let lines4 = group_fdm(&chip, &m, 4);
        assert_eq!(lines4.len(), 9);
    }

    #[test]
    fn groups_are_spatially_coherent() {
        // On a 4x4 grid with capacity 4, the first group should stay in a
        // corner neighbourhood, not span the chip.
        let (chip, m) = grid_and_matrix(4);
        let lines = group_fdm(&chip, &m, 4);
        let first = &lines[0];
        let chip_ref = &chip;
        let max_d = first
            .qubits()
            .iter()
            .flat_map(|&a| {
                first
                    .qubits()
                    .iter()
                    .map(move |&b| chip_ref.physical_distance(a, b))
            })
            .fold(0.0, f64::max);
        // A frontier-greedy group may form an L or a row, but never spans
        // the full chip diagonal (~4.24 on a 4x4 grid).
        assert!(max_d <= 3.2, "first group spread {max_d}");
    }

    #[test]
    fn subset_grouping_only_touches_subset() {
        let (chip, m) = grid_and_matrix(3);
        let subset: Vec<QubitId> = [0u32, 1, 3, 4].iter().map(|&i| i.into()).collect();
        let lines = group_fdm_subset(&chip, &m, 3, &subset);
        let members: Vec<QubitId> = lines.iter().flat_map(|l| l.qubits().to_vec()).collect();
        assert_eq!(members.len(), 4);
        assert!(members.iter().all(|q| subset.contains(q)));
    }

    #[test]
    fn local_baseline_fills_in_id_order() {
        let chip = topology::square_grid(3, 3);
        let lines = group_fdm_local(&chip, 4);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].qubits(),
            &[0u32.into(), 1u32.into(), 2u32.into(), 3u32.into()]
        );
        assert_eq!(lines[2].len(), 1);
    }

    #[test]
    fn deterministic() {
        let (chip, m) = grid_and_matrix(4);
        assert_eq!(group_fdm(&chip, &m, 5), group_fdm(&chip, &m, 5));
    }

    /// The running minimum picks what the reference's full fold picks,
    /// on seeded chips of every family, whole or as random subsets, at
    /// capacities 1–9, over equivalent matrices and over matrices with
    /// ties, infinite distances and NaNs.
    #[test]
    fn running_minimum_matches_the_reference() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use youtiao_chip::surface::SurfaceCode;
        let mut rng = ChaCha8Rng::seed_from_u64(0xfd_0001);
        for case in 0..40 {
            let chip = match case % 5 {
                0 => topology::square_grid(rng.gen_range(1usize..7), rng.gen_range(1usize..7)),
                1 => topology::heavy_hexagon(rng.gen_range(1usize..3), rng.gen_range(1usize..3)),
                2 => topology::heavy_square(rng.gen_range(1usize..4), rng.gen_range(1usize..4)),
                3 => topology::hexagon_patch(rng.gen_range(1usize..3), rng.gen_range(1usize..4)),
                _ => SurfaceCode::rotated([3, 5][rng.gen_range(0usize..2)]).into_chip(),
            };
            let w = rng.gen_range(0.05f64..0.95);
            let mut m = equivalent_matrix(&chip, EquivalentWeights::new(w, 1.0 - w).unwrap());
            if case % 2 == 1 {
                // Coarse values tie often; some are infinite or NaN.
                for a in chip.qubit_ids() {
                    for b in chip.qubit_ids() {
                        let v = match rng.gen_range(0u32..10) {
                            0 => f64::INFINITY,
                            1 => f64::NAN,
                            k => f64::from(k),
                        };
                        m.set(a, b, v);
                    }
                }
            }
            let all: Vec<QubitId> = chip.qubit_ids().collect();
            let some: Vec<QubitId> = all
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0u32..3) != 0)
                .collect();
            for subset in [&all, &some] {
                for capacity in 1..10 {
                    let label = format!("case {case} {} capacity {capacity}", chip.name());
                    assert_eq!(
                        group_fdm_subset(&chip, &m, capacity, subset),
                        group_fdm_subset_reference(&m, capacity, subset),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn duplicate_subset_panics() {
        let (chip, m) = grid_and_matrix(3);
        let _ = group_fdm_subset(&chip, &m, 3, &[0u32.into(), 0u32.into()]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let (chip, m) = grid_and_matrix(3);
        let _ = group_fdm(&chip, &m, 0);
    }
}
