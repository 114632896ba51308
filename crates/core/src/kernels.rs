//! Precomputed pairwise kernels for the grouping hot loops.
//!
//! The §4.2–§4.3 grouping passes are the planner's hot path: the greedy
//! graph-coloring of [`crate::tdm`] and the hill-climbing of
//! [`crate::refine`] both evaluate O(n²) candidate pairs, and the naive
//! implementations re-derive every pairwise term — legality, topological
//! non-parallelism, worst-case crosstalk, per-coupler gate adjacency —
//! per candidate per iteration, allocating as they go. A [`PairKernels`]
//! precomputes all of it **once per chip** into dense tables indexed by
//! a flat [`DeviceIndex`] densification, so the rewritten inner loops
//! are pure table lookups (see `group_tdm_kernels` /
//! `refine_tdm_groups_kernels`).
//!
//! # Determinism contract
//!
//! The kernels are a *representation* change, not an algorithm change:
//! the tables, filled a row at a time from each device's neighbourhood,
//! hold the naive path's per-pair values bit for bit (unit tests compare
//! every entry with [`crate::tdm::legal_pair`] and the topo-fraction and
//! noisy-score helpers), so a kernelized pass is **byte-identical** to
//! the retained naive implementations (`naive` feature / test builds).
//! Differential tests in `crate::tdm` and `crate::refine` enforce this
//! across random chips, θ values, activity profiles and budgets.

use std::sync::atomic::{AtomicU64, Ordering};

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, CouplerId, DeviceId, QubitId};

use crate::scratch::Scratch;
use crate::tdm::ActivityProfile;

/// Global count of [`PairKernels::build`] calls — a probe for tests and
/// the bench harness asserting kernels are built once per chip, not per
/// plan or per grid point.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Global count of [`PairKernels::apply_delta`] calls — the
/// `kernels_invalidated` probe: tests and the repair bench assert that
/// a repair invalidates rows instead of rebuilding whole tables.
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

/// Dense `DeviceId → usize` densification: qubits map to `0..nq`,
/// couplers to `nq..nq + nc`. Both id spaces are already dense, so the
/// mapping is a pure offset and needs no lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceIndex {
    num_qubits: usize,
    num_couplers: usize,
}

impl DeviceIndex {
    /// Builds the densification for a chip.
    pub fn new(chip: &Chip) -> Self {
        DeviceIndex {
            num_qubits: chip.num_qubits(),
            num_couplers: chip.num_couplers(),
        }
    }

    /// Total number of Z-controlled devices (qubits + couplers).
    pub fn len(&self) -> usize {
        self.num_qubits + self.num_couplers
    }

    /// Returns `true` when the chip has no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat index of a device.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the device id is out of range.
    #[inline]
    pub fn dense(&self, d: DeviceId) -> usize {
        match d {
            DeviceId::Qubit(q) => {
                debug_assert!(q.index() < self.num_qubits);
                q.index()
            }
            DeviceId::Coupler(c) => {
                debug_assert!(c.index() < self.num_couplers);
                self.num_qubits + c.index()
            }
        }
    }

    /// The device at a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn device(&self, i: usize) -> DeviceId {
        assert!(i < self.len(), "dense device index out of range");
        if i < self.num_qubits {
            DeviceId::Qubit((i as u32).into())
        } else {
            DeviceId::Coupler(((i - self.num_qubits) as u32).into())
        }
    }
}

/// Precomputed pairwise interaction kernels for one (chip, crosstalk
/// matrix) pair: everything the grouping and refinement inner loops
/// would otherwise recompute per candidate.
///
/// Owned by [`crate::PlanContext`] (built once per chip and shared
/// across sweep points) and buildable standalone via
/// [`PairKernels::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairKernels {
    index: DeviceIndex,
    /// Bitset words per legality row.
    words: usize,
    /// Per-device parallelism index (§4.3), dense order.
    parallelism: Vec<f64>,
    /// Row-major legality bitset: bit `j` of row `i` set when devices
    /// `i` and `j` may share a DEMUX.
    legal: Vec<u64>,
    /// Dense n×n `topo_nonparallel_fraction` lookup table.
    topo: Vec<f64>,
    /// Dense n×n `noisy_score` lookup table.
    noise: Vec<f64>,
    /// Per-coupler adjacent gates (couplers sharing a qubit endpoint),
    /// sorted and deduplicated — what `adjacent_gates` used to allocate
    /// and sort on every call.
    adjacency: Vec<Vec<CouplerId>>,
}

impl PairKernels {
    /// Precomputes every pairwise kernel for `chip` against the
    /// crosstalk matrix that will drive the noisy non-parallelism score
    /// (the ZZ matrix when fitted, the XY matrix otherwise — the same
    /// matrix the naive grouping would receive).
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension mismatches the chip.
    pub fn build(chip: &Chip, xtalk: &DistanceMatrix) -> Self {
        Self::build_in(chip, xtalk, &mut Scratch::default())
    }

    /// [`Self::build`] drawing the dense table storage from a scratch
    /// arena instead of allocating — pair with [`Self::retire_into`] to
    /// recycle a superseded table's buffers (e.g. when a context's ZZ
    /// model refit replaces its kernels).
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension mismatches the chip.
    pub fn build_in(chip: &Chip, xtalk: &DistanceMatrix, scratch: &mut Scratch) -> Self {
        assert_eq!(
            xtalk.len(),
            chip.num_qubits(),
            "crosstalk matrix size mismatch"
        );
        let index = DeviceIndex::new(chip);
        let n = index.len();
        let words = n.div_ceil(64).max(1);

        // Per-coupler adjacency, once: the union of the couplers
        // incident to either endpoint, minus the gate itself.
        let adjacency: Vec<Vec<CouplerId>> = chip
            .coupler_ids()
            .map(|c| {
                let (a, b) = chip.coupler(c).expect("coupler id in range").endpoints();
                let mut out: Vec<CouplerId> = chip
                    .couplers_of(a)
                    .iter()
                    .chain(chip.couplers_of(b))
                    .copied()
                    .filter(|&x| x != c)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();

        // Parallelism indices from the cached adjacency.
        let mut parallelism = scratch.take_f64(n, 0.0);
        for (i, slot) in parallelism.iter_mut().enumerate() {
            *slot = match index.device(i) {
                DeviceId::Coupler(c) => adjacency[c.index()].len() as f64,
                DeviceId::Qubit(q) => {
                    let gates = chip.couplers_of(q);
                    if gates.is_empty() {
                        0.0
                    } else {
                        let total: usize = gates.iter().map(|&g| adjacency[g.index()].len()).sum();
                        total as f64 / chip.connectivity(q).max(1) as f64
                    }
                }
            };
        }

        let ends: Vec<[QubitId; 2]> = chip.couplers().map(|c| c.endpoints().into()).collect();
        let gateless: Vec<usize> = (0..chip.num_qubits())
            .filter(|&q| chip.couplers_of(q.into()).is_empty())
            .collect();
        let mut legal = scratch.take_u64(n * words, !0);
        let mut topo = scratch.take_f64(n * n, 0.0);
        let mut noise = scratch.take_f64(n * n, 0.0);
        for i in 0..n {
            let a = index.device(i);
            legal_row(chip, a, i, n, &mut legal[i * words..][..words]);
            topo_row(chip, a, &ends, &gateless, &mut topo[i * n..][..n]);
            noise_row(xtalk, a, &ends, &mut noise[i * n..][..n]);
        }

        BUILDS.fetch_add(1, Ordering::Relaxed);
        PairKernels {
            index,
            words,
            parallelism,
            legal,
            topo,
            noise,
            adjacency,
        }
    }

    /// The device densification the tables are indexed by.
    pub fn index(&self) -> &DeviceIndex {
        &self.index
    }

    /// Number of Z-controlled devices covered.
    pub fn num_devices(&self) -> usize {
        self.index.len()
    }

    /// Flat index of a device (delegates to [`DeviceIndex::dense`]).
    #[inline]
    pub fn dense(&self, d: DeviceId) -> usize {
        self.index.dense(d)
    }

    /// Whether two devices may legally share a DEMUX
    /// ([`crate::tdm::legal_pair`] as a bitset lookup).
    #[inline]
    pub fn legal(&self, a: DeviceId, b: DeviceId) -> bool {
        self.legal_dense(self.index.dense(a), self.index.dense(b))
    }

    /// [`Self::legal`] over flat indices.
    #[inline]
    pub fn legal_dense(&self, i: usize, j: usize) -> bool {
        self.legal[i * self.words + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Fraction of gate pairs between two devices that topologically
    /// conflict (table lookup).
    #[inline]
    pub fn topo(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.topo_dense(self.index.dense(a), self.index.dense(b))
    }

    /// [`Self::topo`] over flat indices.
    #[inline]
    pub fn topo_dense(&self, i: usize, j: usize) -> f64 {
        self.topo[i * self.index.len() + j]
    }

    /// Worst-case crosstalk between the qubits of two devices (table
    /// lookup).
    #[inline]
    pub fn noise(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.noise_dense(self.index.dense(a), self.index.dense(b))
    }

    /// [`Self::noise`] over flat indices.
    #[inline]
    pub fn noise_dense(&self, i: usize, j: usize) -> f64 {
        self.noise[i * self.index.len() + j]
    }

    /// The parallelism index of a device (table lookup; equals
    /// [`crate::tdm::parallelism_index`]).
    #[inline]
    pub fn parallelism(&self, d: DeviceId) -> f64 {
        self.parallelism[self.index.dense(d)]
    }

    /// Gates sharing a qubit endpoint with `gate` (excluding `gate`),
    /// sorted — the cached form of the old `adjacent_gates` allocation.
    #[inline]
    pub fn adjacent_gates(&self, gate: CouplerId) -> &[CouplerId] {
        &self.adjacency[gate.index()]
    }

    /// Densifies an [`ActivityProfile`] into a flat per-device mask
    /// vector indexed by [`DeviceIndex::dense`] (devices absent from the
    /// profile get mask 0, i.e. never busy).
    pub fn densify_activity(&self, activity: &ActivityProfile) -> Vec<u32> {
        self.densify_activity_in(activity, &mut Scratch::default())
    }

    /// [`Self::densify_activity`] drawing the mask vector from a
    /// scratch arena; the caller retires it with `Scratch::retire_u32`
    /// once the grouping or refinement pass is done with it.
    pub fn densify_activity_in(
        &self,
        activity: &ActivityProfile,
        scratch: &mut Scratch,
    ) -> Vec<u32> {
        let mut masks = scratch.take_u32(self.index.len(), 0);
        for (&d, &mask) in activity {
            // Profiles for a different chip may mention out-of-range
            // devices; the naive path treats lookups by map `get`, so
            // only in-range devices can matter here.
            let i = match d {
                DeviceId::Qubit(q) if q.index() < self.index.num_qubits => q.index(),
                DeviceId::Coupler(c) if c.index() < self.index.num_couplers => {
                    self.index.num_qubits + c.index()
                }
                _ => continue,
            };
            masks[i] = mask;
        }
        masks
    }

    /// Applies a crosstalk-value delta in place: recomputes the noisy
    /// non-parallelism rows (and columns) of every device whose qubit
    /// set touches a `dirty` qubit, against the updated matrix.
    ///
    /// Only the `noise` table depends on crosstalk *values*; legality,
    /// topological fractions, parallelism indices and gate adjacency are
    /// functions of the chip topology alone, so a value-only drift
    /// leaves them exact. Structural changes (couplers added or
    /// removed, qubit count changes) invalidate the densification
    /// itself and require a fresh [`PairKernels::build`].
    ///
    /// Every recomputed entry comes from [`crate::tdm::noisy_score`],
    /// which a fresh build's rows match bit for bit, so the updated
    /// kernels equal a rebuild from scratch (`tests/probes.rs` checks).
    ///
    /// Returns the number of device rows recomputed and advances the
    /// [`Self::invalidation_count`] probe.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension or the chip's device counts
    /// mismatch the tables (i.e. the chip changed structurally).
    pub fn apply_delta(&mut self, chip: &Chip, xtalk: &DistanceMatrix, dirty: &[QubitId]) -> usize {
        assert_eq!(
            xtalk.len(),
            chip.num_qubits(),
            "crosstalk matrix size mismatch"
        );
        assert_eq!(
            self.index,
            DeviceIndex::new(chip),
            "chip changed structurally; rebuild the kernels instead"
        );
        let n = self.index.len();

        // Dirty devices: each dirty qubit's own Z device plus every
        // coupler incident to it (noisy_score reads the crosstalk rows
        // of a device's qubit endpoints).
        let mut rows: Vec<usize> = Vec::new();
        for &q in dirty {
            assert!(q.index() < chip.num_qubits(), "dirty qubit out of range");
            rows.push(self.index.dense(DeviceId::Qubit(q)));
            for &c in chip.couplers_of(q) {
                rows.push(self.index.dense(DeviceId::Coupler(c)));
            }
        }
        rows.sort_unstable();
        rows.dedup();

        for &i in &rows {
            let a = self.index.device(i);
            for j in 0..n {
                let b = self.index.device(j);
                self.noise[i * n + j] = crate::tdm::noisy_score(chip, xtalk, a, b);
                self.noise[j * n + i] = crate::tdm::noisy_score(chip, xtalk, b, a);
            }
        }

        INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
        rows.len()
    }

    /// Consumes the kernels, retiring their dense table storage into a
    /// scratch arena so the next [`Self::build_in`] on a similar chip
    /// reuses the capacity instead of reallocating. The adjacency lists
    /// are nested per-coupler allocations built once per chip and are
    /// simply dropped.
    pub fn retire_into(self, scratch: &mut Scratch) {
        scratch.retire_f64(self.parallelism);
        scratch.retire_u64(self.legal);
        scratch.retire_f64(self.topo);
        scratch.retire_f64(self.noise);
    }

    /// Cumulative number of kernel tables built in this process (probe
    /// for the bench harness and the `verify.sh` bench-smoke step).
    pub fn build_count() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Cumulative number of [`Self::apply_delta`] invalidations in this
    /// process — the `kernels_invalidated` probe next to
    /// [`Self::build_count`].
    pub fn invalidation_count() -> u64 {
        INVALIDATIONS.load(Ordering::Relaxed)
    }
}

/// Row `i` of the legality table ([`crate::tdm::legal_pair`]), over a
/// row of ones: all `n` devices (no bit past them) but `a`, each gate
/// of `a` and the gates' ends.
fn legal_row(chip: &Chip, a: DeviceId, i: usize, n: usize, row: &mut [u64]) {
    row[row.len() - 1] = !0 >> (64 * row.len() - n);
    let mut clear = |j: usize| row[j / 64] &= !(1u64 << (j % 64));
    clear(i);
    for &c in crate::tdm::device_gates(chip, a).as_slice() {
        let (x, y) = chip.coupler(c).expect("gate id in range").endpoints();
        for j in [x.index(), y.index(), chip.num_qubits() + c.index()] {
            clear(j);
        }
    }
}

/// Device `a`'s row of the topological table, over a zeroed `row`: 1.0
/// where either device has no gate, else 0.0 unless a gate of each
/// shares an endpoint ([`crate::tdm::topo_nonparallel_fraction`]).
fn topo_row(chip: &Chip, a: DeviceId, ends: &[[QubitId; 2]], gateless: &[usize], row: &mut [f64]) {
    let gates = crate::tdm::device_gates(chip, a);
    if gates.as_slice().is_empty() {
        return row.fill(1.0);
    }
    gateless.iter().for_each(|&j| row[j] = 1.0);
    for &g in gates.as_slice() {
        for &h in ends[g.index()].iter().flat_map(|&e| chip.couplers_of(e)) {
            let [h0, h1] = ends[h.index()];
            let h = (chip.num_qubits() + h.index(), DeviceId::Coupler(h));
            for (j, b) in [h, (h0.index(), h0.into()), (h1.index(), h1.into())] {
                // Positive once computed: `h` shares an end with `g`.
                if row[j] == 0.0 {
                    row[j] = crate::tdm::topo_nonparallel_fraction(chip, a, b);
                }
            }
        }
    }
}

/// Device `a`'s row of the noise table, over a zeroed `row`
/// ([`crate::tdm::noisy_score`]): the same maxima in the same order,
/// reading `xtalk` a row at a time. Coupler `c` has endpoints `ends[c]`.
fn noise_row(xtalk: &DistanceMatrix, a: DeviceId, ends: &[[QubitId; 2]], row: &mut [f64]) {
    let own = match a {
        DeviceId::Qubit(q) => &[q][..],
        DeviceId::Coupler(c) => &ends[c.index()][..],
    };
    let (qubits, couplers) = row.split_at_mut(xtalk.len());
    for &x in own {
        let from = xtalk.row(x);
        for ((y, slot), &value) in qubits.iter_mut().enumerate().zip(from) {
            if x.index() != y {
                *slot = slot.max(value);
            }
        }
        for (slot, pair) in couplers.iter_mut().zip(ends) {
            for &y in pair.iter().filter(|&&y| y != x) {
                *slot = slot.max(from[y.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::crosstalk_matrix;
    use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
    use youtiao_chip::topology;

    fn setup(n: usize) -> (Chip, DistanceMatrix) {
        let chip = topology::square_grid(n, n);
        let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let xtalk = crosstalk_matrix(&chip, &eq, None);
        (chip, xtalk)
    }

    #[test]
    fn dense_index_round_trips() {
        let (chip, _) = setup(3);
        let index = DeviceIndex::new(&chip);
        assert_eq!(index.len(), chip.num_z_devices());
        for (i, d) in chip.device_ids().enumerate() {
            assert_eq!(
                index.dense(d),
                i,
                "device_ids order is qubits then couplers"
            );
            assert_eq!(index.device(i), d);
        }
    }

    /// Checks every entry of `k` against the per-pair functions on
    /// `xtalk`, bit for bit.
    fn assert_tables_match(chip: &Chip, xtalk: &DistanceMatrix, k: &PairKernels) {
        let name = chip.name();
        for a in chip.device_ids() {
            assert_eq!(
                k.parallelism(a).to_bits(),
                crate::tdm::parallelism_index(chip, a).to_bits(),
                "{name}: {a}"
            );
            for b in chip.device_ids() {
                assert_eq!(
                    k.legal(a, b),
                    crate::tdm::legal_pair(chip, a, b),
                    "{name}: {a} {b}"
                );
                assert_eq!(
                    k.topo(a, b).to_bits(),
                    crate::tdm::topo_nonparallel_fraction(chip, a, b).to_bits(),
                    "{name}: {a} {b}"
                );
                assert_eq!(
                    k.noise(a, b).to_bits(),
                    crate::tdm::noisy_score(chip, xtalk, a, b).to_bits(),
                    "{name}: {a} {b}"
                );
            }
        }
        // Bits past the last device stay clear in every row.
        let n = k.num_devices();
        if !n.is_multiple_of(64) {
            for row in k.legal.chunks_exact(k.words) {
                assert_eq!(row[n / 64] >> (n % 64), 0, "{name}");
            }
        }
    }

    /// Compares the tables of every chip's context without a model,
    /// with a fitted XY model, and after `with_zz_model` rebuilt them
    /// from recycled storage.
    fn assert_contexts_match(chips: &[Chip]) {
        use crate::PlanContext;
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let fit = |kind, config: &SynthConfig| {
            let samples = synthesize(&topology::square_grid(4, 4), kind, config, 5);
            fit_crosstalk_model(&samples, &FitConfig::fast()).expect("4x4 fits")
        };
        let xy = fit(CrosstalkKind::Xy, &SynthConfig::xy());
        let zz = fit(CrosstalkKind::Zz, &SynthConfig::zz());
        for chip in chips {
            for model in [None, Some(&xy)] {
                let ctx = PlanContext::build(chip, model, EquivalentWeights::balanced());
                assert_tables_match(chip, ctx.crosstalk(), ctx.kernels());
            }
            let ctx = PlanContext::build(chip, Some(&xy), EquivalentWeights::balanced())
                .with_zz_model(chip, &zz);
            let zz_matrix = ctx.zz_crosstalk().expect("zz matrix");
            assert_tables_match(chip, zz_matrix, ctx.kernels());
        }
    }

    #[test]
    fn tables_match_the_scalar_functions() {
        use youtiao_chip::surface::SurfaceCode;
        use youtiao_chip::{ChipBuilder, Position, TopologyKind};
        // Qubit 2 has no coupler: gateless columns inside gated rows.
        let isolated = (0..6)
            .fold(
                ChipBuilder::new("isolated", TopologyKind::Custom),
                |b, i| b.qubit(Position::new(i as f64, (i % 2) as f64)),
            )
            .coupler(0u32.into(), 1u32.into())
            .coupler(1u32.into(), 3u32.into())
            .coupler(3u32.into(), 4u32.into())
            .coupler(4u32.into(), 5u32.into())
            .coupler(5u32.into(), 3u32.into())
            .build()
            .expect("valid chip");
        assert_contexts_match(&[
            topology::square_grid(3, 3),
            topology::square_grid(4, 5),
            topology::heavy_square(3, 3),
            topology::hexagon_patch(2, 2),
            topology::heavy_hexagon(2, 2),
            topology::ibm_heavy_hex(27),
            topology::low_density(4, 4),
            topology::sycamore(4, 4),
            topology::ring(8),
            topology::linear(1),
            topology::linear(2),
            topology::linear(7),
            SurfaceCode::rotated(3).into_chip(),
            SurfaceCode::rotated(5).into_chip(),
            topology::square_grid(1, 1),
            isolated,
        ]);
    }

    #[test]
    #[ignore = "hundreds of devices squared against the per-pair functions; run with --release"]
    fn large_tables_match_the_scalar_functions() {
        assert_contexts_match(&[
            youtiao_chip::surface::SurfaceCode::rotated(9).into_chip(),
            topology::square_grid(16, 16),
            topology::square_grid(24, 24),
        ]);
    }

    #[test]
    fn adjacency_is_sorted_and_excludes_self() {
        let (chip, xtalk) = setup(4);
        let k = PairKernels::build(&chip, &xtalk);
        for c in chip.coupler_ids() {
            let adj = k.adjacent_gates(c);
            assert!(adj.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(!adj.contains(&c));
        }
    }

    #[test]
    fn activity_densification_matches_map_lookups() {
        let (chip, xtalk) = setup(3);
        let k = PairKernels::build(&chip, &xtalk);
        let profile = crate::tdm::brickwork_activity(&chip);
        let masks = k.densify_activity(&profile);
        for d in chip.device_ids() {
            assert_eq!(masks[k.dense(d)], profile.get(&d).copied().unwrap_or(0));
        }
        // Unknown devices (different chip) are ignored.
        let mut foreign = ActivityProfile::new();
        foreign.insert(DeviceId::Qubit(999u32.into()), 0b1);
        assert!(k.densify_activity(&foreign).iter().all(|&m| m == 0));
    }

    #[test]
    fn build_count_probe_advances() {
        let (chip, xtalk) = setup(2);
        let before = PairKernels::build_count();
        let _k = PairKernels::build(&chip, &xtalk);
        assert!(PairKernels::build_count() > before);
    }

    #[test]
    #[should_panic(expected = "crosstalk matrix size mismatch")]
    fn mismatched_matrix_rejected() {
        let (chip, _) = setup(3);
        let wrong = DistanceMatrix::zeros(4);
        let _ = PairKernels::build(&chip, &wrong);
    }

    #[test]
    fn apply_delta_with_no_dirty_qubits_is_a_noop() {
        let (chip, xtalk) = setup(3);
        let mut k = PairKernels::build(&chip, &xtalk);
        let copy = k.clone();
        assert_eq!(k.apply_delta(&chip, &xtalk, &[]), 0);
        assert_eq!(k, copy);
    }

    #[test]
    #[should_panic(expected = "rebuild the kernels")]
    fn apply_delta_rejects_structural_change() {
        let (chip, xtalk) = setup(3);
        let mut k = PairKernels::build(&chip, &xtalk);
        let bigger = topology::square_grid(4, 4);
        let eq = equivalent_matrix(&bigger, EquivalentWeights::balanced());
        let wider = crosstalk_matrix(&bigger, &eq, None);
        let _ = k.apply_delta(&bigger, &wider, &[QubitId::new(0)]);
    }
}
