//! Precomputed pairwise kernels for the grouping hot loops.
//!
//! The §4.2–§4.3 grouping passes are the planner's hot path: the greedy
//! graph-coloring of [`crate::tdm`] and the hill-climbing of
//! [`crate::refine`] both evaluate O(n²) candidate pairs, and the naive
//! implementations re-derive every pairwise term — legality, topological
//! non-parallelism, worst-case crosstalk, per-coupler gate adjacency —
//! per candidate per iteration, allocating as they go. A [`PairKernels`]
//! precomputes the terms that depend on the chip's topology alone
//! **once per chip**, indexed by a flat [`DeviceIndex`] densification: a
//! legality bitset, each device's sparse row of topological fractions
//! (only devices sharing a gate endpoint have a non-zero one) and each
//! device's qubits. Worst-case crosstalk is read from the qubit
//! crosstalk matrix the plan scores with, which the kernels never copy,
//! so the rewritten inner loops need no devices×devices table (see
//! `group_tdm` / `refine_tdm_groups`). `SortedRows` keeps a matrix's
//! rows in descending order, sorted as the grouping's walks first need
//! them; a `PlanContext` keeps those of its TDM matrix.
//!
//! # Determinism contract
//!
//! The kernels are a *representation* change, not an algorithm change:
//! every lookup returns the naive path's per-pair value bit for bit
//! (unit tests compare every pair with [`crate::tdm::legal_pair`] and
//! the topo-fraction and noisy-score helpers), so a kernelized pass is
//! **byte-identical** to the retained naive implementations, which
//! only the crate's own tests compile. Differential tests in
//! `crate::tdm` and `crate::refine` enforce this across random chips, θ
//! values, activity profiles and budgets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, CouplerId, DeviceId, QubitId};

use crate::scratch::Scratch;
use crate::tdm::ActivityProfile;

/// Global count of [`PairKernels::build`] calls — a probe for tests and
/// the bench harness asserting kernels are built once per chip, not per
/// plan or per grid point.
static BUILDS: AtomicU64 = AtomicU64::new(0);

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

/// Precomputed pairwise interaction kernels for one chip: everything
/// topological the grouping and refinement inner loops would otherwise
/// recompute per candidate.
///
/// The kernels hold no crosstalk value: [`Self::noise`] reads the
/// matrix the caller scores with, so one set of kernels serves the XY
/// matrix, a ZZ matrix and every drifted matrix of the same chip.
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
    /// Where each device's row starts in `topo_entries`, plus the end.
    topo_starts: Vec<usize>,
    /// Per device, `(flat index, topo_nonparallel_fraction)` for every
    /// device sharing a gate endpoint with it, sorted by index: the
    /// only gated pairs with a non-zero fraction.
    topo_entries: Vec<(u32, f64)>,
    /// Devices without a gate (qubits without couplers), whose fraction
    /// is 1.0 against every device.
    gateless: Vec<bool>,
    /// Each device's qubits: a qubit twice, a coupler's two endpoints.
    qubits: Vec<[QubitId; 2]>,
    /// Where each qubit's couplers start in `incident`, plus the end.
    incident_starts: Vec<usize>,
    /// Per qubit, the flat indices of its couplers.
    incident: Vec<u32>,
    /// Per-coupler adjacent gates (couplers sharing a qubit endpoint),
    /// sorted and deduplicated — what `adjacent_gates` used to allocate
    /// and sort on every call.
    adjacency: Vec<Vec<CouplerId>>,
}

impl PairKernels {
    /// Precomputes every topological pairwise kernel for `chip`.
    pub fn build(chip: &Chip) -> Self {
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
        let parallelism: Vec<f64> = (0..n)
            .map(|i| match index.device(i) {
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
            })
            .collect();

        let ends: Vec<[QubitId; 2]> = chip.couplers().map(|c| c.endpoints().into()).collect();
        let mut legal = vec![!0; n * words];
        let mut topo_starts = Vec::with_capacity(n + 1);
        let mut topo_entries = Vec::new();
        let mut neighbours = Vec::new();
        topo_starts.push(0);
        for i in 0..n {
            let a = index.device(i);
            legal_row(chip, a, i, n, &mut legal[i * words..][..words]);
            topo_neighbours(chip, a, &ends, &mut neighbours);
            topo_entries.extend(neighbours.iter().map(|&j| {
                let b = index.device(j);
                (j as u32, crate::tdm::topo_nonparallel_fraction(chip, a, b))
            }));
            topo_starts.push(topo_entries.len());
        }
        topo_entries.shrink_to_fit();
        let nq = chip.num_qubits();
        let gateless = (0..n)
            .map(|i| i < nq && chip.couplers_of(i.into()).is_empty())
            .collect();
        let mut incident_starts = Vec::with_capacity(nq + 1);
        let mut incident = Vec::with_capacity(2 * chip.num_couplers());
        incident_starts.push(0);
        for q in chip.qubit_ids() {
            incident.extend(chip.couplers_of(q).iter().map(|c| (nq + c.index()) as u32));
            incident_starts.push(incident.len());
        }
        let qubits = (0..nq).map(|q| [q.into(); 2]).chain(ends).collect();

        BUILDS.fetch_add(1, Ordering::Relaxed);
        PairKernels {
            index,
            words,
            parallelism,
            legal,
            topo_starts,
            topo_entries,
            gateless,
            qubits,
            incident_starts,
            incident,
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

    /// Number of qubits of the chip: the dimension of every crosstalk
    /// matrix [`Self::noise`] may read.
    pub fn num_qubits(&self) -> usize {
        self.index.num_qubits
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

    /// Row `i` of the legality bitset: bit `j % 64` of word `j / 64` is
    /// set when devices `i` and `j` may share a DEMUX. Bits past the
    /// last device are clear.
    #[inline]
    pub(crate) fn legal_bits(&self, i: usize) -> &[u64] {
        &self.legal[i * self.words..][..self.words]
    }

    /// Fraction of gate pairs between two devices that topologically
    /// conflict.
    #[inline]
    pub fn topo(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.topo_dense(self.index.dense(a), self.index.dense(b))
    }

    /// [`Self::topo`] over flat indices: 1.0 when either device is
    /// gateless, else the entry of `j` in `i`'s row, or 0.0 without one.
    #[inline]
    pub fn topo_dense(&self, i: usize, j: usize) -> f64 {
        if self.gateless[i] || self.gateless[j] {
            return 1.0;
        }
        let row = self.topo_entries(i);
        row.binary_search_by_key(&(j as u32), |&(k, _)| k)
            .map_or(0.0, |at| row[at].1)
    }

    /// Device `i`'s positive fractions against gated devices, as
    /// `(flat index, fraction)` sorted by index; empty for a gateless
    /// device.
    #[inline]
    pub fn topo_entries(&self, i: usize) -> &[(u32, f64)] {
        &self.topo_entries[self.topo_starts[i]..self.topo_starts[i + 1]]
    }

    /// Whether the device at flat index `i` has no gate.
    #[inline]
    pub fn gateless(&self, i: usize) -> bool {
        self.gateless[i]
    }

    /// The qubits of the device at flat index `i`: the qubit itself, or
    /// a coupler's two endpoints.
    #[inline]
    pub fn qubits(&self, i: usize) -> &[QubitId] {
        &self.qubits[i][..if i < self.index.num_qubits { 1 } else { 2 }]
    }

    /// [`Self::qubits`] as a pair: a qubit twice.
    #[inline]
    pub fn qubit_pair(&self, i: usize) -> [QubitId; 2] {
        self.qubits[i]
    }

    /// The flat indices of qubit `q`'s couplers: with `q` itself, the
    /// devices whose qubits include `q`.
    #[inline]
    pub(crate) fn incident(&self, q: usize) -> &[u32] {
        &self.incident[self.incident_starts[q]..self.incident_starts[q + 1]]
    }

    /// Worst-case crosstalk under `xtalk` between the qubits of two
    /// devices: the naive `noisy_score` bit for bit, the same maxima
    /// in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is smaller than the chip.
    pub fn noise(&self, xtalk: &DistanceMatrix, a: DeviceId, b: DeviceId) -> f64 {
        let mut worst = 0.0f64;
        for &x in self.qubits(self.index.dense(a)) {
            for &y in self.qubits(self.index.dense(b)) {
                if x != y {
                    worst = worst.max(xtalk.get(x, y));
                }
            }
        }
        worst
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

    /// Cumulative number of kernel tables built in this process (probe
    /// for the bench harness and the `verify.sh` bench-smoke step).
    pub fn build_count() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }
}

/// Each qubit's positive crosstalk entries under one matrix: the other
/// qubits `y` with `xtalk[x][y] > 0`, sorted by descending value, ties
/// by index. A walk reads only the first few entries of a row, so each
/// row is kept in two parts, each computed the first time a walk asks
/// for it: its first [`ROW_PREFIX`] entries (selected, then sorted) and,
/// only for a walk that reads past them, the whole row. Concurrent
/// readers share both (one `OnceLock` each), and the table of rows is
/// allocated by the first walk.
///
/// The rows hold indices only, so they are valid only beside the matrix
/// they were first read with: [`crate::PlanContext`] keeps one set for
/// the matrix TDM grouping scores with and replaces it whenever that
/// matrix changes. Like the chain memo, the rows are warm state: a
/// clone starts empty and any two compare equal.
pub(crate) struct SortedRows {
    num_qubits: usize,
    rows: OnceLock<Box<[SortedRow]>>,
}

/// One row of [`SortedRows`]: its prefix and the whole row.
#[derive(Default)]
struct SortedRow {
    prefix: OnceLock<Box<[u32]>>,
    whole: OnceLock<Box<[u32]>>,
}

/// Entries of a row sorted before a walk reads past them. Over
/// plan-sweep's chips (surface d9, 16×16 and 24×24) and twelve TDM
/// configurations, walks read at most 8 entries of a row at θ ≤ 4 and
/// 12 at θ = 8, except with 1:8 DEMUXes on 24×24, where 78 of the 576
/// rows are read past 16 entries (at most 32).
pub(crate) const ROW_PREFIX: usize = 16;

impl SortedRows {
    /// Empty rows for a matrix over `num_qubits` qubits.
    pub(crate) fn new(num_qubits: usize) -> Self {
        SortedRows {
            num_qubits,
            rows: OnceLock::new(),
        }
    }

    /// Row `x`'s parts, allocating the table on first use.
    fn slot(&self, x: QubitId) -> &SortedRow {
        let rows = self
            .rows
            .get_or_init(|| (0..self.num_qubits).map(|_| SortedRow::default()).collect());
        &rows[x.index()]
    }

    /// The first [`ROW_PREFIX`] entries of row `x` of `xtalk` (all of
    /// them, if the row has no more).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range of the rows or the matrix.
    pub(crate) fn prefix(&self, xtalk: &DistanceMatrix, x: QubitId) -> &[u32] {
        self.slot(x)
            .prefix
            .get_or_init(|| sorted_entries(xtalk.row(x), x, ROW_PREFIX))
    }

    /// Every entry of row `x` of `xtalk`; its first [`ROW_PREFIX`] are
    /// [`Self::prefix`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range of the rows or the matrix.
    pub(crate) fn row(&self, xtalk: &DistanceMatrix, x: QubitId) -> &[u32] {
        self.slot(x)
            .whole
            .get_or_init(|| sorted_entries(xtalk.row(x), x, usize::MAX))
    }

    /// Rows whose prefix is sorted, and rows sorted whole.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> (usize, usize) {
        let rows = self.rows.get().map_or(&[][..], |rows| &rows[..]);
        let count = |part: fn(&SortedRow) -> &OnceLock<Box<[u32]>>| {
            rows.iter().filter(|row| part(row).get().is_some()).count()
        };
        (count(|row| &row.prefix), count(|row| &row.whole))
    }
}

/// The first `len` of the qubits `y ≠ x` with `values[y] > 0`, by
/// descending value, ties by index: a total order, so a prefix equals
/// the start of the whole sorted row. Each entry is ranked by one
/// integer, the value's bits (which order positive floats as their
/// values) above the complement of the index.
fn sorted_entries(values: &[f64], x: QubitId, len: usize) -> Box<[u32]> {
    let mut keys: Vec<u128> = values
        .iter()
        .enumerate()
        .filter(|&(y, &v)| y != x.index() && v > 0.0)
        .map(|(y, &v)| u128::from(v.to_bits()) << 32 | u128::from(!(y as u32)))
        .collect();
    if keys.len() > len {
        keys.select_nth_unstable_by(len, |a, b| b.cmp(a));
        keys.truncate(len);
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.into_iter().map(|key| !(key as u32)).collect()
}

impl std::fmt::Debug for SortedRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortedRows").finish_non_exhaustive()
    }
}

impl Clone for SortedRows {
    /// Cloned rows start empty.
    fn clone(&self) -> Self {
        SortedRows::new(self.num_qubits)
    }
}

impl PartialEq for SortedRows {
    /// Rows never differentiate their contexts: each is a function of
    /// the matrix beside it.
    fn eq(&self, _: &Self) -> bool {
        true
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

/// The flat indices, sorted and deduplicated into `out`, of the devices
/// a gate of which shares an endpoint with a gate of `a`: the only
/// devices with a non-zero [`crate::tdm::topo_nonparallel_fraction`]
/// against a gated `a`. Coupler `c` has endpoints `ends[c]`.
fn topo_neighbours(chip: &Chip, a: DeviceId, ends: &[[QubitId; 2]], out: &mut Vec<usize>) {
    out.clear();
    for &g in crate::tdm::device_gates(chip, a).as_slice() {
        for &h in ends[g.index()].iter().flat_map(|&e| chip.couplers_of(e)) {
            let [h0, h1] = ends[h.index()];
            out.extend([chip.num_qubits() + h.index(), h0.index(), h1.index()]);
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::EquivalentWeights;
    use youtiao_chip::topology;

    #[test]
    fn dense_index_round_trips() {
        let chip = topology::square_grid(3, 3);
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
                    k.noise(xtalk, a, b).to_bits(),
                    crate::tdm::noisy_score(chip, xtalk, a, b).to_bits(),
                    "{name}: {a} {b}"
                );
            }
            // Sparse rows list positive fractions only, in index order.
            let row = k.topo_entries(k.dense(a));
            assert!(row.iter().all(|&(_, v)| v > 0.0), "{name}: {a}");
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{name}: {a}");
        }
        // Bits past the last device stay clear in every row.
        let n = k.num_devices();
        if !n.is_multiple_of(64) {
            for row in k.legal.chunks_exact(k.words) {
                assert_eq!(row[n / 64] >> (n % 64), 0, "{name}");
            }
        }
    }

    /// Compares the kernels of every chip's context with the per-pair
    /// functions on the matrix TDM grouping scores with: the XY matrix
    /// without a model and with a fitted one, then the ZZ matrix after
    /// `with_zz_model`, which keeps the topology-only kernels.
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
                assert_tables_match(chip, ctx.tdm_crosstalk(), ctx.kernels());
            }
            let ctx = PlanContext::build(chip, Some(&xy), EquivalentWeights::balanced())
                .with_zz_model(chip, &zz);
            let zz_matrix = ctx.zz_crosstalk().expect("zz matrix");
            assert_eq!(ctx.tdm_crosstalk(), zz_matrix);
            assert_eq!(ctx.kernels(), &PairKernels::build(chip));
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
        // A non-zero diagonal, which the worst-case score skips.
        let chip = topology::square_grid(3, 3);
        let ctx = crate::PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let mut xtalk = ctx.crosstalk().clone();
        for q in chip.qubit_ids() {
            xtalk.set(q, q, 1.0);
        }
        assert_tables_match(&chip, &xtalk, ctx.kernels());
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
        let chip = topology::square_grid(4, 4);
        let k = PairKernels::build(&chip);
        for c in chip.coupler_ids() {
            let adj = k.adjacent_gates(c);
            assert!(adj.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(!adj.contains(&c));
        }
    }

    #[test]
    fn activity_densification_matches_map_lookups() {
        let chip = topology::square_grid(3, 3);
        let k = PairKernels::build(&chip);
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
        let chip = topology::square_grid(2, 2);
        let before = PairKernels::build_count();
        let _k = PairKernels::build(&chip);
        assert!(PairKernels::build_count() > before);
    }
}
