//! Two-level coarse-grained frequency allocation (§4.2).
//!
//! Level 1 (in-line): the effective 4–7 GHz band is split into as many
//! zones as the longest FDM line; the k-th qubit of every line lands in
//! zone k, guaranteeing large in-line spacing for the cryogenic band-pass
//! filters. Level 2 (cross-line): within each zone, qubits pick the
//! 10 MHz cell minimizing model-predicted crosstalk against all already
//! placed qubits; when a zone's cells are exhausted (frequency crowding),
//! a cell is *reused* by the pair with the least mutual crosstalk. A
//! final in-group swap pass lowers the global objective further.
//!
//! The production path reads rows of the crosstalk matrix: cell scoring
//! walks the already-placed qubits in placement order against the row
//! of the qubit being placed, skipping every entry that is not `> 0.0`,
//! spectral-proximity factors come from the lazily-filled
//! [`ScalingTable`] over the cell lattice, and each candidate swap is
//! judged by an exact O(n) objective delta over the two swapped qubits'
//! rows ([`ScalingTable::swap_delta`]) instead of two full O(n²)
//! [`FrequencyPlan::objective`] sweeps. The test-only `naive` module
//! retains the direct implementation (same semantics, no tables) and
//! the differential suite below pins the two byte-identical across
//! layouts, configs, bands and rows with zero, negative and NaN
//! entries.

use std::time::Instant;

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, QubitId};
use youtiao_exec::ParallelExec;
use youtiao_noise::model::frequency_scaling;

use crate::error::PlanError;
use crate::fdm::FdmLine;
use crate::freq_kernels::{BandLattice, ScalingTable};
use crate::scratch::Scratch;

/// Configuration of the frequency allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqConfig {
    /// Usable qubit band in GHz (the paper uses 4–7 GHz).
    pub band_ghz: (f64, f64),
    /// Cell granularity within a zone, MHz (the paper uses 10 MHz).
    pub cell_mhz: f64,
    /// Number of greedy in-group swap passes after placement.
    pub swap_passes: usize,
    /// When set, each qubit may only be tuned within ± this range (GHz)
    /// of its fabrication base frequency — §4.2 notes the Z-line tuning
    /// range is "typically within 50 MHz". `None` treats frequencies as
    /// free design variables (a chip-design-time allocation).
    pub tuning_range_ghz: Option<f64>,
}

impl FreqConfig {
    /// A post-fabrication retuning configuration: cells must lie within
    /// ±50 MHz of each qubit's base frequency.
    pub fn retuning() -> Self {
        FreqConfig {
            tuning_range_ghz: Some(0.05),
            ..Default::default()
        }
    }
}

impl Default for FreqConfig {
    fn default() -> Self {
        FreqConfig {
            band_ghz: (4.0, 7.0),
            cell_mhz: 10.0,
            swap_passes: 2,
            tuning_range_ghz: None,
        }
    }
}

/// A per-qubit frequency assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyPlan {
    freqs_ghz: Vec<f64>,
    zones: usize,
    zone_of: Vec<usize>,
    reused_cells: usize,
}

impl FrequencyPlan {
    /// Assembles a plan from explicit per-qubit frequencies. Low-level:
    /// intended for baselines and tests; prefer [`allocate_frequencies`].
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn from_frequencies(freqs_ghz: Vec<f64>, zones: usize, zone_of: Vec<usize>) -> Self {
        assert_eq!(freqs_ghz.len(), zone_of.len(), "length mismatch");
        FrequencyPlan {
            freqs_ghz,
            zones,
            zone_of,
            reused_cells: 0,
        }
    }

    /// Overrides the reused-cell count — for callers (the repair
    /// patcher) that assemble a plan via [`Self::from_frequencies`] but
    /// recount crowding-driven reuse themselves.
    pub fn with_reused_cells(mut self, reused_cells: usize) -> Self {
        self.reused_cells = reused_cells;
        self
    }

    /// Frequency of qubit `q` in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn frequency_ghz(&self, q: QubitId) -> f64 {
        self.freqs_ghz[q.index()]
    }

    /// Zone index of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn zone_of(&self, q: QubitId) -> usize {
        self.zone_of[q.index()]
    }

    /// Number of zones the band was split into.
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// How many cells had to be reused due to frequency crowding.
    pub fn reused_cells(&self) -> usize {
        self.reused_cells
    }

    /// All frequencies in qubit-id order, GHz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs_ghz
    }

    /// Swaps the complete assignments (frequency **and** zone) of two
    /// qubits.
    ///
    /// Swapping within one FDM line preserves every in-line invariant —
    /// the line's multiset of (frequency, zone) assignments is unchanged
    /// — which is what the multi-die link reconciliation relies on to
    /// fix cross-die collisions without replanning a die.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_assignments(&mut self, a: QubitId, b: QubitId) {
        self.freqs_ghz.swap(a.index(), b.index());
        self.zone_of.swap(a.index(), b.index());
    }

    /// The global crosstalk objective: the sum over qubit pairs of
    /// predicted crosstalk scaled by spectral proximity.
    pub fn objective(&self, xtalk: &DistanceMatrix) -> f64 {
        let mut total = 0.0;
        for (a, b, x) in xtalk.iter_pairs() {
            if x > 0.0 {
                let df = self.freqs_ghz[a.index()] - self.freqs_ghz[b.index()];
                total += x * frequency_scaling(df);
            }
        }
        total
    }
}

/// The number of zones a band is split into for `lines`: the longest
/// line (so every line's members fit in distinct zones), at least one.
fn zones_for(lines: &[FdmLine]) -> usize {
    lines.iter().map(FdmLine::len).max().unwrap_or(0).max(1)
}

/// Zone of the `k`-th member of a line: design-time allocation spreads
/// line members across zones; post-fabrication retuning must stay in
/// the zone the base frequency already sits in.
fn zone_for(config: &FreqConfig, lattice: &BandLattice, base: f64, k: usize) -> usize {
    match config.tuning_range_ghz {
        None => k % lattice.zones(),
        Some(_) => (((base - lattice.lo()) / lattice.zone_width()).floor() as isize)
            .clamp(0, lattice.zones() as isize - 1) as usize,
    }
}

/// The allocator's cell-selection policy: prefer empty cells over
/// reuse, letting a reused cell win only when it is *strictly cheaper*
/// than the best empty cell. Shared by the allocator, the
/// test-only `naive` reference, and `repair::patch_frequencies` so the
/// three cannot drift.
#[inline]
pub fn cell_better(best: &Option<(usize, f64, bool)>, cost: f64, reuse: bool) -> bool {
    match *best {
        None => true,
        Some((_, best_cost, best_reuse)) => match (reuse, best_reuse) {
            // An empty cell displaces a reused incumbent unless the
            // incumbent is strictly cheaper.
            (false, true) => cost <= best_cost,
            // A reused cell displaces an empty incumbent only when
            // strictly cheaper; like-for-like keeps the earlier cell
            // on ties.
            _ => cost < best_cost,
        },
    }
}

/// Allocates frequencies for all qubits of `chip` grouped into `lines`,
/// minimizing crosstalk predicted by the symmetric `xtalk` matrix
/// (`xtalk[a][b]` = model-predicted crosstalk between qubits `a`, `b`).
///
/// Allocates serially with a fresh arena; the planner allocates on its
/// context's arenas through [`allocate_frequencies_in`].
///
/// # Errors
///
/// * [`PlanError::InvalidConfig`] — degenerate band or cell size.
/// * [`PlanError::FrequencyCrowded`] — a qubit has no feasible cell in
///   its zone (only possible with a tuning-range constraint).
///
/// # Panics
///
/// Panics if `lines` does not cover every chip qubit exactly once or if
/// `xtalk` has the wrong dimension.
pub fn allocate_frequencies(
    chip: &Chip,
    lines: &[FdmLine],
    xtalk: &DistanceMatrix,
    config: &FreqConfig,
) -> Result<FrequencyPlan, PlanError> {
    allocate_frequencies_in(
        chip,
        lines,
        xtalk,
        config,
        &mut |_, _| {},
        &mut Scratch::default(),
        &ParallelExec::serial(),
    )
}

/// Frequency allocation on a scratch arena (the planner's entry).
/// `hook` receives the `"place"` and `"swap"` sub-stage durations.
/// Working buffers (scaling table, slot map, cell scores, the list of
/// placed qubits) come from the arena and go back when the allocation
/// finishes, and when `exec` has threads to spare every scaling row is
/// materialized up front across them. Output is byte-identical for any
/// thread count.
///
/// # Errors
///
/// As [`allocate_frequencies`].
///
/// # Panics
///
/// As [`allocate_frequencies`].
pub fn allocate_frequencies_in(
    chip: &Chip,
    lines: &[FdmLine],
    xtalk: &DistanceMatrix,
    config: &FreqConfig,
    hook: &mut dyn FnMut(&'static str, std::time::Duration),
    scratch: &mut Scratch,
    exec: &ParallelExec,
) -> Result<FrequencyPlan, PlanError> {
    let n = chip.num_qubits();
    assert_eq!(xtalk.len(), n, "crosstalk matrix size mismatch");
    let covered: usize = lines.iter().map(FdmLine::len).sum();
    assert_eq!(covered, n, "lines must cover every qubit exactly once");

    let lattice = BandLattice::new(config, zones_for(lines))?;
    let zones = lattice.zones();
    let cells_per_zone = lattice.cells_per_zone();

    let started = Instant::now();
    let mut table = ScalingTable::new_in(&lattice, scratch);
    if exec.is_parallel_for(table.slots()) {
        // Pre-materialize every scaling row concurrently (bit-identical
        // to the lazy fills) so the serial placement loop below never
        // stalls on a row fill.
        table.materialize_rows(exec);
    }
    // `freqs` and `zone_of` escape into the returned plan, so they are
    // plain allocations, not arena checkouts.
    let mut freqs = vec![f64::NAN; n];
    let mut zone_of = vec![0usize; n];
    let mut slot_of = scratch.take_usize(n, usize::MAX);
    let mut occupancy: Vec<Vec<Vec<QubitId>>> = vec![vec![Vec::new(); cells_per_zone]; zones];
    // The qubits placed so far, in placement order: the term order of
    // every cell's sum, as in the naive path. Taken at full length so
    // its capacity never grows.
    let mut placed = scratch.take_u32(n, 0);
    placed.clear();
    let mut reused_cells = 0usize;

    let mut scores = scratch.take_f64(cells_per_zone, 0.0);
    for line in lines {
        for (k, &q) in line.qubits().iter().enumerate() {
            let base = chip
                .qubit(q)
                .expect("qubit id in range")
                .base_frequency_ghz();
            let zone = zone_for(config, &lattice, base, k);
            zone_of[q.index()] = zone;
            // Score every cell against the placed qubits, transposed:
            // each placed qubit with positive crosstalk walks its
            // scaling row once over the zone's contiguous slot range,
            // accumulating into per-cell scores. Per cell the terms
            // still land in placement order, so every sum stays
            // bit-identical to a per-cell sweep.
            let zone_base = table.slot(zone, 0);
            let xrow = xtalk.row(q);
            scores.fill(0.0);
            for &p in &placed {
                let x = xrow[p as usize];
                if x > 0.0 {
                    let row =
                        &table.row(slot_of[p as usize])[zone_base..zone_base + cells_per_zone];
                    for (s, r) in scores.iter_mut().zip(row) {
                        *s += x * r;
                    }
                }
            }
            // Empty cells score crosstalk vs placed qubits; occupied
            // cells additionally carry a reuse penalty equal to the
            // direct crosstalk with their occupants.
            let mut best: Option<(usize, f64, bool)> = None;
            #[allow(clippy::needless_range_loop)] // occupancy[zone] is borrowed per cell
            for cell in 0..cells_per_zone {
                let slot = table.slot(zone, cell);
                let f = table.freq(slot);
                if let Some(range) = config.tuning_range_ghz {
                    if (f - base).abs() > range {
                        continue;
                    }
                }
                let occupants = &occupancy[zone][cell];
                let reuse = !occupants.is_empty();
                let mut cost = scores[cell];
                // Frequency reuse (same cell) is only tolerable between
                // minimally-interacting pairs; weight it heavily.
                if reuse {
                    for &p in occupants {
                        cost += 100.0 * xtalk.get(q, p);
                    }
                }
                if cell_better(&best, cost, reuse) {
                    best = Some((cell, cost, reuse));
                }
            }
            let (cell, _, reuse) = best.ok_or(PlanError::FrequencyCrowded { qubit: q })?;
            if reuse {
                reused_cells += 1;
            }
            let slot = table.slot(zone, cell);
            freqs[q.index()] = table.freq(slot);
            slot_of[q.index()] = slot;
            table.ensure_row(slot);
            occupancy[zone][cell].push(q);
            placed.push(q.index() as u32);
        }
    }
    hook("place", started.elapsed());

    // In-group swap pass (§4.2 constraint 3): swapping two members of
    // the same line exchanges their zones/cells; keep a swap exactly
    // when its local objective delta is negative (the (a, b) pair term
    // is invariant under the swap, so the delta over the two rows is
    // the entire objective change).
    let started = Instant::now();
    for _ in 0..config.swap_passes {
        let mut improved = false;
        for line in lines {
            let members = line.qubits();
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let (a, b) = (members[i], members[j]);
                    if let Some(range) = config.tuning_range_ghz {
                        // A swap must keep both qubits inside their
                        // tuning windows.
                        let base_a = chip.qubit(a).expect("in range").base_frequency_ghz();
                        let base_b = chip.qubit(b).expect("in range").base_frequency_ghz();
                        let fa = freqs[a.index()];
                        let fb = freqs[b.index()];
                        if (fb - base_a).abs() > range || (fa - base_b).abs() > range {
                            continue;
                        }
                    }
                    if table.swap_delta(xtalk, &slot_of, a, b) < 0.0 {
                        freqs.swap(a.index(), b.index());
                        zone_of.swap(a.index(), b.index());
                        slot_of.swap(a.index(), b.index());
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    hook("swap", started.elapsed());

    table.retire_into(scratch);
    scratch.retire_usize(slot_of);
    scratch.retire_u32(placed);
    scratch.retire_f64(scores);

    Ok(FrequencyPlan {
        freqs_ghz: freqs,
        zones,
        zone_of,
        reused_cells,
    })
}

/// Baseline allocation used for comparison (George et al. and the naive
/// baseline): in-line spacing only. Each line spreads its qubits evenly
/// across the band in member order, every line using the *same* pattern —
/// maximizing in-line separation but ignoring cross-line collisions.
///
/// # Panics
///
/// Panics if `lines` does not cover every chip qubit exactly once —
/// the same coverage contract as [`allocate_frequencies`]; a partial
/// cover would leave `NaN` frequencies that poison
/// [`FrequencyPlan::objective`] comparisons downstream.
pub fn allocate_in_line_only(chip: &Chip, lines: &[FdmLine], config: &FreqConfig) -> FrequencyPlan {
    let n = chip.num_qubits();
    let covered: usize = lines.iter().map(FdmLine::len).sum();
    assert_eq!(covered, n, "lines must cover every qubit exactly once");
    let (lo, hi) = config.band_ghz;
    let zones = zones_for(lines);
    let zone_width = (hi - lo) / zones as f64;
    let mut freqs = vec![f64::NAN; n];
    let mut zone_of = vec![0usize; n];
    for line in lines {
        for (k, &q) in line.qubits().iter().enumerate() {
            let zone = k % zones;
            freqs[q.index()] = lo + zone as f64 * zone_width + zone_width / 2.0;
            zone_of[q.index()] = zone;
        }
    }
    FrequencyPlan {
        freqs_ghz: freqs,
        zones,
        zone_of,
        reused_cells: 0,
    }
}

/// The direct (table-free) reference implementation of the allocator.
///
/// Semantically identical to [`allocate_frequencies_in`] — same
/// lattice, same cell-selection policy, same exact swap criterion — but
/// every crosstalk and `frequency_scaling` term is computed on the
/// spot. The differential suite pins the two byte-identical.
#[cfg(test)]
pub mod naive {
    use super::*;

    /// Objective change from swapping the frequencies of `a` and `b`,
    /// computed the way the original allocator paid for it: a full
    /// sweep over every qubit pair — the cost of the two
    /// `objective()` recomputes the pre-kernel swap pass ran per
    /// candidate. The sweep accumulates per-pair term *differences*
    /// instead of two global sums, so unchanged pairs contribute an
    /// exact `+0.0` and the comparison needs no `1e-15` noise margin.
    /// The `(a, b)` pair term is invariant (`frequency_scaling` is
    /// even), so it lands on `+0.0` too. A `+∞` entry breaks this: its
    /// unchanged pair adds `+∞ × 0.0 = NaN`.
    ///
    /// [`ScalingTable::swap_delta`] emits the identical term sequence
    /// (lexicographic pair order) while touching only the O(n) pairs
    /// that actually move.
    ///
    /// [`ScalingTable::swap_delta`]: crate::freq_kernels::ScalingTable::swap_delta
    pub fn swap_delta(xtalk: &DistanceMatrix, freqs: &[f64], a: QubitId, b: QubitId) -> f64 {
        let (ai, bi) = (a.index(), b.index());
        let after = |i: usize| {
            if i == ai {
                freqs[bi]
            } else if i == bi {
                freqs[ai]
            } else {
                freqs[i]
            }
        };
        let mut delta = 0.0;
        for (p, q, x) in xtalk.iter_pairs() {
            if x > 0.0 {
                let was = frequency_scaling(freqs[p.index()] - freqs[q.index()]);
                let now = frequency_scaling(after(p.index()) - after(q.index()));
                delta += x * (now - was);
            }
        }
        delta
    }

    /// Reference allocator: identical semantics to the kernelized path,
    /// no precomputed tables.
    ///
    /// # Errors
    ///
    /// Same as [`allocate_frequencies`].
    ///
    /// # Panics
    ///
    /// Same as [`allocate_frequencies`].
    pub fn allocate_frequencies_naive(
        chip: &Chip,
        lines: &[FdmLine],
        xtalk: &DistanceMatrix,
        config: &FreqConfig,
    ) -> Result<FrequencyPlan, PlanError> {
        allocate_with_policy(chip, lines, xtalk, config, false)
    }

    /// The pre-fix cell-selection predicate — `(reuse == breuse && cost
    /// < bc) || (!reuse && breuse)` — which could flip reuse→empty but
    /// never let a strictly cheaper reused cell win. Kept only so the
    /// quality test can show the corrected policy never worsens the
    /// objective.
    #[cfg(test)]
    pub(crate) fn allocate_frequencies_legacy_reuse(
        chip: &Chip,
        lines: &[FdmLine],
        xtalk: &DistanceMatrix,
        config: &FreqConfig,
    ) -> Result<FrequencyPlan, PlanError> {
        allocate_with_policy(chip, lines, xtalk, config, true)
    }

    fn allocate_with_policy(
        chip: &Chip,
        lines: &[FdmLine],
        xtalk: &DistanceMatrix,
        config: &FreqConfig,
        legacy_reuse: bool,
    ) -> Result<FrequencyPlan, PlanError> {
        let n = chip.num_qubits();
        assert_eq!(xtalk.len(), n, "crosstalk matrix size mismatch");
        let covered: usize = lines.iter().map(FdmLine::len).sum();
        assert_eq!(covered, n, "lines must cover every qubit exactly once");

        let lattice = BandLattice::new(config, zones_for(lines))?;
        let zones = lattice.zones();
        let cells_per_zone = lattice.cells_per_zone();

        let mut freqs = vec![f64::NAN; n];
        let mut zone_of = vec![0usize; n];
        let mut occupancy: Vec<Vec<Vec<QubitId>>> = vec![vec![Vec::new(); cells_per_zone]; zones];
        let mut placed: Vec<QubitId> = Vec::new();
        let mut reused_cells = 0usize;

        for line in lines {
            for (k, &q) in line.qubits().iter().enumerate() {
                let base = chip
                    .qubit(q)
                    .expect("qubit id in range")
                    .base_frequency_ghz();
                let zone = zone_for(config, &lattice, base, k);
                zone_of[q.index()] = zone;
                let mut best: Option<(usize, f64, bool)> = None;
                #[allow(clippy::needless_range_loop)] // occupancy[zone] is borrowed per cell
                for cell in 0..cells_per_zone {
                    let f = lattice.cell_freq(zone, cell);
                    if let Some(range) = config.tuning_range_ghz {
                        if (f - base).abs() > range {
                            continue;
                        }
                    }
                    let occupants = &occupancy[zone][cell];
                    let reuse = !occupants.is_empty();
                    let mut cost = 0.0;
                    for &p in &placed {
                        let x = xtalk.get(q, p);
                        if x > 0.0 {
                            cost += x * frequency_scaling(f - freqs[p.index()]);
                        }
                    }
                    if reuse {
                        for &p in occupants {
                            cost += 100.0 * xtalk.get(q, p);
                        }
                    }
                    let better = if legacy_reuse {
                        match best {
                            None => true,
                            Some((_, bc, breuse)) => {
                                (reuse == breuse && cost < bc) || (!reuse && breuse)
                            }
                        }
                    } else {
                        cell_better(&best, cost, reuse)
                    };
                    if better {
                        best = Some((cell, cost, reuse));
                    }
                }
                let (cell, _, reuse) = best.ok_or(PlanError::FrequencyCrowded { qubit: q })?;
                if reuse {
                    reused_cells += 1;
                }
                freqs[q.index()] = lattice.cell_freq(zone, cell);
                occupancy[zone][cell].push(q);
                placed.push(q);
            }
        }

        for _ in 0..config.swap_passes {
            let mut improved = false;
            for line in lines {
                let members = line.qubits();
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        let (a, b) = (members[i], members[j]);
                        if let Some(range) = config.tuning_range_ghz {
                            let base_a = chip.qubit(a).expect("in range").base_frequency_ghz();
                            let base_b = chip.qubit(b).expect("in range").base_frequency_ghz();
                            let fa = freqs[a.index()];
                            let fb = freqs[b.index()];
                            if (fb - base_a).abs() > range || (fa - base_b).abs() > range {
                                continue;
                            }
                        }
                        if swap_delta(xtalk, &freqs, a, b) < 0.0 {
                            freqs.swap(a.index(), b.index());
                            zone_of.swap(a.index(), b.index());
                            improved = true;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }

        Ok(FrequencyPlan {
            freqs_ghz: freqs,
            zones,
            zone_of,
            reused_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdm::{group_fdm, group_fdm_local};
    use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
    use youtiao_chip::topology;

    /// Synthetic crosstalk matrix: exponential decay of equivalent distance.
    fn xtalk_matrix(chip: &Chip) -> DistanceMatrix {
        let eq = equivalent_matrix(chip, EquivalentWeights::balanced());
        let mut m = DistanceMatrix::zeros(chip.num_qubits());
        for (a, b, d) in eq.iter_pairs() {
            let x = if d.is_finite() {
                0.01 * (-d / 2.0).exp()
            } else {
                0.0
            };
            m.set(a, b, x);
        }
        m
    }

    use youtiao_chip::Chip;

    fn setup(n: usize, cap: usize) -> (Chip, Vec<FdmLine>, DistanceMatrix) {
        let chip = topology::square_grid(n, n);
        let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let lines = group_fdm(&chip, &eq, cap);
        let x = xtalk_matrix(&chip);
        (chip, lines, x)
    }

    #[test]
    fn all_qubits_get_in_band_frequencies() {
        let (chip, lines, x) = setup(4, 5);
        let plan = allocate_frequencies(&chip, &lines, &x, &FreqConfig::default()).unwrap();
        for q in chip.qubit_ids() {
            let f = plan.frequency_ghz(q);
            assert!((4.0..=7.0).contains(&f), "{q} at {f}");
        }
    }

    #[test]
    fn in_line_qubits_land_in_distinct_zones() {
        let (chip, lines, x) = setup(5, 5);
        let plan = allocate_frequencies(&chip, &lines, &x, &FreqConfig::default()).unwrap();
        for line in &lines {
            if line.len() <= plan.zones() {
                let mut zones: Vec<usize> =
                    line.qubits().iter().map(|&q| plan.zone_of(q)).collect();
                zones.sort_unstable();
                zones.dedup();
                assert_eq!(zones.len(), line.len(), "zone collision within a line");
            }
        }
    }

    #[test]
    fn in_line_spacing_is_large() {
        let (chip, lines, x) = setup(5, 5);
        let _ = chip;
        let plan = allocate_frequencies(&chip, &lines, &x, &FreqConfig::default()).unwrap();
        for line in &lines {
            let qs = line.qubits();
            for i in 0..qs.len() {
                for j in (i + 1)..qs.len() {
                    let df = (plan.frequency_ghz(qs[i]) - plan.frequency_ghz(qs[j])).abs();
                    assert!(df > 0.2, "in-line spacing {df} GHz too small");
                }
            }
        }
    }

    #[test]
    fn optimized_beats_in_line_only() {
        let (chip, lines, x) = setup(6, 5);
        let optimized = allocate_frequencies(&chip, &lines, &x, &FreqConfig::default()).unwrap();
        let local_lines = group_fdm_local(&chip, 5);
        let naive = allocate_in_line_only(&chip, &local_lines, &FreqConfig::default());
        assert!(
            optimized.objective(&x) < naive.objective(&x),
            "optimized {} vs naive {}",
            optimized.objective(&x),
            naive.objective(&x)
        );
    }

    #[test]
    fn no_reuse_needed_on_small_chips() {
        let (chip, lines, x) = setup(4, 5);
        let plan = allocate_frequencies(&chip, &lines, &x, &FreqConfig::default()).unwrap();
        assert_eq!(plan.reused_cells(), 0);
    }

    #[test]
    fn crowding_triggers_reuse_not_failure() {
        // Capacity 2 -> 2 zones of 1.5 GHz; 600 MHz cells leave only two
        // cells per zone for ~5 qubits: reuse must kick in.
        let (chip, lines, x) = setup(3, 2);
        let cfg = FreqConfig {
            cell_mhz: 600.0,
            ..Default::default()
        };
        let plan = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        assert!(plan.reused_cells() > 0);
        // Frequencies still in band.
        for q in chip.qubit_ids() {
            assert!((4.0..=7.0).contains(&plan.frequency_ghz(q)));
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let (chip, lines, x) = setup(3, 5);
        let bad = FreqConfig {
            band_ghz: (7.0, 4.0),
            ..Default::default()
        };
        assert!(matches!(
            allocate_frequencies(&chip, &lines, &x, &bad),
            Err(PlanError::InvalidConfig(_))
        ));
        let bad2 = FreqConfig {
            cell_mhz: 0.0,
            ..Default::default()
        };
        assert!(allocate_frequencies(&chip, &lines, &x, &bad2).is_err());
        let bad3 = FreqConfig {
            cell_mhz: 5000.0,
            ..Default::default()
        };
        assert!(allocate_frequencies(&chip, &lines, &x, &bad3).is_err());
    }

    #[test]
    fn in_line_only_reuses_same_pattern_across_lines() {
        let chip = topology::square_grid(3, 3);
        let lines = group_fdm_local(&chip, 3);
        let plan = allocate_in_line_only(&chip, &lines, &FreqConfig::default());
        // First member of each line shares the same frequency — the
        // cross-line collision the paper's baseline suffers from.
        let f0 = plan.frequency_ghz(lines[0].qubits()[0]);
        let f3 = plan.frequency_ghz(lines[1].qubits()[0]);
        assert_eq!(f0, f3);
    }

    /// Satellite regression: a partial cover used to silently produce
    /// `NaN` frequencies that poison `objective()` comparisons — now it
    /// panics like `allocate_frequencies` does.
    #[test]
    #[should_panic(expected = "lines must cover every qubit exactly once")]
    fn in_line_only_rejects_partial_coverage() {
        let chip = topology::square_grid(3, 3);
        let mut lines = group_fdm_local(&chip, 3);
        lines.pop();
        let _ = allocate_in_line_only(&chip, &lines, &FreqConfig::default());
    }

    #[test]
    fn retuning_mode_stays_within_tuning_window() {
        let (chip, lines, x) = setup(5, 5);
        let cfg = FreqConfig::retuning();
        let plan = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        for q in chip.qubit_ids() {
            let base = chip.qubit(q).unwrap().base_frequency_ghz();
            let f = plan.frequency_ghz(q);
            assert!(
                (f - base).abs() <= 0.05 + 1e-12,
                "{q}: tuned {f} from base {base}"
            );
        }
    }

    #[test]
    fn retuning_zones_follow_base_frequencies() {
        let (chip, lines, x) = setup(4, 4);
        let cfg = FreqConfig::retuning();
        let plan = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let (lo, hi) = cfg.band_ghz;
        let zone_width = (hi - lo) / plan.zones() as f64;
        for q in chip.qubit_ids() {
            let base = chip.qubit(q).unwrap().base_frequency_ghz();
            let expected = (((base - lo) / zone_width).floor() as isize)
                .clamp(0, plan.zones() as isize - 1) as usize;
            assert_eq!(plan.zone_of(q), expected, "{q}");
        }
    }

    #[test]
    fn objective_decreases_or_equal_with_more_swap_passes() {
        let (chip, lines, x) = setup(5, 5);
        let none = allocate_frequencies(
            &chip,
            &lines,
            &x,
            &FreqConfig {
                swap_passes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let some = allocate_frequencies(
            &chip,
            &lines,
            &x,
            &FreqConfig {
                swap_passes: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(some.objective(&x) <= none.objective(&x) + 1e-12);
    }

    /// Satellite regression: each kept swap now requires an exactly
    /// negative delta, so once a pass finds no improving swap, more
    /// passes change nothing — the plan is a fixed point, not a
    /// tolerance-dependent orbit.
    #[test]
    fn swap_passes_reach_a_deterministic_fixed_point() {
        let (chip, lines, x) = setup(5, 4);
        let at = |passes: usize| {
            allocate_frequencies(
                &chip,
                &lines,
                &x,
                &FreqConfig {
                    swap_passes: passes,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let converged = at(8);
        assert_eq!(converged, at(9));
        assert_eq!(converged, at(32));
        // And the allocator is deterministic run-to-run.
        assert_eq!(converged, at(8));
    }

    /// Satellite quality test: letting a strictly cheaper reused cell
    /// win (the documented policy) never worsens the objective relative
    /// to the legacy predicate that could only flip reuse→empty.
    #[test]
    fn corrected_reuse_policy_never_worsens_the_objective() {
        for (n, cap, cell_mhz) in [(3, 2, 600.0), (4, 3, 400.0), (5, 4, 300.0), (4, 2, 700.0)] {
            let (chip, lines, x) = setup(n, cap);
            let cfg = FreqConfig {
                cell_mhz,
                ..Default::default()
            };
            let corrected = naive::allocate_frequencies_naive(&chip, &lines, &x, &cfg).unwrap();
            let legacy = naive::allocate_frequencies_legacy_reuse(&chip, &lines, &x, &cfg).unwrap();
            assert!(
                corrected.objective(&x) <= legacy.objective(&x) + 1e-12,
                "{n}x{n} cap {cap} cell {cell_mhz}: corrected {} vs legacy {}",
                corrected.objective(&x),
                legacy.objective(&x)
            );
        }
    }

    /// Differential suite: the kernelized allocator must be
    /// byte-identical to the naive reference across layouts (grid,
    /// surface code, heavy hex), configs (design-time and retuning),
    /// and bands (qubit XY and readout) — including error cases.
    mod differential {
        use super::*;
        use youtiao_chip::surface::SurfaceCode;

        fn readout_band() -> FreqConfig {
            // Mirrors PlannerConfig::default().readout_freq.
            FreqConfig {
                band_ghz: (7.0, 8.0),
                cell_mhz: 30.0,
                swap_passes: 1,
                tuning_range_ghz: None,
            }
        }

        fn check(chip: &Chip, lines: &[FdmLine], x: &DistanceMatrix, cfg: &FreqConfig) {
            let fast = allocate_frequencies(chip, lines, x, cfg);
            let slow = naive::allocate_frequencies_naive(chip, lines, x, cfg);
            let case = format!("{} {cfg:?}", chip.name());
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f, s, "{case}: plans diverged");
                    for (a, b) in f.frequencies().iter().zip(s.frequencies()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{case}: frequency bits diverged");
                    }
                }
                _ => assert_eq!(fast, slow, "{case}: error outcomes diverged"),
            }
        }

        fn suite(chip: Chip, cap: usize) {
            let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
            let lines = group_fdm(&chip, &eq, cap);
            let x = xtalk_matrix(&chip);
            for cfg in [
                FreqConfig::default(),
                FreqConfig::retuning(),
                readout_band(),
                FreqConfig {
                    swap_passes: 4,
                    ..Default::default()
                },
            ] {
                check(&chip, &lines, &x, &cfg);
            }
        }

        #[test]
        fn grid_matches() {
            suite(topology::square_grid(5, 5), 5);
            suite(topology::square_grid(6, 6), 4);
        }

        #[test]
        fn surface_code_matches() {
            suite(SurfaceCode::rotated(3).into_chip(), 5);
            suite(SurfaceCode::rotated(5).into_chip(), 5);
        }

        #[test]
        fn heavy_hex_matches() {
            suite(topology::heavy_hexagon(2, 2), 5);
            suite(topology::heavy_hexagon(3, 2), 4);
        }

        /// Both bands as the planner allocates them on the square grids
        /// `youtiao bench-plan` times by default: FDM lines in the
        /// qubit band and capacity-chunked feedlines in the readout
        /// band, under the default configs and scored with a context's
        /// XY matrix.
        #[test]
        #[ignore = "naive allocation at 24x24 takes seconds; run with --release"]
        fn planner_bands_match_on_bench_grids() {
            use crate::plan::{PlannerConfig, DEFAULT_FDM_CAPACITY, DEFAULT_READOUT_CAPACITY};
            use crate::PlanContext;
            let defaults = PlannerConfig::default();
            for n in [6, 8, 10, 12, 16, 24] {
                let chip = topology::square_grid(n, n);
                let ctx = PlanContext::build(&chip, None, defaults.weights);
                let lines = group_fdm(&chip, ctx.equivalent(), DEFAULT_FDM_CAPACITY);
                check(&chip, &lines, ctx.crosstalk(), &defaults.freq);
                let qubits: Vec<QubitId> = chip.qubit_ids().collect();
                let feedlines: Vec<FdmLine> = qubits
                    .chunks(DEFAULT_READOUT_CAPACITY)
                    .map(|c| FdmLine::new(c.to_vec()))
                    .collect();
                check(&chip, &feedlines, ctx.crosstalk(), &defaults.readout_freq);
            }
        }

        #[test]
        fn crowded_reuse_matches() {
            // Crowded zones exercise the reuse penalty and the
            // corrected reuse-vs-empty policy on both paths.
            for (n, cap, cell_mhz) in [(3, 2, 600.0), (4, 3, 500.0), (5, 3, 400.0)] {
                let (chip, lines, x) = setup(n, cap);
                let cfg = FreqConfig {
                    cell_mhz,
                    ..Default::default()
                };
                let plan = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
                assert!(plan.reused_cells() > 0, "{n}x{n} not crowded");
                check(&chip, &lines, &x, &cfg);
            }
        }

        /// A 4×6 grid without the couplers between its third and fourth
        /// columns: two 4×3 halves whose cross-half crosstalk is zero.
        fn two_halves() -> Chip {
            let grid = topology::square_grid(4, 6);
            let mut spec = youtiao_chip::spec::ChipSpec::from_chip(&grid);
            spec.couplers.retain(|&(a, b)| (a % 6 < 3) == (b % 6 < 3));
            let chip = spec.to_chip().unwrap();
            assert!(!chip.is_connected());
            chip
        }

        /// The proxy matrix of `chip` with seeded pairs overwritten by
        /// zero, a negated value or NaN and, when `infinite`, by +∞:
        /// entries the allocator must skip in its sums (all but +∞),
        /// exactly as the naive reference does.
        fn non_positive(chip: &Chip, seed: u64, infinite: bool) -> DistanceMatrix {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut x = xtalk_matrix(chip);
            let pairs: Vec<(QubitId, QubitId, f64)> = x.iter_pairs().collect();
            for (a, b, v) in pairs {
                let v = match rng.gen_range(0..20) {
                    0..=2 => 0.0,
                    3..=5 => -v,
                    6 => f64::NAN,
                    7 if infinite => f64::INFINITY,
                    _ => v,
                };
                x.set(a, b, v);
            }
            x
        }

        /// The chips and configs of the non-positive cases: both bands,
        /// retuning, extra swap passes and crowded cells.
        fn non_positive_cases() -> (Vec<(Chip, Vec<FdmLine>)>, [FreqConfig; 5]) {
            let chips = [
                (topology::square_grid(5, 5), 5),
                (topology::heavy_hexagon(2, 2), 4),
                (two_halves(), 5),
            ]
            .map(|(chip, cap)| {
                let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
                let lines = group_fdm(&chip, &eq, cap);
                (chip, lines)
            });
            let configs = [
                FreqConfig::default(),
                FreqConfig::retuning(),
                readout_band(),
                FreqConfig {
                    swap_passes: 4,
                    ..Default::default()
                },
                FreqConfig {
                    cell_mhz: 400.0,
                    ..Default::default()
                },
            ];
            (chips.into(), configs)
        }

        /// Zero, negative and NaN entries, and a chip of two
        /// disconnected halves, bit for bit against the naive
        /// reference.
        #[test]
        fn non_positive_rows_match() {
            let (chips, configs) = non_positive_cases();
            for (chip, lines) in &chips {
                for seed in 0..3 {
                    let x = non_positive(chip, seed, false);
                    for cfg in &configs {
                        check(chip, lines, &x, cfg);
                    }
                }
            }
        }

        /// Seeded lattice slots for every qubit of `chip`, their table
        /// rows materialized, and the slots' frequencies.
        fn seeded_slots(chip: &Chip, seed: u64) -> (ScalingTable, Vec<usize>, Vec<f64>) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(100 + seed);
            let lattice = BandLattice::new(&FreqConfig::default(), 4).unwrap();
            let mut table = ScalingTable::new(&lattice);
            let slot_of: Vec<usize> = chip
                .qubit_ids()
                .map(|_| rng.gen_range(0..lattice.slots()))
                .collect();
            for &s in &slot_of {
                table.ensure_row(s);
            }
            let freqs = slot_of.iter().map(|&s| table.freq(s)).collect();
            (table, slot_of, freqs)
        }

        /// The swap delta against the naive full-pair sweep, bit for
        /// bit, for every ordered pair of qubits on seeded slots, over
        /// the matrices of [`non_positive_rows_match`].
        #[test]
        fn swap_delta_matches_naive_on_non_positive_rows() {
            for chip in [topology::square_grid(5, 5), two_halves()] {
                for seed in 0..3 {
                    let (table, slot_of, freqs) = seeded_slots(&chip, seed);
                    let x = non_positive(&chip, seed, false);
                    for a in chip.qubit_ids() {
                        for b in chip.qubit_ids() {
                            let rows = table.swap_delta(&x, &slot_of, a, b);
                            let sweep = naive::swap_delta(&x, &freqs, a, b);
                            assert_eq!(
                                rows.to_bits(),
                                sweep.to_bits(),
                                "{} seed {seed} ({a}, {b}): {rows} vs {sweep}",
                                chip.name()
                            );
                        }
                    }
                }
            }
        }

        /// FNV-1a over 64-bit words.
        fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for word in words {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
            hash
        }

        /// With +∞ entries the naive sweep is no oracle: it adds
        /// `+∞ × 0.0 = NaN` for every +∞ pair a swap leaves in place,
        /// so it rejects every swap, while the allocator sums only the
        /// pairs a swap moves. Per chip, the allocations of every case
        /// config and the swap deltas of every ordered pair on seeded
        /// slots keep the bits recorded from the allocator that summed
        /// over sparse positive-neighbour lists.
        #[test]
        fn infinite_entries_keep_their_recorded_bits() {
            let (chips, configs) = non_positive_cases();
            let pins: [(u64, u64); 3] = [
                (0x4698_67a2_ec7a_81e5, 0x39da_0da3_680c_e08d),
                (0x920d_2469_63e3_5516, 0x4ffc_e8b5_77fa_08fc),
                (0x9d2c_008a_3b78_13bf, 0xaac2_0f2b_176a_491d),
            ];
            for ((chip, lines), (plans_pin, deltas_pin)) in chips.iter().zip(pins) {
                let mut plans = Vec::new();
                let mut deltas = Vec::new();
                for seed in 0..3 {
                    let x = non_positive(chip, seed, true);
                    for cfg in &configs {
                        match allocate_frequencies(chip, lines, &x, cfg) {
                            Ok(plan) => {
                                plans.extend(plan.frequencies().iter().map(|f| f.to_bits()));
                                plans.extend(chip.qubit_ids().map(|q| plan.zone_of(q) as u64));
                                plans.push(plan.reused_cells() as u64);
                            }
                            Err(_) => plans.push(u64::MAX),
                        }
                    }
                    let (table, slot_of, _) = seeded_slots(chip, seed);
                    for a in chip.qubit_ids() {
                        for b in chip.qubit_ids() {
                            deltas.push(table.swap_delta(&x, &slot_of, a, b).to_bits());
                        }
                    }
                }
                assert_eq!(digest(plans), plans_pin, "{}: allocations", chip.name());
                assert_eq!(digest(deltas), deltas_pin, "{}: swap deltas", chip.name());
            }
        }

        #[test]
        fn infeasible_configs_error_identically() {
            let (chip, lines, x) = setup(3, 5);
            for bad in [
                FreqConfig {
                    band_ghz: (7.0, 4.0),
                    ..Default::default()
                },
                FreqConfig {
                    cell_mhz: 0.0,
                    ..Default::default()
                },
                FreqConfig {
                    cell_mhz: 5000.0,
                    ..Default::default()
                },
            ] {
                check(&chip, &lines, &x, &bad);
            }
        }
    }
}
