//! Band tables for frequency allocation (§4.2 hot loops).
//!
//! The two-level allocator's inner loops are dominated by two O(n)
//! scans per candidate cell: crosstalk lookups against every placed
//! qubit and [`frequency_scaling`] evaluations at spectral offsets
//! that always lie on the `cell_mhz` lattice. The crosstalk lookups
//! read rows of the crosstalk [`DistanceMatrix`] directly, skipping
//! every entry that is not `> 0.0`: a fitted model's matrix is positive
//! for every connected pair, so a sparse copy of its positive entries
//! would hold the matrix a second time. The spectral factors are
//! tabulable once per band:
//!
//! * [`BandLattice`] — the zone/cell grid of a band: every candidate
//!   frequency is `cell_freq(zone, cell)`, so the lattice is the single
//!   source of truth for the cell geometry shared by the allocator, the
//!   test-only `freq::naive` reference, and `repair::patch_frequencies`.
//! * [`ScalingTable`] — `frequency_scaling` evaluated between lattice
//!   slots, filled lazily one row per *occupied* slot (at most
//!   `min(n, slots)` rows) so small problems never pay for the full
//!   slots² table.
//!
//! # Determinism contract
//!
//! Kernelized paths must produce plans *byte-identical* to the naive
//! reference. Table entries are therefore computed by the exact
//! expression the naive path evaluates — `frequency_scaling(f_row -
//! f_col)` on frequencies from the shared [`BandLattice::cell_freq`]
//! formula — and consumers rely on `frequency_scaling` being an even
//! function whose IEEE evaluation is sign-symmetric
//! (`frequency_scaling(-d)` is bit-equal to `frequency_scaling(d)`:
//! the quotient `d / γ` only flips sign and `x * x` discards it). The
//! `scaling_table_matches_frequency_scaling` test and the
//! `scaling_table_matches_model_at_every_offset` property in
//! `tests/properties.rs` pin both facts.

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::QubitId;
use youtiao_exec::ParallelExec;
use youtiao_noise::model::frequency_scaling;

use crate::error::PlanError;
use crate::freq::FreqConfig;
use crate::scratch::Scratch;

/// The zone/cell lattice of a frequency band: `zones` equal-width zones
/// over `band_ghz`, each split into `cell_mhz`-wide cells. Candidate
/// frequencies are cell centers; [`Self::cell_freq`] reproduces the
/// allocator's historical formula bit-for-bit so plans cannot move when
/// callers migrate to the shared lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct BandLattice {
    lo: f64,
    zone_width: f64,
    cell_mhz: f64,
    zones: usize,
    cells_per_zone: usize,
}

/// Tolerance on the fractional cell count. `(zone_width * 1000) /
/// cell_mhz` is exact in real arithmetic for exact-division configs
/// (e.g. a 0.6 GHz zone at 600 MHz cells) but can float-round to
/// 0.99999…, losing a cell or spuriously reporting `InvalidConfig`.
/// The tolerance is far below any meaningful fractional cell.
const CELL_COUNT_EPS: f64 = 1e-9;

impl BandLattice {
    /// Builds the lattice for `config` with the given zone count.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidConfig`] — degenerate band or cell size, or
    /// a cell wider than a zone.
    pub fn new(config: &FreqConfig, zones: usize) -> Result<Self, PlanError> {
        let (lo, hi) = config.band_ghz;
        if hi <= lo || config.cell_mhz <= 0.0 {
            return Err(PlanError::InvalidConfig("frequency band or cell size"));
        }
        let zones = zones.max(1);
        let zone_width = (hi - lo) / zones as f64;
        let cells_per_zone =
            ((zone_width * 1000.0) / config.cell_mhz + CELL_COUNT_EPS).floor() as usize;
        if cells_per_zone == 0 {
            return Err(PlanError::InvalidConfig("cell size exceeds zone width"));
        }
        Ok(BandLattice {
            lo,
            zone_width,
            cell_mhz: config.cell_mhz,
            zones,
            cells_per_zone,
        })
    }

    /// Low edge of the band, GHz.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Width of one zone, GHz.
    pub fn zone_width(&self) -> f64 {
        self.zone_width
    }

    /// Number of zones.
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// Number of cells per zone.
    pub fn cells_per_zone(&self) -> usize {
        self.cells_per_zone
    }

    /// Total number of lattice slots (`zones * cells_per_zone`).
    pub fn slots(&self) -> usize {
        self.zones * self.cells_per_zone
    }

    /// Flat slot index of `(zone, cell)`.
    pub fn slot(&self, zone: usize, cell: usize) -> usize {
        debug_assert!(zone < self.zones && cell < self.cells_per_zone);
        zone * self.cells_per_zone + cell
    }

    /// Center frequency of `(zone, cell)`, GHz.
    pub fn cell_freq(&self, zone: usize, cell: usize) -> f64 {
        self.lo + zone as f64 * self.zone_width + (cell as f64 + 0.5) * self.cell_mhz / 1000.0
    }

    /// Recovers the cell index of a frequency known to lie in `zone`
    /// (rounding to the nearest cell center, clamped into range).
    pub fn cell_of(&self, zone: usize, f: f64) -> usize {
        let step = self.cell_mhz / 1000.0;
        let raw = ((f - self.lo - zone as f64 * self.zone_width) / step - 0.5).round();
        (raw as isize).clamp(0, self.cells_per_zone as isize - 1) as usize
    }
}

/// Lazily-filled table of `frequency_scaling` between lattice slots.
///
/// `row(s)[t]` is `frequency_scaling(freq(s) - freq(t))`. Rows are
/// computed on demand — the allocator ensures a row only when its slot
/// first becomes occupied — so at most `min(n, slots)` of the `slots`
/// rows are ever materialized.
#[derive(Debug, Clone)]
pub struct ScalingTable {
    freqs: Vec<f64>,
    cells_per_zone: usize,
    rows: Vec<Vec<f64>>,
}

impl ScalingTable {
    /// Prepares an empty table over `lattice` (slot frequencies only;
    /// no scaling rows yet).
    pub fn new(lattice: &BandLattice) -> Self {
        Self::new_in(lattice, &mut Scratch::default())
    }

    /// [`Self::new`] drawing the slot-frequency and row-table storage
    /// from a scratch arena; pair with [`Self::retire_into`] so the next
    /// allocation over the same band reuses the capacity — including the
    /// materialized rows' inner capacity, the table's dominant cost.
    pub fn new_in(lattice: &BandLattice, scratch: &mut Scratch) -> Self {
        let mut freqs = scratch.take_f64(lattice.slots(), 0.0);
        let mut slot = 0;
        for zone in 0..lattice.zones() {
            for cell in 0..lattice.cells_per_zone() {
                freqs[slot] = lattice.cell_freq(zone, cell);
                slot += 1;
            }
        }
        ScalingTable {
            freqs,
            cells_per_zone: lattice.cells_per_zone(),
            // Cleared inner vectors: an empty row is exactly the "not
            // yet materialized" marker `ensure_row` keys on.
            rows: scratch.take_rows(lattice.slots()),
        }
    }

    /// Consumes the table, retiring its storage into a scratch arena
    /// for the next [`Self::new_in`] over a similar band.
    pub fn retire_into(self, scratch: &mut Scratch) {
        scratch.retire_f64(self.freqs);
        scratch.retire_rows(self.rows);
    }

    /// Total number of lattice slots.
    pub fn slots(&self) -> usize {
        self.freqs.len()
    }

    /// Flat slot index of `(zone, cell)`.
    pub fn slot(&self, zone: usize, cell: usize) -> usize {
        zone * self.cells_per_zone + cell
    }

    /// Center frequency of a slot, GHz.
    pub fn freq(&self, slot: usize) -> f64 {
        self.freqs[slot]
    }

    /// Materializes the scaling row of `slot` if not yet computed.
    pub fn ensure_row(&mut self, slot: usize) {
        if self.rows[slot].is_empty() {
            let f = self.freqs[slot];
            // Fill in place (not a fresh collect) so arena-recycled row
            // capacity survives re-materialization.
            let freqs = &self.freqs;
            self.rows[slot].extend(freqs.iter().map(|&g| frequency_scaling(f - g)));
        }
    }

    /// Materializes every scaling row up front, fanning the per-row
    /// `frequency_scaling` fills across `exec`'s workers.
    ///
    /// Each row is an independent function of the slot frequencies and
    /// results merge in slot-index order, so the table is bit-identical
    /// to lazily filling rows via [`Self::ensure_row`] — the parallel
    /// allocator pre-materializes instead of racing lazy fills.
    pub fn materialize_rows(&mut self, exec: &ParallelExec) {
        let freqs = &self.freqs;
        let computed = exec.run(self.rows.len(), |s| {
            let f = freqs[s];
            freqs
                .iter()
                .map(|&g| frequency_scaling(f - g))
                .collect::<Vec<f64>>()
        });
        for (row, new) in self.rows.iter_mut().zip(computed) {
            if row.is_empty() {
                // Copy into the retained buffer so recycled capacity
                // survives parallel materialization.
                row.extend_from_slice(&new);
            }
        }
    }

    /// The scaling row of `slot`:
    /// `row(s)[t] = frequency_scaling(freq(s) - freq(t))`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the row was never materialized via
    /// [`Self::ensure_row`].
    #[inline]
    pub fn row(&self, slot: usize) -> &[f64] {
        debug_assert!(
            !self.rows[slot].is_empty() || self.freqs.is_empty(),
            "scaling row {slot} used before ensure_row"
        );
        &self.rows[slot]
    }

    /// Exact objective change from swapping the slot assignments of `a`
    /// and `b` — the counterpart of the naive full-pair sweep in
    /// `freq::naive::swap_delta`, touching only the O(n) pairs whose
    /// terms actually move, read from the rows of `a` and `b` in the
    /// crosstalk matrix with every entry that is not `> 0.0` skipped.
    ///
    /// Bit-identity contract: the naive sweep walks `iter_pairs` in
    /// lexicographic `(p, q)` order, and every pair not involving the
    /// endpoints (plus the invariant `(a, b)` pair itself) contributes
    /// an exact `+0.0` for every finite entry — so this function emits
    /// the moving terms in the same lexicographic order, with identical
    /// `x * (after - before)` arithmetic, and the sums agree
    /// bit-for-bit. With `lo < hi` the endpoint ids, that order is:
    /// pairs `(p, lo)` then `(p, hi)` for each `p < lo`; then `(lo, q)`
    /// for `q > lo`; then `(p, hi)` / `(hi, q)` for partners above
    /// `lo`.
    ///
    /// `slot_of[q]` must hold the current slot of every qubit with
    /// positive crosstalk to `a` or `b`, and the rows of both
    /// `slot_of[a]` and `slot_of[b]` must be materialized (they are,
    /// once occupied).
    pub fn swap_delta(
        &self,
        xtalk: &DistanceMatrix,
        slot_of: &[usize],
        a: QubitId,
        b: QubitId,
    ) -> f64 {
        let (lo, hi) = if a.index() <= b.index() {
            (a, b)
        } else {
            (b, a)
        };
        let (li, hi_i) = (lo.index(), hi.index());
        // `rl[s]` is the scaling between lo's current slot and slot `s`;
        // a term of a pair `(p, lo)` moves from `rl[sp]` to `rh[sp]`
        // when lo takes hi's slot (and vice versa) — `frequency_scaling`
        // is even, so orientation never changes the bits.
        let rl = self.row(slot_of[li]);
        let rh = self.row(slot_of[hi_i]);
        let (xl, xh) = (xtalk.row(lo), xtalk.row(hi));
        let mut delta = 0.0;
        // Pairs with both ids below lo: `(p, lo)` precedes `(p, hi)`.
        for ((&x_lo, &x_hi), &sp) in xl[..li].iter().zip(&xh[..li]).zip(slot_of) {
            if x_lo > 0.0 {
                delta += x_lo * (rh[sp] - rl[sp]);
            }
            if x_hi > 0.0 {
                delta += x_hi * (rl[sp] - rh[sp]);
            }
        }
        // Then lo's pairs `(lo, q)`, and last hi's pairs with partners
        // above lo, each in ascending partner order around the
        // invariant `(lo, hi)` pair; a term moves from `from[s]` to
        // `to[s]`.
        let above = [li + 1..hi_i.max(li + 1), hi_i + 1..slot_of.len()];
        for (x_row, from, to) in [(xl, rl, rh), (xh, rh, rl)] {
            for range in above.clone() {
                for (&x, &s) in x_row[range.clone()].iter().zip(&slot_of[range]) {
                    if x > 0.0 {
                        delta += x * (to[s] - from[s]);
                    }
                }
            }
        }
        delta
    }
}

/// The unit roundoff of `f64`, 2⁻⁵³.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The smallest subnormal `f64`, 2⁻¹⁰⁷⁴: twice the most a rounded product
/// can lose to underflow.
const UNDERFLOW: f64 = 5e-324;

/// The largest pair mass `S_a + S_b` whose sums the certificate trusts:
/// far enough below `f64::MAX` that no partial sum of either walk can
/// overflow.
const MASS_LIMIT: f64 = 1e300;

/// The swap pass's decisions (DESIGN.md §4h "Certified swap signs"):
/// each FDM line's positive crosstalk summed per lattice slot, and the
/// row walk for what the sums cannot tell.
///
/// Member `i`'s sums `X_i[s]` add the entries of its crosstalk row that
/// are `> 0.0`, its own entry left out, over the qubits on slot `s`.
/// Swapping members `a` and `b` then moves the objective by
/// `Σ_s (X_a[s] − X_b[s])·(T_b[s] − T_a[s])` over the band's slots, with
/// `T_m` the scaling row of `m`'s slot and the pair's own two entries
/// left out, as [`ScalingTable::swap_delta`] leaves them out. That sum
/// re-associates `swap_delta`'s terms, so it decides only when its sign
/// is certain, and `swap_delta` decides the rest: every answer is
/// `swap_delta(..) < 0.0`.
///
/// A swap pass opens each line with [`Self::line`], asks
/// [`LineSwaps::keep`] about each candidate and makes each swap it
/// keeps through [`LineSwaps::kept`].
#[derive(Debug)]
pub struct LineSums<'a> {
    table: &'a ScalingTable,
    xtalk: &'a DistanceMatrix,
    /// The most members a summed line has; longer lines walk.
    longest: usize,
    /// `sums[i * slots + s]` is the open line's member `i`'s `X_i[s]`.
    sums: Vec<f64>,
    /// `mass[i]`: the sum of member `i`'s positive entries, `S_i`.
    mass: Vec<f64>,
    /// Swaps kept since the open line was loaded.
    updates: usize,
    /// Decisions the walk took.
    walks: usize,
}

impl<'a> LineSums<'a> {
    /// Decisions over `table`'s band and the crosstalk matrix `xtalk`
    /// for lines of up to `longest` members, the sums' storage drawn
    /// from a scratch arena; pair with [`Self::retire_into`].
    ///
    /// A walk reads 2n entries per candidate; the sums read the band's
    /// slots per candidate and each member's row once per line. They
    /// pay off only when the band has fewer slots than 3n (on the XY
    /// band's 300 slots the walk won at 36 and 64 qubits, tied at 100
    /// and lost at 144), so on a band with more every decision walks.
    pub fn new_in(
        table: &'a ScalingTable,
        xtalk: &'a DistanceMatrix,
        longest: usize,
        scratch: &mut Scratch,
    ) -> Self {
        let slots = table.slots();
        let longest = if slots < 3 * xtalk.len() { longest } else { 0 };
        let mut sums = scratch.take_f64(longest * slots, 0.0);
        let mut mass = scratch.take_f64(longest, 0.0);
        sums.clear();
        mass.clear();
        LineSums {
            table,
            xtalk,
            longest,
            sums,
            mass,
            updates: 0,
            walks: 0,
        }
    }

    /// Consumes the sums, retiring their storage into a scratch arena.
    pub fn retire_into(self, scratch: &mut Scratch) {
        scratch.retire_f64(self.sums);
        scratch.retire_f64(self.mass);
    }

    /// How many decisions walked both rows.
    pub fn walks(&self) -> usize {
        self.walks
    }

    /// Opens the line `members` for its decisions; a summed line loads
    /// its sums on its first decision.
    pub fn line<'s>(&'s mut self, members: &'s [QubitId]) -> LineSwaps<'s, 'a> {
        LineSwaps {
            sums: self,
            members,
            loaded: false,
        }
    }

    /// Sums the rows of `members` per slot, `slot_of[p]` being qubit
    /// `p`'s current slot, for every qubit `p` of the matrix.
    fn load(&mut self, slot_of: &[usize], members: &[QubitId]) {
        let slots = self.table.slots();
        self.updates = 0;
        self.sums.clear();
        self.sums.resize(members.len() * slots, 0.0);
        self.mass.clear();
        for (own, &m) in self.sums.chunks_exact_mut(slots).zip(members) {
            let row = self.xtalk.row(m);
            let mut mass = 0.0;
            let (below, above) = (0..m.index(), m.index() + 1..row.len());
            for range in [below, above] {
                for (&x, &s) in row[range.clone()].iter().zip(&slot_of[range]) {
                    if x > 0.0 {
                        own[s] += x;
                        mass += x;
                    }
                }
            }
            self.mass.push(mass);
        }
    }

    /// Whether swapping members `i` and `j` lowers the objective, when
    /// the slot sum's sign is certain: `Some(keep)` where `keep` is
    /// exactly `swap_delta(..) < 0.0`, `None` when only that walk can
    /// tell.
    ///
    /// The answer is certain when `|sum| > B = 2·(γ_K·(S_a + S_b) +
    /// K·2⁻¹⁰⁷⁴)`, with `K = 2n + slots + 4·updates + 16` and `γ_K =
    /// K·u/(1 − K·u)`: `B` bounds how far both this sum and
    /// `swap_delta`'s lexicographic one lie from the real value of the
    /// same terms. Pairs whose mass exceeds 1e300, so that a partial
    /// sum might overflow (a +∞ entry makes it +∞), always take the
    /// walk. Members on one slot need neither: the walk adds `x·0.0`
    /// for every term, +0.0 or NaN, never below zero.
    fn certified(
        &self,
        slot_of: &[usize],
        members: &[QubitId],
        i: usize,
        j: usize,
    ) -> Option<bool> {
        let (a, b) = (members[i], members[j]);
        let (sa, sb) = (slot_of[a.index()], slot_of[b.index()]);
        if sa == sb {
            return Some(false);
        }
        // A mass adds only entries `> 0.0`, so it is never NaN.
        let mass = self.mass[i] + self.mass[j];
        if mass > MASS_LIMIT {
            return None;
        }
        let slots = self.table.slots();
        let (ta, tb) = (&self.table.row(sa)[..slots], &self.table.row(sb)[..slots]);
        let xa = &self.sums[i * slots..][..slots];
        let xb = &self.sums[j * slots..][..slots];
        // Four independent lanes: the bound holds for any order.
        let mut lanes = [0.0f64; 4];
        let whole = slots - slots % 4;
        let quads = xa[..whole].chunks_exact(4).zip(xb[..whole].chunks_exact(4));
        let quads = quads.zip(ta[..whole].chunks_exact(4).zip(tb[..whole].chunks_exact(4)));
        for ((xa, xb), (ta, tb)) in quads {
            for l in 0..4 {
                lanes[l] += (xa[l] - xb[l]) * (tb[l] - ta[l]);
            }
        }
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for s in whole..slots {
            sum += (xa[s] - xb[s]) * (tb[s] - ta[s]);
        }
        // `X_a` holds b's entry on b's slot and `X_b` a's on a's slot;
        // the pair's own term does not move, and the walk skips it.
        let x_ab = self.xtalk.row(a)[b.index()];
        if x_ab > 0.0 {
            sum -= x_ab * (tb[sb] - ta[sb]);
        }
        let x_ba = self.xtalk.row(b)[a.index()];
        if x_ba > 0.0 {
            sum += x_ba * (tb[sa] - ta[sa]);
        }
        let k = (2 * self.xtalk.len() + slots + 4 * self.updates + 16) as f64;
        let gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF);
        let bound = 2.0 * (gamma * mass + k * UNDERFLOW);
        (sum.abs() > bound).then_some(sum < 0.0)
    }

    /// Moves every member's entries for members `i` and `j` between
    /// their slots as the two swap: `sa` and `sb` are the slots they
    /// hold before.
    fn swapped(&mut self, members: &[QubitId], (i, j): (usize, usize), (sa, sb): (usize, usize)) {
        let (a, b) = (members[i].index(), members[j].index());
        let slots = self.table.slots();
        for (k, (own, &m)) in self.sums.chunks_exact_mut(slots).zip(members).enumerate() {
            let row = self.xtalk.row(m);
            if k != i && row[a] > 0.0 {
                own[sa] -= row[a];
                own[sb] += row[a];
            }
            if k != j && row[b] > 0.0 {
                own[sb] -= row[b];
                own[sa] += row[b];
            }
        }
        self.updates += 1;
    }
}

/// One line's decisions, opened by [`LineSums::line`].
#[derive(Debug)]
pub struct LineSwaps<'s, 'a> {
    sums: &'s mut LineSums<'a>,
    members: &'s [QubitId],
    /// Whether the line's sums are loaded.
    loaded: bool,
}

impl LineSwaps<'_, '_> {
    /// Whether swapping members `i` and `j` lowers the objective:
    /// exactly `swap_delta(xtalk, slot_of, a, b) < 0.0`, from the slot
    /// sums when their sign is certain and by that walk otherwise.
    /// `slot_of[p]` is qubit `p`'s current slot, for every qubit `p`.
    pub fn keep(&mut self, slot_of: &[usize], i: usize, j: usize) -> bool {
        let members = self.members;
        if members.len() <= self.sums.longest {
            if !self.loaded {
                self.sums.load(slot_of, members);
                self.loaded = true;
            }
            if let Some(keep) = self.sums.certified(slot_of, members, i, j) {
                return keep;
            }
        }
        self.sums.walks += 1;
        let (a, b) = (members[i], members[j]);
        self.sums.table.swap_delta(self.sums.xtalk, slot_of, a, b) < 0.0
    }

    /// Swaps members `i` and `j`'s slots in `slot_of`, and their entries
    /// between the two slots in every member's sums.
    pub fn kept(&mut self, slot_of: &mut [usize], i: usize, j: usize) {
        let (a, b) = (self.members[i].index(), self.members[j].index());
        if self.loaded {
            self.sums
                .swapped(self.members, (i, j), (slot_of[a], slot_of[b]));
        }
        slot_of.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_matches_the_allocator_formula() {
        let cfg = FreqConfig::default();
        let lat = BandLattice::new(&cfg, 5).unwrap();
        assert_eq!(lat.zones(), 5);
        let (lo, hi) = cfg.band_ghz;
        let zone_width = (hi - lo) / 5.0;
        assert_eq!(lat.cells_per_zone(), 60);
        for zone in 0..5 {
            for cell in 0..lat.cells_per_zone() {
                let expected =
                    lo + zone as f64 * zone_width + (cell as f64 + 0.5) * cfg.cell_mhz / 1000.0;
                assert_eq!(lat.cell_freq(zone, cell).to_bits(), expected.to_bits());
                assert_eq!(lat.cell_of(zone, lat.cell_freq(zone, cell)), cell);
            }
        }
    }

    /// Satellite regression: exact-division configs must not lose a cell
    /// (or spuriously report `InvalidConfig`) to a float-rounded-down
    /// quotient. A 0.6 GHz zone at 600 MHz cells is exactly one cell;
    /// the raw-floor code computed zero for band widths where
    /// `(hi - lo) / zones * 1000 / cell_mhz` rounds below the integer.
    #[test]
    fn exact_division_boundaries_keep_all_cells_in_the_qubit_band() {
        // 3 GHz band over 5 zones = 0.6 GHz zones at 600 MHz cells.
        let cfg = FreqConfig {
            cell_mhz: 600.0,
            ..Default::default()
        };
        let lat = BandLattice::new(&cfg, 5).unwrap();
        assert_eq!(lat.cells_per_zone(), 1);
        // 4.0–6.1 GHz over 3 zones = 0.7 GHz zones at 700 MHz cells:
        // the raw quotient floats below 1.0 and the unfixed floor
        // rejected the config outright.
        let raw = ((6.1 - 4.0) / 3.0 * 1000.0) / 700.0;
        assert!(raw < 1.0, "regression input no longer exercises the bug");
        let cfg = FreqConfig {
            band_ghz: (4.0, 6.1),
            cell_mhz: 700.0,
            ..Default::default()
        };
        let lat = BandLattice::new(&cfg, 3).unwrap();
        assert_eq!(lat.cells_per_zone(), 1);
    }

    /// Same boundary regression for the readout band.
    #[test]
    fn exact_division_boundaries_keep_all_cells_in_the_readout_band() {
        // 7.0–8.2 GHz over 8 zones = 0.15 GHz zones; at 30 MHz cells the
        // quotient floats just below 5.0 and the raw floor dropped the
        // fifth cell.
        let raw = ((8.2 - 7.0) / 8.0 * 1000.0) / 30.0;
        assert!(raw < 5.0, "regression input no longer exercises the bug");
        let cfg = FreqConfig {
            band_ghz: (7.0, 8.2),
            cell_mhz: 30.0,
            ..Default::default()
        };
        let lat = BandLattice::new(&cfg, 8).unwrap();
        assert_eq!(lat.cells_per_zone(), 5);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad = FreqConfig {
            band_ghz: (7.0, 4.0),
            ..Default::default()
        };
        assert!(BandLattice::new(&bad, 3).is_err());
        let bad = FreqConfig {
            cell_mhz: 0.0,
            ..Default::default()
        };
        assert!(BandLattice::new(&bad, 3).is_err());
        let bad = FreqConfig {
            cell_mhz: 5000.0,
            ..Default::default()
        };
        assert!(BandLattice::new(&bad, 3).is_err());
    }

    /// The table must reproduce `frequency_scaling` bit-for-bit at every
    /// slot pair — including the transposed orientation, which relies on
    /// the scaling being an even function with sign-symmetric IEEE
    /// evaluation.
    #[test]
    fn scaling_table_matches_frequency_scaling() {
        let cfg = FreqConfig {
            cell_mhz: 250.0,
            ..Default::default()
        };
        let lat = BandLattice::new(&cfg, 3).unwrap();
        let mut table = ScalingTable::new(&lat);
        for s in 0..table.slots() {
            table.ensure_row(s);
        }
        for s in 0..table.slots() {
            for t in 0..table.slots() {
                let direct = frequency_scaling(table.freq(s) - table.freq(t));
                assert_eq!(table.row(s)[t].to_bits(), direct.to_bits(), "({s},{t})");
                let transposed = frequency_scaling(table.freq(t) - table.freq(s));
                assert_eq!(direct.to_bits(), transposed.to_bits(), "evenness ({s},{t})");
            }
        }
    }

    #[test]
    fn materialized_rows_match_lazy_fills_bit_for_bit() {
        let lat = BandLattice::new(&FreqConfig::default(), 5).unwrap();
        let mut lazy = ScalingTable::new(&lat);
        for s in 0..lazy.slots() {
            lazy.ensure_row(s);
        }
        for threads in [1, 4] {
            let mut par = ScalingTable::new(&lat);
            par.materialize_rows(&ParallelExec::new(threads));
            for s in 0..par.slots() {
                assert_eq!(par.row(s).len(), lazy.row(s).len(), "slot {s}");
                for t in 0..par.slots() {
                    assert_eq!(par.row(s)[t].to_bits(), lazy.row(s)[t].to_bits());
                }
            }
        }
    }

    #[test]
    fn retired_tables_recycle_row_capacity() {
        let lat = BandLattice::new(&FreqConfig::default(), 5).unwrap();
        let mut scratch = Scratch::default();
        let mut table = ScalingTable::new_in(&lat, &mut scratch);
        table.ensure_row(3);
        table.retire_into(&mut scratch);
        let before = crate::scratch::reuse_count();
        let again = ScalingTable::new_in(&lat, &mut scratch);
        assert!(crate::scratch::reuse_count() >= before + 2, "freqs + rows");
        assert!(again.rows.iter().all(Vec::is_empty), "rows come back lazy");
    }

    #[test]
    fn rows_are_lazy() {
        let lat = BandLattice::new(&FreqConfig::default(), 5).unwrap();
        let mut table = ScalingTable::new(&lat);
        assert!(table.rows.iter().all(Vec::is_empty));
        table.ensure_row(7);
        assert_eq!(table.rows.iter().filter(|r| !r.is_empty()).count(), 1);
        table.ensure_row(7);
        assert_eq!(table.rows.iter().filter(|r| !r.is_empty()).count(), 1);
    }
}
