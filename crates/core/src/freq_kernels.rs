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
