//! Local frequency re-placement for dirty qubits.
//!
//! A full [`youtiao_core::allocate_frequencies`] run is globally
//! sequential — every qubit's cell choice depends on all earlier
//! placements — and dominates plan time on large chips. When only a
//! few crosstalk entries drifted, the patcher instead keeps every
//! clean qubit's assignment fixed and re-places only the dirty qubits,
//! cell-scored against *all* other qubits (not just earlier ones) with
//! the allocator's exact cost model: the dirty qubit's row of the
//! crosstalk matrix in ascending id, every entry that is not `> 0.0`
//! skipped, spectral proximity from the shared [`ScalingTable`] over
//! the cell lattice, a `100 × xtalk` penalty for cell reuse, and the
//! allocator's [`cell_better`] empty-vs-reuse policy. A final swap pass
//! over the lines containing dirty qubits mirrors the allocator's
//! in-group swap stage: the line's slot sums ([`LineSums`]) decide each
//! swap whose sign they certify, and the exact row-based objective
//! delta ([`ScalingTable::swap_delta`]) decides the rest — repair and
//! replan share one cost model and cannot drift.
//!
//! The patched plan keeps each line's zone multiset (and hence the
//! in-line spacing guarantee) identical to the base plan; only dirty
//! qubits' frequencies move, plus any assignments exchanged within a
//! line by an improving swap.

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, QubitId};
use youtiao_core::freq::cell_better;
use youtiao_core::Scratch;
use youtiao_core::{BandLattice, FreqConfig, FrequencyPlan, LineSums, PlanError, ScalingTable};

/// Re-places the `dirty` qubits of a base frequency plan against the
/// new `xtalk` matrix, holding every other qubit's assignment fixed.
///
/// `lines` are the frequency-sharing groups the base plan was
/// allocated for (FDM lines for the qubit band, feedlines for the
/// readout band), as plain qubit slices; they must cover every chip
/// qubit exactly once. Zones are inherited from the base plan, so the
/// in-line zone-distinctness invariant is preserved by construction.
///
/// Returns a plan whose reused-cell count is recounted from the final
/// cell occupancy.
///
/// # Errors
///
/// * [`PlanError::InvalidConfig`] — degenerate band or cell size.
/// * [`PlanError::FrequencyCrowded`] — a dirty qubit has no feasible
///   cell in its zone (only possible with a tuning-range constraint).
///
/// # Panics
///
/// Panics if the base plan, matrix, or lines disagree with the chip's
/// qubit count.
pub fn patch_frequencies(
    chip: &Chip,
    lines: &[&[QubitId]],
    base: &FrequencyPlan,
    xtalk: &DistanceMatrix,
    config: &FreqConfig,
    dirty: &[QubitId],
) -> Result<FrequencyPlan, PlanError> {
    patch_on(chip, lines, base, xtalk, config, dirty, true)
}

/// [`patch_frequencies`], its swap pass deciding through the lines'
/// slot sums when `summed`, and walking both rows for every decision
/// otherwise.
fn patch_on(
    chip: &Chip,
    lines: &[&[QubitId]],
    base: &FrequencyPlan,
    xtalk: &DistanceMatrix,
    config: &FreqConfig,
    dirty: &[QubitId],
    summed: bool,
) -> Result<FrequencyPlan, PlanError> {
    let n = chip.num_qubits();
    assert_eq!(base.frequencies().len(), n, "base plan size mismatch");
    assert_eq!(xtalk.len(), n, "crosstalk matrix size mismatch");
    let covered: usize = lines.iter().map(|l| l.len()).sum();
    assert_eq!(covered, n, "lines must cover every qubit exactly once");

    let lattice = BandLattice::new(config, base.zones())?;
    let zones = lattice.zones();
    let cells_per_zone = lattice.cells_per_zone();
    let mut table = ScalingTable::new(&lattice);

    let mut freqs: Vec<f64> = base.frequencies().to_vec();
    let mut zone_of: Vec<usize> = (0..n)
        .map(|i| base.zone_of(QubitId::new(i as u32)))
        .collect();

    let mut dirty_mask = vec![false; n];
    for &q in dirty {
        assert!(q.index() < n, "dirty qubit out of range");
        dirty_mask[q.index()] = true;
    }

    // Cell occupancy of the clean qubits, filled in line order to
    // mirror the allocator; dirty qubits join as they are re-placed.
    // Every assigned qubit's lattice slot backs the table lookups.
    let mut occupancy: Vec<Vec<Vec<QubitId>>> = vec![vec![Vec::new(); cells_per_zone]; zones];
    let mut assigned = vec![false; n];
    let mut slot_of = vec![usize::MAX; n];
    for line in lines {
        for &q in *line {
            if !dirty_mask[q.index()] {
                let zone = zone_of[q.index()];
                let cell = lattice.cell_of(zone, freqs[q.index()]);
                let slot = table.slot(zone, cell);
                occupancy[zone][cell].push(q);
                slot_of[q.index()] = slot;
                table.ensure_row(slot);
                assigned[q.index()] = true;
            }
        }
    }

    // Re-place dirty qubits in line order, scored against every
    // already-assigned qubit with the allocator's exact cost model.
    let mut scores = vec![0.0f64; cells_per_zone];
    for line in lines {
        for &q in *line {
            if !dirty_mask[q.index()] {
                continue;
            }
            let zone = zone_of[q.index()];
            let qbase = chip
                .qubit(q)
                .expect("qubit id in range")
                .base_frequency_ghz();
            // Transposed scoring, as in the allocator: walk each
            // assigned qubit's scaling row once over the zone's
            // contiguous slot range. Per cell the terms accumulate in
            // the same ascending-id order as a per-cell sweep.
            let zone_base = table.slot(zone, 0);
            scores.fill(0.0);
            for (p, &x) in xtalk.row(q).iter().enumerate() {
                if x > 0.0 && assigned[p] {
                    let row = &table.row(slot_of[p])[zone_base..zone_base + cells_per_zone];
                    for (s, r) in scores.iter_mut().zip(row) {
                        *s += x * r;
                    }
                }
            }
            let mut best: Option<(usize, f64, bool)> = None;
            #[allow(clippy::needless_range_loop)] // occupancy[zone] is borrowed per cell
            for cell in 0..cells_per_zone {
                let slot = table.slot(zone, cell);
                let f = table.freq(slot);
                if let Some(range) = config.tuning_range_ghz {
                    if (f - qbase).abs() > range {
                        continue;
                    }
                }
                let occupants = &occupancy[zone][cell];
                let reuse = !occupants.is_empty();
                let mut cost = scores[cell];
                if reuse {
                    for &p in occupants {
                        cost += 100.0 * xtalk.get(q, p);
                    }
                }
                if cell_better(&best, cost, reuse) {
                    best = Some((cell, cost, reuse));
                }
            }
            let (cell, _, _) = best.ok_or(PlanError::FrequencyCrowded { qubit: q })?;
            let slot = table.slot(zone, cell);
            freqs[q.index()] = table.freq(slot);
            slot_of[q.index()] = slot;
            table.ensure_row(slot);
            occupancy[zone][cell].push(q);
            assigned[q.index()] = true;
        }
    }

    // Recount reuse from the final occupancy: every arrival after a
    // cell's first occupant was a reuse event. Swaps below exchange
    // frequencies within lines, permuting qubits among the same cells —
    // the occupancy multiset (and hence the count) is invariant.
    let reused_cells: usize = occupancy
        .iter()
        .flatten()
        .map(|occ| occ.len().saturating_sub(1))
        .sum();

    // In-group swap pass over the lines that contain a dirty qubit,
    // mirroring the allocator's swap stage: keep a swap exactly when
    // its objective delta is negative.
    let dirty_lines: Vec<&[QubitId]> = lines
        .iter()
        .copied()
        .filter(|line| line.iter().any(|q| dirty_mask[q.index()]))
        .collect();
    let longest = dirty_lines.iter().map(|l| l.len()).max().unwrap_or(0);
    let longest = if summed { longest } else { 0 };
    let mut sums = LineSums::new_in(&table, xtalk, longest, &mut Scratch::default());
    for _ in 0..config.swap_passes {
        let mut improved = false;
        for line in &dirty_lines {
            let mut swaps = sums.line(line);
            for i in 0..line.len() {
                for j in (i + 1)..line.len() {
                    let (a, b) = (line[i], line[j]);
                    if let Some(range) = config.tuning_range_ghz {
                        let base_a = chip.qubit(a).expect("in range").base_frequency_ghz();
                        let base_b = chip.qubit(b).expect("in range").base_frequency_ghz();
                        let (fa, fb) = (freqs[a.index()], freqs[b.index()]);
                        if (fb - base_a).abs() > range || (fa - base_b).abs() > range {
                            continue;
                        }
                    }
                    if swaps.keep(&slot_of, i, j) {
                        swaps.kept(&mut slot_of, i, j);
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

    Ok(FrequencyPlan::from_frequencies(freqs, zones, zone_of).with_reused_cells(reused_cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
    use youtiao_chip::topology;
    use youtiao_core::plan::crosstalk_matrix;
    use youtiao_core::{allocate_frequencies, group_fdm, FdmLine};

    fn setup(n: usize) -> (Chip, Vec<FdmLine>, DistanceMatrix) {
        let chip = topology::square_grid(n, n);
        let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let lines = group_fdm(&chip, &eq, 5);
        let x = crosstalk_matrix(&chip, &eq, None);
        (chip, lines, x)
    }

    fn slices(lines: &[FdmLine]) -> Vec<&[QubitId]> {
        lines.iter().map(|l| l.qubits()).collect()
    }

    fn patch(
        chip: &Chip,
        lines: &[&[QubitId]],
        base: &FrequencyPlan,
        xtalk: &DistanceMatrix,
        cfg: &FreqConfig,
        dirty: &[QubitId],
    ) -> Result<FrequencyPlan, PlanError> {
        patch_frequencies(chip, lines, base, xtalk, cfg, dirty)
    }

    use youtiao_chip::Chip;

    #[test]
    fn empty_dirty_set_reproduces_the_base_plan() {
        let (chip, lines, x) = setup(4);
        let cfg = FreqConfig::default();
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let patched = patch(&chip, &slices(&lines), &base, &x, &cfg, &[]).unwrap();
        assert_eq!(patched, base);
    }

    #[test]
    fn patched_qubits_stay_in_zone_and_band() {
        let (chip, lines, x) = setup(5);
        let cfg = FreqConfig::default();
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let (a, b) = (QubitId::new(2), QubitId::new(17));
        let mut drifted = x.clone();
        drifted.set(a, b, drifted.get(a, b) * 4.0 + 2e-3);
        let patched = patch(&chip, &slices(&lines), &base, &drifted, &cfg, &[a, b]).unwrap();
        for q in chip.qubit_ids() {
            let f = patched.frequency_ghz(q);
            assert!((4.0..=7.0).contains(&f), "{q} at {f}");
        }
        // Swaps may exchange zones between members of the same line,
        // but each line's zone multiset is preserved.
        for line in &lines {
            let zone_set = |p: &FrequencyPlan| {
                let mut z: Vec<usize> = line.qubits().iter().map(|&q| p.zone_of(q)).collect();
                z.sort_unstable();
                z
            };
            assert_eq!(zone_set(&patched), zone_set(&base));
        }
        // Clean qubits keep their frequencies up to in-line swaps; at
        // minimum the plan is deterministic.
        let again = patch(&chip, &slices(&lines), &base, &drifted, &cfg, &[a, b]).unwrap();
        assert_eq!(patched, again);
    }

    #[test]
    fn patch_lowers_or_holds_the_objective_on_the_new_matrix() {
        let (chip, lines, x) = setup(5);
        let cfg = FreqConfig::default();
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let (a, b) = (QubitId::new(3), QubitId::new(11));
        let mut drifted = x.clone();
        drifted.set(a, b, drifted.get(a, b) * 10.0 + 5e-3);
        let patched = patch(&chip, &slices(&lines), &base, &drifted, &cfg, &[a, b]).unwrap();
        assert!(
            patched.objective(&drifted) <= base.objective(&drifted) + 1e-12,
            "patched {} vs stale {}",
            patched.objective(&drifted),
            base.objective(&drifted)
        );
    }

    #[test]
    fn reuse_recount_matches_allocator_on_crowded_zones() {
        let chip = topology::square_grid(3, 3);
        let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let lines = group_fdm(&chip, &eq, 2);
        let x = crosstalk_matrix(&chip, &eq, None);
        let cfg = FreqConfig {
            cell_mhz: 600.0,
            ..Default::default()
        };
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        assert!(base.reused_cells() > 0);
        let patched = patch(&chip, &slices(&lines), &base, &x, &cfg, &[]).unwrap();
        assert_eq!(patched.reused_cells(), base.reused_cells());
    }

    #[test]
    fn tuning_range_is_respected_for_patched_qubits() {
        let (chip, lines, x) = setup(4);
        let cfg = FreqConfig::retuning();
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let (a, b) = (QubitId::new(1), QubitId::new(9));
        let mut drifted = x.clone();
        drifted.set(a, b, drifted.get(a, b) * 3.0 + 1e-3);
        let patched = patch(&chip, &slices(&lines), &base, &drifted, &cfg, &[a, b]).unwrap();
        for q in chip.qubit_ids() {
            let qbase = chip.qubit(q).unwrap().base_frequency_ghz();
            assert!(
                (patched.frequency_ghz(q) - qbase).abs() <= 0.05 + 1e-12,
                "{q} outside tuning window"
            );
        }
    }

    /// FNV-1a over a plan's frequency bits, zones and reused-cell count.
    fn plan_digest(plan: &FrequencyPlan) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let zones = (0..plan.frequencies().len()).map(|i| plan.zone_of(QubitId::new(i as u32)));
        let words = plan
            .frequencies()
            .iter()
            .map(|f| f.to_bits())
            .chain(zones.map(|z| z as u64))
            .chain([plan.reused_cells() as u64]);
        for word in words {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The proxy matrix of `chip` with pairs overwritten, by a fixed
    /// pattern over their ids, with zero or a negated value and, when
    /// `non_finite`, with NaN or +∞.
    fn non_positive(chip: &Chip, x: &DistanceMatrix, non_finite: bool) -> DistanceMatrix {
        let mut out = x.clone();
        for a in chip.qubit_ids() {
            for b in chip.qubit_ids().filter(|&b| b > a) {
                let v = x.get(a, b);
                let v = match ((a.index() * 7 + b.index() * 3) % 11, non_finite) {
                    (0, _) => 0.0,
                    (1 | 2, _) => -v,
                    (3, true) => f64::NAN,
                    (4, true) if (a.index() + b.index()) % 5 == 0 => f64::INFINITY,
                    _ => v,
                };
                out.set(a, b, v);
            }
        }
        out
    }

    /// Patches on drifted matrices whose rows are not all positive keep
    /// the bits recorded from the patcher that scored against lists of
    /// each qubit's positive-crosstalk neighbours: a 5×5 grid, five
    /// dirty qubits, the qubit band on a matrix with zero and negative
    /// entries and on one that adds NaN and +∞, and the retuning and
    /// readout bands on the latter. The swap pass decides on the slot
    /// sums' certified signs and, as a second path, walks both rows for
    /// every decision.
    #[test]
    fn patches_on_non_positive_rows_keep_their_recorded_bits() {
        let (chip, lines, x) = setup(5);
        let signed = non_positive(&chip, &x, false);
        let non_finite = non_positive(&chip, &x, true);
        let dirty: Vec<QubitId> = [2u32, 7, 11, 17, 23].map(QubitId::new).to_vec();
        let feedlines: Vec<FdmLine> = chip
            .qubit_ids()
            .collect::<Vec<_>>()
            .chunks(8)
            .map(|c| FdmLine::new(c.to_vec()))
            .collect();
        let readout = FreqConfig {
            band_ghz: (7.0, 8.0),
            cell_mhz: 30.0,
            swap_passes: 1,
            tuning_range_ghz: None,
        };
        let cases = [
            (
                "signed, qubit band",
                &signed,
                &lines,
                FreqConfig::default(),
                0x4cbf_bb0a_3635_381e,
            ),
            (
                "non-finite, qubit band",
                &non_finite,
                &lines,
                FreqConfig::default(),
                0x9a7a_a725_acfc_0ad2,
            ),
            (
                "non-finite, retuning",
                &non_finite,
                &lines,
                FreqConfig::retuning(),
                0x69fd_2242_dc3a_a19f,
            ),
            (
                "non-finite, readout band",
                &non_finite,
                &feedlines,
                readout,
                0x4d6b_68f0_7e44_9dbc,
            ),
        ];
        for (what, drifted, lines, cfg, want) in cases {
            let base = allocate_frequencies(&chip, lines, &x, &cfg).unwrap();
            for summed in [true, false] {
                let lines = slices(lines);
                let patched =
                    patch_on(&chip, &lines, &base, drifted, &cfg, &dirty, summed).unwrap();
                assert_eq!(plan_digest(&patched), want, "{what}, summed {summed}");
            }
        }
    }

    /// The patcher and the allocator share one cost model: patching
    /// with an *empty* dirty set after a drift must leave the plan
    /// alone, and patching all qubits of a line must stay inside the
    /// allocator's lattice.
    #[test]
    fn patched_frequencies_lie_on_the_allocator_lattice() {
        let (chip, lines, x) = setup(4);
        let cfg = FreqConfig::default();
        let base = allocate_frequencies(&chip, &lines, &x, &cfg).unwrap();
        let dirty: Vec<QubitId> = lines[0].qubits().to_vec();
        let mut drifted = x.clone();
        drifted.set(dirty[0], dirty[1], 5e-3);
        let patched = patch(&chip, &slices(&lines), &base, &drifted, &cfg, &dirty).unwrap();
        let lattice = BandLattice::new(&cfg, base.zones()).unwrap();
        for q in chip.qubit_ids() {
            let zone = patched.zone_of(q);
            let cell = lattice.cell_of(zone, patched.frequency_ghz(q));
            assert_eq!(
                lattice.cell_freq(zone, cell).to_bits(),
                patched.frequency_ghz(q).to_bits(),
                "{q} off-lattice"
            );
        }
    }
}
