//! Properties of the grouping, allocation and partitioning invariants
//! of the YOUTIAO core, each checked over seeded ChaCha8 cases. The
//! kernelized passes' differentials against the naive passes, which
//! only the crate's own tests compile, sit beside those passes in
//! `tdm.rs`, `refine.rs` and `freq.rs`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::{equivalent_matrix, DistanceMatrix, EquivalentWeights};
use youtiao_chip::topology;
use youtiao_chip::{Chip, DeviceId, QubitId};
use youtiao_core::fdm::group_fdm;
use youtiao_core::freq::{allocate_frequencies, FreqConfig};
use youtiao_core::partition::{partition_chip, PartitionConfig};
use youtiao_core::plan::crosstalk_matrix;
use youtiao_core::tdm::{group_tdm, legal_pair, ActivityProfile, TdmConfig};
use youtiao_core::{BandLattice, LineSums, ScalingTable, Scratch};
use youtiao_core::{PlanContext, YoutiaoPlanner};
use youtiao_noise::model::frequency_scaling;

/// Inputs per property.
const CASES: u64 = 24;

/// Runs `property` on case `0..CASES`, each with its own stream.
fn for_each_case(property: impl FnMut(u64, &mut ChaCha8Rng)) {
    for_cases(CASES, property);
}

/// Runs `property` on case `0..cases`, each with its own stream.
fn for_cases(cases: u64, mut property: impl FnMut(u64, &mut ChaCha8Rng)) {
    for case in 0..cases {
        property(case, &mut ChaCha8Rng::seed_from_u64(case));
    }
}

/// A square grid with `2..max` rows and `2..max` columns, its
/// equivalent-distance matrix and its proxy crosstalk matrix.
fn grid(rng: &mut ChaCha8Rng, max: usize) -> (Chip, DistanceMatrix, DistanceMatrix) {
    let chip = topology::square_grid(rng.gen_range(2..max), rng.gen_range(2..max));
    let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
    let xtalk = crosstalk_matrix(&chip, &eq, None);
    (chip, eq, xtalk)
}

/// FDM grouping partitions the qubit set for any capacity, with
/// exactly ceil(n / capacity) lines.
#[test]
fn fdm_grouping_partitions() {
    for_each_case(|case, rng| {
        let (chip, eq, _) = grid(rng, 6);
        let cap = rng.gen_range(1usize..8);
        let lines = group_fdm(&chip, &eq, cap);
        let n = chip.num_qubits();
        assert_eq!(lines.len(), n.div_ceil(cap), "case {case}");
        let mut seen: Vec<QubitId> = lines.iter().flat_map(|l| l.qubits().to_vec()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "case {case}");
        assert!(lines.iter().all(|l| l.len() <= cap), "case {case}");
    });
}

/// TDM grouping covers every device exactly once with only legal
/// pairs, for any threshold.
#[test]
fn tdm_grouping_is_legal_partition() {
    for_each_case(|case, rng| {
        let (chip, _, xtalk) = grid(rng, 5);
        let config = TdmConfig {
            theta: rng.gen_range(0.0..10.0),
            ..Default::default()
        };
        let ctx = PlanContext::from_matrix(&chip, EquivalentWeights::balanced(), xtalk);
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm(&ctx, &config, &devices, &ActivityProfile::new());
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, chip.num_z_devices(), "case {case}");
        for g in &groups {
            let ds = g.devices();
            assert!(ds.len() <= g.level().channel_capacity(), "case {case}");
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    assert!(legal_pair(&chip, ds[i], ds[j]), "case {case}");
                }
            }
        }
    });
}

/// Frequency allocation keeps every qubit inside the configured band
/// and never collides within a line, for any zone geometry that fits.
#[test]
fn frequency_allocation_in_band() {
    for_each_case(|case, rng| {
        let (chip, eq, xtalk) = grid(rng, 5);
        let lines = group_fdm(&chip, &eq, rng.gen_range(2usize..6));
        let cfg = FreqConfig::default();
        let plan = allocate_frequencies(&chip, &lines, &xtalk, &cfg).unwrap();
        for q in chip.qubit_ids() {
            let f = plan.frequency_ghz(q);
            assert!(f >= cfg.band_ghz.0 && f <= cfg.band_ghz.1, "case {case}");
        }
        for line in &lines {
            let qs = line.qubits();
            for i in 0..qs.len() {
                for j in (i + 1)..qs.len() {
                    let gap = plan.frequency_ghz(qs[i]) - plan.frequency_ghz(qs[j]);
                    assert!(gap.abs() > 1e-9, "case {case}");
                }
            }
        }
    });
}

/// Partitioning covers every qubit exactly once for any region count
/// and seed.
#[test]
fn partition_covers() {
    for_each_case(|case, rng| {
        let (chip, eq, _) = grid(rng, 6);
        let cfg = PartitionConfig {
            num_regions: rng.gen_range(1usize..6),
            seed: rng.gen_range(0u64..1000),
            max_sweeps: 8,
        };
        let p = partition_chip(&chip, &eq, &cfg);
        let total: usize = p.regions().iter().map(Vec::len).sum();
        assert_eq!(total, chip.num_qubits(), "case {case}");
        for q in chip.qubit_ids() {
            assert!(p.regions()[p.region_of(q)].contains(&q), "case {case}");
        }
    });
}

/// The full planner succeeds on any grid and always reduces coax
/// lines relative to dedicated wiring.
#[test]
fn planner_always_reduces_lines() {
    for_each_case(|case, rng| {
        let (chip, _, _) = grid(rng, 6);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        assert_eq!(
            plan.num_xy_lines(),
            chip.num_qubits().div_ceil(5),
            "case {case}"
        );
        assert!(plan.num_z_lines() < chip.num_z_devices(), "case {case}");
        let fdm_total: usize = plan.fdm_lines().iter().map(|l| l.len()).sum();
        assert_eq!(fdm_total, chip.num_qubits(), "case {case}");
        let tdm_total: usize = plan.tdm_groups().iter().map(|g| g.len()).sum();
        assert_eq!(tdm_total, chip.num_z_devices(), "case {case}");
    });
}

/// The lazily-tabulated scaling lookup is bit-equal to a direct
/// `frequency_scaling` evaluation at every lattice offset, in both
/// orientations (evenness carries the transposed reads).
#[test]
fn scaling_table_matches_model_at_every_offset() {
    for_each_case(|case, rng| {
        let lo = rng.gen_range(4.0..8.0);
        let cfg = FreqConfig {
            band_ghz: (lo, lo + rng.gen_range(0.5..3.0)),
            cell_mhz: rng.gen_range(20.0..90.0),
            ..Default::default()
        };
        let lattice = BandLattice::new(&cfg, rng.gen_range(1usize..6)).unwrap();
        let mut table = ScalingTable::new(&lattice);
        for s in 0..lattice.slots() {
            table.ensure_row(s);
        }
        for s in 0..lattice.slots() {
            for t in 0..lattice.slots() {
                let expected = frequency_scaling(table.freq(s) - table.freq(t)).to_bits();
                assert_eq!(table.row(s)[t].to_bits(), expected, "case {case}");
                assert_eq!(table.row(t)[s].to_bits(), expected, "case {case}");
            }
        }
    });
}

/// The kernelized swap delta is the exact objective change: for any
/// placement and any in-line pair, swapping the two assignments moves
/// a from-scratch objective recompute by precisely the reported delta.
#[test]
fn swap_delta_matches_full_objective_recompute() {
    for_each_case(|case, rng| {
        let (chip, eq, xtalk) = grid(rng, 5);
        let lines = group_fdm(&chip, &eq, rng.gen_range(2usize..6));
        let cfg = FreqConfig {
            swap_passes: 0,
            ..Default::default()
        };
        let plan = allocate_frequencies(&chip, &lines, &xtalk, &cfg).unwrap();

        let mut pairs = Vec::new();
        for line in &lines {
            let qs = line.qubits();
            for i in 0..qs.len() {
                for j in (i + 1)..qs.len() {
                    pairs.push((qs[i], qs[j]));
                }
            }
        }
        if pairs.is_empty() {
            return;
        }
        let (a, b) = pairs[rng.gen_range(0..pairs.len())];

        // Recover every qubit's lattice slot from its assigned
        // frequency, exactly as the repair patcher does.
        let lattice = BandLattice::new(&cfg, plan.zones()).unwrap();
        let mut table = ScalingTable::new(&lattice);
        let slot_of: Vec<usize> = chip
            .qubit_ids()
            .map(|q| {
                let zone = plan.zone_of(q);
                lattice.slot(zone, lattice.cell_of(zone, plan.frequency_ghz(q)))
            })
            .collect();
        for &s in &slot_of {
            table.ensure_row(s);
        }
        let delta = table.swap_delta(&xtalk, &slot_of, a, b);

        // A from-scratch objective over an arbitrary assignment,
        // pinned to FrequencyPlan::objective on the unswapped freqs.
        let full = |freqs: &[f64]| {
            let mut total = 0.0;
            for (p, q, x) in xtalk.iter_pairs() {
                if x > 0.0 {
                    total += x * frequency_scaling(freqs[p.index()] - freqs[q.index()]);
                }
            }
            total
        };
        let before = full(plan.frequencies());
        assert_eq!(
            before.to_bits(),
            plan.objective(&xtalk).to_bits(),
            "case {case}"
        );
        let mut swapped = plan.frequencies().to_vec();
        swapped.swap(a.index(), b.index());
        let after = full(&swapped);

        let scale = before.abs().max(after.abs()).max(1.0);
        assert!(
            (delta - (after - before)).abs() <= 1e-9 * scale,
            "case {case}: delta {delta} vs recompute {}",
            after - before
        );
    });
}

/// How one family's candidate swaps were decided.
#[derive(Debug, Default)]
struct Tally {
    /// By the slot sums' certified sign.
    certified: usize,
    /// By the walk over both rows.
    walked: usize,
}

/// A band of `zones` zones with every scaling row materialized.
fn full_table(rng: &mut ChaCha8Rng, zones: usize) -> ScalingTable {
    let cfg = if rng.gen_range(0u32..3) == 0 {
        FreqConfig {
            band_ghz: (7.0, 8.0),
            cell_mhz: 30.0,
            ..Default::default()
        }
    } else {
        FreqConfig {
            cell_mhz: rng.gen_range(10.0..120.0),
            ..Default::default()
        }
    };
    let mut table = ScalingTable::new(&BandLattice::new(&cfg, zones).unwrap());
    for s in 0..table.slots() {
        table.ensure_row(s);
    }
    table
}

/// Every candidate swap of `members` in the allocator's order: the
/// kernel's answer must equal `swap_delta(..) < 0.0`. A swap is kept
/// when the walk says it lowers the objective, and at random otherwise,
/// so the sums' in-place updates are checked as well.
fn check_line(
    case: u64,
    rng: &mut ChaCha8Rng,
    (table, x): (&ScalingTable, &DistanceMatrix),
    slot_of: &mut [usize],
    members: &[QubitId],
    tally: &mut Tally,
) {
    let mut scratch = Scratch::default();
    let mut sums = LineSums::new_in(table, x, members.len(), &mut scratch);
    let mut swaps = sums.line(members);
    let mut decisions = 0;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            let (a, b) = (members[i], members[j]);
            let walk = table.swap_delta(x, slot_of, a, b) < 0.0;
            assert_eq!(
                swaps.keep(slot_of, i, j),
                walk,
                "case {case}: swap ({a}, {b})"
            );
            decisions += 1;
            if walk || rng.gen_bool(0.25) {
                swaps.kept(slot_of, i, j);
            }
        }
    }
    tally.walked += sums.walks();
    tally.certified += decisions - sums.walks();
    sums.retire_into(&mut scratch);
}

/// A qubit count for which `table`'s band sums lines: more than a third
/// of its slots (`LineSums::new_in` walks every decision otherwise).
fn summed_size(rng: &mut ChaCha8Rng, table: &ScalingTable) -> usize {
    table.slots() / 3 + rng.gen_range(1usize..40)
}

/// A matrix entry of magnitude up to `scale`: zero, negative, NaN,
/// subnormal or positive, and +∞ when `infinite`.
fn entry(rng: &mut ChaCha8Rng, scale: f64, infinite: bool) -> f64 {
    match rng.gen_range(0u32..24) {
        0 => 0.0,
        1 | 2 => -scale * rng.gen_range(0.0..1.0),
        3 => f64::NAN,
        4 if infinite => f64::INFINITY,
        5 | 6 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        _ => scale * rng.gen_range(0.0..1.0),
    }
}

/// Random lines over a seeded matrix whose entries mix zero, negative,
/// NaN, +∞, subnormal and positive values, its diagonal included, at
/// magnitudes from 1 down to the subnormals.
fn random_lines(case: u64, rng: &mut ChaCha8Rng, tally: &mut Tally) {
    let zones = rng.gen_range(1usize..9);
    let table = full_table(rng, zones);
    let n = summed_size(rng, &table);
    let scale = [1.0, 1e-2, 1e-200, 1e-310][rng.gen_range(0usize..4)];
    let infinite = rng.gen_bool(0.25);
    let mut x = DistanceMatrix::zeros(n);
    for a in 0..n {
        for b in a..n {
            let v = entry(rng, scale, infinite);
            x.set(QubitId::from(a), QubitId::from(b), v);
        }
    }
    let mut slot_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..table.slots())).collect();
    let mut qubits: Vec<QubitId> = (0..n).map(QubitId::from).collect();
    rand::seq::SliceRandom::shuffle(&mut qubits[..], rng);
    let capacity = rng.gen_range(2usize..9);
    for members in qubits.chunks(capacity) {
        check_line(case, rng, (&table, &x), &mut slot_of, members, tally);
    }
}

/// Lines built to cancel exactly: the matrix is invariant under the
/// mirror `σ(p) = n − 1 − p`, as a symmetric chip's is, and every qubit
/// shares its mirror's slot except the line's first two members, a
/// mirror pair on two slots. Swapping that pair moves the objective by
/// exactly zero, so its slot sum is rounding error alone and must take
/// the walk.
fn mirrored_line(case: u64, rng: &mut ChaCha8Rng, tally: &mut Tally) {
    let zones = rng.gen_range(2usize..9);
    let table = full_table(rng, zones);
    let n = summed_size(rng, &table).max(4);
    let mirror = |p: usize| n - 1 - p;
    let scale = [1.0, 1e-2, 1e-310][rng.gen_range(0usize..3)];
    let mut x = DistanceMatrix::zeros(n);
    for a in 0..n {
        for b in a..n {
            if (mirror(b), mirror(a)) >= (a, b) {
                let v = if rng.gen_range(0u32..8) == 0 {
                    entry(rng, scale, false)
                } else {
                    scale * rng.gen_range(0.0..1.0)
                };
                x.set(QubitId::from(a), QubitId::from(b), v);
                x.set(QubitId::from(mirror(b)), QubitId::from(mirror(a)), v);
            }
        }
    }
    let mut slot_of = vec![0; n];
    for p in 0..n.div_ceil(2) {
        let s = rng.gen_range(0..table.slots());
        slot_of[p] = s;
        slot_of[mirror(p)] = s;
    }
    let a = rng.gen_range(0..n / 2);
    slot_of[mirror(a)] = (slot_of[a] + rng.gen_range(1..table.slots())) % table.slots();
    let mut members = vec![QubitId::from(a), QubitId::from(mirror(a))];
    for _ in 0..rng.gen_range(0usize..6) {
        let c = QubitId::from(rng.gen_range(0..n));
        if !members.contains(&c) {
            members.push(c);
        }
    }
    check_line(case, rng, (&table, &x), &mut slot_of, &members, tally);
}

/// The swap pass's slot sums decide only when their sign is that of
/// the exact walk, on both families: random lines and lines that
/// cancel exactly, where some decisions must take the walk.
fn certified_signs_agree(cases: u64) {
    let (mut random, mut mirrored) = (Tally::default(), Tally::default());
    for_cases(cases, |case, rng| {
        random_lines(case, rng, &mut random);
        mirrored_line(case, rng, &mut mirrored);
    });
    assert!(random.certified > 0, "random lines: {random:?}");
    assert!(mirrored.walked > 0, "mirrored lines: {mirrored:?}");
}

#[test]
fn certified_swap_signs_match_the_walk() {
    certified_signs_agree(CASES);
}

#[test]
#[ignore = "a hundred times the cases; run with --release"]
fn certified_swap_signs_match_the_walk_at_scale() {
    certified_signs_agree(100 * CASES);
}
