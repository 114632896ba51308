//! Local-search refinement of TDM groupings.
//!
//! The §4.3 grouping is greedy; this optional pass hill-climbs the
//! result:
//!
//! 1. **absorb** — a device on a dedicated (singleton) line moves into
//!    any group with spare capacity whose legality and activity budget it
//!    satisfies, deleting a Z line outright;
//! 2. **swap** — two devices in different groups exchange places when
//!    that strictly reduces the total expected serialization (the sum of
//!    per-group extra windows).
//!
//! Every accepted move keeps the grouping a legal partition, so the
//! refined plan remains schedulable.
//!
//! Like the grouping pass, the swap inner loop runs against
//! [`PairKernels`](crate::kernels::PairKernels): legality is an O(1)
//! bitset lookup, worst-case crosstalk at most four reads of the
//! crosstalk matrix, and per-group slot-count states turn the
//! extra-windows evaluation of a candidate swap into an O(affected
//! slots) delta instead of two full recounts. The original
//! implementation is retained in the test-only `naive` module for
//! differential testing; both paths produce byte-identical refinements.

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, DeviceId};

use crate::kernels::PairKernels;
use crate::scratch::Scratch;
use crate::tdm::{ActivityProfile, TdmConfig, TdmGroup};

/// Configuration of [`refine_tdm_groups`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfig {
    /// Hill-climbing sweeps over all groups (2 usually converges).
    pub passes: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { passes: 2 }
    }
}

/// Refines a TDM grouping in place, returning the improved grouping and
/// the number of Z lines removed.
///
/// Builds a throwaway [`PairKernels`] and delegates to
/// [`refine_tdm_groups_kernels`]; callers refining the same chip
/// repeatedly should build the kernels once and call the kernel variant
/// directly.
///
/// # Panics
///
/// Panics if `xtalk` does not match the chip dimension.
pub fn refine_tdm_groups(
    chip: &Chip,
    xtalk: &DistanceMatrix,
    activity: &ActivityProfile,
    config: &TdmConfig,
    groups: Vec<TdmGroup>,
    refine: &RefineConfig,
) -> (Vec<TdmGroup>, usize) {
    let kernels = PairKernels::build(chip);
    refine_tdm_groups_kernels(&kernels, xtalk, activity, config, groups, refine)
}

/// [`refine_tdm_groups`] against precomputed [`PairKernels`] of the
/// chip: the refinement hot path. Produces byte-identical refinements
/// to the naive recomputation (differential tests enforce it).
///
/// # Panics
///
/// Panics if `xtalk` does not match the kernels' chip dimension.
pub fn refine_tdm_groups_kernels(
    kernels: &PairKernels,
    xtalk: &DistanceMatrix,
    activity: &ActivityProfile,
    config: &TdmConfig,
    groups: Vec<TdmGroup>,
    refine: &RefineConfig,
) -> (Vec<TdmGroup>, usize) {
    refine_tdm_groups_kernels_in(
        kernels,
        xtalk,
        activity,
        config,
        groups,
        refine,
        &mut Scratch::default(),
    )
}

/// [`refine_tdm_groups_kernels`] drawing its densified activity masks
/// from a scratch arena so repeated plans reuse capacity instead of
/// reallocating. Output is identical — the arena only changes where the
/// buffer lives.
///
/// # Panics
///
/// Panics if `xtalk` does not match the kernels' chip dimension.
pub fn refine_tdm_groups_kernels_in(
    kernels: &PairKernels,
    xtalk: &DistanceMatrix,
    activity: &ActivityProfile,
    config: &TdmConfig,
    groups: Vec<TdmGroup>,
    refine: &RefineConfig,
    scratch: &mut Scratch,
) -> (Vec<TdmGroup>, usize) {
    let masks = kernels.densify_activity_in(activity, scratch);
    let refined = refine_masked(kernels, xtalk, &masks, config, groups, refine);
    scratch.retire_u32(masks);
    refined
}

/// [`refine_tdm_groups_kernels_in`] over densified activity `masks`
/// ([`PairKernels::densify_activity`]).
pub(crate) fn refine_masked(
    kernels: &PairKernels,
    xtalk: &DistanceMatrix,
    masks: &[u32],
    config: &TdmConfig,
    mut groups: Vec<TdmGroup>,
    refine: &RefineConfig,
) -> (Vec<TdmGroup>, usize) {
    assert_eq!(
        xtalk.len(),
        kernels.num_qubits(),
        "crosstalk matrix size mismatch"
    );
    let mask_of = |d: DeviceId| masks[kernels.dense(d)];
    let mut states: Vec<GroupState> = groups
        .iter()
        .map(|g| GroupState::build(g.devices(), &mask_of))
        .collect();
    let mut removed = 0usize;

    for _ in 0..refine.passes {
        let mut improved = false;

        // Absorb singletons.
        let mut i = 0;
        while i < groups.len() {
            if groups[i].len() != 1 {
                i += 1;
                continue;
            }
            let lone = groups[i].devices()[0];
            let lone_mask = mask_of(lone);
            let mut target = None;
            for (j, g) in groups.iter().enumerate() {
                if j == i || g.len() >= g.level().channel_capacity() || g.len() < 2 {
                    continue;
                }
                if !g.devices().iter().all(|&m| kernels.legal(m, lone)) {
                    continue;
                }
                if states[j].extra_after_add(lone_mask) > config.max_shared_slots {
                    continue;
                }
                target = Some(j);
                break;
            }
            if let Some(j) = target {
                let level = groups[j].level();
                let mut devices = groups[j].devices().to_vec();
                devices.push(lone);
                groups[j] = TdmGroup::new(level, devices);
                states[j].add(lone_mask);
                groups.remove(i);
                states.remove(i);
                removed += 1;
                improved = true;
                // Do not advance: the next group shifted into slot i.
            } else {
                i += 1;
            }
        }

        // Pairwise swaps reducing total expected serialization, breaking
        // ties toward higher intra-group crosstalk (noisy non-parallel
        // devices belong together).
        for a in 0..groups.len() {
            for b in (a + 1)..groups.len() {
                let (best, gain) = best_swap_kernels(
                    kernels,
                    xtalk,
                    &mask_of,
                    config,
                    (&groups[a], &states[a]),
                    (&groups[b], &states[b]),
                );
                if gain > 0 {
                    if let Some((ia, ib)) = best {
                        let mut da = groups[a].devices().to_vec();
                        let mut db = groups[b].devices().to_vec();
                        std::mem::swap(&mut da[ia], &mut db[ib]);
                        states[a] = GroupState::build(&da, &mask_of);
                        states[b] = GroupState::build(&db, &mask_of);
                        groups[a] = TdmGroup::new(groups[a].level(), da);
                        groups[b] = TdmGroup::new(groups[b].level(), db);
                        improved = true;
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }
    (groups, removed)
}

/// Per-group activity bookkeeping: how many members are busy in each
/// time slot, which slots are occupied at all, and the resulting extra
/// serialized windows (`Σ_t max(0, count_t − 1)`).
///
/// Counts are bounded by the DEMUX channel capacity (≤ 8), so `u16`
/// arithmetic is exact and matches the saturating accessor the naive
/// path sums with.
struct GroupState {
    counts: [u16; 32],
    occupied: u32,
    extra: u32,
}

impl GroupState {
    fn build<F: Fn(DeviceId) -> u32>(devices: &[DeviceId], mask_of: &F) -> Self {
        let mut s = GroupState {
            counts: [0; 32],
            occupied: 0,
            extra: 0,
        };
        for &d in devices {
            s.add(mask_of(d));
        }
        s
    }

    /// Registers one more member with activity `mask`. Every busy slot
    /// that is already occupied serializes exactly one more window.
    fn add(&mut self, mask: u32) {
        self.extra += (mask & self.occupied).count_ones();
        self.occupied |= mask;
        let mut bits = mask;
        while bits != 0 {
            let t = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.counts[t] += 1;
        }
    }

    /// Extra windows if a member with activity `mask` were added.
    fn extra_after_add(&self, mask: u32) -> u32 {
        self.extra + (mask & self.occupied).count_ones()
    }

    /// Extra windows if a member with activity `out` were replaced by
    /// one with activity `fill` — an O(affected slots) delta over the
    /// current state, no recount.
    fn extra_after_swap(&self, out: u32, fill: u32) -> u32 {
        let mut extra = i64::from(self.extra);
        let mut bits = out | fill;
        while bits != 0 {
            let t = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let c = i64::from(self.counts[t]);
            let o = i64::from((out >> t) & 1);
            let f = i64::from((fill >> t) & 1);
            extra += (c - o + f - 1).max(0) - (c - 1).max(0);
        }
        u32::try_from(extra).expect("extra windows cannot go negative")
    }
}

/// Finds the single-pair swap between two groups with the largest
/// reduction in total extra windows (if any), respecting legality and
/// the per-group activity budget (`config.max_shared_slots`). Ties on
/// equal reduction break toward higher post-swap intra-group crosstalk
/// (noisy non-parallel devices belong together), then toward the
/// earliest candidate in scan order, keeping the result deterministic.
///
/// Legality is a kernel lookup and crosstalk a read of `xtalk`; the
/// swapped groups are never materialized. The full pairwise legality check is retained (rather
/// than only pairs involving the swapped devices) because callers may
/// hand in groups that were never internally legal, and the naive
/// reference rejects those swaps too.
fn best_swap_kernels<F: Fn(DeviceId) -> u32>(
    kernels: &PairKernels,
    xtalk: &DistanceMatrix,
    mask_of: &F,
    config: &TdmConfig,
    (ga, sa): (&TdmGroup, &GroupState),
    (gb, sb): (&TdmGroup, &GroupState),
) -> (Option<(usize, usize)>, u32) {
    let da = ga.devices();
    let db = gb.devices();
    let before = sa.extra + sb.extra;
    let mut best: Option<(usize, usize)> = None;
    let mut best_after = before;
    let mut best_xtalk = f64::NEG_INFINITY;
    for ia in 0..da.len() {
        let out_a = mask_of(da[ia]);
        for ib in 0..db.len() {
            // Evaluate the swapped groups without building them: index
            // `replace_at` reads the incoming device, everything else
            // the original, preserving the naive pair iteration order
            // (and therefore f64 summation order) exactly.
            let na = |i: usize| if i == ia { db[ib] } else { da[i] };
            let nb = |i: usize| if i == ib { da[ia] } else { db[i] };
            let legal = |g: &dyn Fn(usize) -> DeviceId, len: usize| {
                (0..len).all(|i| ((i + 1)..len).all(|j| kernels.legal(g(i), g(j))))
            };
            if !legal(&na, da.len()) || !legal(&nb, db.len()) {
                continue;
            }
            let out_b = mask_of(db[ib]);
            let ea = sa.extra_after_swap(out_a, out_b);
            let eb = sb.extra_after_swap(out_b, out_a);
            // A swap may lower the *total* while pushing one group past
            // its activity budget; such groups would serialize more than
            // max_shared_slots windows, so reject the move outright.
            if ea > config.max_shared_slots || eb > config.max_shared_slots {
                continue;
            }
            let after = ea + eb;
            if after > best_after || (after == best_after && best.is_none()) {
                continue;
            }
            let intra = |g: &dyn Fn(usize) -> DeviceId, len: usize| {
                let mut total = 0.0;
                for i in 0..len {
                    for j in (i + 1)..len {
                        total += kernels.noise(xtalk, g(i), g(j));
                    }
                }
                total
            };
            let x = intra(&na, da.len()) + intra(&nb, db.len());
            if after < best_after || x > best_xtalk {
                best_after = after;
                best_xtalk = x;
                best = Some((ia, ib));
            }
        }
    }
    (best, before - best_after)
}

/// The original per-candidate refinement implementation, retained as the
/// differential-testing reference. Semantically identical to
/// [`refine_tdm_groups_kernels`]; the kernelized path must produce
/// byte-identical output.
#[cfg(test)]
pub mod naive {
    use super::*;
    use crate::tdm::legal_pair;

    /// [`refine_tdm_groups`](super::refine_tdm_groups) without kernels:
    /// every pairwise term is re-derived per candidate per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `xtalk` does not match the chip dimension.
    pub fn refine_tdm_groups_naive(
        chip: &Chip,
        xtalk: &DistanceMatrix,
        activity: &ActivityProfile,
        config: &TdmConfig,
        mut groups: Vec<TdmGroup>,
        refine: &RefineConfig,
    ) -> (Vec<TdmGroup>, usize) {
        assert_eq!(
            xtalk.len(),
            chip.num_qubits(),
            "crosstalk matrix size mismatch"
        );
        let mask_of = |d: DeviceId| activity.get(&d).copied().unwrap_or(0);
        let mut removed = 0usize;

        for _ in 0..refine.passes {
            let mut improved = false;

            // Absorb singletons.
            let mut i = 0;
            while i < groups.len() {
                if groups[i].len() != 1 {
                    i += 1;
                    continue;
                }
                let lone = groups[i].devices()[0];
                let mut target = None;
                for (j, g) in groups.iter().enumerate() {
                    if j == i || g.len() >= g.level().channel_capacity() || g.len() < 2 {
                        continue;
                    }
                    if !g.devices().iter().all(|&m| legal_pair(chip, m, lone)) {
                        continue;
                    }
                    if extra_windows(g.devices(), Some(lone), &mask_of) > config.max_shared_slots {
                        continue;
                    }
                    target = Some(j);
                    break;
                }
                if let Some(j) = target {
                    let level = groups[j].level();
                    let mut devices = groups[j].devices().to_vec();
                    devices.push(lone);
                    groups[j] = TdmGroup::new(level, devices);
                    groups.remove(i);
                    removed += 1;
                    improved = true;
                    // Do not advance: the next group shifted into slot i.
                } else {
                    i += 1;
                }
            }

            // Pairwise swaps reducing total expected serialization,
            // breaking ties toward higher intra-group crosstalk (noisy
            // non-parallel devices belong together).
            for a in 0..groups.len() {
                for b in (a + 1)..groups.len() {
                    let (best, gain) =
                        best_swap(chip, xtalk, &mask_of, config, &groups[a], &groups[b]);
                    if gain > 0 {
                        if let Some((ia, ib)) = best {
                            let mut da = groups[a].devices().to_vec();
                            let mut db = groups[b].devices().to_vec();
                            std::mem::swap(&mut da[ia], &mut db[ib]);
                            groups[a] = TdmGroup::new(groups[a].level(), da);
                            groups[b] = TdmGroup::new(groups[b].level(), db);
                            improved = true;
                        }
                    }
                }
            }

            if !improved {
                break;
            }
        }
        (groups, removed)
    }

    /// Extra serialized windows of `devices` (+ an optional extra
    /// member).
    fn extra_windows<F: Fn(DeviceId) -> u32>(
        devices: &[DeviceId],
        plus: Option<DeviceId>,
        mask_of: &F,
    ) -> u32 {
        crate::tdm::extra_windows_masked(devices.iter().copied().chain(plus), mask_of)
    }

    /// Summed pairwise worst-case crosstalk between group members — the
    /// "noisy non-parallelism" captured by keeping mutually noisy
    /// devices on one DEMUX.
    fn intra_xtalk(chip: &Chip, xtalk: &DistanceMatrix, devices: &[DeviceId]) -> f64 {
        let mut total = 0.0;
        for (i, &a) in devices.iter().enumerate() {
            for &b in &devices[i + 1..] {
                total += crate::tdm::noisy_score(chip, xtalk, a, b);
            }
        }
        total
    }

    /// The naive form of
    /// [`best_swap_kernels`](super::best_swap_kernels): materializes
    /// both swapped groups and recounts every term per candidate.
    fn best_swap<F: Fn(DeviceId) -> u32>(
        chip: &Chip,
        xtalk: &DistanceMatrix,
        mask_of: &F,
        config: &TdmConfig,
        ga: &TdmGroup,
        gb: &TdmGroup,
    ) -> (Option<(usize, usize)>, u32) {
        let da = ga.devices();
        let db = gb.devices();
        let before = extra_windows(da, None, mask_of) + extra_windows(db, None, mask_of);
        let mut best: Option<(usize, usize)> = None;
        let mut best_after = before;
        let mut best_xtalk = f64::NEG_INFINITY;
        for ia in 0..da.len() {
            for ib in 0..db.len() {
                let mut na = da.to_vec();
                let mut nb = db.to_vec();
                std::mem::swap(&mut na[ia], &mut nb[ib]);
                let legal = |g: &[DeviceId]| {
                    g.iter()
                        .enumerate()
                        .all(|(i, &x)| g[i + 1..].iter().all(|&y| legal_pair(chip, x, y)))
                };
                if !legal(&na) || !legal(&nb) {
                    continue;
                }
                let ea = extra_windows(&na, None, mask_of);
                let eb = extra_windows(&nb, None, mask_of);
                // A swap may lower the *total* while pushing one group
                // past its activity budget; such groups would serialize
                // more than max_shared_slots windows, so reject the move
                // outright.
                if ea > config.max_shared_slots || eb > config.max_shared_slots {
                    continue;
                }
                let after = ea + eb;
                if after > best_after || (after == best_after && best.is_none()) {
                    continue;
                }
                let x = intra_xtalk(chip, xtalk, &na) + intra_xtalk(chip, xtalk, &nb);
                if after < best_after || x > best_xtalk {
                    best_after = after;
                    best_xtalk = x;
                    best = Some((ia, ib));
                }
            }
        }
        (best, before - best_after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::crosstalk_matrix;
    use crate::tdm::{brickwork_activity, group_extra_windows, group_tdm_with_activity};
    use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
    use youtiao_chip::topology;

    fn setup(n: usize) -> (youtiao_chip::Chip, DistanceMatrix, ActivityProfile) {
        let chip = topology::square_grid(n, n);
        let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
        let xtalk = crosstalk_matrix(&chip, &eq, None);
        let activity = brickwork_activity(&chip);
        (chip, xtalk, activity)
    }

    #[test]
    fn refinement_never_increases_lines() {
        let (chip, xtalk, activity) = setup(5);
        let config = TdmConfig::default();
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);
        let before = groups.len();
        let (refined, removed) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups,
            &RefineConfig::default(),
        );
        assert_eq!(refined.len() + removed, before);
        assert!(refined.len() <= before);
    }

    #[test]
    fn refinement_preserves_partition_and_legality() {
        let (chip, xtalk, activity) = setup(4);
        let config = TdmConfig::default();
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);
        let (refined, _) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups,
            &RefineConfig { passes: 4 },
        );
        let mut all: Vec<DeviceId> = refined.iter().flat_map(|g| g.devices().to_vec()).collect();
        all.sort_unstable();
        let mut expect: Vec<DeviceId> = chip.device_ids().collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
        for g in &refined {
            let ds = g.devices();
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    assert!(crate::tdm::legal_pair(&chip, ds[i], ds[j]));
                }
            }
        }
    }

    #[test]
    fn refinement_respects_activity_budget() {
        let (chip, xtalk, activity) = setup(4);
        let config = TdmConfig {
            max_shared_slots: 0,
            ..Default::default()
        };
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);
        let (refined, _) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups,
            &RefineConfig::default(),
        );
        for g in &refined {
            assert_eq!(group_extra_windows(g.devices(), &activity), 0);
        }
    }

    #[test]
    fn swap_respects_activity_budget() {
        // Regression: a swap can lower the *total* extra windows while
        // pushing one group past max_shared_slots; best_swap used to
        // accept it. The construction below leaves exactly one legal
        // swap (q0 <-> q4) — every other exchange is blocked by
        // adjacency — and that swap drops the total from 4 to 3 while
        // concentrating 3 extra windows (> budget 2) in the first group.
        use youtiao_chip::{ChipBuilder, Position, TopologyKind};
        let mut b = ChipBuilder::new("budget", TopologyKind::Custom);
        for (x, y) in [
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (4.0, 0.0),
            (1.0, 1.0),
            (2.0, 1.0),
        ] {
            b = b.qubit(Position::new(x, y));
        }
        // q1..q3 adjacent to both q5 and q6, so none of them may ever
        // move into the second group (and vice versa).
        for lo in [1u32, 2, 3] {
            for hi in [5u32, 6] {
                b = b.coupler(lo.into(), hi.into());
            }
        }
        let chip = b.build().unwrap();
        let q = |i: u32| DeviceId::Qubit(i.into());
        let mut activity = ActivityProfile::new();
        for (i, mask) in [(0, 0b0011), (1, 0b0001), (2, 0b0010), (3, 0b0100)] {
            activity.insert(q(i), mask);
        }
        for (i, mask) in [(4, 0b1111), (5, 0b0100), (6, 0b1000)] {
            activity.insert(q(i), mask);
        }
        let groups = vec![
            TdmGroup::new(
                crate::tdm::DemuxLevel::OneToFour,
                vec![q(0), q(1), q(2), q(3)],
            ),
            TdmGroup::new(crate::tdm::DemuxLevel::OneToFour, vec![q(4), q(5), q(6)]),
        ];
        let config = TdmConfig {
            max_shared_slots: 2,
            ..Default::default()
        };
        for g in &groups {
            assert!(group_extra_windows(g.devices(), &activity) <= 2);
        }
        let xtalk = DistanceMatrix::zeros(chip.num_qubits());
        let (refined, removed) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups.clone(),
            &RefineConfig { passes: 4 },
        );
        assert_eq!(removed, 0);
        for g in &refined {
            assert!(
                group_extra_windows(g.devices(), &activity) <= config.max_shared_slots,
                "group {:?} exceeds the activity budget",
                g.devices()
            );
        }
        // The only candidate swap violates the budget, so refinement
        // must leave the grouping untouched.
        assert_eq!(refined, groups);
    }

    #[test]
    fn equal_swaps_tie_break_toward_higher_intra_group_crosstalk() {
        // Four isolated qubits, two groups of two. Every cross-group
        // swap is legal and removes both groups' single shared window,
        // so all four candidates tie on the serialization score. The
        // crosstalk matrix makes pairs (q0,q2) and (q1,q3) noisy, so the
        // tie must resolve to the grouping that co-locates them.
        use youtiao_chip::{ChipBuilder, Position, TopologyKind};
        let mut b = ChipBuilder::new("tie", TopologyKind::Custom);
        for x in 0..4 {
            b = b.qubit(Position::new(f64::from(x), 0.0));
        }
        let chip = b.build().unwrap();
        let q = |i: u32| DeviceId::Qubit(i.into());
        let mut xtalk = DistanceMatrix::zeros(4);
        xtalk.set(0u32.into(), 2u32.into(), 0.9);
        xtalk.set(1u32.into(), 3u32.into(), 0.9);
        xtalk.set(0u32.into(), 3u32.into(), 0.1);
        xtalk.set(1u32.into(), 2u32.into(), 0.1);
        let mut activity = ActivityProfile::new();
        activity.insert(q(0), 0b01);
        activity.insert(q(1), 0b01);
        activity.insert(q(2), 0b10);
        activity.insert(q(3), 0b10);
        let groups = vec![
            TdmGroup::new(crate::tdm::DemuxLevel::OneToTwo, vec![q(0), q(1)]),
            TdmGroup::new(crate::tdm::DemuxLevel::OneToTwo, vec![q(2), q(3)]),
        ];
        let config = TdmConfig {
            max_shared_slots: 1,
            ..Default::default()
        };
        let (refined, _) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups,
            &RefineConfig::default(),
        );
        assert_eq!(refined[0].devices(), [q(3), q(1)]);
        assert_eq!(refined[1].devices(), [q(2), q(0)]);
    }

    #[test]
    fn zero_passes_is_identity() {
        let (chip, xtalk, activity) = setup(3);
        let config = TdmConfig::default();
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);
        let before = groups.clone();
        let (refined, removed) = refine_tdm_groups(
            &chip,
            &xtalk,
            &activity,
            &config,
            groups,
            &RefineConfig { passes: 0 },
        );
        assert_eq!(refined, before);
        assert_eq!(removed, 0);
    }

    mod differential {
        use super::*;
        use crate::tdm::DemuxLevel;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use youtiao_chip::Chip;

        fn random_chip(rng: &mut ChaCha8Rng) -> Chip {
            match rng.gen_range(0u32..5) {
                0 => topology::square_grid(rng.gen_range(2usize..5), rng.gen_range(2usize..5)),
                1 => topology::heavy_square(rng.gen_range(2usize..4), rng.gen_range(2usize..4)),
                2 => topology::hexagon_patch(rng.gen_range(1usize..3), rng.gen_range(1usize..3)),
                3 => topology::linear(rng.gen_range(2usize..12)),
                _ => topology::ring(rng.gen_range(3usize..12)),
            }
        }

        fn random_activity(rng: &mut ChaCha8Rng, chip: &Chip) -> ActivityProfile {
            let mut profile = ActivityProfile::new();
            for d in chip.device_ids() {
                if rng.gen_range(0u32..4) == 0 {
                    continue;
                }
                let bits = rng.gen_range(0u32..4);
                let mut mask = 0u32;
                for _ in 0..bits {
                    mask |= 1 << rng.gen_range(0u32..8);
                }
                profile.insert(d, mask);
            }
            profile
        }

        fn random_xtalk(rng: &mut ChaCha8Rng, chip: &Chip) -> DistanceMatrix {
            let mut m = DistanceMatrix::zeros(chip.num_qubits());
            for a in chip.qubit_ids() {
                for b in chip.qubit_ids() {
                    if a < b {
                        m.set(a, b, rng.gen_range(0.0f64..1.0));
                    }
                }
            }
            m
        }

        /// An arbitrary (not necessarily legal!) partition of the
        /// devices into capacity-respecting groups, exercising the full
        /// pairwise legality re-check in `best_swap`.
        fn random_groups(rng: &mut ChaCha8Rng, chip: &Chip) -> Vec<TdmGroup> {
            let mut devices: Vec<DeviceId> = chip.device_ids().collect();
            // Deterministic shuffle via random index pops.
            let mut shuffled = Vec::with_capacity(devices.len());
            while !devices.is_empty() {
                shuffled.push(devices.remove(rng.gen_range(0usize..devices.len())));
            }
            let mut groups = Vec::new();
            let mut rest = shuffled.as_slice();
            while !rest.is_empty() {
                let level = match rng.gen_range(0u32..3) {
                    0 => DemuxLevel::OneToFour,
                    1 => DemuxLevel::OneToTwo,
                    _ => DemuxLevel::Direct,
                };
                let take = rng
                    .gen_range(1usize..=level.channel_capacity())
                    .min(rest.len());
                groups.push(TdmGroup::new(level, rest[..take].to_vec()));
                rest = &rest[take..];
            }
            groups
        }

        /// The acceptance criterion's differential gate: the kernelized
        /// refinement is byte-identical to the naive reference across
        /// random chips, groupings (legal and illegal), activity
        /// profiles, budgets and pass counts.
        #[test]
        fn kernelized_refine_matches_naive() {
            let mut rng = ChaCha8Rng::seed_from_u64(0x05ee_d2f1);
            for case in 0..40 {
                let chip = random_chip(&mut rng);
                let xtalk = random_xtalk(&mut rng, &chip);
                let activity = random_activity(&mut rng, &chip);
                let config = TdmConfig {
                    max_shared_slots: [0u32, 1, 2, 5][rng.gen_range(0usize..4)],
                    ..Default::default()
                };
                let refine = RefineConfig {
                    passes: rng.gen_range(0usize..4),
                };
                let groups = if rng.gen_range(0u32..2) == 0 {
                    let devices: Vec<DeviceId> = chip.device_ids().collect();
                    group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity)
                } else {
                    random_groups(&mut rng, &chip)
                };
                let fast =
                    refine_tdm_groups(&chip, &xtalk, &activity, &config, groups.clone(), &refine);
                let slow = naive::refine_tdm_groups_naive(
                    &chip, &xtalk, &activity, &config, groups, &refine,
                );
                assert_eq!(fast, slow, "case {case}: chip {}", chip.name());
            }
        }

        /// Square grids with up to 64 devices busy in any of eight
        /// slots, budgets 0–5 and up to three passes, refining the
        /// greedy grouping of the same inputs.
        #[test]
        fn kernelized_refine_matches_naive_on_busy_grids() {
            use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};
            let mut rng = ChaCha8Rng::seed_from_u64(0x0b05_72ef);
            for case in 0..48 {
                let chip =
                    topology::square_grid(rng.gen_range(2usize..5), rng.gen_range(2usize..5));
                let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
                let xtalk = crate::plan::crosstalk_matrix(&chip, &eq, None);
                let config = TdmConfig {
                    max_shared_slots: rng.gen_range(0u32..6),
                    ..Default::default()
                };
                let refine = RefineConfig {
                    passes: rng.gen_range(0usize..4),
                };
                let busy = rng.gen_range(0usize..64);
                let activity: ActivityProfile = chip
                    .device_ids()
                    .take(busy)
                    .map(|d| (d, rng.gen_range(0u32..256)))
                    .collect();
                let devices: Vec<DeviceId> = chip.device_ids().collect();
                let groups = group_tdm_with_activity(&chip, &xtalk, &config, &devices, &activity);
                let fast =
                    refine_tdm_groups(&chip, &xtalk, &activity, &config, groups.clone(), &refine);
                let slow = naive::refine_tdm_groups_naive(
                    &chip, &xtalk, &activity, &config, groups, &refine,
                );
                assert_eq!(fast, slow, "case {case}: config {config:?} {refine:?}");
            }
        }
    }
}
