//! Noise-aware TDM grouping of Z-controlled devices (§4.3).
//!
//! Every CZ gate `q_a − c − q_b` flux-pulses three devices at once, so
//! devices sharing a cryo-DEMUX serialize the gates that need them. The
//! grouping goal is to share DEMUXes between devices whose gates could
//! never run in parallel anyway:
//!
//! * **legality** — two devices needed by the *same* gate must never share
//!   a DEMUX (the gate would become unrealizable);
//! * **topological non-parallelism** — devices whose gate sets pairwise
//!   conflict (share a qubit) cost zero extra depth when grouped;
//! * **noisy non-parallelism** — devices whose gates would crosstalk
//!   heavily if run simultaneously should not run in parallel, so
//!   grouping them is free in practice.
//!
//! The *parallelism index* ranks how much gate freedom a device has; a
//! threshold `θ` splits devices between dense 1:4 DEMUXes (low
//! parallelism) and shallow 1:2 DEMUXes (high parallelism).
//!
//! Grouping reads everything from a [`PlanContext`]: its inner loop
//! runs against the context's precomputed, topology-only
//! [`PairKernels`] and TDM crosstalk matrix, with incremental per-group
//! aggregates — O(1) lookups per candidate instead of re-deriving every
//! pairwise term — and, where those cannot decide, walks the context's
//! sorted rows of the matrix in descending order instead of scoring the
//! whole pool. The original per-candidate implementation is retained
//! in the test-only `naive` module as the differential-testing
//! reference; both paths produce byte-identical groupings.

use youtiao_chip::distance::DistanceMatrix;
use youtiao_chip::{Chip, CouplerId, DeviceId, QubitId};

use crate::context::PlanContext;
use crate::kernels::{PairKernels, SortedRows, ROW_PREFIX};
use crate::scratch::Scratch;

/// Cryo-DEMUX fan-out level for one TDM group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DemuxLevel {
    /// 1:8 multiplexer — eight channels, three digital select lines
    /// (the paper's multi-level-switch extension; opt-in via
    /// [`TdmConfig::allow_one_to_eight`]).
    OneToEight,
    /// 1:4 multiplexer — four channels, two digital select lines.
    OneToFour,
    /// 1:2 multiplexer — two channels, one digital select line.
    OneToTwo,
    /// Dedicated line (no DEMUX) for devices that could not be grouped.
    Direct,
}

impl DemuxLevel {
    /// Number of device channels the DEMUX can own.
    pub fn channel_capacity(self) -> usize {
        match self {
            DemuxLevel::OneToEight => 8,
            DemuxLevel::OneToFour => 4,
            DemuxLevel::OneToTwo => 2,
            DemuxLevel::Direct => 1,
        }
    }

    /// Number of room-temperature digital select lines required.
    pub fn select_lines(self) -> usize {
        match self {
            DemuxLevel::OneToEight => 3,
            DemuxLevel::OneToFour => 2,
            DemuxLevel::OneToTwo => 1,
            DemuxLevel::Direct => 0,
        }
    }
}

/// One shared Z line: a cryo-DEMUX plus the devices behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdmGroup {
    level: DemuxLevel,
    devices: Vec<DeviceId>,
}

impl TdmGroup {
    /// Creates a group; the level is downgraded to
    /// [`DemuxLevel::Direct`] for singletons.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty or exceeds the level's capacity.
    pub fn new(level: DemuxLevel, devices: Vec<DeviceId>) -> Self {
        assert!(!devices.is_empty(), "tdm group cannot be empty");
        assert!(
            devices.len() <= level.channel_capacity(),
            "tdm group exceeds demux capacity"
        );
        let level = if devices.len() == 1 {
            DemuxLevel::Direct
        } else {
            level
        };
        TdmGroup { level, devices }
    }

    /// The DEMUX fan-out level.
    pub fn level(&self) -> DemuxLevel {
        self.level
    }

    /// The devices sharing this Z line.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Number of devices in the group.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` when the group has no devices (never constructed).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

/// Configuration of the TDM grouping pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdmConfig {
    /// Parallelism-index threshold θ: devices strictly below it use 1:4
    /// DEMUXes, others 1:2 (§4.3 uses θ = 4 in its example).
    pub theta: f64,
    /// When an activity profile is supplied, the maximum number of extra
    /// serialized time windows a group may introduce per workload period
    /// (`Σ_t max(0, busy_devices(t) − 1)`). 0 demands perfectly disjoint
    /// activity (zero depth cost); small values trade a little
    /// serialization for fewer lines.
    pub max_shared_slots: u32,
    /// Use 1:8 cryo-DEMUXes for the low-parallelism level instead of
    /// 1:4 — the deeper multi-level switches the paper's related work
    /// points to. Off by default (matching the evaluation).
    pub allow_one_to_eight: bool,
}

impl TdmConfig {
    /// The DEMUX level of the devices below θ.
    pub(crate) fn low_level(&self) -> DemuxLevel {
        if self.allow_one_to_eight {
            DemuxLevel::OneToEight
        } else {
            DemuxLevel::OneToFour
        }
    }
}

impl Default for TdmConfig {
    fn default() -> Self {
        TdmConfig {
            theta: 4.0,
            max_shared_slots: 0,
            allow_one_to_eight: false,
        }
    }
}

/// Per-device activity profile: bit `t` set means the device is busy in
/// time slot `t` of the (periodic) workload. Devices absent from the map
/// are treated as always-compatible (mask 0).
///
/// This is the *natural non-parallelism* of §4.3 made explicit: devices
/// that are never busy in the same slot can share a cryo-DEMUX at zero
/// depth cost.
pub type ActivityProfile = std::collections::HashMap<DeviceId, u32>;

/// Extra serialized time windows a device set introduces per workload
/// period under `activity`: `Σ_t max(0, busy_devices(t) − 1)`. This is
/// the quantity [`TdmConfig::max_shared_slots`] budgets and the
/// serialization estimate the paper's depth-overhead claim rests on.
///
/// Devices absent from the profile count as never busy (mask 0).
pub fn group_extra_windows(devices: &[DeviceId], activity: &ActivityProfile) -> u32 {
    extra_windows_masked(devices.iter().copied(), |d| {
        activity.get(&d).copied().unwrap_or(0)
    })
}

/// [`group_extra_windows`] over an arbitrary device iterator and mask
/// lookup. Counts are `u16` with saturating arithmetic so oversized
/// synthetic device sets (>255 devices busy in one slot) cannot
/// overflow in release builds.
pub(crate) fn extra_windows_masked<I, F>(devices: I, mask_of: F) -> u32
where
    I: IntoIterator<Item = DeviceId>,
    F: Fn(DeviceId) -> u32,
{
    let mut counts = [0u16; 32];
    for d in devices {
        let m = mask_of(d);
        for (t, count) in counts.iter_mut().enumerate() {
            if m & (1 << t) != 0 {
                *count = count.saturating_add(1);
            }
        }
    }
    counts.iter().map(|&c| u32::from(c.saturating_sub(1))).sum()
}

/// Derives a generic workload activity profile from the chip topology:
/// a greedy edge coloring assigns every coupler the time slot of its
/// colour class (the brickwork pattern in which dense circuits execute
/// their two-qubit gates), and every qubit is busy in the slots of its
/// incident couplers.
///
/// This is the topology-only approximation of natural non-parallelism
/// used when no concrete workload profile is available: two couplers
/// with the same colour *can* fire simultaneously, so they should not
/// share a DEMUX; couplers of different colours never do.
pub fn brickwork_activity(chip: &Chip) -> ActivityProfile {
    let mut profile = ActivityProfile::new();
    for (c, mask) in chip.coupler_ids().zip(brickwork_colors(chip)) {
        profile.insert(DeviceId::Coupler(c), mask);
    }
    // Qubit Z lines carry bias and sparse retunes (§3.1), not per-gate
    // pulses, so they are unconstrained in time (mask 0).
    for q in chip.qubit_ids() {
        profile.insert(DeviceId::Qubit(q), 0);
    }
    profile
}

/// [`brickwork_activity`] densified as [`PairKernels::densify_activity`]
/// densifies it: every qubit's mask (0), then every coupler's.
pub(crate) fn brickwork_masks(chip: &Chip) -> Vec<u32> {
    let mut masks = vec![0; chip.num_qubits()];
    masks.extend(brickwork_colors(chip));
    masks
}

/// Each coupler's brickwork slot as a one-bit mask, in coupler order.
fn brickwork_colors(chip: &Chip) -> Vec<u32> {
    let mut colors: Vec<Option<u32>> = vec![None; chip.num_couplers()];
    for c in chip.coupler_ids() {
        let (a, b) = chip.coupler(c).expect("coupler id in range").endpoints();
        let mut used = 0u32;
        for &nc in chip.couplers_of(a).iter().chain(chip.couplers_of(b)) {
            if let Some(col) = colors[nc.index()] {
                used |= 1 << col.min(31);
            }
        }
        let color = (0..32).find(|&k| used & (1 << k) == 0).unwrap_or(31);
        colors[c.index()] = Some(color);
    }
    colors
        .into_iter()
        .map(|color| 1u32 << color.expect("all couplers colored"))
        .collect()
}

/// The paper's parallelism index of a qubit or coupler: the average,
/// over the two-qubit gates that occupy the device, of the number of
/// topologically non-coexistent neighbouring gates, normalized by the
/// device's connectivity (couplers count as connectivity 1).
///
/// Allocation-free: gate sets are borrowed from the chip's adjacency
/// slices and neighbouring gates are counted in place. Bulk callers
/// should prefer the table in [`PairKernels`], which computes every
/// device's index once from the cached per-coupler adjacency.
///
/// # Panics
///
/// Panics if the device id is out of range.
///
/// # Example
///
/// ```
/// use youtiao_chip::{topology, DeviceId};
///
/// // Chain q0-c0-q1-c1-q2: coupler c0's only gate conflicts with one
/// // neighbouring gate, so its index is 1.
/// let chip = topology::linear(3);
/// let c0 = chip.coupler_between(0u32.into(), 1u32.into()).unwrap();
/// let idx = youtiao_core::tdm::parallelism_index(&chip, DeviceId::Coupler(c0));
/// assert_eq!(idx, 1.0);
/// ```
pub fn parallelism_index(chip: &Chip, device: DeviceId) -> f64 {
    let gates = device_gates(chip, device);
    let gates = gates.as_slice();
    if gates.is_empty() {
        return 0.0;
    }
    let connectivity = match device {
        DeviceId::Coupler(_) => 1usize,
        DeviceId::Qubit(q) => chip.connectivity(q).max(1),
    };
    let total: usize = gates.iter().map(|&g| adjacent_gate_count(chip, g)).sum();
    total as f64 / connectivity as f64
}

/// The two-qubit gates (couplers) that occupy a device when active,
/// without heap allocation: a coupler's single gate lives inline, a
/// qubit borrows the chip's adjacency slice.
pub(crate) enum DeviceGates<'a> {
    /// A coupler occupies exactly its own gate.
    One([CouplerId; 1]),
    /// A qubit occupies every incident coupler's gate.
    Many(&'a [CouplerId]),
}

impl DeviceGates<'_> {
    /// The gates as a slice.
    pub(crate) fn as_slice(&self) -> &[CouplerId] {
        match self {
            DeviceGates::One(one) => one,
            DeviceGates::Many(many) => many,
        }
    }
}

/// See [`DeviceGates`].
pub(crate) fn device_gates(chip: &Chip, device: DeviceId) -> DeviceGates<'_> {
    match device {
        DeviceId::Coupler(c) => DeviceGates::One([c]),
        DeviceId::Qubit(q) => DeviceGates::Many(chip.couplers_of(q)),
    }
}

/// Number of distinct gates sharing a qubit endpoint with `gate`
/// (excluding `gate` itself) — the counting form of the per-coupler
/// adjacency lists cached in [`PairKernels`], allocation-free.
fn adjacent_gate_count(chip: &Chip, gate: CouplerId) -> usize {
    let (a, b) = chip.coupler(gate).expect("gate id in range").endpoints();
    let ca = chip.couplers_of(a);
    let cb = chip.couplers_of(b);
    ca.iter().filter(|&&c| c != gate).count()
        + cb.iter()
            .filter(|&&c| c != gate && !ca.contains(&c))
            .count()
}

/// Returns `true` when two devices may legally share a DEMUX: no single
/// CZ gate ever needs both simultaneously.
pub fn legal_pair(chip: &Chip, a: DeviceId, b: DeviceId) -> bool {
    match (a, b) {
        (DeviceId::Qubit(qa), DeviceId::Qubit(qb)) => qa != qb && !chip.are_adjacent(qa, qb),
        (DeviceId::Qubit(q), DeviceId::Coupler(c)) | (DeviceId::Coupler(c), DeviceId::Qubit(q)) => {
            !chip.couplers_of(q).contains(&c)
        }
        (DeviceId::Coupler(ca), DeviceId::Coupler(cb)) => ca != cb,
    }
}

/// Returns `true` when two gates cannot coexist in one layer (they share
/// a qubit endpoint).
fn gates_conflict(chip: &Chip, a: CouplerId, b: CouplerId) -> bool {
    if a == b {
        return true;
    }
    let (a0, a1) = chip.coupler(a).expect("gate id in range").endpoints();
    let (b0, b1) = chip.coupler(b).expect("gate id in range").endpoints();
    a0 == b0 || a0 == b1 || a1 == b0 || a1 == b1
}

/// Fraction of gate pairs between two devices that topologically
/// conflict: 1.0 means grouping them can never cost depth.
pub(crate) fn topo_nonparallel_fraction(chip: &Chip, a: DeviceId, b: DeviceId) -> f64 {
    let ga = device_gates(chip, a);
    let gb = device_gates(chip, b);
    let (ga, gb) = (ga.as_slice(), gb.as_slice());
    if ga.is_empty() || gb.is_empty() {
        return 1.0;
    }
    let mut conflicts = 0usize;
    for &x in ga {
        for &y in gb {
            if gates_conflict(chip, x, y) {
                conflicts += 1;
            }
        }
    }
    conflicts as f64 / (ga.len() * gb.len()) as f64
}

/// Representative qubits of a device (itself, or a coupler's
/// endpoints), inline — returns the qubit array and its filled length.
#[cfg(test)]
fn device_qubits(chip: &Chip, d: DeviceId) -> ([youtiao_chip::QubitId; 2], usize) {
    match d {
        DeviceId::Qubit(q) => ([q, q], 1),
        DeviceId::Coupler(c) => {
            let (a, b) = chip.coupler(c).expect("device id in range").endpoints();
            ([a, b], 2)
        }
    }
}

/// Worst-case crosstalk between the qubits of two devices: the naive
/// form of [`PairKernels::noise`].
#[cfg(test)]
pub(crate) fn noisy_score(chip: &Chip, xtalk: &DistanceMatrix, a: DeviceId, b: DeviceId) -> f64 {
    let (qa, na) = device_qubits(chip, a);
    let (qb, nb) = device_qubits(chip, b);
    let mut worst = 0.0f64;
    for &qa in &qa[..na] {
        for &qb in &qb[..nb] {
            if qa != qb {
                worst = worst.max(xtalk.get(qa, qb));
            }
        }
    }
    worst
}

/// Groups `devices`, Z-controlled devices of the context's chip, onto
/// shared TDM lines (§4.3). Grouped devices share at most
/// `config.max_shared_slots` busy time slots of the workload
/// `activity`, so the grouping exploits the workload's natural
/// non-parallelism (e.g. the 4-step CZ schedule of a surface-code
/// cycle); devices absent from the profile are never busy, so an empty
/// profile constrains nothing.
///
/// Noisy non-parallelism is scored with the context's
/// [`PlanContext::tdm_crosstalk`], and the grouping walks that matrix's
/// rows in the context's sorted form, each sorted the first time a walk
/// needs it and kept for every later grouping on the context. Working
/// buffers come from the context's scratch pool. Produces
/// byte-identical groupings to the naive per-candidate recomputation
/// (differential tests enforce it).
pub fn group_tdm(
    ctx: &PlanContext,
    config: &TdmConfig,
    devices: &[DeviceId],
    activity: &ActivityProfile,
) -> Vec<TdmGroup> {
    let mut scratch = ctx.scratch().checkout();
    let masks = ctx.kernels().densify_activity_in(activity, &mut scratch);
    let (groups, _) = group_masked(ctx, config, devices, &masks, &mut scratch);
    scratch.retire_u32(masks);
    groups
}

/// [`group_tdm`] over densified activity `masks`
/// ([`PairKernels::densify_activity`]) with the caller's arena,
/// counting the full scans it fell back to.
pub(crate) fn group_masked(
    ctx: &PlanContext,
    config: &TdmConfig,
    devices: &[DeviceId],
    masks: &[u32],
    scratch: &mut Scratch,
) -> (Vec<TdmGroup>, usize) {
    let kernels = ctx.kernels();
    // Rank devices by parallelism index and split at θ.
    let mut indexed: Vec<(DeviceId, f64)> = devices
        .iter()
        .map(|&d| (d, kernels.parallelism(d)))
        .collect();
    indexed.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let low: Vec<(DeviceId, f64)> = indexed
        .iter()
        .copied()
        .filter(|&(_, i)| i < config.theta)
        .collect();
    let high: Vec<(DeviceId, f64)> = indexed
        .iter()
        .copied()
        .filter(|&(_, i)| i >= config.theta)
        .collect();

    let (xtalk, rows) = (ctx.tdm_crosstalk(), ctx.tdm_rows());
    let mut groups = Vec::new();
    let mut scans = 0;
    for (level, pool) in [(config.low_level(), low), (DemuxLevel::OneToTwo, high)] {
        let (level_groups, level_scans) =
            group_level_kernels(kernels, xtalk, rows, level, &pool, masks, config, scratch);
        groups.extend(level_groups);
        scans += level_scans;
    }
    (groups, scans)
}

/// A pool position's [`group_level_kernels`] stamp once it joined a
/// group; also the position of a device outside the pool.
const TAKEN: u32 = u32::MAX;

/// A candidate's score in [`group_level_kernels`]: minus its shared
/// windows, its topo-min, its noise and minus its imbalance. Higher is
/// better.
type Key = (f64, f64, f64, f64);

/// One member qubit's sorted row in a [`group_level_kernels`] walk,
/// read from `at`, with the crosstalk there (`-∞` once the row is
/// read): its prefix first, then the whole row if the walk reads past
/// the prefix.
struct Head<'a> {
    qubit: QubitId,
    cols: &'a [u32],
    whole: bool,
    values: &'a [f64],
    at: usize,
    value: f64,
}

impl<'a> Head<'a> {
    /// The start of qubit `x`'s row.
    fn new(rows: &'a SortedRows, xtalk: &'a DistanceMatrix, x: QubitId) -> Self {
        let cols = rows.prefix(xtalk, x);
        let values = xtalk.row(x);
        Head {
            qubit: x,
            cols,
            whole: cols.len() < ROW_PREFIX,
            values,
            at: 0,
            value: cols
                .first()
                .map_or(f64::NEG_INFINITY, |&y| values[y as usize]),
        }
    }

    /// Moves past the current entry and returns its qubit.
    fn advance(&mut self, rows: &'a SortedRows, xtalk: &'a DistanceMatrix) -> usize {
        let y = self.cols[self.at] as usize;
        self.at += 1;
        if self.at == self.cols.len() && !self.whole {
            self.cols = rows.row(xtalk, self.qubit);
            self.whole = true;
        }
        self.value = self
            .cols
            .get(self.at)
            .map_or(f64::NEG_INFINITY, |&next| self.values[next as usize]);
        y
    }
}

/// Greedy graph-coloring of one parallelism level (§4.3 steps 1–3),
/// kernelized: the naive greedy's choices and tie-breaks, bit for bit,
/// without walking the pool when a member joins. Returns the groups
/// and the number of full scans.
///
/// Every aggregate of the group being filled is a lookup:
///
/// * **legality** — `stamp[j]` is the last group a member of which may
///   not share a DEMUX with candidate `j` (or [`TAKEN`]), set from the
///   zero bits of each new member's legality row;
/// * **balance** — max |dᵢ − x| over the members' parallelism indices
///   dᵢ sits at the smallest or the largest dᵢ (rounding is monotone),
///   so it is computed from the group's two extremes;
/// * **noise** — a candidate's worst-case crosstalk to the group, the
///   naive maximum of [`PairKernels::noise`] over the members. A full
///   scan reads it from `reach[y]`, the worst crosstalk from a member
///   qubit `x ≠ y` to qubit `y`, which it first grows by one row pass
///   of `xtalk` per member qubit not yet folded in; the larger `reach`
///   of the candidate's qubits is the maximum over the same values,
///   which `f64::max` returns in any order;
/// * **topo** — 1.0 before the first gated member joins. A gateless
///   device scores 1.0 against everything, and two gated devices score
///   above 0.0 only when they share a gate endpoint, so afterwards only
///   the gateless candidates and the gated ones in the sparse topo row
///   of every gated member keep a positive topo-min. `near` lists them
///   in pool order, with their running minimum in `topo`; every other
///   candidate scores 0.0;
/// * **activity** — adding a device busy in an occupied slot adds one
///   serialized window per such slot, so a candidate shares
///   `cur_extra + popcount(mask ∩ occupied)` windows. The popcount is
///   the candidate's slot class; `alive` counts the live positions of
///   each distinct mask, so `k_min`, the lowest class of a live
///   position, costs one pass over the distinct masks.
///
/// No candidate shares fewer than `cur_extra + k_min` windows, so if
/// that exceeds the budget the group is full. Otherwise the next member
/// is chosen from `near` first. If the best of it shares
/// `cur_extra + k_min` windows, it wins: every candidate outside `near`
/// scores topo 0.0 against its positive topo, so none beats or ties it,
/// and scoring `near` in pool order keeps the first of equal keys, as
/// the full scan does (once the first candidate of that best class is
/// scored, no candidate of a lower class replaces it, so the candidates
/// in between do not matter).
///
/// Otherwise the legal class-`k_min` candidates, all outside `near`
/// (one inside would have won) and so all of one topo, are ranked by
/// noise, then balance, then pool position, and a **walk** finds the
/// best: it merges the member qubits' [`SortedRows`] by descending
/// crosstalk. The first value at which the merge reaches a qubit `y`
/// is exactly `reach[y]`, and every qubit not yet reached has a
/// `reach` no larger, so each candidate touching a newly reached qubit
/// is scored with its exact noise. The walk stops at the first value
/// below the best candidate's noise, which no unscored candidate can
/// reach. It gives up when it reads every row without finding a
/// candidate (the winner then has noise 0.0, or a higher class) or
/// takes more steps than a quarter of the live pool's size. Then the
/// whole pool is scored once, in pool order, over `live`, a list of
/// positions not yet taken that each full scan compacts.
#[allow(clippy::too_many_arguments)] // one level's pool and everything it reads
fn group_level_kernels(
    kernels: &PairKernels,
    xtalk: &DistanceMatrix,
    rows: &SortedRows,
    level: DemuxLevel,
    pool: &[(DeviceId, f64)],
    masks: &[u32],
    config: &TdmConfig,
    scratch: &mut Scratch,
) -> (Vec<TdmGroup>, usize) {
    let capacity = level.channel_capacity();
    let n = pool.len();
    let num_devices = kernels.num_devices();
    let mut pdense = scratch.take_u32(n, 0);
    let mut pmask = scratch.take_u32(n, 0);
    let mut pos_of = scratch.take_u32(num_devices, TAKEN);
    let mut live = scratch.take_u32(n, 0);
    let mut gateless = scratch.take_u32(n, 0);
    gateless.clear();
    for (i, &(d, _)) in pool.iter().enumerate() {
        let k = kernels.dense(d);
        pdense[i] = k as u32;
        pmask[i] = masks[k];
        pos_of[k] = i as u32;
        live[i] = i as u32;
        if kernels.gateless(k) {
            gateless.push(i as u32);
        }
    }
    // The pool's distinct masks and how many live positions carry each.
    let mut distinct = scratch.take_u32(n, 0);
    distinct.copy_from_slice(&pmask);
    distinct.sort_unstable();
    distinct.dedup();
    let kind = |mask| distinct.binary_search(&mask).expect("every mask is listed");
    let mut alive = scratch.take_u32(distinct.len(), 0);
    for &m in pmask.iter() {
        alive[kind(m)] += 1;
    }
    let mut remaining = n;
    let mut stamp = scratch.take_u32(n, 0);
    let mut topo = scratch.take_f64(n, 0.0);
    let mut reach = scratch.take_f64(xtalk.len(), 0.0);
    let mut reached = scratch.take_u32(xtalk.len(), 0);
    let mut near = scratch.take_u32(n, 0);
    near.clear();
    let mut heads: Vec<Head> = Vec::with_capacity(2 * capacity);

    let mut groups = Vec::new();
    let mut scans = 0;
    let mut first = 0usize;
    let mut group = 0u32;
    let mut walk = 0u32;
    let mut folded = 0usize;
    while first < n {
        if stamp[first] == TAKEN {
            first += 1;
            continue;
        }
        // Step 1: seed with the lowest parallelism index (first live in
        // rank order).
        group += 1;
        let mut next = Some(first);
        first += 1;
        let mut members = Vec::with_capacity(capacity);
        // Slots already occupied by a member; adding a device busy in an
        // occupied slot costs exactly one extra serialized window.
        let mut occupied = 0u32;
        let mut cur_extra = 0u32;
        let mut gated = false;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        if folded > 0 {
            reach.fill(0.0);
            folded = 0;
        }
        while let Some(i) = next {
            stamp[i] = TAKEN;
            alive[kind(pmask[i])] -= 1;
            remaining -= 1;
            let (d, di) = pool[i];
            let k = pdense[i] as usize;
            cur_extra += (pmask[i] & occupied).count_ones();
            occupied |= pmask[i];
            members.push(d);
            if members.len() == capacity {
                break;
            }
            // Fold the new member into every aggregate.
            for (w, &word) in kernels.legal_bits(k).iter().enumerate() {
                let mut illegal = !word;
                while illegal != 0 {
                    let j = w * 64 + illegal.trailing_zeros() as usize;
                    if j >= num_devices {
                        break;
                    }
                    illegal &= illegal - 1;
                    let p = pos_of[j];
                    // A taken position keeps its stamp.
                    if p != TAKEN && stamp[p as usize] != TAKEN {
                        stamp[p as usize] = group;
                    }
                }
            }
            (lo, hi) = (lo.min(di), hi.max(di));
            if !kernels.gateless(k) && !gated {
                gated = true;
                for &(j, t) in kernels.topo_entries(k) {
                    let p = pos_of[j as usize];
                    if p != TAKEN && stamp[p as usize] != TAKEN {
                        topo[p as usize] = t;
                        near.push(p);
                    }
                }
                gateless.retain(|&p| stamp[p as usize] != TAKEN);
                for &p in gateless.iter() {
                    topo[p as usize] = 1.0;
                    near.push(p);
                }
                near.sort_unstable();
            } else if !kernels.gateless(k) {
                near.retain(|&p| {
                    let p = p as usize;
                    if stamp[p] == TAKEN {
                        return false;
                    }
                    let t = kernels.topo_dense(k, pdense[p] as usize);
                    topo[p] = topo[p].min(t);
                    t > 0.0
                });
            }

            // The lowest slot class of a live position; with none
            // live or none within budget, the group is full.
            let k_min = distinct
                .iter()
                .zip(alive.iter())
                .filter(|&(_, &count)| count > 0)
                .map(|(&m, _)| (m & occupied).count_ones())
                .min();
            let Some(k_min) = k_min.filter(|&k| cur_extra + k <= config.max_shared_slots) else {
                break;
            };

            // Steps 2–3: among legal candidates sharing the fewest busy
            // slots, prefer fully topologically non-parallel ones, then
            // the noisiest, then the closest parallelism index
            // (balancing). Fewer shared slots, higher topo, higher
            // noise, lower imbalance is better. A candidate's noise is
            // read from `reach` once a full scan has folded every
            // member in, and from the members' rows before.
            let key = |j: usize, reach: Option<&[f64]>| -> Option<Key> {
                // Taken, or illegal beside a member of this group.
                if stamp[j] >= group {
                    return None;
                }
                let shared = cur_extra + (pmask[j] & occupied).count_ones();
                if shared > config.max_shared_slots {
                    return None;
                }
                let noise = match reach {
                    Some(reach) => {
                        let [y0, y1] = kernels.qubit_pair(pdense[j] as usize);
                        reach[y0.index()].max(reach[y1.index()])
                    }
                    None => members.iter().fold(0.0, |worst: f64, &m| {
                        worst.max(kernels.noise(xtalk, m, pool[j].0))
                    }),
                };
                let x = pool[j].1;
                let balance = (lo - x).abs().max((hi - x).abs());
                let topo = if gated { topo[j] } else { 1.0 };
                Some((-(shared as f64), topo, noise, -balance))
            };
            // The first of equal keys wins, as positions come in pool
            // order.
            let consider = |best: Option<(usize, Key)>, j: usize, reach| match key(j, reach) {
                Some(cand) if best.is_none_or(|(_, bk)| cand > bk) => Some((j, cand)),
                _ => best,
            };
            let best = near
                .iter()
                .fold(None, |best, &p| consider(best, p as usize, None));
            let fewest = -((cur_extra + k_min) as f64);
            if best.is_some_and(|(_, (shared, ..))| shared == fewest) {
                next = best.map(|(j, _)| j);
                continue;
            }

            // The walk: (position, noise, balance) of the best
            // class-`k_min` candidate reached so far.
            walk += 1;
            heads.clear();
            for &m in &members {
                for &x in kernels.qubits(kernels.dense(m)) {
                    if heads.iter().all(|h| h.qubit != x) {
                        heads.push(Head::new(rows, xtalk, x));
                    }
                }
            }
            let mut found: Option<(usize, f64, f64)> = None;
            let mut steps = remaining / 4;
            let walked = loop {
                // The head with the largest next value.
                let mut h = 0;
                for g in 1..heads.len() {
                    if heads[g].value > heads[h].value {
                        h = g;
                    }
                }
                let v = heads[h].value;
                if v == f64::NEG_INFINITY || found.is_some_and(|(_, noise, _)| v < noise) {
                    break found;
                }
                if steps == 0 {
                    break None;
                }
                steps -= 1;
                let y = heads[h].advance(rows, xtalk);
                if reached[y] == walk {
                    continue;
                }
                reached[y] = walk;
                for j in std::iter::once(y).chain(kernels.incident(y).iter().map(|&c| c as usize)) {
                    let p = pos_of[j];
                    if p == TAKEN {
                        continue;
                    }
                    let p = p as usize;
                    if stamp[p] >= group || (pmask[p] & occupied).count_ones() != k_min {
                        continue;
                    }
                    let x = pool[p].1;
                    let balance = (lo - x).abs().max((hi - x).abs());
                    // `v` equals the best's noise here: lower
                    // balance wins, then the lower position.
                    if found.is_none_or(|(q, _, b)| balance < b || (balance == b && p < q)) {
                        found = Some((p, v, balance));
                    }
                }
            };
            if let Some((p, ..)) = walked {
                next = Some(p);
                continue;
            }

            scans += 1;
            for &m in &members[folded..] {
                for &x in kernels.qubits(kernels.dense(m)) {
                    // The row pass leaves `reach[x]` as it was: the
                    // naive score skips a qubit's crosstalk with
                    // itself.
                    let own = reach[x.index()];
                    for (r, &v) in reach.iter_mut().zip(xtalk.row(x)) {
                        *r = r.max(v);
                    }
                    reach[x.index()] = own;
                }
            }
            folded = members.len();
            let mut best = None;
            let mut kept = 0;
            for r in 0..live.len() {
                let j = live[r] as usize;
                if stamp[j] != TAKEN {
                    live[kept] = j as u32;
                    kept += 1;
                    best = consider(best, j, Some(&reach));
                }
            }
            live.truncate(kept);
            next = best.map(|(j, _)| j);
        }
        // Outside `near`, every `topo` entry is 0.0.
        for &p in near.iter() {
            topo[p as usize] = 0.0;
        }
        near.clear();
        groups.push(TdmGroup::new(level, members));
    }
    for buf in [
        pdense, pmask, pos_of, live, gateless, distinct, alive, stamp, reached, near,
    ] {
        scratch.retire_u32(buf);
    }
    scratch.retire_f64(topo);
    scratch.retire_f64(reach);
    (groups, scans)
}

/// The original per-candidate grouping implementation, retained as the
/// differential-testing reference. Semantically identical to
/// [`group_tdm`]; the kernelized path must produce byte-identical
/// output.
#[cfg(test)]
pub mod naive {
    use super::*;

    /// [`group_tdm`](super::group_tdm) over `xtalk` without kernels:
    /// every pairwise term is re-derived per candidate per iteration.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension mismatches the chip.
    pub fn group_tdm_naive(
        chip: &Chip,
        xtalk: &DistanceMatrix,
        config: &TdmConfig,
        devices: &[DeviceId],
        activity: &ActivityProfile,
    ) -> Vec<TdmGroup> {
        assert_eq!(
            xtalk.len(),
            chip.num_qubits(),
            "crosstalk matrix size mismatch"
        );
        let mut indexed: Vec<(DeviceId, f64)> = devices
            .iter()
            .map(|&d| (d, parallelism_index(chip, d)))
            .collect();
        indexed.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let low: Vec<(DeviceId, f64)> = indexed
            .iter()
            .copied()
            .filter(|&(_, i)| i < config.theta)
            .collect();
        let high: Vec<(DeviceId, f64)> = indexed
            .iter()
            .copied()
            .filter(|&(_, i)| i >= config.theta)
            .collect();

        let low_level = if config.allow_one_to_eight {
            DemuxLevel::OneToEight
        } else {
            DemuxLevel::OneToFour
        };
        let mut groups = Vec::new();
        for (level, pool) in [(low_level, low), (DemuxLevel::OneToTwo, high)] {
            groups.extend(group_level(chip, xtalk, level, pool, activity, config));
        }
        groups
    }

    /// Greedy graph-coloring of one parallelism level (§4.3 steps 1–3),
    /// naive form. Activity costs go through the shared saturating-`u16`
    /// [`extra_windows_masked`](super::extra_windows_masked) accessor —
    /// the local `[u8; 32]` slot counters this loop once carried could
    /// overflow on oversized synthetic device sets (the bug class fixed
    /// in `extra_windows` earlier).
    fn group_level(
        chip: &Chip,
        xtalk: &DistanceMatrix,
        level: DemuxLevel,
        mut pool: Vec<(DeviceId, f64)>,
        activity: &ActivityProfile,
        config: &TdmConfig,
    ) -> Vec<TdmGroup> {
        let capacity = level.channel_capacity();
        let mask_of = |d: DeviceId| activity.get(&d).copied().unwrap_or(0);
        let mut groups = Vec::new();
        while !pool.is_empty() {
            // Step 1: seed with the lowest parallelism index.
            let (seed, seed_idx) = pool.remove(0);
            let mut members = vec![seed];
            let mut member_idx = vec![seed_idx];
            while members.len() < capacity {
                // Steps 2–3: among legal candidates sharing the fewest
                // busy slots, prefer fully topologically non-parallel
                // ones, then the noisiest, then the closest parallelism
                // index (balancing).
                let mut best: Option<(usize, (f64, f64, f64, f64))> = None;
                for (i, &(cand, cand_idx)) in pool.iter().enumerate() {
                    if !members.iter().all(|&m| legal_pair(chip, m, cand)) {
                        continue;
                    }
                    let shared = extra_windows_masked(
                        members.iter().copied().chain(std::iter::once(cand)),
                        mask_of,
                    );
                    if shared > config.max_shared_slots {
                        continue;
                    }
                    let topo = members
                        .iter()
                        .map(|&m| topo_nonparallel_fraction(chip, m, cand))
                        .fold(f64::INFINITY, f64::min);
                    let noise = members
                        .iter()
                        .map(|&m| noisy_score(chip, xtalk, m, cand))
                        .fold(0.0, f64::max);
                    let balance = member_idx
                        .iter()
                        .map(|&mi: &f64| (mi - cand_idx).abs())
                        .fold(0.0, f64::max);
                    // Fewer shared slots, higher topo, higher noise,
                    // lower imbalance is better.
                    let key = (-(shared as f64), topo, noise, -balance);
                    if best.is_none_or(|(_, bk)| key > bk) {
                        best = Some((i, key));
                    }
                }
                match best {
                    Some((i, _)) => {
                        let (d, di) = pool.remove(i);
                        members.push(d);
                        member_idx.push(di);
                    }
                    None => break,
                }
            }
            groups.push(TdmGroup::new(level, members));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::EquivalentWeights;
    use youtiao_chip::topology;

    /// A context of `chip` whose TDM grouping scores `xtalk`.
    fn context(chip: &Chip, xtalk: &DistanceMatrix) -> PlanContext {
        PlanContext::from_matrix(chip, EquivalentWeights::balanced(), xtalk.clone())
    }

    /// [`group_tdm`] of every device of `chip` scoring `xtalk`, under
    /// an empty activity profile.
    fn group_all(chip: &Chip, xtalk: &DistanceMatrix, config: &TdmConfig) -> Vec<TdmGroup> {
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        group_tdm(
            &context(chip, xtalk),
            config,
            &devices,
            &ActivityProfile::new(),
        )
    }

    fn flat_xtalk(chip: &Chip) -> DistanceMatrix {
        let mut m = DistanceMatrix::zeros(chip.num_qubits());
        for a in chip.qubit_ids() {
            for b in chip.qubit_ids() {
                if a < b {
                    let d = chip.physical_distance(a, b);
                    m.set(a, b, 0.01 * (-d).exp());
                }
            }
        }
        m
    }

    #[test]
    fn parallelism_index_matches_paper_chain_example() {
        // Figure 8 (b): chain q1-c1-q2-c2-q3 with q3 branching to c3, c4.
        // Reconstruct: star-ish graph.
        let chip = youtiao_chip::ChipBuilder::new("fig8", youtiao_chip::TopologyKind::Custom)
            .qubit(youtiao_chip::Position::new(0.0, 0.0)) // q1
            .qubit(youtiao_chip::Position::new(1.0, 0.0)) // q2
            .qubit(youtiao_chip::Position::new(2.0, 0.0)) // q3
            .qubit(youtiao_chip::Position::new(3.0, 0.0)) // q4
            .qubit(youtiao_chip::Position::new(2.0, 1.0)) // q7
            .coupler(0u32.into(), 1u32.into()) // c1: q1-q2
            .coupler(1u32.into(), 2u32.into()) // c2: q2-q3
            .coupler(2u32.into(), 3u32.into()) // c3: q3-q4
            .coupler(2u32.into(), 4u32.into()) // c4: q3-q7
            .build()
            .unwrap();
        // c1's gate q1-q2 conflicts only with q2-q3 -> index 1.
        let c1 = chip.coupler_between(0u32.into(), 1u32.into()).unwrap();
        assert_eq!(parallelism_index(&chip, DeviceId::Coupler(c1)), 1.0);
        // q3 participates in gates c2 (3 adjacent: c1, c3, c4), c3 (2:
        // c2, c4) and c4 (2: c2, c3); connectivity 3 -> (3+2+2)/3.
        let idx = parallelism_index(&chip, DeviceId::Qubit(2u32.into()));
        assert!((idx - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_qubit_has_zero_index() {
        let chip = youtiao_chip::ChipBuilder::new("iso", youtiao_chip::TopologyKind::Custom)
            .qubit(youtiao_chip::Position::new(0.0, 0.0))
            .build()
            .unwrap();
        assert_eq!(parallelism_index(&chip, DeviceId::Qubit(0u32.into())), 0.0);
    }

    #[test]
    fn legality_rules() {
        let chip = topology::linear(3);
        let q0 = DeviceId::Qubit(0u32.into());
        let q1 = DeviceId::Qubit(1u32.into());
        let q2 = DeviceId::Qubit(2u32.into());
        let c0 = DeviceId::Coupler(chip.coupler_between(0u32.into(), 1u32.into()).unwrap());
        let c1 = DeviceId::Coupler(chip.coupler_between(1u32.into(), 2u32.into()).unwrap());
        assert!(!legal_pair(&chip, q0, q1), "adjacent qubits share a gate");
        assert!(legal_pair(&chip, q0, q2), "distant qubits are legal");
        assert!(!legal_pair(&chip, q0, c0), "qubit with its coupler");
        assert!(legal_pair(&chip, q2, c0), "qubit with a far coupler");
        assert!(legal_pair(&chip, c0, c1), "couplers never share a gate");
        assert!(!legal_pair(&chip, q0, q0), "a device with itself");
    }

    #[test]
    fn groups_cover_all_devices_exactly_once() {
        let chip = topology::square_grid(3, 3);
        let x = flat_xtalk(&chip);
        let groups = group_all(&chip, &x, &TdmConfig::default());
        let mut all: Vec<DeviceId> = groups.iter().flat_map(|g| g.devices().to_vec()).collect();
        all.sort_unstable();
        let mut expect: Vec<DeviceId> = chip.device_ids().collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn groups_are_legal() {
        let chip = topology::square_grid(3, 3);
        let x = flat_xtalk(&chip);
        for g in group_all(&chip, &x, &TdmConfig::default()) {
            let ds = g.devices();
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    assert!(legal_pair(&chip, ds[i], ds[j]), "illegal pair in group");
                }
            }
        }
    }

    #[test]
    fn grouping_reduces_line_count() {
        let chip = topology::heavy_square(3, 3);
        let x = flat_xtalk(&chip);
        let groups = group_all(&chip, &x, &TdmConfig::default());
        assert!(
            groups.len() * 2 <= chip.num_z_devices(),
            "expected ≥2× reduction"
        );
    }

    #[test]
    fn theta_extremes_select_demux_levels() {
        let chip = topology::square_grid(3, 3);
        let x = flat_xtalk(&chip);
        // θ = ∞: everything is "low parallelism" -> all 1:4 (or direct).
        let all_low = group_all(
            &chip,
            &x,
            &TdmConfig {
                theta: f64::INFINITY,
                ..Default::default()
            },
        );
        assert!(all_low
            .iter()
            .all(|g| matches!(g.level(), DemuxLevel::OneToFour | DemuxLevel::Direct)));
        // θ = 0: everything "high" -> 1:2 / direct.
        let all_high = group_all(
            &chip,
            &x,
            &TdmConfig {
                theta: 0.0,
                ..Default::default()
            },
        );
        assert!(all_high
            .iter()
            .all(|g| matches!(g.level(), DemuxLevel::OneToTwo | DemuxLevel::Direct)));
        assert!(all_high.len() >= all_low.len());
    }

    #[test]
    fn singleton_groups_become_direct_lines() {
        let g = TdmGroup::new(DemuxLevel::OneToFour, vec![DeviceId::Qubit(0u32.into())]);
        assert_eq!(g.level(), DemuxLevel::Direct);
        assert_eq!(g.level().select_lines(), 0);
    }

    #[test]
    fn demux_level_properties() {
        assert_eq!(DemuxLevel::OneToFour.channel_capacity(), 4);
        assert_eq!(DemuxLevel::OneToFour.select_lines(), 2);
        assert_eq!(DemuxLevel::OneToTwo.channel_capacity(), 2);
        assert_eq!(DemuxLevel::OneToTwo.select_lines(), 1);
        assert_eq!(DemuxLevel::Direct.channel_capacity(), 1);
    }

    #[test]
    fn deterministic() {
        let chip = topology::hexagon_patch(2, 2);
        let x = flat_xtalk(&chip);
        assert_eq!(
            group_all(&chip, &x, &TdmConfig::default()),
            group_all(&chip, &x, &TdmConfig::default())
        );
    }

    #[test]
    fn extra_windows_counts_shared_slots() {
        let d = |i: u32| DeviceId::Qubit(i.into());
        let mut profile = ActivityProfile::new();
        profile.insert(d(0), 0b011);
        profile.insert(d(1), 0b001);
        profile.insert(d(2), 0b100);
        // Slot 0 busy twice -> 1 extra window; slots 1, 2 busy once.
        assert_eq!(group_extra_windows(&[d(0), d(1), d(2)], &profile), 1);
        assert_eq!(group_extra_windows(&[], &profile), 0);
        // Unknown devices are never busy.
        assert_eq!(group_extra_windows(&[d(0), d(9)], &profile), 0);
    }

    #[test]
    fn extra_windows_survives_oversized_device_sets() {
        // >255 devices sharing one slot used to overflow the u8 slot
        // counters (panic in debug, silent wraparound in release). No
        // DEMUX holds that many devices, but the accessor takes an
        // arbitrary slice, so it must stay exact.
        let devices: Vec<DeviceId> = (0..300u32).map(|i| DeviceId::Qubit(i.into())).collect();
        let mut profile = ActivityProfile::new();
        for &d in &devices {
            profile.insert(d, 0b1);
        }
        assert_eq!(group_extra_windows(&devices, &profile), 299);
    }

    #[test]
    fn grouping_survives_oversized_synthetic_device_sets() {
        // Regression for the `[u8; 32]` slot counters `group_level`
        // carried: on a synthetic chip with >255 disconnected qubits all
        // busy in the same slot, a permissive budget admits many of them
        // into the candidate loop, where the old per-group `*count += 1`
        // bookkeeping belonged to the overflow bug class fixed in
        // `extra_windows_masked`. Both paths must group cleanly (and
        // identically) — the budget caps what one group may absorb.
        use youtiao_chip::{ChipBuilder, Position, TopologyKind};
        let mut b = ChipBuilder::new("oversized", TopologyKind::Custom);
        for i in 0..300 {
            b = b.qubit(Position::new(f64::from(i), 0.0));
        }
        let chip = b.build().unwrap();
        let x = DistanceMatrix::zeros(chip.num_qubits());
        let mut activity = ActivityProfile::new();
        for q in chip.qubit_ids() {
            activity.insert(DeviceId::Qubit(q), 0b1);
        }
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let config = TdmConfig {
            max_shared_slots: 1000,
            ..Default::default()
        };
        let fast = group_tdm(&context(&chip, &x), &config, &devices, &activity);
        let slow = naive::group_tdm_naive(&chip, &x, &config, &devices, &activity);
        assert_eq!(fast, slow);
        let total: usize = fast.iter().map(TdmGroup::len).sum();
        assert_eq!(total, 300);
        for g in &fast {
            assert!(group_extra_windows(g.devices(), &activity) <= config.max_shared_slots);
        }
    }

    /// Grouping scores the context's matrix, and a context refuses a
    /// matrix of another size.
    #[test]
    #[should_panic(expected = "crosstalk matrix size mismatch")]
    fn mismatched_matrix_rejected() {
        let chip = topology::square_grid(3, 3);
        let _ = context(&chip, &DistanceMatrix::zeros(4));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_group_panics() {
        let _ = TdmGroup::new(
            DemuxLevel::OneToTwo,
            vec![
                DeviceId::Qubit(0u32.into()),
                DeviceId::Qubit(1u32.into()),
                DeviceId::Qubit(2u32.into()),
            ],
        );
    }

    mod differential {
        use super::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use youtiao_chip::distance::{equivalent_matrix, EquivalentWeights};

        /// A deterministic pseudo-random chip drawn from the topology
        /// generators the planner actually sees.
        pub(crate) fn random_chip(rng: &mut ChaCha8Rng) -> Chip {
            match rng.gen_range(0u32..6) {
                0 => topology::square_grid(rng.gen_range(2usize..5), rng.gen_range(2usize..5)),
                1 => topology::heavy_square(rng.gen_range(2usize..4), rng.gen_range(2usize..4)),
                2 => topology::hexagon_patch(rng.gen_range(1usize..3), rng.gen_range(1usize..3)),
                3 => topology::linear(rng.gen_range(2usize..12)),
                4 => topology::ring(rng.gen_range(3usize..12)),
                _ => topology::low_density(rng.gen_range(2usize..4), rng.gen_range(2usize..5)),
            }
        }

        /// A random activity profile over a random subset of devices.
        pub(crate) fn random_activity(rng: &mut ChaCha8Rng, chip: &Chip) -> ActivityProfile {
            let mut profile = ActivityProfile::new();
            for d in chip.device_ids() {
                if rng.gen_range(0u32..4) == 0 {
                    continue; // leave some devices unconstrained
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

        pub(crate) fn random_config(rng: &mut ChaCha8Rng) -> TdmConfig {
            let theta = match rng.gen_range(0u32..5) {
                0 => 0.0,
                1 => 2.0,
                2 => 4.0,
                3 => 6.0,
                _ => f64::INFINITY,
            };
            TdmConfig {
                theta,
                max_shared_slots: [0u32, 1, 2, 5][rng.gen_range(0usize..4)],
                allow_one_to_eight: rng.gen_range(0u32..4) == 0,
            }
        }

        /// The acceptance criterion's differential gate: the kernelized
        /// grouping is byte-identical to the naive reference across
        /// random chips, θ values, activity profiles and budgets.
        #[test]
        fn kernelized_grouping_matches_naive() {
            let mut rng = ChaCha8Rng::seed_from_u64(0x7d7_1a0);
            for case in 0..60 {
                let chip = random_chip(&mut rng);
                let xtalk = flat_xtalk(&chip);
                let config = random_config(&mut rng);
                let activity = random_activity(&mut rng, &chip);
                let devices: Vec<DeviceId> = chip.device_ids().collect();
                let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &activity);
                let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &activity);
                assert_eq!(
                    fast,
                    slow,
                    "case {case}: chip {} config {config:?}",
                    chip.name()
                );
            }
        }

        /// The kernelized grouping and refinement equal the naive
        /// passes on the large chips (surface d9 and the square grids
        /// `youtiao bench-plan` times by default): plan-sweep's twelve
        /// TDM configurations and the same six at budget 0, the
        /// planner default's among them, with brickwork activity,
        /// scoring the XY matrix of each chip and the ZZ matrix of one
        /// ZZ-backed context.
        #[test]
        #[ignore = "naive passes over thousands of devices; run with --release"]
        fn kernelized_passes_match_naive_on_large_chips() {
            use crate::refine::{naive::refine_tdm_groups_naive, refine_tdm_groups, RefineConfig};
            use youtiao_chip::surface::SurfaceCode;
            use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
            use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
            let zz = fit_crosstalk_model(
                &synthesize(
                    &topology::square_grid(4, 4),
                    CrosstalkKind::Zz,
                    &SynthConfig::zz(),
                    5,
                ),
                &FitConfig::fast(),
            )
            .expect("4x4 fits");
            let weights = EquivalentWeights::balanced();
            let mut contexts: Vec<(Chip, PlanContext)> = [6, 8, 10, 12, 16, 24]
                .map(|n| topology::square_grid(n, n))
                .into_iter()
                .chain([SurfaceCode::rotated(9).into_chip()])
                .map(|chip| {
                    let ctx = PlanContext::build(&chip, None, weights);
                    (chip, ctx)
                })
                .collect();
            let chip = topology::square_grid(16, 16);
            let ctx = PlanContext::build(&chip, None, weights).with_zz_model(&chip, &zz);
            contexts.push((chip, ctx));
            let refine = RefineConfig::default();
            for (chip, ctx) in &contexts {
                let xtalk = ctx.tdm_crosstalk();
                let activity = brickwork_activity(chip);
                let devices: Vec<DeviceId> = chip.device_ids().collect();
                for theta in [2.0, 4.0, 8.0] {
                    for allow_one_to_eight in [false, true] {
                        for max_shared_slots in [0, 1, 2] {
                            let config = TdmConfig {
                                theta,
                                max_shared_slots,
                                allow_one_to_eight,
                            };
                            let case = format!("{} {config:?}", chip.name());
                            let groups = group_tdm(ctx, &config, &devices, &activity);
                            let naive =
                                naive::group_tdm_naive(chip, xtalk, &config, &devices, &activity);
                            assert_eq!(groups, naive, "{case}");
                            let fast =
                                refine_tdm_groups(ctx, &activity, &config, groups.clone(), &refine);
                            let slow = refine_tdm_groups_naive(
                                chip, xtalk, &activity, &config, groups, &refine,
                            );
                            assert_eq!(fast, slow, "{case}");
                        }
                    }
                }
            }
        }

        /// Chips with gateless qubits (so a group may gain its first
        /// gated member after gateless ones) and crosstalk matrices
        /// with a non-zero diagonal (which the worst-case score skips)
        /// group as the naive pass does.
        #[test]
        fn kernelized_grouping_matches_naive_with_gateless_qubits() {
            use youtiao_chip::{ChipBuilder, Position, TopologyKind};
            let mut rng = ChaCha8Rng::seed_from_u64(0x9a7e_1e55);
            for case in 0..40 {
                let n = rng.gen_range(4u32..14);
                let mut builder = (0..n)
                    .fold(ChipBuilder::new("sparse", TopologyKind::Custom), |b, i| {
                        b.qubit(Position::new(f64::from(i), f64::from(i % 3)))
                    });
                for a in 0..n {
                    for b in (a + 1)..n {
                        if rng.gen_range(0u32..5) == 0 {
                            builder = builder.coupler(a.into(), b.into());
                        }
                    }
                }
                let chip = builder.build().expect("valid chip");
                let mut xtalk = flat_xtalk(&chip);
                for q in chip.qubit_ids() {
                    xtalk.set(q, q, 1.0);
                }
                let config = random_config(&mut rng);
                let activity = random_activity(&mut rng, &chip);
                let devices: Vec<DeviceId> = chip.device_ids().collect();
                let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &activity);
                let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &activity);
                assert_eq!(fast, slow, "case {case}: config {config:?}");
            }
        }

        /// Subsets (the per-region path) and the empty activity profile
        /// agree too.
        #[test]
        fn kernelized_subset_grouping_matches_naive() {
            let mut rng = ChaCha8Rng::seed_from_u64(0xca11);
            for _ in 0..30 {
                let chip = random_chip(&mut rng);
                let xtalk = flat_xtalk(&chip);
                let config = random_config(&mut rng);
                let devices: Vec<DeviceId> = chip
                    .device_ids()
                    .filter(|_| rng.gen_range(0u32..3) != 0)
                    .collect();
                let empty = ActivityProfile::new();
                let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &empty);
                let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &empty);
                assert_eq!(fast, slow);
            }
        }

        /// Square grids with up to 64 devices busy in any of eight
        /// slots and budgets 0–5: candidates often share more windows
        /// than the group, so the choice falls back to the full scan.
        #[test]
        fn kernelized_grouping_matches_naive_on_busy_grids() {
            let mut rng = ChaCha8Rng::seed_from_u64(0xb057);
            for case in 0..48 {
                let chip =
                    topology::square_grid(rng.gen_range(2usize..5), rng.gen_range(2usize..5));
                let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
                let xtalk = crate::plan::crosstalk_matrix(&chip, &eq, None);
                let config = TdmConfig {
                    theta: rng.gen_range(0.0..10.0),
                    max_shared_slots: rng.gen_range(0u32..6),
                    allow_one_to_eight: false,
                };
                let busy = rng.gen_range(0usize..64);
                let activity: ActivityProfile = chip
                    .device_ids()
                    .take(busy)
                    .map(|d| (d, rng.gen_range(0u32..256)))
                    .collect();
                let devices: Vec<DeviceId> = chip.device_ids().collect();
                let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &activity);
                let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &activity);
                assert_eq!(fast, slow, "case {case}: config {config:?}");
            }
        }

        /// The 24×24 grouping at θ = 8 (every device on the deep
        /// level) with brickwork activity and a one-window budget, as
        /// plan-sweep runs it: `near` or the walk decides all but a
        /// few members, so the grouping scores the whole pool only
        /// that often (the grouping without the walk scored it 1 078
        /// times with 1:8 DEMUXes and 337 times with 1:4).
        #[test]
        fn deep_levels_rarely_fall_back_to_the_full_scan() {
            let chip = topology::square_grid(24, 24);
            let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
            let activity = brickwork_activity(&chip);
            let devices: Vec<DeviceId> = chip.device_ids().collect();
            let scans = |allow_one_to_eight| {
                let config = TdmConfig {
                    theta: 8.0,
                    max_shared_slots: 1,
                    allow_one_to_eight,
                };
                let (groups, scans) = group_masked(
                    &ctx,
                    &config,
                    &devices,
                    &ctx.kernels().densify_activity(&activity),
                    &mut Scratch::default(),
                );
                assert_eq!(groups, group_tdm(&ctx, &config, &devices, &activity));
                scans
            };
            assert_eq!(scans(true), 52);
            assert_eq!(scans(false), 40);
            // Every row's prefix is sorted, and some 1:8 walks read
            // past the prefix.
            assert_eq!(ctx.tdm_rows().sorted(), (576, 78));
        }

        /// Grouping on a context sorts the rows its walks need into the
        /// context and later groupings walk them as they are: square
        /// 12×12 at θ = 8 with 1:8 DEMUXes and a one-window budget,
        /// where walks choose most members, groups alike twice on one
        /// context and once on a fresh one, on the XY matrix and on a
        /// ZZ-backed context's.
        #[test]
        fn groupings_on_warm_rows_equal_groupings_on_a_fresh_context() {
            use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
            use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
            let chip = topology::square_grid(12, 12);
            let zz = fit_crosstalk_model(
                &synthesize(
                    &topology::square_grid(4, 4),
                    CrosstalkKind::Zz,
                    &SynthConfig::zz(),
                    5,
                ),
                &FitConfig::fast(),
            )
            .expect("4x4 fits");
            let config = TdmConfig {
                theta: 8.0,
                max_shared_slots: 1,
                allow_one_to_eight: true,
            };
            let activity = brickwork_activity(&chip);
            let devices: Vec<DeviceId> = chip.device_ids().collect();
            let plain = || PlanContext::build(&chip, None, EquivalentWeights::balanced());
            let zz_backed = || plain().with_zz_model(&chip, &zz);
            for (label, fresh) in [
                ("plain", &plain as &dyn Fn() -> PlanContext),
                ("ZZ-backed", &zz_backed),
            ] {
                let ctx = fresh();
                let first = group_tdm(&ctx, &config, &devices, &activity);
                let sorted = ctx.tdm_rows().sorted();
                assert!(sorted.0 > 0, "{label}: no walk sorted a row");
                let second = group_tdm(&ctx, &config, &devices, &activity);
                assert_eq!(ctx.tdm_rows().sorted(), sorted, "{label}");
                assert_eq!(second, first, "{label}: warm rows");
                let once = group_tdm(&fresh(), &config, &devices, &activity);
                assert_eq!(once, first, "{label}: fresh context");
            }
        }

        /// A walk reads a row's prefix, then the whole row from where
        /// the prefix ends: every row of a 12×12 grid (more than
        /// `ROW_PREFIX` positive entries each) comes out whole, in
        /// descending order, ties by index.
        #[test]
        fn a_head_reads_past_the_prefix_into_the_whole_row() {
            let chip = topology::square_grid(12, 12);
            let eq = equivalent_matrix(&chip, EquivalentWeights::balanced());
            let xtalk = crate::plan::crosstalk_matrix(&chip, &eq, None);
            let rows = SortedRows::new(chip.num_qubits());
            for x in chip.qubit_ids() {
                let mut head = Head::new(&rows, &xtalk, x);
                let mut read = Vec::new();
                while head.value > f64::NEG_INFINITY {
                    read.push(head.advance(&rows, &xtalk) as u32);
                }
                assert_eq!(read, rows.row(&xtalk, x), "{x}");
                assert_eq!(rows.prefix(&xtalk, x), &read[..ROW_PREFIX], "{x}");
                let key = |y: &u32| (std::cmp::Reverse(xtalk.row(x)[*y as usize].to_bits()), *y);
                assert!(read.windows(2).all(|w| key(&w[0]) < key(&w[1])), "{x}");
                let positive = chip
                    .qubit_ids()
                    .filter(|&y| y != x && xtalk.get(x, y) > 0.0)
                    .count();
                assert!(positive > ROW_PREFIX, "{x}");
                assert_eq!(read.len(), positive, "{x}");
            }
        }

        /// A gateless seed (q0) leaves every candidate at topo 1.0 and
        /// `near` empty, so the walk picks the second member. From q0,
        /// crosstalk 0.02 reaches q1 (outside the pool) and q2, and
        /// 0.01 everything else. The walk reaches q1 first and scores
        /// c0 = q1–q2 there, then q2; both have noise 0.02 and
        /// parallelism index 1, so they tie on every key, and q2, the
        /// earlier in pool order, must win, as in the full scan.
        #[test]
        fn walk_ties_go_to_the_first_in_pool_order() {
            use youtiao_chip::{ChipBuilder, Position, TopologyKind};
            // q0 alone, the chain q1–q2–q3, and a 3×3 grid on q4..q12
            // whose devices (parallelism index 3 or more) only make
            // the live pool large enough for a walk of two steps.
            let mut builder = (0..13u32).fold(
                ChipBuilder::new("walk-ties", TopologyKind::Custom),
                |b, i| b.qubit(Position::new(f64::from(i), 0.0)),
            );
            builder = builder.coupler(1u32.into(), 2u32.into());
            builder = builder.coupler(2u32.into(), 3u32.into());
            for r in 0..3u32 {
                for c in 0..3u32 {
                    let q = 4 + 3 * r + c;
                    if c < 2 {
                        builder = builder.coupler(q.into(), (q + 1).into());
                    }
                    if r < 2 {
                        builder = builder.coupler(q.into(), (q + 3).into());
                    }
                }
            }
            let chip = builder.build().expect("valid chip");
            let q = |i: u32| QubitId::from(i);
            let mut xtalk = DistanceMatrix::zeros(chip.num_qubits());
            for a in chip.qubit_ids() {
                for b in chip.qubit_ids() {
                    if a < b {
                        xtalk.set(a, b, 0.01);
                    }
                }
            }
            xtalk.set(q(0), q(1), 0.02);
            xtalk.set(q(0), q(2), 0.02);
            let devices: Vec<DeviceId> = chip
                .device_ids()
                .filter(|&d| d != DeviceId::Qubit(q(1)))
                .collect();
            let config = TdmConfig {
                theta: f64::INFINITY,
                ..Default::default()
            };
            let empty = ActivityProfile::new();
            let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &empty);
            let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &empty);
            assert_eq!(
                slow[0].devices()[..2],
                [DeviceId::Qubit(q(0)), DeviceId::Qubit(q(2))]
            );
            assert_eq!(fast, slow);
        }

        /// Under equal crosstalk, the third group (q7, c5, c6, whose
        /// parallelism indices span 4 to 6) can take c8 (index 4) or
        /// c3 (index 6). Both are in `near` and score the same
        /// imbalance, 2, so their keys tie. c3 comes first in device
        /// order, c8 in pool order, and the pool order must win, as
        /// in the full scan.
        #[test]
        fn near_ties_go_to_the_first_in_pool_order() {
            use youtiao_chip::{ChipBuilder, Position, TopologyKind};
            let couplers = [
                (1, 2),
                (1, 6),
                (1, 8),
                (2, 3),
                (2, 4),
                (3, 4),
                (3, 6),
                (3, 7),
                (3, 9),
                (4, 7),
            ];
            let builder = (0..10u32)
                .fold(ChipBuilder::new("ties", TopologyKind::Custom), |b, i| {
                    b.qubit(Position::new(f64::from(i), f64::from(i % 3)))
                });
            let chip = couplers
                .iter()
                .fold(builder, |b, &(x, y): &(u32, u32)| {
                    b.coupler(x.into(), y.into())
                })
                .build()
                .expect("valid chip");
            let mut xtalk = DistanceMatrix::zeros(chip.num_qubits());
            for a in chip.qubit_ids() {
                for b in chip.qubit_ids() {
                    if a < b {
                        xtalk.set(a, b, 0.01);
                    }
                }
            }
            let qubits = [0u32, 3, 4, 5, 7, 8, 9].map(|q| DeviceId::Qubit(q.into()));
            let devices: Vec<DeviceId> = qubits
                .into_iter()
                .chain([0u32, 1, 2, 3, 5, 6, 7, 8, 9].map(|c| DeviceId::Coupler(c.into())))
                .collect();
            let config = TdmConfig {
                theta: f64::INFINITY,
                ..Default::default()
            };
            let empty = ActivityProfile::new();
            let fast = group_tdm(&context(&chip, &xtalk), &config, &devices, &empty);
            let slow = naive::group_tdm_naive(&chip, &xtalk, &config, &devices, &empty);
            let coupler = |c: u32| DeviceId::Coupler(c.into());
            let third = [
                DeviceId::Qubit(7u32.into()),
                coupler(5),
                coupler(6),
                coupler(8),
            ];
            assert_eq!(slow[2].devices(), third);
            assert_eq!(fast, slow);
        }
    }
}
