//! Multi-die wiring: per-die planning, cryostat budget partitioning and
//! inter-chiplet link reconciliation.
//!
//! A [`MultiDieChip`] is planned die by die — each die is an independent
//! [`YoutiaoPlanner`] run over the die's template-local layout — then two
//! cross-die stages stitch the results into one cryostat-level plan:
//!
//! 1. **Budget partitioning** ([`BudgetPartition`]): a shared coax /
//!    DEMUX line budget for the whole cryostat is apportioned across
//!    dies proportionally to their qubit counts (largest-remainder
//!    method, so allowances always sum to the budget and the split is
//!    deterministic).
//! 2. **Link reconciliation** ([`ReconcileStats`]): inter-chiplet links
//!    couple qubits on different dies, so link endpoints must respect
//!    the same frequency-zone and cell-spacing rules as same-line
//!    neighbours. Collisions are repaired by swapping the complete
//!    (frequency, zone) assignment of an endpoint with another member of
//!    its own FDM line — a move that provably preserves every in-die
//!    invariant because the line's multiset of assignments is unchanged.
//!
//! Per-die planning fans out over [`ParallelExec`] and merges in die
//! order, so multi-die plans are **byte-identical at any thread count**
//! (DESIGN.md §4j). Die 0 keeps the caller's seed untouched, which makes
//! a 1×1 array plan byte-identical to the monolithic plan of the same
//! template — the differential contract pinned by `tests/multi_die.rs`.

use youtiao_chip::multi::MultiDieChip;
use youtiao_chip::{Chip, QubitId};
use youtiao_exec::ParallelExec;
use youtiao_noise::{characterize_xy, CrosstalkModel};

use crate::context::PlanContext;
use crate::error::PlanError;
use crate::freq::FreqConfig;
use crate::plan::{PlannerConfig, WiringPlan, YoutiaoPlanner};

/// Spacing tolerance, GHz — matches the validator's epsilon so a plan
/// that reconciles clean also validates clean.
const EPS_GHZ: f64 = 1e-9;

/// Derives the characterization seed for one die.
///
/// Die 0 keeps the cryostat seed untouched (the 1×1 ≡ monolithic
/// contract); later dies decorrelate through a splitmix-style odd
/// multiplier so per-die synthetic fabrication noise is independent.
pub fn die_seed(seed: u64, die: usize) -> u64 {
    seed ^ (die as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A shared cryostat I/O budget to split across dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryostatBudget {
    /// Total coaxial lines (XY + Z + readout) available to the array.
    pub coax_lines: usize,
}

/// Configuration for [`plan_multi`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiPlanConfig {
    /// Per-die planner configuration (applied identically to every die).
    pub planner: PlannerConfig,
    /// Characterize each die (synthesize + fit a crosstalk model) before
    /// planning; `false` plans structure-only from equivalent distances.
    pub use_model: bool,
    /// Cryostat-level seed; per-die seeds derive via [`die_seed`].
    pub seed: u64,
    /// Optional shared coax budget to partition across dies.
    pub budget: Option<CryostatBudget>,
}

/// One die's planning result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiePlan {
    /// The die's wiring plan (template-local qubit ids).
    pub plan: WiringPlan,
    /// The fitted crosstalk model, when `use_model` was set.
    pub model: Option<CrosstalkModel>,
}

/// A largest-remainder apportionment of a [`CryostatBudget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetPartition {
    /// Per-die coax allowance; sums to the budget.
    pub allowances: Vec<usize>,
    /// Per-die coax actually required by the plan
    /// (XY + Z + readout lines).
    pub required: Vec<usize>,
    /// The total budget that was split.
    pub total: usize,
}

impl BudgetPartition {
    /// Splits `budget` across dies proportionally to qubit count using
    /// the largest-remainder method (deterministic: remainder ties break
    /// toward the lower die index).
    pub fn split(mdc: &MultiDieChip, plans: &[WiringPlan], budget: CryostatBudget) -> Self {
        let weights: Vec<usize> = mdc.dies().iter().map(Chip::num_qubits).collect();
        let total_weight: usize = weights.iter().sum();
        let n = weights.len();
        let mut allowances = vec![0usize; n];
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
        if total_weight > 0 {
            for (i, &w) in weights.iter().enumerate() {
                let quota = budget.coax_lines as f64 * w as f64 / total_weight as f64;
                allowances[i] = quota.floor() as usize;
                remainders.push((i, quota - quota.floor()));
            }
            let assigned: usize = allowances.iter().sum();
            // Largest fractional remainder first; ties to the lower die.
            remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(i, _) in remainders.iter().take(budget.coax_lines - assigned) {
                allowances[i] += 1;
            }
        }
        let required = plans
            .iter()
            .map(|p| p.num_xy_lines() + p.num_z_lines() + p.num_readout_lines())
            .collect();
        BudgetPartition {
            allowances,
            required,
            total: budget.coax_lines,
        }
    }

    /// `true` when every die's requirement fits its allowance.
    pub fn is_feasible(&self) -> bool {
        self.required
            .iter()
            .zip(&self.allowances)
            .all(|(r, a)| r <= a)
    }
}

/// Counters from the link-reconciliation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconcileStats {
    /// Link-band pairs examined.
    pub checked: usize,
    /// In-line assignment swaps applied to clear collisions.
    pub swapped: usize,
    /// Collisions no in-line swap could clear (surface as validation
    /// violations).
    pub unresolved: usize,
}

/// The complete multi-die planning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPlanOutcome {
    /// Per-die results, in [`youtiao_chip::DieId`] order.
    pub dies: Vec<DiePlan>,
    /// The budget split, when a budget was configured.
    pub partition: Option<BudgetPartition>,
    /// Link-reconciliation counters.
    pub reconcile: ReconcileStats,
}

impl MultiPlanOutcome {
    /// Borrowed per-die wiring plans, in die order.
    pub fn plans(&self) -> Vec<&WiringPlan> {
        self.dies.iter().map(|d| &d.plan).collect()
    }
}

/// Plans every die of a chiplet array and stitches the results.
///
/// Stages: per-die characterize (optional) + plan, fanned out over
/// `exec` and merged in die order; budget partitioning; link-frequency
/// reconciliation. The output is byte-identical at any `exec` thread
/// count.
///
/// # Errors
///
/// Propagates the first per-die [`PlanError`], in die order.
pub fn plan_multi(
    mdc: &MultiDieChip,
    config: &MultiPlanConfig,
    exec: &ParallelExec,
) -> Result<MultiPlanOutcome, PlanError> {
    let results = exec.run(mdc.num_dies(), |i| {
        plan_die(mdc.dies().get(i).unwrap(), config, i)
    });
    let mut dies = Vec::with_capacity(results.len());
    for r in results {
        dies.push(r?);
    }

    let partition = config.budget.map(|b| {
        let plans: Vec<WiringPlan> = dies.iter().map(|d| d.plan.clone()).collect();
        BudgetPartition::split(mdc, &plans, b)
    });

    let reconcile = reconcile_links(mdc, &mut dies, &config.planner);

    Ok(MultiPlanOutcome {
        dies,
        partition,
        reconcile,
    })
}

fn plan_die(chip: &Chip, config: &MultiPlanConfig, die: usize) -> Result<DiePlan, PlanError> {
    let model = config
        .use_model
        .then(|| characterize_xy(chip, die_seed(config.seed, die)))
        .transpose()
        .map_err(PlanError::Characterize)?;
    let ctx = PlanContext::build(chip, model.as_ref(), config.planner.weights);
    let mut planner = YoutiaoPlanner::new(chip)
        .with_config(config.planner.clone())
        .with_context(&ctx);
    if let Some(m) = &model {
        planner = planner.with_crosstalk_model(m);
    }
    let plan = planner.plan()?;
    Ok(DiePlan { plan, model })
}

/// One multiplexing band's view of a die plan, for reconciliation.
#[derive(Clone, Copy)]
enum Band {
    Xy,
    Readout,
}

impl Band {
    fn config(self, planner: &PlannerConfig) -> &FreqConfig {
        match self {
            Band::Xy => &planner.freq,
            Band::Readout => &planner.readout_freq,
        }
    }

    /// The FDM line (as a qubit slice) carrying `q` in `plan`.
    fn line_of(self, plan: &WiringPlan, q: QubitId) -> Option<&[QubitId]> {
        match self {
            Band::Xy => plan
                .fdm_lines()
                .iter()
                .find(|l| l.contains(q))
                .map(|l| l.qubits()),
            Band::Readout => plan
                .readout_lines()
                .iter()
                .find(|l| l.contains(&q))
                .map(|l| l.as_slice()),
        }
    }

    fn freq(self, plan: &WiringPlan, q: QubitId) -> f64 {
        match self {
            Band::Xy => plan.frequency_plan().frequency_ghz(q),
            Band::Readout => plan.readout_frequency_plan().frequency_ghz(q),
        }
    }

    fn zone(self, plan: &WiringPlan, q: QubitId) -> usize {
        match self {
            Band::Xy => plan.frequency_plan().zone_of(q),
            Band::Readout => plan.readout_frequency_plan().zone_of(q),
        }
    }

    fn zones(self, plan: &WiringPlan) -> usize {
        match self {
            Band::Xy => plan.frequency_plan().zones(),
            Band::Readout => plan.readout_frequency_plan().zones(),
        }
    }

    fn swap(self, plan: &mut WiringPlan, a: QubitId, b: QubitId) {
        match self {
            Band::Xy => plan.frequency_plan_mut().swap_assignments(a, b),
            Band::Readout => plan.readout_frequency_plan_mut().swap_assignments(a, b),
        }
    }
}

/// Do two link-endpoint assignments collide under `band` rules?
///
/// A collision is a cell-spacing violation, or identical zones when both
/// dies use the same zone count (differing zone counts make zone indices
/// incomparable, so only spacing applies).
fn link_collides(
    band: Band,
    planner: &PlannerConfig,
    plan_a: &WiringPlan,
    qa: QubitId,
    plan_b: &WiringPlan,
    qb: QubitId,
) -> bool {
    let cfg = band.config(planner);
    let min_spacing = cfg.cell_mhz / 1000.0 - EPS_GHZ;
    if (band.freq(plan_a, qa) - band.freq(plan_b, qb)).abs() < min_spacing {
        return true;
    }
    band.zones(plan_a) == band.zones(plan_b) && band.zone(plan_a, qa) == band.zone(plan_b, qb)
}

/// Repairs inter-chiplet link collisions by in-line assignment swaps.
///
/// Links are visited in declaration order, each under both bands. A
/// collision is cleared by swapping the `b`-side endpoint's (frequency,
/// zone) assignment with the first same-line partner that leaves every
/// link incident to either qubit collision-free; failing that, the
/// `a`-side is tried. Swaps apply immediately, so later links see
/// repaired state — the whole pass is deterministic. Bands with a
/// tuning-range constraint are skipped: a swap could move a qubit
/// outside its fabrication tuning window, and the in-die validator does
/// not enforce zone/spacing rules for such bands either.
fn reconcile_links(
    mdc: &MultiDieChip,
    dies: &mut [DiePlan],
    planner: &PlannerConfig,
) -> ReconcileStats {
    let mut stats = ReconcileStats::default();
    for band in [Band::Xy, Band::Readout] {
        if band.config(planner).tuning_range_ghz.is_some() {
            continue;
        }
        for link in mdc.links() {
            let (da, qa) = (link.a.0.index(), link.a.1);
            let (db, qb) = (link.b.0.index(), link.b.1);
            stats.checked += 1;
            if !link_collides(band, planner, &dies[da].plan, qa, &dies[db].plan, qb) {
                continue;
            }
            if try_swap_side(mdc, dies, planner, band, db, qb)
                || try_swap_side(mdc, dies, planner, band, da, qa)
            {
                stats.swapped += 1;
            } else {
                stats.unresolved += 1;
            }
        }
    }
    stats
}

/// Attempts to clear every link collision at `(die, q)` by swapping `q`
/// with a same-line partner. Returns `true` and applies the swap when a
/// partner works.
fn try_swap_side(
    mdc: &MultiDieChip,
    dies: &mut [DiePlan],
    planner: &PlannerConfig,
    band: Band,
    die: usize,
    q: QubitId,
) -> bool {
    let Some(line) = band.line_of(&dies[die].plan, q) else {
        return false;
    };
    let candidates: Vec<QubitId> = line.iter().copied().filter(|&c| c != q).collect();
    for c in candidates {
        if swap_clears(mdc, dies, planner, band, die, q, c) {
            band.swap(&mut dies[die].plan, q, c);
            return true;
        }
    }
    false
}

/// Would swapping `q` ↔ `c` on `die` leave every link incident to either
/// qubit collision-free? (Pure check — no mutation.)
fn swap_clears(
    mdc: &MultiDieChip,
    dies: &[DiePlan],
    planner: &PlannerConfig,
    band: Band,
    die: usize,
    q: QubitId,
    c: QubitId,
) -> bool {
    let plan = &dies[die].plan;
    // Post-swap view of the die's assignments.
    let local = |x: QubitId| {
        let x = if x == q {
            c
        } else if x == c {
            q
        } else {
            x
        };
        (band.freq(plan, x), band.zone(plan, x))
    };
    let cfg = band.config(planner);
    let min_spacing = cfg.cell_mhz / 1000.0 - EPS_GHZ;
    for link in mdc.links() {
        let (near, far) = if link.a.0.index() == die {
            (link.a.1, link.b)
        } else if link.b.0.index() == die {
            (link.b.1, link.a)
        } else {
            continue;
        };
        if near != q && near != c {
            continue;
        }
        let far_plan = &dies[far.0.index()].plan;
        let (nf, nz) = local(near);
        if (nf - band.freq(far_plan, far.1)).abs() < min_spacing {
            return false;
        }
        if band.zones(plan) == band.zones(far_plan) && nz == band.zone(far_plan, far.1) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::multi::LinkTopology;
    use youtiao_chip::topology;

    fn grid_array(rows: usize, cols: usize) -> MultiDieChip {
        let die = topology::square_grid(4, 4);
        MultiDieChip::tile(&die, rows, cols, LinkTopology::Grid).unwrap()
    }

    #[test]
    fn die_seed_keeps_die_zero_unchanged() {
        assert_eq!(die_seed(42, 0), 42);
        assert_ne!(die_seed(42, 1), 42);
        assert_ne!(die_seed(42, 1), die_seed(42, 2));
    }

    #[test]
    fn single_die_plan_matches_monolithic() {
        let die = topology::square_grid(4, 4);
        let array = MultiDieChip::tile(&die, 1, 1, LinkTopology::Grid).unwrap();
        let config = MultiPlanConfig::default();
        let outcome = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        let ctx = PlanContext::build(&die, None, config.planner.weights);
        let mono = YoutiaoPlanner::new(&die)
            .with_config(config.planner.clone())
            .with_context(&ctx)
            .plan()
            .unwrap();
        assert_eq!(outcome.dies.len(), 1);
        assert_eq!(outcome.dies[0].plan, mono);
        assert_eq!(outcome.reconcile.checked, 0);
    }

    #[test]
    fn plan_is_thread_count_invariant() {
        let array = grid_array(2, 2);
        let config = MultiPlanConfig {
            use_model: true,
            seed: 7,
            ..MultiPlanConfig::default()
        };
        let serial = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        let parallel = plan_multi(&array, &config, &ParallelExec::new(4)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn links_are_reconciled() {
        let array = grid_array(2, 2);
        let config = MultiPlanConfig::default();
        let outcome = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        // Identical dies get identical plans, so every link starts in
        // collision (same frequency on both endpoints) — reconciliation
        // must have worked through all of them.
        assert!(outcome.reconcile.checked > 0);
        assert_eq!(outcome.reconcile.unresolved, 0);
        let planner = &config.planner;
        for band in [Band::Xy, Band::Readout] {
            for link in array.links() {
                let pa = &outcome.dies[link.a.0.index()].plan;
                let pb = &outcome.dies[link.b.0.index()].plan;
                assert!(
                    !link_collides(band, planner, pa, link.a.1, pb, link.b.1),
                    "unreconciled link {:?} -> {:?}",
                    link.a,
                    link.b
                );
            }
        }
    }

    /// Dies planned on one shared context recall its memo's bands;
    /// reconciling them swaps assignments in some dies, which copies
    /// those bands first, so the memo still answers with the plan a
    /// fresh context makes, and the dies reconcile as `plan_multi`'s.
    #[test]
    fn reconciling_recalled_plans_leaves_the_memo_intact() {
        let template = topology::heavy_hexagon(1, 2);
        let array = MultiDieChip::tile(&template, 2, 2, LinkTopology::Grid).unwrap();
        let config = MultiPlanConfig::default();
        let planner = |ctx: &PlanContext| {
            YoutiaoPlanner::new(&template)
                .with_config(config.planner.clone())
                .with_context(ctx)
                .plan()
                .unwrap()
        };
        let want = planner(&PlanContext::build(&template, None, config.planner.weights));
        let ctx = PlanContext::build(&template, None, config.planner.weights);
        let mut dies: Vec<DiePlan> = (0..array.num_dies())
            .map(|_| DiePlan {
                plan: planner(&ctx),
                model: None,
            })
            .collect();
        let stats = reconcile_links(&array, &mut dies, &config.planner);
        assert!(stats.swapped > 0, "{stats:?}");
        assert!(dies.iter().any(|die| die.plan != want));
        let recalled = planner(&ctx);
        assert_eq!(ctx.chain_stats().hits, 3 * array.num_dies() as u64);
        assert_eq!(recalled, want);
        for q in template.qubit_ids() {
            assert_eq!(
                recalled.frequency_plan().frequency_ghz(q).to_bits(),
                want.frequency_plan().frequency_ghz(q).to_bits()
            );
        }
        let multi = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        assert_eq!(dies, multi.dies);
    }

    #[test]
    fn budget_partition_sums_and_orders() {
        let array = grid_array(2, 2);
        let config = MultiPlanConfig {
            budget: Some(CryostatBudget { coax_lines: 50 }),
            ..MultiPlanConfig::default()
        };
        let outcome = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        let part = outcome.partition.unwrap();
        assert_eq!(part.allowances.iter().sum::<usize>(), 50);
        assert_eq!(part.total, 50);
        assert_eq!(part.required.len(), 4);
        // Equal dies split an even budget evenly but a largest-remainder
        // split of 50 over 4 equal dies gives 13/13/12/12.
        assert_eq!(part.allowances, vec![13, 13, 12, 12]);
    }

    #[test]
    fn infeasible_budget_reported_not_fatal() {
        let array = grid_array(1, 2);
        let config = MultiPlanConfig {
            budget: Some(CryostatBudget { coax_lines: 3 }),
            ..MultiPlanConfig::default()
        };
        let outcome = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        let part = outcome.partition.unwrap();
        assert!(!part.is_feasible());
    }

    #[test]
    fn swaps_preserve_in_line_assignment_multiset() {
        let array = grid_array(2, 2);
        let config = MultiPlanConfig::default();
        let outcome = plan_multi(&array, &config, &ParallelExec::serial()).unwrap();
        let die0 = topology::square_grid(4, 4);
        let ctx = PlanContext::build(&die0, None, config.planner.weights);
        let mono = YoutiaoPlanner::new(&die0)
            .with_config(config.planner.clone())
            .with_context(&ctx)
            .plan()
            .unwrap();
        for die in &outcome.dies {
            // Line structure untouched by reconciliation.
            assert_eq!(die.plan.fdm_lines(), mono.fdm_lines());
            for line in die.plan.fdm_lines() {
                let mut got: Vec<u64> = line
                    .qubits()
                    .iter()
                    .map(|&q| die.plan.frequency_plan().frequency_ghz(q).to_bits())
                    .collect();
                let mut want: Vec<u64> = line
                    .qubits()
                    .iter()
                    .map(|&q| mono.frequency_plan().frequency_ghz(q).to_bits())
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "swap changed a line's frequency multiset");
            }
        }
    }
}
