//! The end-to-end YOUTIAO planner and its output wiring plan.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use youtiao_chip::distance::{DistanceMatrix, EquivalentWeights};
use youtiao_chip::{Chip, DeviceId, QubitId};
use youtiao_circuit::schedule::SharedLineConstraint;
use youtiao_exec::ParallelExec;
use youtiao_noise::CrosstalkModel;

use crate::context::PlanContext;
use crate::error::PlanError;
use crate::fdm::{group_fdm_subset, FdmLine};
use crate::freq::{allocate_frequencies_in, FreqConfig, FrequencyPlan};
use crate::memo::{ChainKey, ChainOutput};
use crate::partition::{partition_chip, Partition, PartitionConfig};
use crate::refine::refine_masked;
use crate::scratch::Scratch;
use crate::tdm::{group_masked, TdmConfig, TdmGroup};

/// Default FDM XY-line capacity (§5.3 evaluates with 5 qubits per line).
pub const DEFAULT_FDM_CAPACITY: usize = 5;

/// Default readout feedline capacity (George et al. demonstrate 8 qubits
/// per multiplexed readout line).
pub const DEFAULT_READOUT_CAPACITY: usize = 8;

/// Configuration of [`YoutiaoPlanner`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Qubits per shared FDM XY line.
    pub fdm_capacity: usize,
    /// Qubits per multiplexed readout feedline.
    pub readout_capacity: usize,
    /// TDM grouping parameters (threshold θ).
    pub tdm: TdmConfig,
    /// Frequency-allocation parameters for the qubit XY band.
    pub freq: FreqConfig,
    /// Frequency-allocation parameters for the readout-resonator band
    /// (default 7.0-8.0 GHz at 30 MHz cells, the spacing George et al.
    /// use to keep inter-channel crosstalk below -30 dB).
    pub readout_freq: FreqConfig,
    /// Equivalent-distance weights used when no fitted crosstalk model is
    /// supplied.
    pub weights: EquivalentWeights,
    /// Optional generative partition; `None` plans the whole chip as one
    /// region (fine below ~100 qubits).
    pub partition: Option<PartitionConfig>,
    /// Optional local-search refinement of the TDM grouping
    /// ([`crate::refine`]); `None` keeps the pure greedy result. With a
    /// partition configured, refinement runs within each region — a
    /// DEMUX group never spans partition regions, matching the per-die
    /// containment the chiplet roadmap requires.
    pub refine: Option<crate::refine::RefineConfig>,
    /// Threads one plan may run at once: `1` (the default) plans
    /// serially, `0` sets no cap, and any value runs helpers only on
    /// cores the process's CPU budget finds idle (`youtiao-exec`).
    /// Above one, the XY chain (FDM grouping, then XY allocation), each
    /// partition region's Z work (TDM grouping, then refinement) and
    /// the readout chain run as concurrent items, and the two bands
    /// fan their scaling-row fills out over the threads the items
    /// leave idle. Plans are **byte-identical across every
    /// value** — items merge in fixed index order (DESIGN.md §4j) — so
    /// the knob is pure wall-clock policy and is deliberately excluded
    /// from plan cache keys.
    pub plan_threads: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            fdm_capacity: DEFAULT_FDM_CAPACITY,
            readout_capacity: DEFAULT_READOUT_CAPACITY,
            tdm: TdmConfig::default(),
            freq: FreqConfig::default(),
            readout_freq: FreqConfig {
                band_ghz: (7.0, 8.0),
                cell_mhz: 30.0,
                swap_passes: 1,
                tuning_range_ghz: None,
            },
            weights: EquivalentWeights::balanced(),
            partition: None,
            refine: None,
            plan_threads: 1,
        }
    }
}

/// A complete YOUTIAO wiring plan: FDM XY lines with frequency
/// assignments, TDM Z groups with DEMUX levels, and multiplexed readout
/// feedlines.
///
/// Implements [`SharedLineConstraint`] so the TDM-aware scheduler can
/// consume it directly.
///
/// Each part sits behind an [`Arc`], so a plan recalled from a
/// [`PlanContext`]'s chain memo shares the memo's parts, and a clone
/// shares them too. The `_mut` accessors copy a shared frequency plan
/// before the first change (copy on write).
#[derive(Debug, Clone, PartialEq)]
pub struct WiringPlan {
    fdm_lines: Arc<Vec<FdmLine>>,
    frequency_plan: Arc<FrequencyPlan>,
    tdm_groups: Arc<Vec<TdmGroup>>,
    readout_lines: Arc<Vec<Vec<QubitId>>>,
    readout_frequency_plan: Arc<FrequencyPlan>,
    partition: Option<Arc<Partition>>,
    shared_group_of: GroupIndex,
}

/// The multi-device TDM groups of a [`WiringPlan`] by device, built on
/// the first [`SharedLineConstraint::group_of`] call. Like a context's
/// warm state it is not part of the plan: it compares equal to every
/// other index and a clone starts unbuilt.
#[derive(Default)]
struct GroupIndex(OnceLock<HashMap<DeviceId, usize>>);

impl GroupIndex {
    /// The group of `device` among `groups`, if it shares a line.
    fn get(&self, groups: &[TdmGroup], device: DeviceId) -> Option<usize> {
        let index = self.0.get_or_init(|| {
            let mut index = HashMap::new();
            for (g, group) in groups.iter().enumerate() {
                if group.len() > 1 {
                    for &d in group.devices() {
                        index.insert(d, g);
                    }
                }
            }
            index
        });
        index.get(&device).copied()
    }
}

impl Clone for GroupIndex {
    fn clone(&self) -> Self {
        GroupIndex::default()
    }
}

impl PartialEq for GroupIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for GroupIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupIndex").finish_non_exhaustive()
    }
}

impl WiringPlan {
    /// Assembles a plan from its parts. Prefer [`YoutiaoPlanner::plan`].
    pub fn from_parts(
        fdm_lines: Vec<FdmLine>,
        frequency_plan: FrequencyPlan,
        tdm_groups: Vec<TdmGroup>,
        readout_lines: Vec<Vec<QubitId>>,
        readout_frequency_plan: FrequencyPlan,
        partition: Option<Partition>,
    ) -> Self {
        WiringPlan::shared(
            Arc::new(fdm_lines),
            Arc::new(frequency_plan),
            Arc::new(tdm_groups),
            Arc::new(readout_lines),
            Arc::new(readout_frequency_plan),
            partition.map(Arc::new),
        )
    }

    /// [`Self::from_parts`] over parts that may be shared.
    fn shared(
        fdm_lines: Arc<Vec<FdmLine>>,
        frequency_plan: Arc<FrequencyPlan>,
        tdm_groups: Arc<Vec<TdmGroup>>,
        readout_lines: Arc<Vec<Vec<QubitId>>>,
        readout_frequency_plan: Arc<FrequencyPlan>,
        partition: Option<Arc<Partition>>,
    ) -> Self {
        WiringPlan {
            fdm_lines,
            frequency_plan,
            tdm_groups,
            readout_lines,
            readout_frequency_plan,
            partition,
            shared_group_of: GroupIndex::default(),
        }
    }

    /// The FDM XY lines.
    pub fn fdm_lines(&self) -> &[FdmLine] {
        &self.fdm_lines
    }

    /// The per-qubit frequency assignment.
    pub fn frequency_plan(&self) -> &FrequencyPlan {
        &self.frequency_plan
    }

    /// The TDM Z-line groups.
    pub fn tdm_groups(&self) -> &[TdmGroup] {
        &self.tdm_groups
    }

    /// The multiplexed readout feedlines.
    pub fn readout_lines(&self) -> &[Vec<QubitId>] {
        &self.readout_lines
    }

    /// The per-qubit readout-resonator frequency assignment.
    pub fn readout_frequency_plan(&self) -> &FrequencyPlan {
        &self.readout_frequency_plan
    }

    /// Mutable access to the XY frequency assignment, for post-plan
    /// adjustments that preserve the per-line invariants (the multi-die
    /// link reconciliation swaps assignments within one FDM line). A
    /// band this plan shares, with a context's chain memo or another
    /// plan, is copied first, so the change stays in this plan.
    pub fn frequency_plan_mut(&mut self) -> &mut FrequencyPlan {
        Arc::make_mut(&mut self.frequency_plan)
    }

    /// Mutable access to the readout frequency assignment; see
    /// [`frequency_plan_mut`](Self::frequency_plan_mut).
    pub fn readout_frequency_plan_mut(&mut self) -> &mut FrequencyPlan {
        Arc::make_mut(&mut self.readout_frequency_plan)
    }

    /// The chip partition used, if any.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_deref()
    }

    /// Number of coaxial XY lines into the cryostat.
    pub fn num_xy_lines(&self) -> usize {
        self.fdm_lines.len()
    }

    /// Number of coaxial Z lines (one per TDM group, shared or direct).
    pub fn num_z_lines(&self) -> usize {
        self.tdm_groups.len()
    }

    /// Number of readout feedlines.
    pub fn num_readout_lines(&self) -> usize {
        self.readout_lines.len()
    }

    /// Total DEMUX digital select lines (cheap twisted pairs).
    pub fn demux_select_lines(&self) -> usize {
        self.tdm_groups
            .iter()
            .map(|g| g.level().select_lines())
            .sum()
    }

    /// The FDM line index carrying qubit `q`, if any.
    pub fn fdm_line_of(&self, q: QubitId) -> Option<usize> {
        self.fdm_lines.iter().position(|l| l.contains(q))
    }
}

impl SharedLineConstraint for WiringPlan {
    fn group_of(&self, device: DeviceId) -> Option<usize> {
        self.shared_group_of.get(&self.tdm_groups, device)
    }
}

/// Plans YOUTIAO wiring for a chip.
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
/// use youtiao_core::YoutiaoPlanner;
///
/// let chip = topology::heavy_square(3, 3);
/// let plan = YoutiaoPlanner::new(&chip).plan()?;
/// assert_eq!(plan.num_xy_lines(), 5); // ceil(21 / 5)
/// assert!(plan.num_z_lines() <= 14);
/// # Ok::<(), youtiao_core::PlanError>(())
/// ```
#[derive(Debug)]
pub struct YoutiaoPlanner<'a> {
    chip: &'a Chip,
    config: PlannerConfig,
    model: Option<&'a CrosstalkModel>,
    activity: Option<&'a crate::tdm::ActivityProfile>,
    context: Option<&'a PlanContext>,
}

impl<'a> YoutiaoPlanner<'a> {
    /// Creates a planner with the default configuration.
    pub fn new(chip: &'a Chip) -> Self {
        YoutiaoPlanner {
            chip,
            config: PlannerConfig::default(),
            model: None,
            activity: None,
            context: None,
        }
    }

    /// Supplies a workload activity profile; TDM grouping then exploits
    /// the workload's natural non-parallelism (§4.3, §5.2).
    pub fn with_activity(mut self, activity: &'a crate::tdm::ActivityProfile) -> Self {
        self.activity = Some(activity);
        self
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Supplies a fitted XY crosstalk model; its weights drive the
    /// equivalent-distance matrix and its predictions drive the
    /// noise-aware grouping and allocation stages.
    pub fn with_crosstalk_model(mut self, model: &'a CrosstalkModel) -> Self {
        self.model = model.into();
        self
    }

    /// Supplies a precomputed [`PlanContext`], which every pass of the
    /// plan reads: its matrices, kernels, sorted rows, scratch pool and
    /// chain memo. Sweeps build the context once per chip and share it
    /// — `Sync`, its warm state behind locks — across every point that
    /// plans the same chip. Without one, [`plan`](Self::plan) builds a
    /// private context first and reports its build as the `matrices`
    /// stage.
    ///
    /// The context must have been built for this planner's chip and
    /// resolved weights (the model's fitted weights, or the config's
    /// fallback); [`plan`](Self::plan) rejects a mismatch with
    /// [`PlanError::InvalidConfig`]. TDM grouping scores the context's
    /// [`PlanContext::tdm_crosstalk`]: a fitted ZZ model reaches it
    /// through [`PlanContext::with_zz_model`].
    pub fn with_context(mut self, context: &'a PlanContext) -> Self {
        self.context = Some(context);
        self
    }

    /// Runs the full pipeline: the (optional) partition, then three
    /// independent chains — FDM grouping → XY frequency allocation,
    /// each region's TDM grouping → (optional) refinement, and readout
    /// feedlines → readout frequency allocation — which run
    /// concurrently when [`PlannerConfig::plan_threads`] allows.
    ///
    /// # Errors
    ///
    /// * [`PlanError::EmptyChip`] — the chip has no qubits.
    /// * [`PlanError::InvalidConfig`] — zero FDM/readout capacity or a
    ///   degenerate frequency configuration.
    pub fn plan(&self) -> Result<WiringPlan, PlanError> {
        self.plan_with_hook(&mut |_, _| {})
    }

    /// Runs [`plan`](Self::plan) while reporting each sub-stage's wall
    /// time to `hook` (stage name, elapsed), in this order at every
    /// thread count: `matrices` (only without a context: the private
    /// context's build), `partition`, `fdm_grouping`, `tdm_grouping`,
    /// `refine`, `freq.place`, `freq.swap`, `freq_alloc`,
    /// `readout.place`, `readout.swap` and `readout`. Stages that are
    /// not configured (partition, refine) are not reported, and the
    /// events stop at a failing band's sub-stages. The flow layer uses
    /// this to attach tracer child spans without this crate depending
    /// on the observability machinery.
    ///
    /// With `plan_threads > 1` the XY chain, the regions' Z work and
    /// the readout chain overlap in wall time (their events are
    /// replayed once all have finished), and `tdm_grouping` and
    /// `refine` sum over regions that may run at once, so sub-stage
    /// durations may sum past the call's wall time; at the default
    /// serial setting the disjoint top-level stages always sum to at
    /// most the call's wall time.
    ///
    /// The partition and every chain are first looked up in the
    /// context's chain memo, and only the chains it does not hold are
    /// dispatched (a plan whose chains all hit starts no thread). A hit
    /// shares the memo's output with the plan and reports the usual
    /// stage names in the usual order, with the time this plan spent
    /// on them: the key and the lookup go to `partition`,
    /// `fdm_grouping`, `tdm_grouping` or `readout`, and `freq_alloc`,
    /// `freq.place`, `freq.swap`, `readout.place`, `readout.swap` and
    /// `refine` report zero, since they did not run. A hit never
    /// replays the durations recorded when the chain ran.
    ///
    /// # Errors
    ///
    /// Same as [`plan`](Self::plan).
    pub fn plan_with_hook(
        &self,
        hook: &mut dyn FnMut(&'static str, Duration),
    ) -> Result<WiringPlan, PlanError> {
        let chip = self.chip;
        if chip.num_qubits() == 0 {
            return Err(PlanError::EmptyChip);
        }
        if self.config.fdm_capacity == 0 {
            return Err(PlanError::InvalidConfig("fdm capacity must be positive"));
        }
        if self.config.readout_capacity == 0 {
            return Err(PlanError::InvalidConfig(
                "readout capacity must be positive",
            ));
        }

        // Every pass reads one context: the caller's, checked against
        // this chip and the resolved weights, or a private one whose
        // build is the `matrices` stage.
        let private;
        let ctx = match self.context {
            Some(ctx) => {
                let weights = self.model.map_or(self.config.weights, |m| m.weights());
                ctx.check(chip, weights)?;
                ctx
            }
            None => {
                let started = Instant::now();
                private = PlanContext::build(chip, self.model, self.config.weights);
                hook("matrices", started.elapsed());
                &private
            }
        };
        let (kernels, memo, pool) = (ctx.kernels(), ctx.chains(), ctx.scratch());

        // Partition (stage 1/2), then group each region independently
        // (stage 3); without a partition the whole chip is one region.
        // The memo keeps each partition it ran, like a chain.
        let partition: Option<Arc<Partition>> = self.config.partition.as_ref().map(|pc| {
            let started = Instant::now();
            let key = ChainKey::partition(pc);
            let p = match memo.get(&key) {
                Some(ChainOutput::Partition(p)) => p,
                Some(_) => unreachable!("a partition key holds a partition"),
                None => {
                    let p = Arc::new(partition_chip(chip, ctx.equivalent(), pc));
                    memo.insert(key, ChainOutput::Partition(Arc::clone(&p)));
                    p
                }
            };
            hook("partition", started.elapsed());
            p
        });
        let whole_chip: [Vec<QubitId>; 1];
        let regions: &[Vec<QubitId>] = match &partition {
            Some(p) => p.regions(),
            None => {
                whole_chip = [chip.qubit_ids().collect()];
                &whole_chip
            }
        };

        // TDM grouping and refinement read each device's activity mask:
        // the supplied profile's or, with none supplied, the context's
        // brickwork pattern approximating natural non-parallelism.
        let masks_local;
        let masks: &[u32] = match self.activity {
            Some(activity) => {
                masks_local = kernels.densify_activity(activity);
                &masks_local
            }
            None => ctx.brickwork(),
        };
        let devices: Vec<Vec<DeviceId>> = {
            let mut arena = pool.checkout();
            regions
                .iter()
                .map(|region| z_devices(chip, region, &mut arena))
                .collect()
        };

        // The XY, Z and readout lines are independent problems, so they
        // run as items of one dispatch: the XY chain (every region's FDM
        // grouping in region order, then XY allocation), each region's
        // Z work (TDM grouping, then refinement: a group never spans
        // regions), then the readout chain. The memo answers every
        // chain whose inputs an earlier plan on the context ran, and
        // only the rest are dispatched. A Z chain's key does not cover a
        // supplied activity profile, so a plan with one runs its Z
        // chains without the memo.
        let items = regions.len() + 2;
        let is_z = |item: usize| item != 0 && item != items - 1;
        let z_memoized = self.activity.is_none();
        let tdm_config = &self.config.tdm;
        let refine_config = self.config.refine.as_ref();
        let mut keys = Vec::with_capacity(items);
        let mut chains: Vec<Option<Chain>> = Vec::with_capacity(items);
        for item in 0..items {
            let started = Instant::now();
            let key = match item {
                0 => Some(ChainKey::xy(
                    chip,
                    regions,
                    self.config.fdm_capacity,
                    &self.config.freq,
                )),
                _ if is_z(item) => z_memoized.then(|| {
                    ChainKey::z(
                        &regions[item - 1],
                        &devices[item - 1],
                        kernels,
                        masks,
                        tdm_config,
                        refine_config,
                    )
                }),
                _ => Some(ChainKey::readout(
                    chip,
                    self.config.readout_capacity,
                    &self.config.readout_freq,
                )),
            };
            let hit = key.as_ref().and_then(|key| memo.get(key));
            chains.push(hit.map(|output| Chain::recalled(output, started)));
            keys.push(key);
        }
        let dispatched: Vec<usize> = (0..items).filter(|&item| chains[item].is_none()).collect();

        // Threads take the next item as they finish one and results
        // merge in item order, so the plan is the serial loop's. A band
        // fans out only over threads the items leave idle, halved
        // between the two bands, so a plan never runs more than
        // `plan_threads` threads (the cores, without a cap), and every
        // helper runs on a core the budget found idle.
        let exec = ParallelExec::new(self.config.plan_threads);
        let band_exec = ParallelExec::new(1 + exec.threads().saturating_sub(dispatched.len()) / 2);
        let band = |lines: &[FdmLine], config: &FreqConfig, names: [&'static str; 2]| {
            let started = Instant::now();
            let mut events = Vec::new();
            let plan = allocate_frequencies_in(
                chip,
                lines,
                ctx.crosstalk(),
                config,
                &mut |stage, elapsed| {
                    events.push((if stage == "place" { names[0] } else { names[1] }, elapsed))
                },
                &mut pool.checkout(),
                &band_exec,
            );
            Band {
                plan: plan.map(Arc::new),
                events,
                wall: started.elapsed(),
            }
        };
        let ran = exec.run(dispatched.len(), |k| match dispatched[k] {
            0 => {
                let started = Instant::now();
                let lines: Vec<FdmLine> = regions
                    .iter()
                    .flat_map(|region| {
                        group_fdm_subset(chip, ctx.equivalent(), self.config.fdm_capacity, region)
                    })
                    .collect();
                let fdm_elapsed = started.elapsed();
                let xy = band(&lines, &self.config.freq, XY_EVENTS);
                Chain::Xy(Arc::new(lines), fdm_elapsed, xy)
            }
            item if is_z(item) => {
                let mut arena = pool.checkout();
                let started = Instant::now();
                let (mut groups, _) =
                    group_masked(ctx, tdm_config, &devices[item - 1], masks, &mut arena);
                let tdm_elapsed = started.elapsed();
                let started = Instant::now();
                if let Some(refine) = refine_config {
                    (groups, _) = refine_masked(ctx, masks, tdm_config, groups, refine);
                }
                Chain::Z(Arc::new(groups), tdm_elapsed, started.elapsed())
            }
            _ => {
                let qubits: Vec<QubitId> = chip.qubit_ids().collect();
                let lines: Vec<Vec<QubitId>> = qubits
                    .chunks(self.config.readout_capacity)
                    .map(<[QubitId]>::to_vec)
                    .collect();
                // Resonator frequencies share the allocator: a feedline
                // is an FDM line in the readout band.
                let feedlines: Vec<FdmLine> = lines.iter().cloned().map(FdmLine::new).collect();
                let readout = band(&feedlines, &self.config.readout_freq, READOUT_EVENTS);
                Chain::Readout(Arc::new(lines), readout)
            }
        });
        // Only successful chains are kept.
        for (item, chain) in dispatched.into_iter().zip(ran) {
            if let Some(key) = keys[item].take() {
                if let Some(output) = chain.output() {
                    memo.insert(key, output);
                }
            }
            chains[item] = Some(chain);
        }

        let mut z_groups = Vec::with_capacity(regions.len());
        let mut tdm_elapsed = Duration::ZERO;
        let mut refine_elapsed = Duration::ZERO;
        let (mut xy, mut readout) = (None, None);
        for chain in chains {
            match chain.expect("every item ran or was recalled") {
                Chain::Xy(lines, fdm_e, xy_band) => xy = Some((lines, fdm_e, xy_band)),
                Chain::Z(groups, tdm_e, refine_e) => {
                    z_groups.push(groups);
                    tdm_elapsed += tdm_e;
                    refine_elapsed += refine_e;
                }
                Chain::Readout(lines, readout_band) => readout = Some((lines, readout_band)),
            }
        }
        let (fdm_lines, fdm_elapsed, xy) = xy.expect("item 0 is the XY chain");
        let (readout_lines, readout) = readout.expect("the last item is the readout chain");
        // One region's groups are the plan's as they are; several
        // regions' join in region order.
        let tdm_groups = match <[_; 1]>::try_from(z_groups) {
            Ok([groups]) => groups,
            Err(z_groups) => Arc::new(z_groups.iter().flat_map(|g| g.iter().cloned()).collect()),
        };

        // Hook events replay in the serial order, and the XY band's
        // error takes precedence over the readout band's.
        hook("fdm_grouping", fdm_elapsed);
        hook("tdm_grouping", tdm_elapsed);
        if self.config.refine.is_some() {
            hook("refine", refine_elapsed);
        }
        let frequency_plan = xy.replay("freq_alloc", hook)?;
        let readout_frequency_plan = readout.replay("readout", hook)?;

        Ok(WiringPlan::shared(
            fdm_lines,
            frequency_plan,
            tdm_groups,
            readout_lines,
            readout_frequency_plan,
            partition,
        ))
    }
}

/// One region's Z-controlled devices in grouping order: its qubits,
/// then each coupler whose lower endpoint it holds (a coupler belongs
/// to the region of its lower endpoint).
pub(crate) fn z_devices(chip: &Chip, region: &[QubitId], arena: &mut Scratch) -> Vec<DeviceId> {
    let mut in_region = arena.take_bool(chip.num_qubits(), false);
    for &q in region {
        in_region[q.index()] = true;
    }
    let devices = region
        .iter()
        .map(|&q| DeviceId::Qubit(q))
        .chain(chip.couplers().filter_map(|c| {
            let (a, _) = c.endpoints();
            in_region[a.index()].then_some(DeviceId::Coupler(c.id()))
        }))
        .collect();
    arena.retire_bool(in_region);
    devices
}

/// The XY band's hook events.
const XY_EVENTS: [&str; 2] = ["freq.place", "freq.swap"];

/// The readout band's hook events.
const READOUT_EVENTS: [&str; 2] = ["readout.place", "readout.swap"];

/// One item's output in [`YoutiaoPlanner::plan_with_hook`]'s dispatch,
/// each part shared with the memo that keeps it.
enum Chain {
    /// The FDM lines, their grouping time and the XY band.
    Xy(Arc<Vec<FdmLine>>, Duration, Band),
    /// One region's TDM groups and its grouping and refinement times.
    Z(Arc<Vec<TdmGroup>>, Duration, Duration),
    /// The readout feedlines and their band.
    Readout(Arc<Vec<Vec<QubitId>>>, Band),
}

impl Chain {
    /// A memoized chain as this plan's item, its parts shared. The key
    /// and the lookup since `started` go to FDM grouping, TDM grouping
    /// or the readout band; XY allocation and the placement, swap and
    /// refinement stages, which did not run, report zero.
    fn recalled(output: ChainOutput, started: Instant) -> Chain {
        match output {
            ChainOutput::Xy(lines, plan) => Chain::Xy(
                lines,
                started.elapsed(),
                Band::recalled(plan, XY_EVENTS, Duration::ZERO),
            ),
            ChainOutput::Z(groups) => Chain::Z(groups, started.elapsed(), Duration::ZERO),
            ChainOutput::Readout(lines, plan) => Chain::Readout(
                lines,
                Band::recalled(plan, READOUT_EVENTS, started.elapsed()),
            ),
            ChainOutput::Partition(_) => unreachable!("a chain key holds a chain"),
        }
    }

    /// What the memo keeps of this chain: nothing if its band failed.
    fn output(&self) -> Option<ChainOutput> {
        match self {
            Chain::Xy(lines, _, band) => Some(ChainOutput::Xy(
                Arc::clone(lines),
                Arc::clone(band.plan.as_ref().ok()?),
            )),
            Chain::Z(groups, _, _) => Some(ChainOutput::Z(Arc::clone(groups))),
            Chain::Readout(lines, band) => Some(ChainOutput::Readout(
                Arc::clone(lines),
                Arc::clone(band.plan.as_ref().ok()?),
            )),
        }
    }
}

/// A frequency band's allocation with its hook events held for replay.
struct Band {
    plan: Result<Arc<FrequencyPlan>, PlanError>,
    events: Vec<(&'static str, Duration)>,
    wall: Duration,
}

impl Band {
    /// A memoized band taking `wall`: its sub-stages did not run, so
    /// they report zero.
    fn recalled(plan: Arc<FrequencyPlan>, names: [&'static str; 2], wall: Duration) -> Band {
        Band {
            plan: Ok(plan),
            events: names.map(|name| (name, Duration::ZERO)).to_vec(),
            wall,
        }
    }

    /// Reports the buffered sub-stage events, then the band's wall time
    /// as `name` unless the allocation failed.
    fn replay(
        self,
        name: &'static str,
        hook: &mut dyn FnMut(&'static str, Duration),
    ) -> Result<Arc<FrequencyPlan>, PlanError> {
        for (stage, elapsed) in self.events {
            hook(stage, elapsed);
        }
        let plan = self.plan?;
        hook(name, self.wall);
        Ok(plan)
    }
}

/// Builds the qubit-pair crosstalk matrix: fitted-model predictions when
/// a model is available, otherwise an exponential proxy over the
/// equivalent distance (amplitude 10⁻², decay length 2).
pub fn crosstalk_matrix(
    chip: &Chip,
    equivalent: &DistanceMatrix,
    model: Option<&CrosstalkModel>,
) -> DistanceMatrix {
    let mut m = DistanceMatrix::zeros(chip.num_qubits());
    for (a, b, d) in equivalent.iter_pairs() {
        let x = match model {
            Some(model) => {
                if d.is_finite() {
                    model.predict_equivalent(d)
                } else {
                    0.0
                }
            }
            None => {
                if d.is_finite() {
                    1e-2 * (-d / 2.0).exp()
                } else {
                    0.0
                }
            }
        };
        m.set(a, b, x);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::distance::equivalent_matrix;
    use youtiao_chip::topology;
    use youtiao_circuit::benchmarks;
    use youtiao_circuit::schedule::{schedule_asap, schedule_with_tdm};
    use youtiao_circuit::transpile::transpile;

    #[test]
    fn plan_covers_every_qubit_and_device() {
        let chip = topology::square_grid(6, 6);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        let fdm_total: usize = plan.fdm_lines().iter().map(FdmLine::len).sum();
        assert_eq!(fdm_total, 36);
        let tdm_total: usize = plan.tdm_groups().iter().map(TdmGroup::len).sum();
        assert_eq!(tdm_total, chip.num_z_devices());
        let ro_total: usize = plan.readout_lines().iter().map(Vec::len).sum();
        assert_eq!(ro_total, 36);
    }

    #[test]
    fn a_specs_base_frequencies_reach_tuning_range_plans() {
        use youtiao_chip::spec::ChipSpec;
        let chip = topology::square_grid(6, 6);
        let config = PlannerConfig {
            freq: FreqConfig {
                tuning_range_ghz: Some(0.3),
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = |chip: &Chip| {
            YoutiaoPlanner::new(chip)
                .with_config(config.clone())
                .plan()
                .unwrap()
        };
        let spec = ChipSpec::from_chip(&chip);
        assert_eq!(plan(&spec.to_chip().unwrap()), plan(&chip));
        let mut retuned = spec.clone();
        let bases = spec.qubits.iter().rev().map(|q| q.base_frequency_ghz);
        for (q, base) in retuned.qubits.iter_mut().zip(bases) {
            q.base_frequency_ghz = base;
        }
        assert_ne!(
            plan(&retuned.to_chip().unwrap()),
            plan(&chip),
            "the spec's base frequencies must move the plan"
        );
    }

    #[test]
    fn line_counts_match_paper_formulas() {
        let chip = topology::square_grid(6, 6);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        assert_eq!(plan.num_xy_lines(), 8); // ceil(36/5)
        assert_eq!(plan.num_readout_lines(), 5); // ceil(36/8)
        assert!(plan.num_z_lines() < chip.num_z_devices() / 2);
    }

    #[test]
    fn scheduler_accepts_plans_without_unrealizable_gates() {
        let chip = topology::square_grid(3, 3);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        for b in benchmarks::Benchmark::ALL {
            let physical = transpile(&b.generate(9), &chip).unwrap();
            let s = schedule_with_tdm(&physical, &chip, &plan);
            assert!(s.is_ok(), "{} failed: {:?}", b.name(), s.err());
        }
    }

    #[test]
    fn tdm_depth_overhead_is_modest() {
        let chip = topology::square_grid(4, 4);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        let physical = transpile(&benchmarks::vqc(16, 4), &chip).unwrap();
        let base = schedule_asap(&physical, &chip).unwrap();
        let tdm = schedule_with_tdm(&physical, &chip, &plan).unwrap();
        let ratio = tdm.two_qubit_depth() as f64 / base.two_qubit_depth() as f64;
        assert!(ratio >= 1.0);
        assert!(ratio < 3.0, "tdm depth blew up: {ratio}");
    }

    #[test]
    fn partitioned_plan_still_covers_everything() {
        let chip = topology::square_grid(6, 6);
        let cfg = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            ..Default::default()
        };
        let plan = YoutiaoPlanner::new(&chip).with_config(cfg).plan().unwrap();
        assert!(plan.partition().is_some());
        let fdm_total: usize = plan.fdm_lines().iter().map(FdmLine::len).sum();
        assert_eq!(fdm_total, 36);
        let tdm_total: usize = plan.tdm_groups().iter().map(TdmGroup::len).sum();
        assert_eq!(tdm_total, chip.num_z_devices());
    }

    #[test]
    fn fitted_model_plans_successfully() {
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(4, 4);
        let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        let plan = YoutiaoPlanner::new(&chip)
            .with_crosstalk_model(&model)
            .plan()
            .unwrap();
        assert_eq!(plan.num_xy_lines(), 4); // ceil(16/5)
    }

    #[test]
    fn constraint_maps_only_shared_groups() {
        let chip = topology::square_grid(3, 3);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        for (g, group) in plan.tdm_groups().iter().enumerate() {
            for &d in group.devices() {
                if group.len() > 1 {
                    assert_eq!(plan.group_of(d), Some(g));
                } else {
                    assert_eq!(plan.group_of(d), None);
                }
            }
        }
    }

    /// `group_of` answers as the index plans used to build when they
    /// were assembled: each device of a multi-device group maps to
    /// that group and every other device, out-of-range ids included,
    /// to none. It holds on fresh, first and recalled context plans,
    /// partitioned or not, and on clones taken before and after the
    /// index was built, which compare equal.
    #[test]
    fn group_of_matches_an_index_built_with_the_plan() {
        let chip = topology::square_grid(5, 5);
        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let outside = [
            DeviceId::Qubit(QubitId::from(999u32)),
            DeviceId::Coupler(youtiao_chip::CouplerId::from(999u32)),
        ];
        for partition in [None, Some(PartitionConfig::default())] {
            for theta in [2.0, 8.0] {
                let config = PlannerConfig {
                    partition,
                    tdm: TdmConfig {
                        theta,
                        max_shared_slots: 1,
                        allow_one_to_eight: true,
                    },
                    ..Default::default()
                };
                let planner = || YoutiaoPlanner::new(&chip).with_config(config.clone());
                let plans = [
                    planner().plan().unwrap(),
                    planner().with_context(&ctx).plan().unwrap(),
                    planner().with_context(&ctx).plan().unwrap(),
                ];
                for plan in &plans {
                    let mut index = HashMap::new();
                    for (g, group) in plan.tdm_groups().iter().enumerate() {
                        if group.len() > 1 {
                            for &d in group.devices() {
                                index.insert(d, g);
                            }
                        }
                    }
                    assert!(!index.is_empty());
                    let unbuilt = plan.clone();
                    let devices = || chip.device_ids().chain(outside);
                    for d in devices() {
                        assert_eq!(plan.group_of(d), index.get(&d).copied(), "{d:?}");
                    }
                    let built = plan.clone();
                    for copy in [&unbuilt, &built] {
                        assert_eq!(copy, plan);
                        for d in devices() {
                            assert_eq!(copy.group_of(d), index.get(&d).copied(), "{d:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let chip = topology::linear(4);
        let bad = PlannerConfig {
            fdm_capacity: 0,
            ..Default::default()
        };
        assert!(matches!(
            YoutiaoPlanner::new(&chip).with_config(bad).plan(),
            Err(PlanError::InvalidConfig(_))
        ));
        let bad2 = PlannerConfig {
            readout_capacity: 0,
            ..Default::default()
        };
        assert!(YoutiaoPlanner::new(&chip).with_config(bad2).plan().is_err());
    }

    #[test]
    fn fdm_line_of_lookup() {
        let chip = topology::linear(7);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        for q in chip.qubit_ids() {
            let line = plan.fdm_line_of(q).unwrap();
            assert!(plan.fdm_lines()[line].contains(q));
        }
    }

    #[test]
    fn refinement_reduces_or_keeps_z_lines() {
        let chip = topology::square_grid(5, 5);
        let greedy = YoutiaoPlanner::new(&chip).plan().unwrap();
        let refined = YoutiaoPlanner::new(&chip)
            .with_config(PlannerConfig {
                refine: Some(crate::refine::RefineConfig::default()),
                ..Default::default()
            })
            .plan()
            .unwrap();
        assert!(refined.num_z_lines() <= greedy.num_z_lines());
        let total: usize = refined.tdm_groups().iter().map(TdmGroup::len).sum();
        assert_eq!(total, chip.num_z_devices());
    }

    #[test]
    fn readout_frequencies_in_band_and_separated() {
        let chip = topology::square_grid(4, 4);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        let rp = plan.readout_frequency_plan();
        for q in chip.qubit_ids() {
            let f = rp.frequency_ghz(q);
            assert!((7.0..=8.0).contains(&f), "{q} at {f}");
        }
        for line in plan.readout_lines() {
            for i in 0..line.len() {
                for j in (i + 1)..line.len() {
                    let df = (rp.frequency_ghz(line[i]) - rp.frequency_ghz(line[j])).abs();
                    assert!(df >= 0.02, "feedline spacing {df} GHz");
                }
            }
        }
    }

    #[test]
    fn one_to_eight_demuxes_reduce_z_lines_further() {
        let chip = topology::square_grid(6, 6);
        let base = YoutiaoPlanner::new(&chip).plan().unwrap();
        let deep_cfg = PlannerConfig {
            tdm: crate::tdm::TdmConfig {
                theta: f64::INFINITY,
                allow_one_to_eight: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let deep = YoutiaoPlanner::new(&chip)
            .with_config(deep_cfg)
            .plan()
            .unwrap();
        assert!(deep.num_z_lines() <= base.num_z_lines());
        assert!(deep
            .tdm_groups()
            .iter()
            .any(|g| g.level() == crate::tdm::DemuxLevel::OneToEight));
    }

    #[test]
    fn plan_hook_reports_sub_stages_in_order() {
        let chip = topology::square_grid(5, 5);
        let cfg = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            refine: Some(crate::refine::RefineConfig::default()),
            ..Default::default()
        };
        // Runs one plan, returning it, its events and the call's wall
        // time.
        let timed = |planner: YoutiaoPlanner| {
            let mut stages = Vec::new();
            let started = Instant::now();
            let plan = planner
                .plan_with_hook(&mut |name, elapsed| stages.push((name, elapsed)))
                .unwrap();
            (plan, stages, started.elapsed())
        };
        let names_of = |stages: &[(&'static str, Duration)]| -> Vec<&str> {
            stages.iter().map(|(n, _)| *n).collect()
        };
        // At the default serial thread count the disjoint top-level
        // stages partition a subset of the call, so their durations
        // must sum to at most its wall time (freq.place/swap nest
        // inside freq_alloc and readout.place/swap inside readout, so
        // they are excluded from the sum).
        let assert_within_call = |stages: &[(&str, Duration)], wall: Duration, label: &str| {
            let top_level: Duration = stages
                .iter()
                .filter(|(n, _)| !n.contains('.'))
                .map(|(_, e)| *e)
                .sum();
            assert!(
                top_level <= wall,
                "{label}: stage sum {top_level:?} exceeds the call's {wall:?}"
            );
        };

        let (plan, stages, wall) = timed(YoutiaoPlanner::new(&chip).with_config(cfg.clone()));
        let names = names_of(&stages);
        assert_eq!(
            names,
            [
                "matrices",
                "partition",
                "fdm_grouping",
                "tdm_grouping",
                "refine",
                "freq.place",
                "freq.swap",
                "freq_alloc",
                "readout.place",
                "readout.swap",
                "readout",
            ]
        );
        // The hook must observe the same plan the caller gets.
        assert!(plan.num_z_lines() > 0);
        assert_within_call(&stages, wall, "cold plan");

        // The dispatch replays the same events at any thread count.
        for threads in [2usize, 3] {
            let mut threaded = Vec::new();
            YoutiaoPlanner::new(&chip)
                .with_config(PlannerConfig {
                    plan_threads: threads,
                    ..cfg.clone()
                })
                .plan_with_hook(&mut |name, _| threaded.push(name))
                .unwrap();
            assert_eq!(threaded, names, "{threads} threads");
        }

        // A plan on a context reports the same events without the
        // private context's `matrices`. A plan whose chains all hit
        // reports them with the time this plan spent on each: the
        // placement, swap and refinement stages did not run.
        let ctx = PlanContext::build(&chip, None, cfg.weights);
        let on_ctx = &names[1..];
        let (_, cold, _) = timed(
            YoutiaoPlanner::new(&chip)
                .with_config(cfg.clone())
                .with_context(&ctx),
        );
        assert_eq!(names_of(&cold), on_ctx);
        // The partition, the XY chain, each region's Z chain and the
        // readout chain.
        let chains = plan.partition().unwrap().regions().len() as u64 + 3;
        for threads in [1usize, 2, 3] {
            let hits = ctx.chain_stats().hits;
            let (recalled, warm, wall) = timed(
                YoutiaoPlanner::new(&chip)
                    .with_config(PlannerConfig {
                        plan_threads: threads,
                        ..cfg.clone()
                    })
                    .with_context(&ctx),
            );
            assert_eq!(recalled, plan, "{threads} threads");
            assert_eq!(ctx.chain_stats().hits, hits + chains, "every chain hit");
            assert_eq!(names_of(&warm), on_ctx, "warm plan at {threads} threads");
            for (name, elapsed) in &warm {
                if name.ends_with(".place") || name.ends_with(".swap") || *name == "refine" {
                    assert_eq!(*elapsed, Duration::ZERO, "{name} at {threads} threads");
                }
            }
            assert_within_call(&warm, wall, &format!("warm plan at {threads} threads"));
        }

        // Unconfigured stages are not reported.
        let mut names = Vec::new();
        YoutiaoPlanner::new(&chip)
            .plan_with_hook(&mut |name, _| names.push(name))
            .unwrap();
        assert!(!names.contains(&"partition"));
        assert!(!names.contains(&"refine"));
        assert_eq!(names.last(), Some(&"readout"));
    }

    #[test]
    fn plan_tdm_stages_match_naive_pipeline() {
        // End-to-end differential: the planner's kernelized TDM
        // grouping + refinement must be byte-identical to running the
        // retained naive implementations over the same region
        // decomposition (grouping and refinement both per region — a
        // group never spans partition regions).
        let chip = topology::square_grid(5, 5);
        let cfg = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            refine: Some(crate::refine::RefineConfig::default()),
            ..Default::default()
        };
        let plan = YoutiaoPlanner::new(&chip)
            .with_config(cfg.clone())
            .plan()
            .unwrap();

        let eq = equivalent_matrix(&chip, cfg.weights);
        let xtalk = crosstalk_matrix(&chip, &eq, None);
        let activity = crate::tdm::brickwork_activity(&chip);
        let partition = partition_chip(&chip, &eq, cfg.partition.as_ref().unwrap());
        let mut naive_refined = Vec::new();
        for region in partition.regions() {
            let devices: Vec<DeviceId> = region
                .iter()
                .map(|&q| DeviceId::Qubit(q))
                .chain(chip.couplers().filter_map(|c| {
                    let (a, _) = c.endpoints();
                    region.contains(&a).then_some(DeviceId::Coupler(c.id()))
                }))
                .collect();
            let grouped =
                crate::tdm::naive::group_tdm_naive(&chip, &xtalk, &cfg.tdm, &devices, &activity);
            let (refined, _) = crate::refine::naive::refine_tdm_groups_naive(
                &chip,
                &xtalk,
                &activity,
                &cfg.tdm,
                grouped,
                cfg.refine.as_ref().unwrap(),
            );
            naive_refined.extend(refined);
        }
        assert_eq!(plan.tdm_groups(), naive_refined.as_slice());
    }

    /// Plans at `plan_threads` ∈ {2, 3, 4, 8} must equal the serial
    /// reference, the XY and readout frequency bands bit for bit.
    fn assert_thread_invariant(
        chip: &Chip,
        base: &PlannerConfig,
        label: &str,
        plan: impl Fn(PlannerConfig) -> WiringPlan,
    ) {
        let reference = plan(base.clone());
        for threads in [2usize, 3, 4, 8] {
            let plan = plan(PlannerConfig {
                plan_threads: threads,
                ..base.clone()
            });
            assert_eq!(plan, reference, "{label}, {threads} threads");
            for q in chip.qubit_ids() {
                assert_eq!(
                    plan.frequency_plan().frequency_ghz(q).to_bits(),
                    reference.frequency_plan().frequency_ghz(q).to_bits(),
                    "{label}: XY band {q} moved at {threads} threads"
                );
                assert_eq!(
                    plan.readout_frequency_plan().frequency_ghz(q).to_bits(),
                    reference
                        .readout_frequency_plan()
                        .frequency_ghz(q)
                        .to_bits(),
                    "{label}: readout band {q} moved at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn plans_are_byte_identical_across_thread_counts() {
        // Plans must not depend on the thread count, for every layout
        // family × partitioning choice.
        use youtiao_chip::surface::SurfaceCode;
        let chips = [
            topology::square_grid(5, 5),
            SurfaceCode::rotated(3).into_chip(),
            topology::heavy_hexagon(2, 3),
        ];
        for chip in &chips {
            for partition in [None, Some(PartitionConfig::default())] {
                let base = PlannerConfig {
                    partition,
                    refine: Some(crate::refine::RefineConfig::default()),
                    ..Default::default()
                };
                let label = format!(
                    "{} qubits, partitioned={}",
                    chip.num_qubits(),
                    partition.is_some()
                );
                assert_thread_invariant(chip, &base, &label, |cfg| {
                    YoutiaoPlanner::new(chip).with_config(cfg).plan().unwrap()
                });
            }
        }

        // A ZZ-backed context scores TDM grouping with its ZZ matrix,
        // and a supplied activity profile replaces the brickwork one.
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(5, 5);
        let fit = |kind, synth: SynthConfig| {
            fit_crosstalk_model(&synthesize(&chip, kind, &synth, 5), &FitConfig::fast()).unwrap()
        };
        let xy = fit(CrosstalkKind::Xy, SynthConfig::xy());
        let zz = fit(CrosstalkKind::Zz, SynthConfig::zz());
        let activity: crate::tdm::ActivityProfile = chip
            .coupler_ids()
            .map(|c| (DeviceId::Coupler(c), 1u32 << (c.index() % 3)))
            .collect();
        let base = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            refine: Some(crate::refine::RefineConfig::default()),
            tdm: TdmConfig {
                max_shared_slots: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_thread_invariant(&chip, &base, "ZZ context and activity", |cfg| {
            let ctx = PlanContext::build(&chip, Some(&xy), cfg.weights).with_zz_model(&chip, &zz);
            YoutiaoPlanner::new(&chip)
                .with_crosstalk_model(&xy)
                .with_activity(&activity)
                .with_config(cfg)
                .with_context(&ctx)
                .plan()
                .unwrap()
        });
    }

    #[test]
    fn band_errors_keep_their_order_at_every_thread_count() {
        // Both bands fail: the XY band is degenerate and the readout
        // band's cell is wider than its zone. The XY band's error wins,
        // and the hook sees the same events, at every thread count.
        let chip = topology::square_grid(4, 4);
        for threads in [1usize, 2, 3, 8] {
            let cfg = PlannerConfig {
                freq: FreqConfig {
                    band_ghz: (5.0, 5.0),
                    ..Default::default()
                },
                readout_freq: FreqConfig {
                    cell_mhz: 2000.0,
                    ..PlannerConfig::default().readout_freq
                },
                plan_threads: threads,
                ..Default::default()
            };
            let mut names = Vec::new();
            let err = YoutiaoPlanner::new(&chip)
                .with_config(cfg)
                .plan_with_hook(&mut |name, _| names.push(name))
                .unwrap_err();
            assert_eq!(
                err,
                PlanError::InvalidConfig("frequency band or cell size"),
                "{threads} threads"
            );
            assert_eq!(
                names,
                ["matrices", "fdm_grouping", "tdm_grouping"],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn context_plans_are_thread_count_invariant_too() {
        // Same byte-identity through the shared-context path: the
        // context's scratch pool serves concurrent checkouts and a warm
        // pool must not change any plan.
        let chip = topology::square_grid(5, 5);
        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let cfg = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            refine: Some(crate::refine::RefineConfig::default()),
            ..Default::default()
        };
        let reference = YoutiaoPlanner::new(&chip)
            .with_config(cfg.clone())
            .with_context(&ctx)
            .plan()
            .unwrap();
        for threads in [1usize, 2, 8] {
            for _warm in 0..2 {
                let plan = YoutiaoPlanner::new(&chip)
                    .with_config(PlannerConfig {
                        plan_threads: threads,
                        ..cfg.clone()
                    })
                    .with_context(&ctx)
                    .plan()
                    .unwrap();
                assert_eq!(plan, reference, "{threads} threads");
            }
        }
    }

    #[test]
    fn demux_select_lines_counted() {
        let chip = topology::heavy_square(3, 3);
        let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
        let manual: usize = plan
            .tdm_groups()
            .iter()
            .map(|g| g.level().select_lines())
            .sum();
        assert_eq!(plan.demux_select_lines(), manual);
        assert!(plan.demux_select_lines() > 0);
    }
}
