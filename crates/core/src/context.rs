//! Reusable precomputed planning context.
//!
//! The planner's first stage — the equivalent-distance matrix and the
//! qubit-pair crosstalk matrix — depends only on the chip and the
//! crosstalk model (or the fallback weights), *not* on the knobs a
//! sweep varies (θ, capacities, DEMUX fan-out, partitioning). A
//! [`PlanContext`] captures exactly that chip-level state so a sweep
//! over N planner configurations builds the matrices once and plans N
//! times against the shared, immutable context instead of rebuilding
//! O(n²) state per point.
//!
//! A context also memoizes the plan's chains (the XY chain, each
//! region's Z chain, the readout chain) and its partitions, keyed by
//! exactly what each reads, so a point that repeats an earlier point's
//! inputs to a chain shares that chain's output instead of planning it
//! again ([`PlanContext::chain_stats`], DESIGN.md §4j).
//!
//! # Example
//!
//! ```
//! use youtiao_chip::distance::EquivalentWeights;
//! use youtiao_chip::topology;
//! use youtiao_core::{PlanContext, PlannerConfig, TdmConfig, YoutiaoPlanner};
//!
//! let chip = topology::square_grid(4, 4);
//! let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
//! for theta in [2.0, 4.0, 8.0] {
//!     let config = PlannerConfig {
//!         tdm: TdmConfig { theta, ..Default::default() },
//!         ..Default::default()
//!     };
//!     let plan = YoutiaoPlanner::new(&chip)
//!         .with_config(config)
//!         .with_context(&ctx)
//!         .plan()?;
//!     assert_eq!(plan.num_xy_lines(), 4);
//! }
//! # Ok::<(), youtiao_core::PlanError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use youtiao_chip::distance::{equivalent_matrix, DistanceMatrix, EquivalentWeights};
use youtiao_chip::{Chip, DeviceId, QubitId};
use youtiao_noise::CrosstalkModel;

use crate::error::PlanError;
use crate::kernels::{PairKernels, SortedRows};
use crate::memo::{ChainMemo, ChainStats};
use crate::plan::crosstalk_matrix;
use crate::scratch::ScratchPool;

/// Global count of [`PlanContext::build`] calls — a probe for tests
/// asserting that a sweep builds its matrices once per chip axis value
/// instead of once per grid point.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Global count of [`PlanContext::apply_crosstalk_delta`] calls that
/// applied — the `crosstalk_deltas` probe: tests and the repair bench
/// assert that a repair takes a delta instead of rebuilding a context.
static DELTAS: AtomicU64 = AtomicU64::new(0);

/// Stable fingerprint of a chip's wiring-relevant structure: qubit
/// count, coupler count, and every coupler's endpoint pair (FNV-1a).
/// Two chips with equal fingerprints have identical device id spaces
/// and identical topology-derived kernels.
pub fn chip_fingerprint(chip: &Chip) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(chip.num_qubits() as u64);
    mix(chip.num_couplers() as u64);
    for c in chip.couplers() {
        let (a, b) = c.endpoints();
        mix(a.index() as u64);
        mix(b.index() as u64);
    }
    h
}

/// Chip-level planning state, the one input every planning pass reads
/// besides its knobs: the equivalent-distance matrix, the XY crosstalk
/// matrix, (optionally) the ZZ crosstalk matrix, the topology-only
/// grouping [`PairKernels`] and the brickwork activity masks, together
/// with the weights and the couplers they were built from so a
/// mismatched or structurally-changed chip is rejected instead of
/// silently planning against stale matrices. A plan without a context
/// builds a private one, so there is one planning path; sweeps and
/// services build one per chip and share it across every point that
/// plans that chip.
///
/// Besides that planning state the context carries three kinds of warm
/// state, which compare equal, clone empty and never change a plan:
/// the scratch-arena pool ([`Self::scratch`]), the sorted rows of the
/// TDM matrix that grouping walks (each sorted the first time a walk
/// needs it, and emptied with the memo by [`Self::with_zz_model`] and
/// [`Self::apply_crosstalk_delta`]) and the chain memo. The
/// memo keeps each successful chain a plan on this context ran, keyed
/// by exactly the inputs that chain reads besides the context: the
/// partition's regions, `fdm_capacity` and `freq` for the XY chain;
/// one region and what its TDM grouping reads of `tdm` (the sizes of
/// the pools θ splits, the 1:8 switch if the low pool is not empty,
/// each pool's binding part of `max_shared_slots`) and `refine` for a
/// Z chain; `readout_capacity` and `readout_freq` for the readout
/// chain (floats by their bits, and each qubit's base frequency when a
/// band has a tuning range). It also keeps each partition under its
/// `PartitionConfig`. A recall shares the memo's outputs with the plan
/// it returns (DESIGN.md §4j). A plan that supplies an activity
/// profile runs its Z chains without the memo. The memo holds at most
/// 128 chains: once full, later chains are planned but not kept.
/// [`Self::apply_crosstalk_delta`] and [`Self::with_zz_model`] empty
/// it, and [`Self::chain_stats`] counts its hits and misses.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanContext {
    num_qubits: usize,
    /// Every coupler's endpoints, in coupler order, as built: each plan
    /// compares them with its chip's.
    couplers: Vec<(QubitId, QubitId)>,
    weights: EquivalentWeights,
    equivalent: DistanceMatrix,
    crosstalk: DistanceMatrix,
    zz_crosstalk: Option<DistanceMatrix>,
    kernels: PairKernels,
    /// [`crate::tdm::brickwork_activity`] densified: what TDM grouping
    /// and refinement read without a supplied activity profile, and
    /// what Z chain keys are computed from.
    brickwork: Vec<u32>,
    // Warm buffer capacity, sorted rows and memoized chains, not
    // planning state: each compares equal to every other and clones to
    // an empty one, so none perturbs the staleness/equality semantics
    // above.
    scratch: ScratchPool,
    tdm_rows: SortedRows,
    chains: ChainMemo,
}

impl PlanContext {
    /// Precomputes the matrices for `chip`: equivalent distances from
    /// the model's fitted weights (or `fallback` without a model) and
    /// the pairwise XY crosstalk matrix. [`crate::YoutiaoPlanner`]
    /// builds exactly this context when it is given none, so planning
    /// with or without the context yields identical plans.
    pub fn build(chip: &Chip, model: Option<&CrosstalkModel>, fallback: EquivalentWeights) -> Self {
        let weights = model.map(|m| m.weights()).unwrap_or(fallback);
        let equivalent = equivalent_matrix(chip, weights);
        let crosstalk = crosstalk_matrix(chip, &equivalent, model);
        Self::from_parts(chip, weights, equivalent, crosstalk)
    }

    /// Builds a context from an explicit crosstalk matrix instead of a
    /// model — the repair path's "full replan from a snapshot"
    /// constructor, where the new inputs arrive as a concrete matrix
    /// rather than a fitted model.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension mismatches the chip.
    pub fn from_matrix(chip: &Chip, weights: EquivalentWeights, crosstalk: DistanceMatrix) -> Self {
        assert_eq!(
            crosstalk.len(),
            chip.num_qubits(),
            "crosstalk matrix size mismatch"
        );
        let equivalent = equivalent_matrix(chip, weights);
        Self::from_parts(chip, weights, equivalent, crosstalk)
    }

    /// The context over matrices already built for `chip`.
    fn from_parts(
        chip: &Chip,
        weights: EquivalentWeights,
        equivalent: DistanceMatrix,
        crosstalk: DistanceMatrix,
    ) -> Self {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        PlanContext {
            num_qubits: chip.num_qubits(),
            couplers: chip.couplers().map(|c| c.endpoints()).collect(),
            weights,
            equivalent,
            crosstalk,
            zz_crosstalk: None,
            kernels: PairKernels::build(chip),
            brickwork: crate::tdm::brickwork_masks(chip),
            scratch: ScratchPool::new(),
            tdm_rows: SortedRows::new(chip.num_qubits()),
            chains: ChainMemo::default(),
        }
    }

    /// Adds the ZZ crosstalk matrix (drives the *noisy non-parallelism*
    /// score of TDM grouping) fitted from `model`, emptying the sorted
    /// rows and the chain memo. This is how a ZZ model reaches
    /// planning: every plan, grouping and refinement on the context
    /// scores TDM crosstalk with it.
    ///
    /// # Panics
    ///
    /// Panics when `chip` has a different qubit count than the chip the
    /// context was built for.
    pub fn with_zz_model(mut self, chip: &Chip, model: &CrosstalkModel) -> Self {
        assert_eq!(
            chip.num_qubits(),
            self.num_qubits,
            "zz model chip does not match the context's chip"
        );
        let eq = equivalent_matrix(chip, model.weights());
        // TDM grouping scores with the ZZ matrix from here on; the
        // kernels are topology-only and stay. Frequency allocation
        // always scores XY crosstalk regardless of the TDM noise model.
        self.zz_crosstalk = Some(crosstalk_matrix(chip, &eq, Some(model)));
        self.tdm_rows = SortedRows::new(self.num_qubits);
        self.chains.clear();
        self
    }

    /// Number of qubits of the chip this context was built for.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The equivalent-distance weights the matrices were built from.
    pub fn weights(&self) -> EquivalentWeights {
        self.weights
    }

    /// The equivalent-distance matrix.
    pub fn equivalent(&self) -> &DistanceMatrix {
        &self.equivalent
    }

    /// The qubit-pair XY crosstalk matrix.
    pub fn crosstalk(&self) -> &DistanceMatrix {
        &self.crosstalk
    }

    /// The ZZ crosstalk matrix, when fitted via [`Self::with_zz_model`].
    pub fn zz_crosstalk(&self) -> Option<&DistanceMatrix> {
        self.zz_crosstalk.as_ref()
    }

    /// The matrix TDM grouping and refinement score crosstalk with:
    /// the ZZ matrix after [`Self::with_zz_model`], the XY matrix
    /// otherwise.
    pub fn tdm_crosstalk(&self) -> &DistanceMatrix {
        self.zz_crosstalk.as_ref().unwrap_or(&self.crosstalk)
    }

    /// The grouping kernels: functions of the chip's topology alone,
    /// read together with [`Self::tdm_crosstalk`].
    pub fn kernels(&self) -> &PairKernels {
        &self.kernels
    }

    /// The chip's brickwork activity masks, indexed like the kernels.
    pub(crate) fn brickwork(&self) -> &[u32] {
        &self.brickwork
    }

    /// The sorted rows of [`Self::tdm_crosstalk`].
    pub(crate) fn tdm_rows(&self) -> &SortedRows {
        &self.tdm_rows
    }

    /// The context's scratch-arena pool. Each planning stage checks an
    /// arena out for the duration of its work (concurrent plans — or
    /// concurrent stages within one plan — each get their own), so the
    /// per-call hot-loop buffers are served from warm capacity on every
    /// plan after the first.
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// The chain memo the planner looks chains up in.
    pub(crate) fn chains(&self) -> &ChainMemo {
        &self.chains
    }

    /// This context's chain-memo counters: lookups that hit, lookups
    /// that missed, and chains held now.
    pub fn chain_stats(&self) -> ChainStats {
        self.chains.stats()
    }

    /// Empties the chain memo, keeping its counters and the scratch
    /// arenas, so the next plan runs every chain again (the bench
    /// harness times the planner this way; a clone would also drop
    /// the warm arenas).
    pub fn clear_chains(&self) {
        self.chains.clear();
    }

    /// Whether the context is stale for `chip`: the chip's structure
    /// (qubit count, couplers) no longer matches what the matrices and
    /// kernels were built from. A stale context must be rebuilt (or,
    /// for crosstalk-value-only changes on the *same* structure, updated
    /// via [`Self::apply_crosstalk_delta`]).
    pub fn is_stale(&self, chip: &Chip) -> bool {
        chip.num_qubits() != self.num_qubits || !self.same_couplers(chip)
    }

    /// Whether `chip` has the couplers, endpoint for endpoint and in
    /// order, that the context was built from.
    fn same_couplers(&self, chip: &Chip) -> bool {
        chip.couplers()
            .map(|c| c.endpoints())
            .eq(self.couplers.iter().copied())
    }

    /// Applies a crosstalk-value delta in place: replaces the XY
    /// crosstalk matrix, advancing the [`Self::crosstalk_deltas`] probe
    /// instead of the build count, and empties the sorted rows and the
    /// chain memo. The topology-only [`PairKernels`] stay as they are.
    ///
    /// This is the explicit rebuild-vs-delta choice: mutating inputs
    /// and reusing a context used to silently serve stale kernels; now
    /// a structural change is rejected by [`Self::is_stale`]/`check`,
    /// and a value-only drift is applied exactly (the patched context
    /// equals a fresh [`Self::from_matrix`] build bit-for-bit).
    ///
    /// Returns the number of invalidated device rows: the devices whose
    /// worst-case crosstalk reads a dirty qubit's row (each dirty qubit
    /// and every coupler incident to it).
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidConfig`] when the chip changed structurally,
    /// the matrix dimension mismatches, or the context carries a ZZ
    /// matrix (which an XY-only delta would leave stale).
    ///
    /// # Panics
    ///
    /// Panics if a dirty qubit is out of range.
    pub fn apply_crosstalk_delta(
        &mut self,
        chip: &Chip,
        crosstalk: DistanceMatrix,
        dirty: &[QubitId],
    ) -> Result<usize, PlanError> {
        if self.is_stale(chip) {
            return Err(PlanError::InvalidConfig(
                "chip changed structurally; rebuild the plan context",
            ));
        }
        if crosstalk.len() != self.num_qubits {
            return Err(PlanError::InvalidConfig(
                "crosstalk delta matrix size mismatch",
            ));
        }
        if self.zz_crosstalk.is_some() {
            return Err(PlanError::InvalidConfig(
                "zz-backed contexts cannot take an xy crosstalk delta; rebuild",
            ));
        }
        let mut rows: Vec<DeviceId> = Vec::new();
        for &q in dirty {
            assert!(q.index() < chip.num_qubits(), "dirty qubit out of range");
            rows.push(DeviceId::Qubit(q));
            rows.extend(chip.couplers_of(q).iter().map(|&c| DeviceId::Coupler(c)));
        }
        rows.sort_unstable();
        rows.dedup();
        DELTAS.fetch_add(1, Ordering::Relaxed);
        self.crosstalk = crosstalk;
        self.tdm_rows = SortedRows::new(self.num_qubits);
        self.chains.clear();
        Ok(rows.len())
    }

    /// Verifies the context matches the planner's resolved chip and
    /// weights.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidConfig`] on a qubit-count, structure
    /// (couplers), or weight mismatch.
    pub(crate) fn check(&self, chip: &Chip, weights: EquivalentWeights) -> Result<(), PlanError> {
        if chip.num_qubits() != self.num_qubits {
            return Err(PlanError::InvalidConfig(
                "plan context was built for a different chip",
            ));
        }
        if !self.same_couplers(chip) {
            return Err(PlanError::InvalidConfig(
                "plan context is stale: the chip's couplers changed since it was built",
            ));
        }
        if weights != self.weights {
            return Err(PlanError::InvalidConfig(
                "plan context was built with different equivalent-distance weights",
            ));
        }
        Ok(())
    }

    /// Cumulative number of contexts built in this process (test
    /// probe), the private context of each plan given none included.
    pub fn build_count() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Cumulative number of crosstalk deltas applied in this process —
    /// a probe alongside [`Self::build_count`].
    pub fn crosstalk_deltas() -> u64 {
        DELTAS.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlannerConfig, TdmConfig, YoutiaoPlanner};
    use youtiao_chip::topology;

    /// A plan without a context plans on a private one, so it equals
    /// a plan on an explicit context, whether that context runs the
    /// chains or recalls them: for each θ and window budget 0 or 1,
    /// without and with a partition, under the brickwork activity and
    /// a supplied profile.
    #[test]
    fn context_plans_identically_to_internal_matrices() {
        use crate::PartitionConfig;
        let chip = topology::square_grid(5, 5);
        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let profile: crate::tdm::ActivityProfile = chip
            .coupler_ids()
            .map(|c| (DeviceId::Coupler(c), 1u32 << (c.index() % 3)))
            .collect();
        let cases = [2.0, 4.0, 8.0]
            .into_iter()
            .flat_map(|theta| [0, 1].map(|max_shared_slots| (theta, max_shared_slots)));
        for (theta, max_shared_slots) in cases {
            for partition in [None, Some(PartitionConfig::default())] {
                for activity in [None, Some(&profile)] {
                    let config = PlannerConfig {
                        tdm: TdmConfig {
                            theta,
                            max_shared_slots,
                            ..Default::default()
                        },
                        partition,
                        ..Default::default()
                    };
                    let planner = || {
                        let planner = YoutiaoPlanner::new(&chip).with_config(config.clone());
                        match activity {
                            Some(activity) => planner.with_activity(activity),
                            None => planner,
                        }
                    };
                    let private = planner().plan().unwrap();
                    let label = format!(
                        "theta={theta} budget={max_shared_slots} {partition:?} activity={}",
                        activity.is_some()
                    );
                    for _run_then_recall in 0..2 {
                        let shared = planner().with_context(&ctx).plan().unwrap();
                        assert_eq!(private, shared, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn context_with_model_matches_model_planning() {
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(4, 4);
        let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        let model = fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap();
        let ctx = PlanContext::build(&chip, Some(&model), EquivalentWeights::balanced());
        let direct = YoutiaoPlanner::new(&chip)
            .with_crosstalk_model(&model)
            .plan()
            .unwrap();
        let shared = YoutiaoPlanner::new(&chip)
            .with_crosstalk_model(&model)
            .with_context(&ctx)
            .plan()
            .unwrap();
        assert_eq!(direct, shared);
    }

    /// A plan on a context reports no `matrices` stage; a plan without
    /// one reports its private context's build as `matrices`, then the
    /// same events.
    #[test]
    fn context_skips_the_matrices_stage() {
        let chip = topology::square_grid(4, 4);
        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let mut names = Vec::new();
        YoutiaoPlanner::new(&chip)
            .with_context(&ctx)
            .plan_with_hook(&mut |name, _| names.push(name))
            .unwrap();
        assert!(!names.contains(&"matrices"), "{names:?}");
        assert!(names.contains(&"fdm_grouping"));
        let mut private = Vec::new();
        YoutiaoPlanner::new(&chip)
            .plan_with_hook(&mut |name, _| private.push(name))
            .unwrap();
        assert_eq!(private[0], "matrices");
        assert_eq!(private[1..], names);
    }

    #[test]
    fn mismatched_context_is_rejected() {
        let chip = topology::square_grid(4, 4);
        let other = topology::square_grid(3, 3);
        let ctx = PlanContext::build(&other, None, EquivalentWeights::balanced());
        assert!(matches!(
            YoutiaoPlanner::new(&chip).with_context(&ctx).plan(),
            Err(PlanError::InvalidConfig(_))
        ));

        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let config = PlannerConfig {
            weights: EquivalentWeights::new(0.9, 0.1).unwrap(),
            ..Default::default()
        };
        assert!(matches!(
            YoutiaoPlanner::new(&chip)
                .with_config(config)
                .with_context(&ctx)
                .plan(),
            Err(PlanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn build_count_probe_advances() {
        let chip = topology::linear(4);
        let before = PlanContext::build_count();
        let _ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        assert!(PlanContext::build_count() > before);
    }

    /// Same qubit count, one coupler removed, or one coupler moved with
    /// the count kept: the chip the context was built for no longer
    /// exists. Before the structure check this silently planned against
    /// stale kernels (the old `check` only compared qubit counts and
    /// weights).
    #[test]
    fn structurally_mutated_chip_is_rejected_not_served_stale() {
        let chip = topology::square_grid(4, 4);
        let mut removed = youtiao_chip::spec::ChipSpec::from_chip(&chip);
        removed.couplers.pop();
        // q0–q5 is a diagonal, not a coupler of the 4×4 grid.
        let mut moved = youtiao_chip::spec::ChipSpec::from_chip(&chip);
        *moved.couplers.last_mut().unwrap() = (0, 5);
        let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        assert!(!ctx.is_stale(&chip));
        for spec in [removed, moved] {
            let mutated = spec.to_chip().unwrap();
            assert_eq!(mutated.num_qubits(), chip.num_qubits());
            assert!(ctx.is_stale(&mutated));
            let err = YoutiaoPlanner::new(&mutated)
                .with_context(&ctx)
                .plan()
                .unwrap_err();
            assert!(
                matches!(err, PlanError::InvalidConfig(msg) if msg.contains("stale")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn crosstalk_delta_rejects_structural_and_zz_contexts() {
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(3, 3);
        let mut ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
        let other = topology::ring(9);
        let bad = ctx.apply_crosstalk_delta(&other, DistanceMatrix::zeros(9), &[]);
        assert!(matches!(bad, Err(PlanError::InvalidConfig(_))));

        let zz = fit_crosstalk_model(
            &synthesize(&chip, CrosstalkKind::Zz, &SynthConfig::zz(), 5),
            &FitConfig::fast(),
        )
        .unwrap();
        let mut zz_ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced())
            .with_zz_model(&chip, &zz);
        let xtalk = zz_ctx.crosstalk().clone();
        let bad = zz_ctx.apply_crosstalk_delta(&chip, xtalk, &[]);
        assert!(matches!(bad, Err(PlanError::InvalidConfig(_))));
    }

    /// The sorted rows always belong to the matrix TDM grouping scores
    /// with. Each context below first plans θ = 8 with 1:8 DEMUXes,
    /// whose walks sort the rows of its XY matrix, and then plans
    /// against another matrix: its own ZZ matrix or a crosstalk delta.
    /// The XY matrix is either the planner's or that matrix with the
    /// crosstalk of every pair tripled per odd qubit in it, which
    /// reorders every row, so the rows a stale context would walk are
    /// out of order for the matrix it scores with. Each plan equals a
    /// fresh context's.
    #[test]
    fn sorted_rows_follow_the_matrix_grouping_scores_with() {
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(8, 8);
        let weights = EquivalentWeights::balanced();
        let zz = fit_crosstalk_model(
            &synthesize(
                &topology::square_grid(4, 4),
                CrosstalkKind::Zz,
                &SynthConfig::zz(),
                5,
            ),
            &FitConfig::fast(),
        )
        .unwrap();
        let config = PlannerConfig {
            tdm: TdmConfig {
                theta: 8.0,
                max_shared_slots: 1,
                allow_one_to_eight: true,
            },
            ..Default::default()
        };
        let plan = |ctx: &PlanContext| {
            YoutiaoPlanner::new(&chip)
                .with_config(config.clone())
                .with_context(ctx)
                .plan()
                .unwrap()
        };
        let planned = PlanContext::build(&chip, None, weights).crosstalk().clone();
        let mut scaled = planned.clone();
        let odd: Vec<QubitId> = chip.qubit_ids().filter(|q| q.index() % 2 == 1).collect();
        let scale = |q: QubitId| if q.index() % 2 == 1 { 3.0 } else { 1.0 };
        for a in chip.qubit_ids() {
            for b in chip.qubit_ids() {
                if a < b {
                    scaled.set(a, b, scaled.get(a, b) * scale(a) * scale(b));
                }
            }
        }
        let fresh =
            |xtalk: &DistanceMatrix| PlanContext::from_matrix(&chip, weights, xtalk.clone());
        let warm = |xtalk: &DistanceMatrix| {
            let ctx = fresh(xtalk);
            plan(&ctx);
            assert!(ctx.tdm_rows().sorted().0 > 0);
            ctx
        };

        let zz_fresh = fresh(&scaled).with_zz_model(&chip, &zz);
        let zz_warm = warm(&scaled).with_zz_model(&chip, &zz);
        assert_eq!(zz_warm.tdm_rows().sorted(), (0, 0));
        assert_eq!(plan(&zz_warm), plan(&zz_fresh));

        let mut delta = warm(&planned);
        delta
            .apply_crosstalk_delta(&chip, scaled.clone(), &odd)
            .unwrap();
        assert_eq!(delta.tdm_rows().sorted(), (0, 0));
        assert_eq!(plan(&delta), plan(&fresh(&scaled)));
    }

    /// A ZZ-backed context scores TDM grouping with its ZZ matrix and
    /// nothing else: its plan has the XY-only context's XY and readout
    /// bands, and the Z lines of grouping on it directly.
    #[test]
    fn zz_context_scores_only_tdm_grouping_with_the_zz_matrix() {
        use crate::tdm::{brickwork_activity, group_tdm};
        use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
        use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
        let chip = topology::square_grid(4, 4);
        let xy = fit_crosstalk_model(
            &synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5),
            &FitConfig::fast(),
        )
        .unwrap();
        let zz = fit_crosstalk_model(
            &synthesize(&chip, CrosstalkKind::Zz, &SynthConfig::zz(), 5),
            &FitConfig::fast(),
        )
        .unwrap();
        let xy_ctx = PlanContext::build(&chip, Some(&xy), EquivalentWeights::balanced());
        let zz_ctx = xy_ctx.clone().with_zz_model(&chip, &zz);
        assert!(zz_ctx.zz_crosstalk().is_some());
        let plan = |ctx: &PlanContext| {
            YoutiaoPlanner::new(&chip)
                .with_crosstalk_model(&xy)
                .with_context(ctx)
                .plan()
                .unwrap()
        };
        let (on_xy, on_zz) = (plan(&xy_ctx), plan(&zz_ctx));
        assert_eq!(on_zz.fdm_lines(), on_xy.fdm_lines());
        assert_eq!(on_zz.frequency_plan(), on_xy.frequency_plan());
        assert_eq!(
            on_zz.readout_frequency_plan(),
            on_xy.readout_frequency_plan()
        );
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let groups = group_tdm(
            &zz_ctx,
            &TdmConfig::default(),
            &devices,
            &brickwork_activity(&chip),
        );
        assert_eq!(on_zz.tdm_groups(), groups.as_slice());
    }
}
