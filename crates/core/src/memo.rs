//! The chain memo of a [`crate::PlanContext`].
//!
//! A plan is three kinds of independent chain (DESIGN.md §4j): the XY
//! chain (FDM grouping, then XY allocation), one Z chain per partition
//! region (TDM grouping, then refinement) and the readout chain
//! (feedline chunking, then readout allocation). Besides the context's
//! matrices and kernels, each chain reads only a few planner knobs, so
//! a sweep over one context repeats most chains: of plan-sweep's 72
//! chain runs per chip only 15 are distinct. [`ChainMemo`] keeps each
//! successful chain's output under a [`ChainKey`] that holds exactly
//! the inputs the chain reads besides the context, floats by their
//! bits. It also keeps each partition a partitioned plan ran, under its
//! [`PartitionConfig`]: `partition_chip` reads the chip's qubits and
//! neighbours, which the context's fingerprint pins, and the context's
//! equivalent matrix besides.
//!
//! Like the [`crate::ScratchPool`], the memo is warm state, not
//! planning state: it compares equal to every other memo, a clone
//! starts empty, and anything that changes the context's matrices
//! empties it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use youtiao_chip::{Chip, QubitId};

use crate::fdm::FdmLine;
use crate::freq::{FreqConfig, FrequencyPlan};
use crate::partition::{Partition, PartitionConfig};
use crate::refine::RefineConfig;
use crate::tdm::{TdmConfig, TdmGroup};

/// Most chains one context's memo keeps, a partition counted as one.
/// Plan-sweep's grid has 15 distinct chains per chip, and 112 on a
/// 24×24 chip split into 9 regions (`partition_target` 64: 9 × 12 Z
/// chains, 2 XY, 1 readout and the partition), so 128 holds every
/// chain of such sweeps. The bound matters because the daemon's repair
/// store keeps up to 256 contexts for a whole session: the largest chain of an unpartitioned 24×24 chip (838 TDM
/// groups) takes about 56 kB, so a full memo of them stays near 7 MB,
/// the size of the context's own matrices. Once the memo is full,
/// later chains are planned but not kept, the repair store's policy.
pub(crate) const CHAIN_MEMO_CAP: usize = 128;

/// A frequency band's inputs: the [`FreqConfig`], and each qubit's base
/// frequency when a tuning range makes the allocator read it.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct BandKey {
    band: (u64, u64),
    cell: u64,
    swap_passes: usize,
    tuning: Option<u64>,
    base: Vec<u64>,
}

impl BandKey {
    fn new(chip: &Chip, config: &FreqConfig) -> Self {
        let FreqConfig {
            band_ghz,
            cell_mhz,
            swap_passes,
            tuning_range_ghz,
        } = *config;
        // The chip's base frequencies are not part of the context's
        // fingerprint, and only a tuning range reads them.
        let base = match tuning_range_ghz {
            Some(_) => chip
                .qubits()
                .map(|q| q.base_frequency_ghz().to_bits())
                .collect(),
            None => Vec::new(),
        };
        BandKey {
            band: (band_ghz.0.to_bits(), band_ghz.1.to_bits()),
            cell: cell_mhz.to_bits(),
            swap_passes,
            tuning: tuning_range_ghz.map(f64::to_bits),
            base,
        }
    }
}

/// Everything one chain reads besides its context.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum ChainKey {
    /// The partition's `num_regions`, `seed` and `max_sweeps`.
    Partition(usize, u64, usize),
    /// Every region's qubits in order, the FDM capacity and the XY band.
    Xy(Vec<Vec<QubitId>>, usize, BandKey),
    /// One region's qubits, θ's bits, `max_shared_slots`,
    /// `allow_one_to_eight` and the refinement passes.
    Z(Vec<QubitId>, (u64, u32, bool), Option<usize>),
    /// The readout capacity and band.
    Readout(usize, BandKey),
}

impl ChainKey {
    /// The partition's key.
    pub(crate) fn partition(config: &PartitionConfig) -> Self {
        let PartitionConfig {
            num_regions,
            seed,
            max_sweeps,
        } = *config;
        ChainKey::Partition(num_regions, seed, max_sweeps)
    }

    /// The XY chain's key.
    pub(crate) fn xy(
        chip: &Chip,
        regions: &[Vec<QubitId>],
        fdm_capacity: usize,
        freq: &FreqConfig,
    ) -> Self {
        ChainKey::Xy(regions.to_vec(), fdm_capacity, BandKey::new(chip, freq))
    }

    /// One region's Z chain key. The activity profile and the TDM
    /// matrix are not in it: the planner keys Z chains only when both
    /// come from the context (the brickwork profile is a function of
    /// the chip's couplers, which the context pins).
    pub(crate) fn z(region: &[QubitId], tdm: &TdmConfig, refine: Option<&RefineConfig>) -> Self {
        let TdmConfig {
            theta,
            max_shared_slots,
            allow_one_to_eight,
        } = *tdm;
        ChainKey::Z(
            region.to_vec(),
            (theta.to_bits(), max_shared_slots, allow_one_to_eight),
            refine.map(|&RefineConfig { passes }| passes),
        )
    }

    /// The readout chain's key.
    pub(crate) fn readout(chip: &Chip, readout_capacity: usize, freq: &FreqConfig) -> Self {
        ChainKey::Readout(readout_capacity, BandKey::new(chip, freq))
    }
}

/// A successful chain's output, or a partition.
pub(crate) enum ChainOutput {
    /// The chip's regions.
    Partition(Partition),
    /// The FDM lines and the XY band.
    Xy(Vec<FdmLine>, FrequencyPlan),
    /// One region's TDM groups.
    Z(Vec<TdmGroup>),
    /// The readout feedlines and their band.
    Readout(Vec<Vec<QubitId>>, FrequencyPlan),
}

/// Chain-memo counters of one [`crate::PlanContext`]. A partition
/// counts as a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainStats {
    /// Chain lookups answered from the memo.
    pub hits: u64,
    /// Chain lookups that found nothing, so the chain ran.
    pub misses: u64,
    /// Chains the memo holds now.
    pub chains: usize,
}

/// A bounded map from [`ChainKey`] to chain output, with its own
/// hit and miss counters.
#[derive(Default)]
pub(crate) struct ChainMemo {
    chains: Mutex<HashMap<ChainKey, Arc<ChainOutput>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ChainMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<ChainKey, Arc<ChainOutput>>> {
        // Every update is one insert or a clear, so a map whose lock a
        // panicking thread held is still whole.
        self.chains.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The chain stored under `key`, counted as a hit or a miss.
    pub(crate) fn get(&self, key: &ChainKey) -> Option<Arc<ChainOutput>> {
        let found = self.lock().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a chain unless the memo is full. Two plans sharing the
    /// context may both miss and store one key; their outputs are
    /// equal, so the first stays.
    pub(crate) fn insert(&self, key: ChainKey, output: ChainOutput) {
        let mut chains = self.lock();
        if chains.len() < CHAIN_MEMO_CAP {
            chains.entry(key).or_insert_with(|| Arc::new(output));
        }
    }

    /// Drops every chain, keeping the counters.
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    /// Partitions the memo holds now.
    #[cfg(test)]
    fn partitions(&self) -> usize {
        let chains = self.lock();
        chains
            .keys()
            .filter(|key| matches!(key, ChainKey::Partition(..)))
            .count()
    }

    pub(crate) fn stats(&self) -> ChainStats {
        ChainStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            chains: self.lock().len(),
        }
    }
}

impl std::fmt::Debug for ChainMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainMemo").finish_non_exhaustive()
    }
}

impl Clone for ChainMemo {
    /// A cloned memo starts empty, its counters at zero.
    fn clone(&self) -> Self {
        ChainMemo::default()
    }
}

impl PartialEq for ChainMemo {
    /// Memos never differentiate their contexts: a memoized chain
    /// equals the chain it stands for.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdm::ActivityProfile;
    use crate::{
        PartitionConfig, PlanContext, PlanError, PlannerConfig, WiringPlan, YoutiaoPlanner,
    };
    use youtiao_chip::distance::EquivalentWeights;
    use youtiao_chip::surface::SurfaceCode;
    use youtiao_chip::topology;
    use youtiao_chip::{ChipBuilder, DeviceId};
    use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
    use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
    use youtiao_noise::CrosstalkModel;

    fn fresh(chip: &Chip) -> PlanContext {
        PlanContext::build(chip, None, EquivalentWeights::balanced())
    }

    fn plan_on(
        chip: &Chip,
        ctx: &PlanContext,
        config: &PlannerConfig,
    ) -> Result<WiringPlan, PlanError> {
        YoutiaoPlanner::new(chip)
            .with_config(config.clone())
            .with_context(ctx)
            .plan()
    }

    fn zz_model(chip: &Chip) -> CrosstalkModel {
        let samples = synthesize(chip, CrosstalkKind::Zz, &SynthConfig::zz(), 5);
        fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap()
    }

    /// Asserts two plan results equal, both bands' frequencies bit for
    /// bit.
    fn assert_same(
        chip: &Chip,
        got: &Result<WiringPlan, PlanError>,
        want: &Result<WiringPlan, PlanError>,
        label: &str,
    ) {
        assert_eq!(got, want, "{label}");
        if let (Ok(got), Ok(want)) = (got, want) {
            for q in chip.qubit_ids() {
                for (a, b) in [
                    (got.frequency_plan(), want.frequency_plan()),
                    (got.readout_frequency_plan(), want.readout_frequency_plan()),
                ] {
                    assert_eq!(
                        a.frequency_ghz(q).to_bits(),
                        b.frequency_ghz(q).to_bits(),
                        "{label}: {q}"
                    );
                }
            }
        }
    }

    /// Plans `config` on the warm `ctx` and on a fresh context, asserts
    /// the two equal and returns the warm plan.
    fn assert_fresh(
        chip: &Chip,
        ctx: &PlanContext,
        config: &PlannerConfig,
        label: &str,
    ) -> Result<WiringPlan, PlanError> {
        let warm = plan_on(chip, ctx, config);
        assert_same(chip, &warm, &plan_on(chip, &fresh(chip), config), label);
        warm
    }

    /// plan-sweep's grid on one chip: θ × FDM capacity ×
    /// `max_shared_slots` × 1:8.
    fn plan_sweep_grid(base: &PlannerConfig) -> Vec<PlannerConfig> {
        let mut grid = Vec::new();
        for theta in [2.0, 4.0, 8.0] {
            for fdm_capacity in [4, 8] {
                for max_shared_slots in [1, 2] {
                    for allow_one_to_eight in [false, true] {
                        grid.push(PlannerConfig {
                            fdm_capacity,
                            tdm: TdmConfig {
                                theta,
                                max_shared_slots,
                                allow_one_to_eight,
                            },
                            ..base.clone()
                        });
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn plan_sweep_grid_runs_15_chains_and_recalls_57_per_chip() {
        for chip in [
            SurfaceCode::rotated(3).into_chip(),
            topology::square_grid(4, 4),
        ] {
            let ctx = fresh(&chip);
            for config in plan_sweep_grid(&PlannerConfig::default()) {
                plan_on(&chip, &ctx, &config).unwrap();
            }
            // 2 XY, 12 Z and 1 readout chain ran; the other 57 of the
            // 24 points' 72 chains were recalled.
            let want = ChainStats {
                hits: 57,
                misses: 15,
                chains: 15,
            };
            assert_eq!(ctx.chain_stats(), want, "{}", chip.name());
        }
    }

    #[test]
    fn plan_sweep_grid_matches_fresh_contexts_in_both_orders() {
        for chip in [topology::square_grid(5, 5), topology::heavy_hexagon(2, 3)] {
            for partition in [None, Some(PartitionConfig::default())] {
                for refine in [None, Some(RefineConfig::default())] {
                    let grid = plan_sweep_grid(&PlannerConfig {
                        partition,
                        refine,
                        ..Default::default()
                    });
                    let want: Vec<_> = grid
                        .iter()
                        .map(|config| plan_on(&chip, &fresh(&chip), config))
                        .collect();
                    let ctx = fresh(&chip);
                    let forward = (0..grid.len()).collect::<Vec<_>>();
                    let reverse = (0..grid.len()).rev().collect::<Vec<_>>();
                    for (order, points) in [("forward", forward), ("reverse", reverse)] {
                        for i in points {
                            let label = format!(
                                "{}, partitioned={}, refine={}, {order} point {i}",
                                chip.name(),
                                partition.is_some(),
                                refine.is_some()
                            );
                            let got = plan_on(&chip, &ctx, &grid[i]);
                            assert_same(&chip, &got, &want[i], &label);
                        }
                    }
                    // Each plan looks up its partition, if it has one,
                    // and its XY, Z and readout chains, and each distinct
                    // chain ran once.
                    let plan = want[0].as_ref().unwrap();
                    let lookups = plan.partition().map_or(3, |p| 3 + p.len()) as u64;
                    let stats = ctx.chain_stats();
                    assert_eq!(stats.hits + stats.misses, 2 * 24 * lookups);
                    assert_eq!(stats.misses, stats.chains as u64);
                }
            }
        }
    }

    #[test]
    fn a_partition_runs_once_per_context_and_config() {
        let chip = topology::square_grid(6, 6);
        let ctx = fresh(&chip);
        let mut lookups = 0;
        for partition in [
            PartitionConfig::default(),
            PartitionConfig {
                seed: 7,
                ..Default::default()
            },
        ] {
            let grid = plan_sweep_grid(&PlannerConfig {
                partition: Some(partition),
                ..Default::default()
            });
            for config in &grid {
                let plan = assert_fresh(&chip, &ctx, config, &format!("{partition:?}"));
                lookups += 3 + plan.unwrap().partition().unwrap().len() as u64;
            }
        }
        // Every key missed once, so each partition ran once for its 24
        // plans.
        let stats = ctx.chain_stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert_eq!(stats.misses, stats.chains as u64);
        assert_eq!(ctx.chains().partitions(), 2);
        ctx.clear_chains();
        assert_eq!(ctx.chains().partitions(), 0, "cleared with the chains");
    }

    #[test]
    fn every_field_a_chain_reads_is_in_its_key() {
        let chip = topology::square_grid(6, 6);
        let base = PlannerConfig {
            partition: Some(PartitionConfig::default()),
            refine: Some(RefineConfig::default()),
            tdm: TdmConfig {
                max_shared_slots: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let partition = |p: PartitionConfig| PlannerConfig {
            partition: Some(p),
            ..base.clone()
        };
        let freq = |f: FreqConfig| PlannerConfig {
            freq: f,
            ..base.clone()
        };
        let readout = |f: FreqConfig| PlannerConfig {
            readout_freq: f,
            ..base.clone()
        };
        let tdm = |t: TdmConfig| PlannerConfig {
            tdm: t,
            ..base.clone()
        };
        let (xy_band, ro_band) = (base.freq, base.readout_freq);
        let variants = [
            (
                "no partition",
                PlannerConfig {
                    partition: None,
                    ..base.clone()
                },
            ),
            (
                "partition.num_regions",
                partition(PartitionConfig {
                    num_regions: 3,
                    ..Default::default()
                }),
            ),
            (
                "partition.seed",
                partition(PartitionConfig {
                    seed: 7,
                    ..Default::default()
                }),
            ),
            (
                "partition.max_sweeps",
                partition(PartitionConfig {
                    max_sweeps: 0,
                    ..Default::default()
                }),
            ),
            (
                "fdm_capacity",
                PlannerConfig {
                    fdm_capacity: 4,
                    ..base.clone()
                },
            ),
            (
                "freq.band_ghz low",
                freq(FreqConfig {
                    band_ghz: (4.5, 7.0),
                    ..xy_band
                }),
            ),
            (
                "freq.band_ghz high",
                freq(FreqConfig {
                    band_ghz: (4.0, 6.0),
                    ..xy_band
                }),
            ),
            (
                "freq.cell_mhz",
                freq(FreqConfig {
                    cell_mhz: 20.0,
                    ..xy_band
                }),
            ),
            (
                "freq.swap_passes",
                freq(FreqConfig {
                    swap_passes: 0,
                    ..xy_band
                }),
            ),
            (
                "freq.tuning_range_ghz",
                freq(FreqConfig {
                    tuning_range_ghz: Some(0.05),
                    ..xy_band
                }),
            ),
            (
                "tdm.theta",
                tdm(TdmConfig {
                    theta: 2.0,
                    ..base.tdm
                }),
            ),
            (
                "tdm.max_shared_slots",
                tdm(TdmConfig {
                    max_shared_slots: 0,
                    ..base.tdm
                }),
            ),
            (
                "tdm.allow_one_to_eight",
                tdm(TdmConfig {
                    allow_one_to_eight: true,
                    ..base.tdm
                }),
            ),
            (
                "no refine",
                PlannerConfig {
                    refine: None,
                    ..base.clone()
                },
            ),
            (
                "refine.passes",
                PlannerConfig {
                    refine: Some(RefineConfig { passes: 0 }),
                    ..base.clone()
                },
            ),
            (
                "readout_capacity",
                PlannerConfig {
                    readout_capacity: 6,
                    ..base.clone()
                },
            ),
            (
                "readout_freq.band_ghz low",
                readout(FreqConfig {
                    band_ghz: (7.2, 8.0),
                    ..ro_band
                }),
            ),
            (
                "readout_freq.band_ghz high",
                readout(FreqConfig {
                    band_ghz: (7.0, 7.8),
                    ..ro_band
                }),
            ),
            (
                "readout_freq.cell_mhz",
                readout(FreqConfig {
                    cell_mhz: 40.0,
                    ..ro_band
                }),
            ),
            (
                "readout_freq.swap_passes",
                readout(FreqConfig {
                    swap_passes: 0,
                    ..ro_band
                }),
            ),
            (
                "readout_freq.tuning_range_ghz",
                readout(FreqConfig {
                    tuning_range_ghz: Some(0.05),
                    ..ro_band
                }),
            ),
        ];
        let ctx = fresh(&chip);
        let warmed = assert_fresh(&chip, &ctx, &base, "base");
        let mut unmoved = Vec::new();
        for (label, config) in &variants {
            // Re-warm with the base config, then change one field.
            plan_on(&chip, &ctx, &base).unwrap();
            if assert_fresh(&chip, &ctx, config, label) == warmed {
                unmoved.push(label);
            }
        }
        assert!(
            unmoved.is_empty(),
            "these changes must move the plan: {unmoved:?}"
        );

        // Under a tuning range a band also reads each qubit's base
        // frequency, which the context's fingerprint does not cover.
        let tuned = freq(FreqConfig {
            tuning_range_ghz: Some(0.3),
            ..xy_band
        });
        let bases: Vec<f64> = chip.qubits().map(|q| q.base_frequency_ghz()).collect();
        let mut builder = ChipBuilder::new("retuned", chip.kind());
        for (q, &base) in chip.qubits().zip(bases.iter().rev()) {
            builder = builder.qubit_with_frequency(q.position(), base);
        }
        for c in chip.couplers() {
            let (a, b) = c.endpoints();
            builder = builder.coupler(a, b);
        }
        let retuned = builder.build().unwrap();
        assert!(!ctx.is_stale(&retuned));
        let before = plan_on(&chip, &ctx, &tuned).unwrap();
        let after = assert_fresh(&retuned, &ctx, &tuned, "base frequencies").unwrap();
        assert_ne!(after, before, "base frequencies must move the plan");
    }

    #[test]
    fn activity_profiles_and_local_zz_models_bypass_the_z_memo() {
        let chip = topology::heavy_hexagon(2, 3);
        let config = PlannerConfig {
            refine: Some(RefineConfig::default()),
            tdm: TdmConfig {
                max_shared_slots: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let profile = |mask: fn(usize) -> u32| -> ActivityProfile {
            chip.coupler_ids()
                .map(|c| (DeviceId::Coupler(c), mask(c.index())))
                .collect()
        };
        let profiles = [profile(|_| 0), profile(|c| 1 << (c % 3))];
        let with_activity = |ctx: &PlanContext, activity: &ActivityProfile| {
            YoutiaoPlanner::new(&chip)
                .with_config(config.clone())
                .with_activity(activity)
                .with_context(ctx)
                .plan()
        };

        let ctx = fresh(&chip);
        let brickwork = plan_on(&chip, &ctx, &config).unwrap();
        let mut z_lines = vec![brickwork.tdm_groups().to_vec()];
        for (i, activity) in profiles.iter().enumerate() {
            let warm = with_activity(&ctx, activity);
            let label = format!("profile {i}");
            assert_same(
                &chip,
                &warm,
                &with_activity(&fresh(&chip), activity),
                &label,
            );
            z_lines.push(warm.unwrap().tdm_groups().to_vec());
        }
        for (i, groups) in z_lines.iter().enumerate().skip(1) {
            assert!(
                !z_lines[..i].contains(groups),
                "profile {} must move the Z lines",
                i - 1
            );
        }
        // Profiled plans looked up only their XY and readout chains and
        // stored no Z chain: the brickwork plan still recalls its own.
        let stats = ctx.chain_stats();
        assert_eq!((stats.hits, stats.misses, stats.chains), (4, 3, 3));
        assert_eq!(plan_on(&chip, &ctx, &config).unwrap(), brickwork);

        let zz = zz_model(&chip);
        let with_zz = |ctx: &PlanContext| {
            YoutiaoPlanner::new(&chip)
                .with_config(config.clone())
                .with_zz_model(&zz)
                .with_context(ctx)
                .plan()
        };
        let warm = with_zz(&ctx);
        assert_same(&chip, &warm, &with_zz(&fresh(&chip)), "local ZZ model");
        assert_ne!(warm.unwrap().tdm_groups(), brickwork.tdm_groups());
        assert_eq!(plan_on(&chip, &ctx, &config).unwrap(), brickwork);
    }

    #[test]
    fn a_failed_band_is_not_kept() {
        // The XY band is degenerate: its chain fails and is planned
        // again, with the same error and events, while the Z and
        // readout chains of the failed plan are kept.
        let chip = topology::square_grid(4, 4);
        let config = PlannerConfig {
            freq: FreqConfig {
                band_ghz: (5.0, 5.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let ctx = fresh(&chip);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut names = Vec::new();
            let err = YoutiaoPlanner::new(&chip)
                .with_config(config.clone())
                .with_context(&ctx)
                .plan_with_hook(&mut |name, _| names.push(name))
                .unwrap_err();
            runs.push((err, names));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(
            runs[0].0,
            PlanError::InvalidConfig("frequency band or cell size")
        );
        let want = ChainStats {
            hits: 2,
            misses: 4,
            chains: 2,
        };
        assert_eq!(ctx.chain_stats(), want);
    }

    #[test]
    fn a_full_memo_stops_growing_and_plans_stay_exact() {
        let chip = topology::square_grid(3, 3);
        let ctx = fresh(&chip);
        let at = |theta: f64| PlannerConfig {
            tdm: TdmConfig {
                theta,
                ..Default::default()
            },
            ..Default::default()
        };
        let thetas: Vec<f64> = (0..CHAIN_MEMO_CAP + 16).map(|i| 0.25 * i as f64).collect();
        for &theta in &thetas {
            assert_fresh(&chip, &ctx, &at(theta), &format!("theta {theta}")).unwrap();
            assert!(ctx.chain_stats().chains <= CHAIN_MEMO_CAP);
        }
        // The XY and readout chains ran once; each θ's Z chain ran once.
        let planned = thetas.len() as u64;
        let stats = ctx.chain_stats();
        assert_eq!(stats.chains, CHAIN_MEMO_CAP, "the memo filled up");
        assert_eq!((stats.hits, stats.misses), (2 * (planned - 1), 2 + planned));

        // A θ the full memo did not keep runs again; one it kept does not.
        let last = thetas[thetas.len() - 1];
        assert_fresh(&chip, &ctx, &at(last), "last theta again").unwrap();
        assert_eq!(ctx.chain_stats().misses, stats.misses + 1);
        assert_fresh(&chip, &ctx, &at(thetas[0]), "first theta again").unwrap();
        let again = ctx.chain_stats();
        assert_eq!(again.misses, stats.misses + 1);
        assert_eq!(again.hits, stats.hits + 2 + 3);
        assert_eq!(again.chains, CHAIN_MEMO_CAP);
    }

    /// `PlanContext`'s `PartialEq` ignores warm state, so comparing a
    /// patched context with a fresh one cannot catch chains that
    /// outlive a change of matrices: plan through both instead.
    #[test]
    fn a_crosstalk_delta_never_serves_stale_chains() {
        let chip = topology::square_grid(5, 5);
        let config = PlannerConfig {
            refine: Some(RefineConfig::default()),
            ..Default::default()
        };
        let mut ctx = fresh(&chip);
        let before = plan_on(&chip, &ctx, &config).unwrap();
        let mut drifted = ctx.crosstalk().clone();
        for (a, b, x) in ctx.crosstalk().iter_pairs() {
            let factor = 1 + (a.index() * 7 + b.index() * 3) % 5;
            drifted.set(a, b, x * factor as f64);
        }
        let dirty: Vec<QubitId> = chip.qubit_ids().collect();
        ctx.apply_crosstalk_delta(&chip, drifted.clone(), &dirty)
            .unwrap();
        assert_eq!(ctx.chain_stats().chains, 0, "the delta emptied the memo");
        let patched = PlanContext::from_matrix(&chip, EquivalentWeights::balanced(), drifted);
        let after = plan_on(&chip, &ctx, &config);
        assert_same(&chip, &after, &plan_on(&chip, &patched, &config), "delta");
        let after = after.unwrap();
        assert_ne!(after.tdm_groups(), before.tdm_groups(), "Z lines must move");
        assert_ne!(
            after.frequency_plan(),
            before.frequency_plan(),
            "XY band must move"
        );
    }

    #[test]
    fn a_zz_model_never_serves_stale_chains() {
        let chip = topology::heavy_hexagon(2, 3);
        let config = PlannerConfig {
            refine: Some(RefineConfig::default()),
            ..Default::default()
        };
        let zz = zz_model(&chip);
        let ctx = fresh(&chip);
        let before = plan_on(&chip, &ctx, &config).unwrap();
        let ctx = ctx.with_zz_model(&chip, &zz);
        assert_eq!(ctx.chain_stats().chains, 0, "the ZZ model emptied the memo");
        let after = plan_on(&chip, &ctx, &config);
        let want = plan_on(&chip, &fresh(&chip).with_zz_model(&chip, &zz), &config);
        assert_same(&chip, &after, &want, "ZZ model");
        assert_ne!(after.unwrap().tdm_groups(), before.tdm_groups());
    }
}
