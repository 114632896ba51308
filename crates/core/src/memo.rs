//! The chain memo of a [`crate::PlanContext`].
//!
//! A plan is three kinds of independent chain (DESIGN.md §4j): the XY
//! chain (FDM grouping, then XY allocation), one Z chain per partition
//! region (TDM grouping, then refinement) and the readout chain
//! (feedline chunking, then readout allocation). Besides the context's
//! matrices and kernels, each chain reads only a few planner knobs, so
//! a sweep over one context repeats most chains: of plan-sweep's 72
//! chain runs per chip only 12 are distinct. [`ChainMemo`] keeps each
//! successful chain's output under a [`ChainKey`] that holds exactly
//! the inputs the chain reads besides the context, floats by their
//! bits; a Z chain's key holds what TDM grouping reads of θ, the 1:8
//! switch and the window budget ([`ZKey`]), not their raw values. It
//! also keeps each partition a partitioned plan ran, under its
//! [`PartitionConfig`]: `partition_chip` reads the chip's qubits and
//! neighbours, which the context's coupler check pins, and the context's
//! equivalent matrix besides. Outputs are held behind [`Arc`]s, so a
//! recall shares them with the plan it builds instead of copying them.
//!
//! Like the [`crate::ScratchPool`], the memo is warm state, not
//! planning state: it compares equal to every other memo, a clone
//! starts empty, and anything that changes the context's matrices
//! empties it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use youtiao_chip::{Chip, DeviceId, QubitId};

use crate::fdm::FdmLine;
use crate::freq::{FreqConfig, FrequencyPlan};
use crate::kernels::PairKernels;
use crate::partition::{Partition, PartitionConfig};
use crate::refine::RefineConfig;
use crate::tdm::{DemuxLevel, TdmConfig, TdmGroup};

/// Most chains one context's memo keeps, a partition counted as one.
/// Plan-sweep's grid has 12 distinct chains per chip, and 67 on a
/// 24×24 chip split into 9 regions (`partition_target` 64: 63 Z
/// chains, 2 XY, 1 readout and the partition), so 128 holds every
/// chain of such sweeps. The bound matters because the daemon's repair
/// store keeps up to 256 contexts for a whole session: the largest
/// chain of an unpartitioned 24×24 chip (838 TDM groups) takes about
/// 56 kB, so a full memo of them stays near 7 MB, the size of the
/// context's own matrices. Once the memo is full, later chains are
/// planned but not kept, the repair store's policy.
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
        // The context's coupler check does not cover the chip's base
        // frequencies, and only a tuning range reads them.
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
    /// One region's qubits and what its Z chain reads of the planner's
    /// TDM and refinement configs.
    Z(Vec<QubitId>, ZKey),
    /// The readout capacity and band.
    Readout(usize, BandKey),
}

/// What one region's TDM grouping and refinement read of a
/// [`TdmConfig`] and a [`RefineConfig`], given the region's devices
/// and their activity masks.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct ZKey {
    /// The sizes of the low pool (parallelism index below θ) and the
    /// high pool (at or above θ). Grouping ranks the region's devices
    /// by index and the low pool is a prefix of that ranking, so the
    /// sizes fix both pools; a NaN θ leaves both empty.
    pools: [usize; 2],
    /// `allow_one_to_eight`, which sets the low pool's DEMUX level and
    /// so matters only when that pool has a device.
    one_to_eight: bool,
    /// Each pool's `max_shared_slots`, capped where it stops binding.
    budgets: [u32; 2],
    /// Refinement's passes and its `max_shared_slots`, read as is.
    refine: Option<(usize, u32)>,
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

    /// One region's Z chain key: the region's qubits and `devices`, its
    /// Z devices in grouping order, with `masks`, the activity masks
    /// grouping reads, indexed like `kernels`. The masks and the TDM
    /// matrix are not in the key: the planner keys Z chains only when
    /// both come from the context (the brickwork masks are a function
    /// of the chip's couplers, which the context pins).
    ///
    /// A group's first member shares no window, and each later one
    /// adds at most its mask's popcount, so a group of `m` members
    /// shares at most `(m − 1) × p` windows, `p` being the pool's
    /// largest popcount, and a candidate for it at most `m × p`. Since
    /// candidates are scored only while `m < capacity`, a
    /// `max_shared_slots` of `(capacity − 1) × p` or more never
    /// excludes one, and grouping reads the budget as that cap.
    pub(crate) fn z(
        region: &[QubitId],
        devices: &[DeviceId],
        kernels: &PairKernels,
        masks: &[u32],
        tdm: &TdmConfig,
        refine: Option<&RefineConfig>,
    ) -> Self {
        let TdmConfig {
            theta,
            max_shared_slots,
            allow_one_to_eight,
        } = *tdm;
        // Each pool's size and largest popcount.
        let mut pools = [(0usize, 0u32); 2];
        for &d in devices {
            let index = kernels.parallelism(d);
            let pool = if index < theta {
                &mut pools[0]
            } else if index >= theta {
                &mut pools[1]
            } else {
                continue;
            };
            pool.0 += 1;
            pool.1 = pool.1.max(masks[kernels.dense(d)].count_ones());
        }
        let budget = |(_, popcount): (usize, u32), level: DemuxLevel| {
            let windows = (level.channel_capacity() as u32 - 1) * popcount;
            max_shared_slots.min(windows)
        };
        ChainKey::Z(
            region.to_vec(),
            ZKey {
                pools: pools.map(|(size, _)| size),
                one_to_eight: allow_one_to_eight && pools[0].0 > 0,
                budgets: [
                    budget(pools[0], tdm.low_level()),
                    budget(pools[1], DemuxLevel::OneToTwo),
                ],
                refine: refine.map(|&RefineConfig { passes }| (passes, max_shared_slots)),
            },
        )
    }

    /// The readout chain's key.
    pub(crate) fn readout(chip: &Chip, readout_capacity: usize, freq: &FreqConfig) -> Self {
        ChainKey::Readout(readout_capacity, BandKey::new(chip, freq))
    }
}

/// A successful chain's output, or a partition, each part behind an
/// [`Arc`]: a recall shares the parts with the plan it builds, and a
/// plan copies a part only to change it.
#[derive(Clone)]
pub(crate) enum ChainOutput {
    /// The chip's regions.
    Partition(Arc<Partition>),
    /// The FDM lines and the XY band.
    Xy(Arc<Vec<FdmLine>>, Arc<FrequencyPlan>),
    /// One region's TDM groups.
    Z(Arc<Vec<TdmGroup>>),
    /// The readout feedlines and their band.
    Readout(Arc<Vec<Vec<QubitId>>>, Arc<FrequencyPlan>),
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
    chains: Mutex<HashMap<ChainKey, ChainOutput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ChainMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<ChainKey, ChainOutput>> {
        // Every update is one insert or a clear, so a map whose lock a
        // panicking thread held is still whole.
        self.chains.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The chain stored under `key`, counted as a hit or a miss.
    pub(crate) fn get(&self, key: &ChainKey) -> Option<ChainOutput> {
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
            chains.entry(key).or_insert(output);
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
    fn plan_sweep_grid_runs_12_chains_and_recalls_60_per_chip() {
        for chip in [
            SurfaceCode::rotated(3).into_chip(),
            topology::square_grid(4, 4),
        ] {
            let ctx = fresh(&chip);
            for config in plan_sweep_grid(&PlannerConfig::default()) {
                plan_on(&chip, &ctx, &config).unwrap();
            }
            // 2 XY, 9 Z and 1 readout chain ran; the other 60 of the 24
            // points' 72 chains were recalled. At θ = 2 no device is in
            // the low pool, so the 1:8 switch is not read, and a 1:2
            // group shares at most one brickwork window, so budgets 1
            // and 2 group alike: θ = 2's four configurations are one Z
            // chain.
            let want = ChainStats {
                hits: 60,
                misses: 12,
                chains: 12,
            };
            assert_eq!(ctx.chain_stats(), want, "{}", chip.name());
        }
    }

    /// Configurations whose Z keys are equal group and refine alike,
    /// on seeded square, heavy-hex and surface chips, over the whole
    /// chip and a region of it: θ at, between and beyond the devices'
    /// distinct parallelism indices (and NaN), `max_shared_slots` 0–3
    /// and both 1:8 settings, with and without refinement, under the
    /// brickwork masks and under random masks of up to four slots.
    #[test]
    fn equal_z_keys_group_alike() {
        use crate::refine::refine_masked;
        use crate::scratch::Scratch;
        use crate::tdm::group_masked;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x2e7_4e75);
        let (mut configs, mut keys) = (0, 0);
        for case in 0..6 {
            let chip = match case % 3 {
                0 => topology::square_grid(rng.gen_range(2usize..6), rng.gen_range(2usize..6)),
                1 => topology::heavy_hexagon(rng.gen_range(1usize..3), rng.gen_range(1usize..3)),
                _ => SurfaceCode::rotated([3, 5][rng.gen_range(0usize..2)]).into_chip(),
            };
            let ctx = fresh(&chip);
            let kernels = ctx.kernels();
            let random: Vec<u32> = (0..kernels.num_devices())
                .map(|_| (0..rng.gen_range(0usize..4)).fold(0, |m, _| m | 1 << rng.gen_range(0..4)))
                .collect();
            let all: Vec<QubitId> = chip.qubit_ids().collect();
            let half = all[..all.len() / 2].to_vec();
            for region in [all, half] {
                let devices = crate::plan::z_devices(&chip, &region, &mut Scratch::default());
                let mut indices: Vec<f64> =
                    devices.iter().map(|&d| kernels.parallelism(d)).collect();
                indices.sort_by(f64::total_cmp);
                indices.dedup();
                let mut thetas = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
                thetas.extend(indices.iter().map(|&i| i - 1.0));
                thetas.extend(indices.windows(2).map(|w| (w[0] + w[1]) / 2.0));
                thetas.extend(&indices);
                for masks in [ctx.brickwork(), &random] {
                    for refine in [None, Some(RefineConfig::default())] {
                        let mut grouped = HashMap::new();
                        for &theta in &thetas {
                            for max_shared_slots in 0..=3 {
                                for allow_one_to_eight in [false, true] {
                                    let tdm = TdmConfig {
                                        theta,
                                        max_shared_slots,
                                        allow_one_to_eight,
                                    };
                                    let (mut groups, _) = group_masked(
                                        &ctx,
                                        &tdm,
                                        &devices,
                                        masks,
                                        &mut Scratch::default(),
                                    );
                                    if let Some(refine) = &refine {
                                        (groups, _) =
                                            refine_masked(&ctx, masks, &tdm, groups, refine);
                                    }
                                    let key = ChainKey::z(
                                        &region,
                                        &devices,
                                        kernels,
                                        masks,
                                        &tdm,
                                        refine.as_ref(),
                                    );
                                    let label = format!("{} {tdm:?} {refine:?}", chip.name());
                                    configs += 1;
                                    match grouped.entry(key) {
                                        std::collections::hash_map::Entry::Vacant(entry) => {
                                            entry.insert((groups, label));
                                        }
                                        std::collections::hash_map::Entry::Occupied(entry) => {
                                            let (first, first_label) = entry.get();
                                            assert_eq!(&groups, first, "{label} vs {first_label}");
                                        }
                                    }
                                }
                            }
                        }
                        keys += grouped.len();
                    }
                }
            }
        }
        // Most configurations share a key with another.
        assert!(
            2 * keys < configs,
            "{keys} keys for {configs} configurations"
        );
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
        // frequency, which the context's coupler check does not cover.
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
    fn activity_profiles_bypass_the_z_memo() {
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
        // Refinement reads `max_shared_slots` as it is, so each budget
        // below keys a Z chain of its own.
        let chip = topology::square_grid(3, 3);
        let ctx = fresh(&chip);
        let at = |max_shared_slots: u32| PlannerConfig {
            refine: Some(RefineConfig::default()),
            tdm: TdmConfig {
                max_shared_slots,
                ..Default::default()
            },
            ..Default::default()
        };
        let budgets: Vec<u32> = (0..CHAIN_MEMO_CAP as u32 + 16).collect();
        for &budget in &budgets {
            assert_fresh(&chip, &ctx, &at(budget), &format!("budget {budget}")).unwrap();
            assert!(ctx.chain_stats().chains <= CHAIN_MEMO_CAP);
        }
        // The XY and readout chains ran once; each budget's Z chain ran
        // once.
        let planned = budgets.len() as u64;
        let stats = ctx.chain_stats();
        assert_eq!(stats.chains, CHAIN_MEMO_CAP, "the memo filled up");
        assert_eq!((stats.hits, stats.misses), (2 * (planned - 1), 2 + planned));

        // A budget the full memo did not keep runs again; one it kept
        // does not.
        let last = budgets[budgets.len() - 1];
        assert_fresh(&chip, &ctx, &at(last), "last budget again").unwrap();
        assert_eq!(ctx.chain_stats().misses, stats.misses + 1);
        assert_fresh(&chip, &ctx, &at(budgets[0]), "first budget again").unwrap();
        let again = ctx.chain_stats();
        assert_eq!(again.misses, stats.misses + 1);
        assert_eq!(again.hits, stats.hits + 2 + 3);
        assert_eq!(again.chains, CHAIN_MEMO_CAP);
    }

    /// A recalled plan shares its bands with the memo: changing them
    /// through the `_mut` accessors copies them first, so the next
    /// recall still equals a fresh plan.
    #[test]
    fn a_changed_recall_leaves_the_memo_intact() {
        let chip = topology::square_grid(4, 4);
        let config = PlannerConfig::default();
        let want = plan_on(&chip, &fresh(&chip), &config);
        let ctx = fresh(&chip);
        plan_on(&chip, &ctx, &config).unwrap();
        let mut recalled = plan_on(&chip, &ctx, &config).unwrap();
        assert_eq!(ctx.chain_stats().hits, 3, "every chain was recalled");
        let xy = recalled.fdm_lines()[0].qubits().to_vec();
        recalled.frequency_plan_mut().swap_assignments(xy[0], xy[1]);
        let feedline = recalled.readout_lines()[0].clone();
        recalled
            .readout_frequency_plan_mut()
            .swap_assignments(feedline[0], feedline[1]);
        let want_plan = want.as_ref().unwrap();
        assert_ne!(recalled.frequency_plan(), want_plan.frequency_plan());
        assert_ne!(
            recalled.readout_frequency_plan(),
            want_plan.readout_frequency_plan()
        );
        assert_same(&chip, &plan_on(&chip, &ctx, &config), &want, "next recall");
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
