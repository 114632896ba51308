//! Synthetic crosstalk measurements.
//!
//! Substitutes for the paper's proprietary Xmon chip data (see DESIGN.md).
//! The generator reproduces the structure the fitting pipeline depends on:
//! crosstalk decays exponentially with a hidden blend of physical and
//! topological distance, carries multiplicative measurement noise, and
//! saturates at a detection floor.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::topological_row;
use youtiao_chip::{Chip, QubitId};

/// Which crosstalk mechanism a sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrosstalkKind {
    /// Spurious excitation probability of a spectator qubit while an XY
    /// drive is applied to the target (dimensionless probability).
    Xy,
    /// Frequency shift of a spectator qubit from always-on ZZ coupling,
    /// in MHz.
    Zz,
}

/// One crosstalk measurement between a qubit pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkSample {
    /// The driven (target) qubit.
    pub target: QubitId,
    /// The spectator qubit whose disturbance is measured.
    pub spectator: QubitId,
    /// Physical (Euclidean) distance between the pair, in millimetres.
    pub d_phy: f64,
    /// Multi-shortest-path topological distance (`n · l`, §4.1).
    pub d_top: f64,
    /// Measured crosstalk magnitude (probability for XY, MHz for ZZ).
    pub value: f64,
}

/// Parameters of the synthetic crosstalk generator.
///
/// The ground-truth law is
/// `value = amplitude · exp(−d_true / lambda) · (1 + noise·η) + floor`,
/// with `d_true = true_w_phy·d_phy + true_w_top·d_top` and `η` a standard
/// uniform deviate in `[−1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Crosstalk magnitude at zero distance.
    pub amplitude: f64,
    /// Exponential decay length in equivalent-distance units.
    pub lambda: f64,
    /// Relative multiplicative measurement noise (0.15 = ±15%).
    pub noise: f64,
    /// Detection floor added to every sample.
    pub floor: f64,
    /// Hidden ground-truth physical-distance weight.
    pub true_w_phy: f64,
    /// Hidden ground-truth topological-distance weight.
    pub true_w_top: f64,
    /// Cap on the topological metric so the exponential does not underflow
    /// on far multi-path pairs.
    pub d_top_cap: f64,
    /// Chip-to-chip fabrication variation: each synthesized chip draws
    /// its own amplitude (±jitter) and decay length (±jitter/2) factors,
    /// so models trained on different "similar" chips differ the way the
    /// paper's 6×6/8×8 devices do (Figure 12).
    pub chip_jitter: f64,
}

impl SynthConfig {
    /// Parameters calibrated for XY crosstalk: the amplitude is set so
    /// that unoptimized (frequency-colliding) FDM grouping lands at the
    /// paper's ≈4.5×10⁻⁴ per-gate error while noise-aware grouping keeps
    /// the 2×10⁻⁴ / 99.98% figure (Figure 13).
    pub fn xy() -> Self {
        SynthConfig {
            amplitude: 4.5e-4,
            lambda: 1.6,
            noise: 0.15,
            floor: 1e-8,
            true_w_phy: 0.6,
            true_w_top: 0.4,
            d_top_cap: 12.0,
            chip_jitter: 0.06,
        }
    }

    /// Parameters calibrated for ZZ crosstalk: sub-MHz shifts on adjacent
    /// pairs decaying fast with distance.
    pub fn zz() -> Self {
        SynthConfig {
            amplitude: 0.45,
            lambda: 1.1,
            noise: 0.2,
            floor: 1e-4,
            true_w_phy: 0.5,
            true_w_top: 0.5,
            d_top_cap: 12.0,
            chip_jitter: 0.06,
        }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::xy()
    }
}

/// Generates one crosstalk sample per ordered qubit pair of `chip`.
///
/// The generator is deterministic for a given `(chip, kind, config, seed)`
/// so experiments are reproducible. The `kind` only selects the default
/// interpretation recorded by callers; the law itself is fully controlled
/// by `config`.
///
/// # Example
///
/// ```
/// use youtiao_chip::topology;
/// use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
///
/// let chip = topology::square_grid(3, 3);
/// let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 42);
/// assert_eq!(samples.len(), 9 * 8); // ordered pairs
/// assert!(samples.iter().all(|s| s.value > 0.0));
/// ```
pub fn synthesize(
    chip: &Chip,
    kind: CrosstalkKind,
    config: &SynthConfig,
    seed: u64,
) -> Vec<CrosstalkSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ kind_tag(kind));
    // Chip-level fabrication variation, fixed for the whole chip.
    let amp_factor = 1.0 + config.chip_jitter * rng.gen_range(-1.0..=1.0);
    let lambda_factor = 1.0 + config.chip_jitter / 2.0 * rng.gen_range(-1.0..=1.0);
    // The physical/topological balance also drifts between chips, so a
    // transferred model groups slightly sub-optimally (Figure 12 (b)).
    let w_shift = config.chip_jitter * rng.gen_range(-1.0..=1.0);
    let chip_config = SynthConfig {
        amplitude: config.amplitude * amp_factor,
        lambda: config.lambda * lambda_factor,
        true_w_phy: (config.true_w_phy + w_shift).clamp(0.05, 0.95),
        true_w_top: (config.true_w_top - w_shift).clamp(0.05, 0.95),
        ..config.clone()
    };
    let config = &chip_config;
    let mut out = Vec::with_capacity(chip.num_qubits() * (chip.num_qubits() - 1));
    for target in chip.qubit_ids() {
        let row = topological_row(chip, target);
        for spectator in chip.qubit_ids() {
            if target == spectator {
                continue;
            }
            let d_phy = chip.physical_distance(target, spectator);
            let d_top = row[spectator.index()].map_or(f64::INFINITY, |d| d.value());
            let value = sample_value(config, d_phy, d_top, &mut rng);
            out.push(CrosstalkSample {
                target,
                spectator,
                d_phy,
                d_top,
                value,
            });
        }
    }
    out
}

/// Evaluates the noisy ground-truth law for a single pair.
fn sample_value(config: &SynthConfig, d_phy: f64, d_top: f64, rng: &mut impl Rng) -> f64 {
    let d_top = d_top.min(config.d_top_cap);
    let d_true = config.true_w_phy * d_phy + config.true_w_top * d_top;
    let eta: f64 = rng.gen_range(-1.0..=1.0);
    let clean = config.amplitude * (-d_true / config.lambda).exp();
    (clean * (1.0 + config.noise * eta) + config.floor).max(config.floor)
}

/// Returns the noiseless expected crosstalk for a pair under `config`.
///
/// Useful for tests and for constructing reference distributions.
pub fn expected_value(config: &SynthConfig, d_phy: f64, d_top: f64) -> f64 {
    let d_top = d_top.min(config.d_top_cap);
    let d_true = config.true_w_phy * d_phy + config.true_w_top * d_top;
    config.amplitude * (-d_true / config.lambda).exp() + config.floor
}

fn kind_tag(kind: CrosstalkKind) -> u64 {
    match kind {
        CrosstalkKind::Xy => 0x5941_0000,
        CrosstalkKind::Zz => 0x5A5A_0000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtiao_chip::topology;

    #[test]
    fn sample_count_is_ordered_pairs() {
        let chip = topology::square_grid(3, 3);
        let s = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
        assert_eq!(s.len(), 72);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let chip = topology::square_grid(3, 3);
        let a = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        let b = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let chip = topology::square_grid(3, 3);
        let a = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        let b = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 6);
        assert_ne!(a, b);
    }

    #[test]
    fn kinds_use_distinct_streams() {
        let chip = topology::square_grid(3, 3);
        let a = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 5);
        let b = synthesize(&chip, CrosstalkKind::Zz, &SynthConfig::xy(), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn crosstalk_decays_with_distance_on_average() {
        let chip = topology::square_grid(4, 4);
        let s = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 9);
        let near: Vec<f64> = s
            .iter()
            .filter(|x| x.d_top <= 1.0)
            .map(|x| x.value)
            .collect();
        let far: Vec<f64> = s
            .iter()
            .filter(|x| x.d_top >= 8.0)
            .map(|x| x.value)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&near) > 5.0 * mean(&far));
    }

    #[test]
    fn values_respect_floor() {
        let chip = topology::square_grid(4, 4);
        let cfg = SynthConfig::xy();
        let s = synthesize(&chip, CrosstalkKind::Xy, &cfg, 3);
        assert!(s.iter().all(|x| x.value >= cfg.floor));
    }

    #[test]
    fn expected_value_matches_decay() {
        let cfg = SynthConfig::xy();
        let near = expected_value(&cfg, 1.0, 1.0);
        let far = expected_value(&cfg, 3.0, 9.0);
        assert!(near > far);
        assert!((expected_value(&cfg, 0.0, 0.0) - cfg.amplitude - cfg.floor).abs() < 1e-12);
    }

    #[test]
    fn zz_config_has_mhz_scale() {
        let cfg = SynthConfig::zz();
        assert!(cfg.amplitude > 0.1 && cfg.amplitude < 1.0);
    }

    #[test]
    fn one_search_per_target_matches_per_pair_distances() {
        use youtiao_chip::distance::topological_distance;
        use youtiao_chip::{ChipBuilder, Position, TopologyKind};
        let disconnected = ChipBuilder::new("split", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .qubit(Position::new(1.0, 0.0))
            .qubit(Position::new(0.0, 1.0))
            .qubit(Position::new(5.0, 5.0))
            .qubit(Position::new(6.0, 5.0))
            .coupler(0u32.into(), 1u32.into())
            .coupler(0u32.into(), 2u32.into())
            .coupler(3u32.into(), 4u32.into())
            .build()
            .unwrap();
        // FNV-1a digests of the values the per-pair synthesizer drew.
        let cases = [
            (topology::square_grid(4, 4), 0x32b8_0f92_9b40_b293),
            (topology::heavy_hexagon(1, 2), 0xa930_d28c_6f18_3b9f),
            (disconnected, 0xa38b_0047_e827_66da),
        ];
        for (chip, pinned) in cases {
            let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
            let pairs: Vec<(QubitId, QubitId)> = chip
                .qubit_ids()
                .flat_map(|t| chip.qubit_ids().map(move |s| (t, s)))
                .filter(|(t, s)| t != s)
                .collect();
            assert_eq!(samples.len(), pairs.len());
            for (sample, &(target, spectator)) in samples.iter().zip(&pairs) {
                assert_eq!((sample.target, sample.spectator), (target, spectator));
                let d_top = topological_distance(&chip, target, spectator)
                    .map_or(f64::INFINITY, |d| d.value());
                assert_eq!(sample.d_top.to_bits(), d_top.to_bits());
            }
            let digest = samples.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, s| {
                (h ^ s.value.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!(digest, pinned, "{}", chip.name());
        }
    }

    #[test]
    fn d_top_is_capped_in_law() {
        let cfg = SynthConfig::xy();
        assert_eq!(
            expected_value(&cfg, 1.0, cfg.d_top_cap),
            expected_value(&cfg, 1.0, cfg.d_top_cap * 50.0)
        );
    }
}
