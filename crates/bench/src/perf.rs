//! Planner micro-benchmark harness (`youtiao bench-plan`).
//!
//! Times the planner's hot loops — kernels build, TDM grouping (also
//! at θ = 8 with 1:8 DEMUXes, where walks choose most members) and
//! refinement on the size's context, whose sorted rows stay warm after
//! the first iteration, frequency allocation on both bands — plus the
//! full context-backed plan (its chain memo emptied before each timed
//! plan, so every chain runs) and a plan whose chains all hit the memo,
//! across square-grid chip sizes and any extra [`Layout`]s (rotated
//! surface codes, heavy-hex patches), and summarizes each stage as
//! median / p10 / p90 over repeated iterations. The result serializes
//! to `BENCH_plan.json` so the repo carries a perf trajectory: every
//! PR can re-run the harness and compare against the committed
//! baseline.
//!
//! For every size the harness also asserts that the parallel
//! partitioned plan is byte-identical to its serial twin and that a
//! warmed-up plan loop performs zero fresh scratch allocations; at
//! 16×16 (with ≥8 plan threads on a host that has the cores) it
//! asserts the ≥3× parallel-planning floor. The kernelized passes'
//! differentials against the naive passes are `youtiao-core`'s own
//! tests.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use youtiao_chip::surface::SurfaceCode;
use youtiao_chip::{topology, Chip, DeviceId, QubitId};
use youtiao_core::freq::allocate_frequencies_in;
use youtiao_core::kernels::PairKernels;
use youtiao_core::refine::{refine_tdm_groups, RefineConfig};
use youtiao_core::scratch::{self, Scratch};
use youtiao_core::tdm::{brickwork_activity, group_tdm, TdmConfig};
use youtiao_core::{
    group_fdm, FdmLine, ParallelExec, PartitionConfig, PlanContext, PlannerConfig, YoutiaoPlanner,
};

/// Schema tag written into the report so downstream tooling can detect
/// format changes. v2 added the frequency-allocation stages
/// (`freq_kernels_build`, `freq_alloc_*`, `readout_*`), the
/// `speedup_freq` / `speedup_readout` ratios, and the
/// `freq_kernel_builds_during_plans` probe. v3 adds the planner's own
/// `plan.total` hook stage, the partitioned serial-vs-parallel plan
/// rows (`plan_partitioned_serial`, `plan_partitioned_parallel`), the
/// per-size `threads` / `speedup_parallel` fields, the scratch-arena
/// reuse probes (`scratch_fresh`, `scratch_reused`), and a 24×24 grid
/// in the default size list. v4 drops the naive reference rows
/// (`grouping_naive`, `refine_naive`, `freq_alloc_naive`,
/// `readout_naive`), the `speedup_*` ratios against them and the hook's
/// `plan.total`, which repeated `plan_total`. v5 drops the
/// `freq_kernels_build` stage and the `freq_kernel_builds_during_plans`
/// probe: allocation reads the crosstalk matrix's rows, so there are no
/// frequency kernels to build or count.
pub const SCHEMA: &str = "youtiao-bench-plan/v5";

/// Minimum acceptable serial/parallel median ratio for the
/// partitioned plan at 16×16 — asserted whenever a `grid:16` layout is
/// benchmarked with ≥8 plan threads *and* the host actually has that
/// many cores (a 1-core container can execute the parallel levers but
/// cannot express a speedup, so the floor is skipped there rather than
/// reporting a meaningless failure).
pub const PARALLEL_SPEEDUP_FLOOR: f64 = 3.0;

/// `run` mutates process-global probes (kernel build counts, scratch
/// fresh/reuse counters) and asserts on their deltas, so concurrent
/// harness runs in one process (parallel `cargo test` threads) would
/// read each other's allocations. One run at a time keeps every probe
/// delta attributable.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// A benchmark chip layout: the square grids the harness has always
/// timed, plus the paper's error-corrected fabrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// An n×n square grid (`grid:N`).
    Grid(usize),
    /// A rotated surface code of odd distance d ≥ 3 (`surface:D`).
    Surface(usize),
    /// A heavy-hexagon patch of R×C hex cells (`heavy-hex:RxC`).
    HeavyHex(usize, usize),
}

impl Layout {
    /// The report label — square grids keep their historical `"NxN"`
    /// form so BENCH_plan.json trajectories stay comparable.
    pub fn label(&self) -> String {
        match self {
            Layout::Grid(n) => format!("{n}x{n}"),
            Layout::Surface(d) => format!("surface-d{d}"),
            Layout::HeavyHex(r, c) => format!("heavy-hex-{r}x{c}"),
        }
    }

    /// Builds the chip.
    pub fn build(&self) -> Chip {
        match self {
            Layout::Grid(n) => topology::square_grid(*n, *n),
            Layout::Surface(d) => SurfaceCode::rotated(*d).into_chip(),
            Layout::HeavyHex(r, c) => topology::heavy_hexagon(*r, *c),
        }
    }

    /// Parses one CLI layout spec: `grid:N`, `surface:D` (odd, ≥ 3),
    /// or `heavy-hex:RxC`.
    ///
    /// # Errors
    ///
    /// A description of the malformed spec.
    pub fn parse(spec: &str) -> Result<Layout, String> {
        let spec = spec.trim();
        let (kind, arg) = spec
            .split_once(':')
            .ok_or_else(|| format!("`{spec}`: expected kind:arg (e.g. grid:12)"))?;
        let num = |s: &str, what: &str| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("`{spec}`: {what} must be a positive integer"))
        };
        match kind {
            "grid" => {
                let n = num(arg, "grid side")?;
                if n < 2 {
                    return Err(format!("`{spec}`: grid side must be >= 2"));
                }
                Ok(Layout::Grid(n))
            }
            "surface" => {
                let d = num(arg, "code distance")?;
                if d < 3 || d % 2 == 0 {
                    return Err(format!("`{spec}`: code distance must be odd and >= 3"));
                }
                Ok(Layout::Surface(d))
            }
            "heavy-hex" => {
                let (r, c) = arg
                    .split_once('x')
                    .ok_or_else(|| format!("`{spec}`: expected heavy-hex:RxC"))?;
                Ok(Layout::HeavyHex(num(r, "rows")?, num(c, "cols")?))
            }
            other => Err(format!("`{spec}`: unknown layout kind `{other}`")),
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfConfig {
    /// Square-grid side lengths to benchmark (`n` → an n×n chip).
    pub sizes: Vec<usize>,
    /// Extra layouts timed after the square grids (surface codes,
    /// heavy-hex patches).
    pub layouts: Vec<Layout>,
    /// Timed iterations per stage per size.
    pub iterations: usize,
    /// Intra-plan threads for the partitioned parallel plan row
    /// (`plan_partitioned_parallel`); the serial row always runs with 1.
    pub plan_threads: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            sizes: vec![6, 8, 10, 12, 16, 24],
            layouts: Vec::new(),
            iterations: 9,
            plan_threads: 8,
        }
    }
}

/// Order statistics of one timed stage, in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageStats {
    /// Median wall time (µs).
    pub median_us: f64,
    /// 10th-percentile wall time (µs).
    pub p10_us: f64,
    /// 90th-percentile wall time (µs).
    pub p90_us: f64,
}

impl StageStats {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "stage needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let i = (q * (samples.len() - 1) as f64).round() as usize;
            samples[i]
        };
        StageStats {
            median_us: at(0.5),
            p10_us: at(0.1),
            p90_us: at(0.9),
        }
    }
}

/// Per-chip-size benchmark results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SizeReport {
    /// Chip label, e.g. `"12x12"`.
    pub label: String,
    /// Qubit count.
    pub qubits: usize,
    /// Z-controlled device count (qubits + couplers).
    pub devices: usize,
    /// Timed iterations behind each stat.
    pub iterations: usize,
    /// Per-stage order statistics, keyed by stage name
    /// (`kernels_build`, `grouping_kernels`, `grouping_deep` (θ = 8
    /// with 1:8 DEMUXes), `refine_kernels`, `freq_alloc_kernels`,
    /// `readout_kernels`, `plan_total`, the planner's hook sub-stages
    /// prefixed `plan.`, and `plan_memo_hit`, a plan whose chains all
    /// come from the context's chain memo).
    pub stages: BTreeMap<String, StageStats>,
    /// `PairKernels` builds observed while the timed plans ran; must be
    /// 0 — every plan reuses the shared context's kernels.
    pub kernel_builds_during_plans: u64,
    /// Fresh scratch-buffer allocations observed during the timed plan
    /// loop (after one warmup plan); must be 0 — every hot-loop buffer
    /// comes back out of the context's arenas.
    pub scratch_fresh: u64,
    /// Scratch buffers recycled from the arenas during the timed plan
    /// loop — the positive counterpart of [`scratch_fresh`], proving
    /// the arenas are actually in the loop.
    ///
    /// [`scratch_fresh`]: SizeReport::scratch_fresh
    pub scratch_reused: u64,
    /// Intra-plan threads behind `plan_partitioned_parallel`.
    pub threads: usize,
    /// Serial / parallel median ratio for the partitioned plan
    /// (≥ [`PARALLEL_SPEEDUP_FLOOR`] at 16×16 when the host has the
    /// cores; ≈1.0 on a 1-core host).
    pub speedup_parallel: f64,
}

/// The full harness report (`BENCH_plan.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PerfReport {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// Timed iterations per stage per size.
    pub iterations: usize,
    /// `PlanContext` builds during the run (probe delta): one per size.
    pub contexts_built: u64,
    /// `PairKernels` builds during the run (probe delta): the timed
    /// kernels-build loop plus one per context, never per plan point.
    pub kernels_built: u64,
    /// Per-size results, in the order requested.
    pub sizes: Vec<SizeReport>,
}

impl PerfReport {
    /// Renders a compact, human-readable table of the report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench-plan: {} iterations per stage; {} contexts / {} kernel builds\n",
            self.iterations, self.contexts_built, self.kernels_built
        ));
        s.push_str(&format!(
            "{:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
            "chip", "devices", "group µs", "refine µs", "freq µs", "ro µs", "plan µs", "spd-par"
        ));
        for size in &self.sizes {
            let med = |k: &str| size.stages.get(k).map_or(f64::NAN, |s| s.median_us);
            s.push_str(&format!(
                "{:<8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x\n",
                size.label,
                size.devices,
                med("grouping_kernels"),
                med("refine_kernels"),
                med("freq_alloc_kernels"),
                med("readout_kernels"),
                med("plan_total"),
                size.speedup_parallel,
            ));
        }
        s
    }
}

/// Times one closure `iterations` times, returning the stats and the
/// last iteration's output.
pub(crate) fn timed<T>(iterations: usize, f: impl FnMut() -> T) -> (StageStats, T) {
    timed_each(iterations, || {}, f)
}

/// [`timed`], running `before` ahead of each iteration, outside the
/// timed span.
fn timed_each<T>(
    iterations: usize,
    mut before: impl FnMut(),
    mut f: impl FnMut() -> T,
) -> (StageStats, T) {
    assert!(iterations > 0, "iterations must be positive");
    let mut samples = Vec::with_capacity(iterations);
    let mut last = None;
    for _ in 0..iterations {
        before();
        let started = Instant::now();
        let out = f();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    (
        StageStats::from_samples(samples),
        last.expect("ran at least once"),
    )
}

/// Runs the harness.
///
/// # Panics
///
/// Panics if `config.sizes` and `config.layouts` are both empty,
/// `config.iterations` is 0, a parallel partitioned plan differs from
/// its serial twin, a context-backed plan allocates a fresh scratch
/// buffer after warmup, or a `grid:16` layout misses the
/// [`PARALLEL_SPEEDUP_FLOOR`] on a host with the cores for it.
pub fn run(config: &PerfConfig) -> PerfReport {
    let _probes = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let layouts: Vec<Layout> = config
        .sizes
        .iter()
        .map(|&n| Layout::Grid(n))
        .chain(config.layouts.iter().cloned())
        .collect();
    assert!(!layouts.is_empty(), "need at least one chip size or layout");
    let iters = config.iterations;
    let contexts_before = PlanContext::build_count();
    let kernels_before = PairKernels::build_count();

    let mut sizes = Vec::with_capacity(layouts.len());
    for layout in &layouts {
        let label = layout.label();
        let chip = layout.build();
        let weights = PlannerConfig::default().weights;
        // Every pass below runs on this one context: the timed
        // groupings leave the crosstalk rows their walks sort in it, so
        // every grouping after the first iteration, and every plan,
        // walks warm rows.
        let ctx = PlanContext::build(&chip, None, weights);
        let activity = brickwork_activity(&chip);
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let tdm = TdmConfig::default();
        let refine = RefineConfig::default();
        let mut stages = BTreeMap::new();

        let (stats, _) = timed(iters, || PairKernels::build(&chip));
        stages.insert("kernels_build".to_string(), stats);

        let (stats, groups) = timed(iters, || group_tdm(&ctx, &tdm, &devices, &activity));
        stages.insert("grouping_kernels".to_string(), stats);

        // The deep level: at θ = 8 every device of a square grid sits
        // below the threshold, on 1:8 DEMUXes, where walks over sorted
        // crosstalk rows choose most members.
        let deep = TdmConfig {
            theta: 8.0,
            max_shared_slots: 1,
            allow_one_to_eight: true,
        };
        let (stats, _) = timed(iters, || group_tdm(&ctx, &deep, &devices, &activity));
        stages.insert("grouping_deep".to_string(), stats);

        let (stats, _) = timed(iters, || {
            refine_tdm_groups(&ctx, &activity, &tdm, groups.clone(), &refine)
        });
        stages.insert("refine_kernels".to_string(), stats);

        // Frequency allocation on the same lines and bands the planner
        // allocates: FDM lines in the qubit band, capacity-chunked
        // feedlines in the readout band.
        let plan_defaults = PlannerConfig::default();
        let fdm_lines = group_fdm(&chip, ctx.equivalent(), plan_defaults.fdm_capacity);
        let qubits: Vec<QubitId> = chip.qubit_ids().collect();
        let ro_lines: Vec<FdmLine> = qubits
            .chunks(plan_defaults.readout_capacity)
            .map(|c| FdmLine::new(c.to_vec()))
            .collect();

        let allocate = |lines: &[FdmLine], config| {
            allocate_frequencies_in(
                &chip,
                lines,
                ctx.crosstalk(),
                config,
                &mut |_, _| {},
                &mut Scratch::default(),
                &ParallelExec::serial(),
            )
        };
        let (stats, _) = timed(iters, || {
            allocate(&fdm_lines, &plan_defaults.freq).expect("benchmark freq alloc must succeed")
        });
        stages.insert("freq_alloc_kernels".to_string(), stats);

        let (stats, _) = timed(iters, || {
            allocate(&ro_lines, &plan_defaults.readout_freq)
                .expect("benchmark readout alloc must succeed")
        });
        stages.insert("readout_kernels".to_string(), stats);

        // Full plan against the shared context, collecting the
        // planner's own sub-stage timings (`plan_total` times the whole
        // call from outside). The kernels probe must not move: every
        // plan reuses the context's tables.
        let plan_cfg = PlannerConfig {
            refine: Some(refine),
            ..Default::default()
        };
        let plan_kernels_before = PairKernels::build_count();
        // One warmup plan populates the context's scratch arenas; the
        // timed loop after it must then run allocation-free (the
        // build-probe pattern, applied to buffers instead of matrices).
        // Each timed plan starts from an empty chain memo, so every
        // chain runs; emptying it keeps the arenas warm, where a fresh
        // clone of the context would drop them.
        YoutiaoPlanner::new(&chip)
            .with_config(plan_cfg.clone())
            .with_context(&ctx)
            .plan()
            .expect("benchmark warmup plan must succeed");
        let scratch_fresh_before = scratch::fresh_count();
        let scratch_reused_before = scratch::reuse_count();
        let mut sub: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (stats, _) = timed_each(
            iters,
            || ctx.clear_chains(),
            || {
                YoutiaoPlanner::new(&chip)
                    .with_config(plan_cfg.clone())
                    .with_context(&ctx)
                    .plan_with_hook(&mut |name, elapsed| {
                        sub.entry(name)
                            .or_default()
                            .push(elapsed.as_secs_f64() * 1e6);
                    })
                    .expect("benchmark plan must succeed")
            },
        );
        stages.insert("plan_total".to_string(), stats);
        for (name, samples) in sub {
            stages.insert(format!("plan.{name}"), StageStats::from_samples(samples));
        }
        let scratch_fresh = scratch::fresh_count() - scratch_fresh_before;
        let scratch_reused = scratch::reuse_count() - scratch_reused_before;
        assert_eq!(
            scratch_fresh, 0,
            "{label}: the warmed plan loop allocated fresh scratch buffers"
        );
        assert!(
            scratch_reused > 0,
            "{label}: the plan loop never drew from the scratch arenas"
        );
        let kernel_builds_during_plans = PairKernels::build_count() - plan_kernels_before;

        // The same plan again, its chains all in the memo now.
        let hits_before = ctx.chain_stats().hits;
        let (stats, _) = timed(iters, || {
            YoutiaoPlanner::new(&chip)
                .with_config(plan_cfg.clone())
                .with_context(&ctx)
                .plan()
                .expect("benchmark plan must succeed")
        });
        stages.insert("plan_memo_hit".to_string(), stats);
        assert_eq!(
            ctx.chain_stats().hits - hits_before,
            3 * iters as u64,
            "{label}: the memo-hit plans ran a chain"
        );

        // Partitioned plan, serial vs parallel: same context, same
        // config apart from `plan_threads`, so the differential check
        // doubles as the in-bench byte-identity proof for the region/
        // band parallel merge paths.
        let par_cfg = PlannerConfig {
            refine: Some(refine),
            partition: Some(PartitionConfig::for_target_size(&chip, 64)),
            plan_threads: 1,
            ..Default::default()
        };
        let (stats, serial_plan) = timed_each(
            iters,
            || ctx.clear_chains(),
            || {
                YoutiaoPlanner::new(&chip)
                    .with_config(par_cfg.clone())
                    .with_context(&ctx)
                    .plan()
                    .expect("benchmark partitioned plan must succeed")
            },
        );
        stages.insert("plan_partitioned_serial".to_string(), stats);
        let threads = config.plan_threads.max(1);
        let (stats, parallel_plan) = timed_each(
            iters,
            || ctx.clear_chains(),
            || {
                YoutiaoPlanner::new(&chip)
                    .with_config(PlannerConfig {
                        plan_threads: threads,
                        ..par_cfg.clone()
                    })
                    .with_context(&ctx)
                    .plan()
                    .expect("benchmark parallel plan must succeed")
            },
        );
        stages.insert("plan_partitioned_parallel".to_string(), stats);
        assert_eq!(
            parallel_plan, serial_plan,
            "{label}: parallel plan diverged from its serial twin"
        );

        let med = |k: &str| stages.get(k).map_or(f64::NAN, |s| s.median_us);
        let speedup_parallel = med("plan_partitioned_serial") / med("plan_partitioned_parallel");
        // The parallel-planning floor: at 16×16 with ≥8 plan threads,
        // the partitioned plan must hold a ≥3× median speedup — but
        // only on a host that can actually run those threads at once.
        let cores = youtiao_exec::cores();
        if *layout == Layout::Grid(16) && threads >= 8 && cores >= threads {
            assert!(
                speedup_parallel >= PARALLEL_SPEEDUP_FLOOR,
                "{label}: parallel plan speedup {speedup_parallel:.2}x below the \
                 {PARALLEL_SPEEDUP_FLOOR}x floor on a {cores}-core host"
            );
        }
        sizes.push(SizeReport {
            label,
            qubits: chip.num_qubits(),
            devices: devices.len(),
            iterations: iters,
            kernel_builds_during_plans,
            scratch_fresh,
            scratch_reused,
            threads,
            speedup_parallel,
            stages,
        });
    }

    PerfReport {
        schema: SCHEMA.to_string(),
        iterations: iters,
        contexts_built: PlanContext::build_count() - contexts_before,
        kernels_built: PairKernels::build_count() - kernels_before,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_stats_order_statistics() {
        let s = StageStats::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median_us, 3.0);
        assert_eq!(s.p10_us, 1.0);
        assert_eq!(s.p90_us, 5.0);
    }

    #[test]
    fn layout_specs_parse_build_and_label() {
        assert_eq!(Layout::parse("grid:12").unwrap(), Layout::Grid(12));
        assert_eq!(Layout::parse(" surface:5 ").unwrap(), Layout::Surface(5));
        assert_eq!(
            Layout::parse("heavy-hex:2x3").unwrap(),
            Layout::HeavyHex(2, 3)
        );
        for bad in [
            "grid",
            "grid:1",
            "surface:4",
            "surface:1",
            "heavy-hex:3",
            "mesh:4",
            "grid:x",
        ] {
            assert!(Layout::parse(bad).is_err(), "`{bad}` should not parse");
        }
        let surface = Layout::Surface(3);
        assert_eq!(surface.label(), "surface-d3");
        assert_eq!(surface.build().num_qubits(), 17);
        assert_eq!(Layout::Grid(4).label(), "4x4");
        assert!(Layout::HeavyHex(1, 2).build().num_qubits() > 0);
    }
}
