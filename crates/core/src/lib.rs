//! YOUTIAO's core contribution: multiplexing-aware wiring co-optimization.
//!
//! This crate implements §4 of the paper end to end:
//!
//! * [`fdm`] — noise-aware qubit grouping for shared FDM XY lines (§4.2,
//!   the 3-step greedy flow over the equivalent-distance graph);
//! * [`freq`] — two-level coarse-grained frequency allocation (§4.2:
//!   zones, 10 MHz cells, in-group swaps, crowded-cell reuse);
//! * [`tdm`] — the parallelism index, two-level cryo-DEMUX selection via
//!   the threshold θ, and the 3-step greedy graph-coloring TDM grouping
//!   that exploits topological and noisy non-parallelism (§4.3);
//! * [`partition`] — the 4-stage generative chip partition that bounds
//!   the grouping search space on large chips (§4.4);
//! * [`context`] — [`PlanContext`], the chip-level state every planning
//!   pass reads: the equivalent-distance and crosstalk matrices, the
//!   grouping kernels, sorted crosstalk rows, a scratch pool and a memo
//!   of planned chains;
//! * [`plan`] — [`YoutiaoPlanner`], which runs the full pipeline on a
//!   context (the caller's, or a private one it builds) and emits a
//!   [`WiringPlan`] consumable by the scheduler, router and cost model;
//! * [`baselines`] — the three comparison systems of §5: Google-style
//!   dedicated wiring (readout-only multiplexing), George et al.'s
//!   in-line-only FDM, and Acharya et al.'s locally-clustered TDM.
//!
//! # Example
//!
//! ```
//! use youtiao_chip::topology;
//! use youtiao_core::YoutiaoPlanner;
//!
//! let chip = topology::square_grid(6, 6);
//! let plan = YoutiaoPlanner::new(&chip).plan()?;
//! assert_eq!(plan.fdm_lines().len(), 8); // ceil(36 / 5)
//! assert!(plan.tdm_groups().len() < chip.num_z_devices());
//! # Ok::<(), youtiao_core::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod context;
pub mod error;
pub mod fdm;
pub mod freq;
pub mod freq_kernels;
pub mod kernels;
mod memo;
pub mod multi;
pub mod partition;
pub mod plan;
pub mod refine;
pub mod scratch;
pub mod summary;
pub mod tdm;
pub mod viz;

pub use crate::baselines::{AcharyaTdm, GeorgeFdm, GoogleBaseline};
pub use crate::context::{chip_fingerprint, PlanContext};
pub use crate::error::PlanError;
pub use crate::fdm::{group_fdm, FdmLine};
pub use crate::freq::{allocate_frequencies, FreqConfig, FrequencyPlan};
pub use crate::freq_kernels::{BandLattice, ScalingTable};
pub use crate::kernels::{DeviceIndex, PairKernels};
pub use crate::memo::ChainStats;
pub use crate::multi::{
    die_seed, plan_multi, BudgetPartition, CryostatBudget, DiePlan, MultiPlanConfig,
    MultiPlanOutcome, ReconcileStats,
};
pub use crate::partition::{partition_chip, Partition, PartitionConfig};
pub use crate::plan::{PlannerConfig, WiringPlan, YoutiaoPlanner};
pub use crate::refine::{refine_tdm_groups, RefineConfig};
pub use crate::scratch::{Scratch, ScratchPool};
pub use crate::summary::PlanSummary;
pub use crate::tdm::{group_tdm, parallelism_index, DemuxLevel, TdmConfig, TdmGroup};
pub use youtiao_exec::ParallelExec;
