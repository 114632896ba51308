//! # youtiao-xplore — parallel design-space exploration
//!
//! Turns a declarative [`SweepSpec`] (JSON axes over chips, θ,
//! `max_shared_slots`, FDM/readout capacity, DEMUX fan-out, wiring
//! mode and characterization seeds) into the cartesian grid of design
//! points, plans every point in parallel against a **shared planning
//! context** (matrices and noise fit built once per chip × seed, not
//! per point), and streams one JSONL [`SweepRecord`] per point in grid
//! order — byte-identical output no matter the thread count.
//!
//! After the grid drains, the engine extracts a dominance-based Pareto
//! front over configurable [`Objective`]s (minimize cost/coax/latency,
//! maximize fidelity) plus per-axis marginal means, and can memoize
//! point results in a `youtiao-serve` [`ShardedCache`] across runs.
//!
//! The `youtiao sweep` CLI subcommand and the Figure 16/17 experiment
//! binaries in `youtiao-bench` are thin wrappers over [`run_sweep`].
//!
//! ```
//! use youtiao_serve::ChipRequest;
//! use youtiao_xplore::{run_sweep, SweepOptions, SweepSpec};
//!
//! let mut spec = SweepSpec::new(vec![ChipRequest::grid("square", 3, 3)]);
//! spec.thetas = Some(vec![2.0, 8.0]);
//! spec.use_model = Some(false);
//! let mut jsonl = Vec::new();
//! let outcome = run_sweep(&spec, &SweepOptions::default(), &mut jsonl).unwrap();
//! assert_eq!(outcome.records.len(), 2);
//! assert!(outcome.records.iter().all(|r| r.is_ok()));
//! assert!(!outcome.summary.pareto.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod eval;
pub mod grid;
pub mod pareto;
pub mod record;
pub mod spec;

pub use crate::engine::{
    run_sweep, run_sweep_with_cache, AxisMarginal, SweepError, SweepOptions, SweepOutcome,
    SweepSummary,
};
pub use crate::grid::{GridPoint, SweepGrid};
pub use crate::pareto::{pareto_front, parse_objectives, Objective, ObjectiveKind, ParetoEntry};
pub use crate::record::{write_csv, PointResult, StageMs, SweepRecord, SweepStatus};
pub use crate::spec::{SpecError, SweepMode, SweepSpec, DEFAULT_MAX_POINTS};

// Re-exported so sweep callers can build chip axes without importing
// the serving crate.
pub use youtiao_serve::{ChipRequest, ShardedCache};
