//! # YOUTIAO — hybrid multiplexing with dynamic qubit grouping
//!
//! Facade crate re-exporting the full YOUTIAO workspace: a reproduction of
//! *"YOUTIAO: Hybrid Multiplexing with Dynamic Qubit Grouping for Low-cost
//! and Scalable Quantum Wiring"* (MICRO 2025).
//!
//! YOUTIAO reduces superconducting quantum wiring cost by sharing control
//! lines: frequency-division multiplexing (FDM) on XY/readout lines and
//! time-division multiplexing (TDM) on Z lines, with noise-aware qubit
//! grouping so that fidelity and circuit depth barely degrade.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`chip`] | `youtiao-chip` | device model, topologies, distances, surface codes |
//! | [`noise`] | `youtiao-noise` | crosstalk data, random forest, model fitting |
//! | [`circuit`] | `youtiao-circuit` | circuit IR, benchmarks, scheduling, fidelity |
//! | [`pulse`] | `youtiao-pulse` | pulse-level gate simulation |
//! | [`route`] | `youtiao-route` | grid A* + channel on-chip routers with DRC |
//! | [`sim`] | `youtiao-sim` | state-vector simulation with Monte-Carlo noise |
//! | [`cost`] | `youtiao-cost` | wiring/cost accounting and scaling estimates |
//! | [`core`] | `youtiao-core` | FDM/TDM grouping, frequency allocation, partitioning |
//! | [`repair`] | `youtiao-repair` | incremental plan repair: input diffing, kernel invalidation, local regroup |
//! | [`serve`] | `youtiao-serve` | batch design service: worker pool, plan cache, deadlines/retries |
//! | [`xplore`] | `youtiao-xplore` | parallel design-space sweeps, shared planning contexts, Pareto fronts |
//! | [`bench`](mod@bench) | `youtiao-bench` | experiment harnesses, incl. the `bench-plan` perf trajectory |
//! | [`flow`] | (this crate) | one-call characterize → plan → route → cost pipeline |
//! | [`multi`] | (this crate) | multi-die chiplet design flow: per-die plans, budget split, link reconciliation |
//!
//! ## Quickstart
//!
//! ```
//! use youtiao::chip::topology;
//! use youtiao::core::YoutiaoPlanner;
//!
//! let chip = topology::square_grid(6, 6);
//! let plan = YoutiaoPlanner::new(&chip).plan()?;
//! println!(
//!     "XY lines: {}, Z DEMUXes: {}",
//!     plan.fdm_lines().len(),
//!     plan.tdm_groups().len()
//! );
//! # Ok::<(), youtiao::core::PlanError>(())
//! ```

#![forbid(unsafe_code)]

pub mod flow;
pub mod multi;
pub mod serve;

pub use youtiao_bench as bench;
pub use youtiao_chip as chip;
pub use youtiao_circuit as circuit;
pub use youtiao_core as core;
pub use youtiao_cost as cost;
pub use youtiao_noise as noise;
pub use youtiao_pulse as pulse;
pub use youtiao_repair as repair;
pub use youtiao_route as route;
pub use youtiao_sim as sim;
pub use youtiao_xplore as xplore;
