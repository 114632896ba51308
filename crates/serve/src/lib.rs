//! The YOUTIAO serving layer: a concurrent batch design service.
//!
//! The one-shot pipeline (`youtiao::flow::design_chip`) answers a single
//! request on a single thread. Real wiring co-optimization runs as large
//! batch sweeps — across chip sizes, θ values, FDM capacities, and DEMUX
//! fan-outs — so this crate turns the pipeline into a multi-tenant,
//! parallel, cache-accelerated service:
//!
//! * [`DesignRequest`]/[`JobRecord`] — serde-serializable job and result
//!   types for the JSONL batch format;
//! * [`WorkerPool`] — a std-only worker pool (threads + channels) with
//!   per-job deadlines (cooperative cancellation between pipeline
//!   stages), bounded retry with seed perturbation on transient errors,
//!   and graceful shutdown that drains in-flight jobs;
//! * [`ShardedCache`] — a content-addressed LRU memo of finished
//!   reports, keyed by a stable hash of (chip spec, planner knobs,
//!   seed), with hit/miss/eviction counters, split into N shards, each
//!   with its own lock, LRU budget and JSON persistence file, so shard
//!   loss or corruption is isolated and salvageable per shard (one
//!   shard persists to the caller's path itself);
//! * [`FaultPlan`]/[`FaultInjector`] — deterministic, seeded fault
//!   injection (behind `youtiao chaos`): scheduled errors, panics,
//!   delays, cancellations and cache corruption wrapped around any
//!   executor, reproducible from a seed;
//! * one request engine ([`daemon`]) behind every front end: it answers
//!   requests in request order from the cache, by coalescing duplicate
//!   keys, by shedding, or through the pool, under
//!   [`AdmissionController`] policy (bounded queue, per-client
//!   in-flight caps, deadline-aware shedding), and summarizes
//!   throughput, latency percentiles, and cache behavior in
//!   [`ServeMetrics`]. Two calls drive it, both configured by
//!   [`DaemonOptions`]:
//!   * [`run_daemon`] — the long-lived `youtiao serve` session: a
//!     newline-framed JSONL protocol ([`proto`]) with request ids, an
//!     in-band `ping`/`stats`/`shutdown` control plane, and
//!     deterministic canonical responses;
//!   * [`run_batch`] — the session behind `youtiao batch` and `youtiao
//!     chaos`: bare [`DesignRequest`] lines in, one [`JobRecord`] line
//!     per request out.
//!
//! The crate is pipeline-agnostic: jobs produce any `R: Clone + Send +
//! Serialize + Deserialize`, and the executor closure supplies the
//! actual design flow. The `youtiao` facade wires in
//! `flow::design_chip` (see `youtiao::serve`), keeping the dependency
//! graph acyclic.

pub mod admission;
pub mod batch;
pub mod cache;
pub mod cancel;
pub mod daemon;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod request;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats};
pub use batch::{run_batch, BatchError};
pub use cache::{content_key, CacheLoadError, CacheStats};
pub use cancel::{CancelToken, Cancelled};
pub use daemon::{run_daemon, DaemonOptions, DaemonReport};
pub use fault::{
    apply_cache_fault, CacheFault, FaultCounters, FaultInjector, FaultKind, FaultPlan,
    OverloadBurst, RequestMutator,
};
pub use job::{ErrorKind, ErrorRecord, ExecError, JobRecord, JobStatus};
pub use metrics::{RepairStats, ServeMetrics, ShardStat, StageStat};
pub use pool::{effective_plan_threads, AttemptCtx, Executor, PoolOptions, WorkerPool};
pub use proto::{DaemonRequest, Frame, FramedReader, OpKind};
pub use request::{
    near_square, synthetic_drift, ActivityOverride, ChipRequest, DeltaSpec, DesignRequest,
    DriftEntry, RequestError, DEFAULT_SEED,
};
pub use shard::{shard_file, shard_of_key, ShardedCache};
pub use youtiao_obs::{Trace, TraceSpan, Tracer};
