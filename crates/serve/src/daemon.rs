//! The session engine behind `youtiao serve`, `youtiao batch` and
//! `youtiao chaos`.
//!
//! One loop answers every request: it reads newline-framed JSONL
//! ([`proto`](crate::proto)) from any [`BufRead`] — stdin, a jobs file
//! or an accepted unix-socket connection — dispatches design requests
//! through the worker pool behind a [`ShardedCache`], applies
//! [`AdmissionController`] policy (bounded queue, per-client caps,
//! deadline-aware shedding), and writes one JSON line per request.
//! [`run_daemon`] speaks the daemon protocol: [`DaemonRequest`] frames
//! with an in-band control plane (`ping`, `stats`, `shutdown`).
//! [`run_batch`](crate::batch::run_batch) reads bare [`DesignRequest`]
//! lines and answers each with a [`JobRecord`] line.
//!
//! # Determinism contract
//!
//! Responses are emitted in **request order** (a `BTreeMap` keyed by
//! arrival sequence buffers completions until their turn), and
//! duplicate in-flight content keys are **coalesced** — a design
//! request whose key is already being computed is parked behind that
//! job, intake goes on, and the parked copy looks the cache up once
//! right after the job finishes, instead of racing it on another
//! worker. So each distinct key is one cache miss and every later copy
//! is one hit, at any worker count. Together with canonical responses
//! (run-dependent fields stripped, see
//! [`proto::design_response`](crate::proto::design_response)) this
//! makes an equal-seed session's output a pure function of its input:
//! byte-identical across worker counts and shard counts. Admission
//! *backpressure* only stalls intake, never alters bytes; *shedding*
//! is deterministic whenever the decision margin is pinned — an
//! [`OverloadBurst`](crate::fault::OverloadBurst)'s phantom depth
//! dwarfs real queue depth, or `est_ms` is 0 (shedding off).
//!
//! Every session honours the whole [`FaultPlan`]: the per-attempt
//! schedule, `abort_after` (once that many pooled jobs complete the
//! pool is aborted; queued and running jobs, and any design submitted
//! later, answer `Cancelled`), `cache_fault` and `shard_loss` (applied
//! to the cache files before they load), `overload_burst` and
//! `slow_client_ms`/`slow_client_every`.
//!
//! [`DaemonRequest`]: crate::proto::DaemonRequest

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batch::BatchError;
use crate::fault::{apply_cache_fault, FaultInjector, FaultKind, FaultPlan};
use crate::job::{ErrorKind, ErrorRecord, JobRecord};
use crate::metrics::ServeMetrics;
use crate::pool::{Executor, PoolOptions, WorkerPool};
use crate::proto::{
    design_response, error_response, ping_response, shutdown_response, stats_response,
    DaemonRequest, Frame, FramedReader, OpKind,
};
use crate::request::{synthetic_drift, DesignRequest};
use crate::shard::{shard_file, ShardedCache};

/// Session configuration, shared by daemon and batch sessions.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Intra-plan worker threads per job; 0 (the default) leaves them
    /// to the process's CPU budget (see
    /// [`effective_plan_threads`](crate::pool::effective_plan_threads)):
    /// a job's plan chains, dies and fit helper run only on cores no
    /// other job holds. Explicit values cap each plan. Plans — and
    /// therefore canonical transcripts — are byte-identical across all
    /// values.
    pub plan_threads: usize,
    /// Retries after the first attempt of transiently failing jobs.
    pub max_retries: u32,
    /// Default per-job deadline in milliseconds (`deadline_ms` on a
    /// request overrides it).
    pub deadline_ms: Option<u64>,
    /// Total plan-cache entry budget, split across shards.
    pub cache_capacity: usize,
    /// Cache shard count (min 1; 1 is the flat cache).
    pub shards: usize,
    /// Cache persistence root: shard `i` lives at
    /// [`shard_file`]`(path, i, shards)`. Loaded before the session,
    /// saved after it, so a repeated session is all cache hits.
    pub cache_path: Option<PathBuf>,
    /// Restart torn shards cold instead of failing the session.
    pub cache_salvage: bool,
    /// Emit canonical responses (run-dependent fields stripped), the
    /// byte-comparable mode. Metrics still aggregate the real
    /// latencies. Default on.
    pub canonical: bool,
    /// Record a span trace per pooled job and write them all as
    /// `{"jobs":[...]}` to this file when the session ends (the traces
    /// also feed per-stage latency percentiles in the metrics).
    pub trace_json: Option<PathBuf>,
    /// Ask the executor to check plan invariants (honored by executors
    /// that consult it, like the facade's design executor).
    pub validate: bool,
    /// Seeded fault schedule (chaos sessions).
    pub faults: Option<FaultPlan>,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            workers: 0,
            plan_threads: 0,
            max_retries: 2,
            deadline_ms: None,
            cache_capacity: 1024,
            shards: 1,
            cache_path: None,
            cache_salvage: false,
            canonical: true,
            trace_json: None,
            validate: false,
            faults: None,
            admission: AdmissionConfig::default(),
        }
    }
}

/// What one session did.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Aggregates over the session's design jobs, including per-shard
    /// and admission counters.
    pub metrics: ServeMetrics,
    /// Frames accepted (all ops, including malformed frames answered
    /// with an error response).
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Whether the session ended on an in-band `shutdown` (vs. EOF).
    pub shutdown: bool,
    /// Cache shards restarted cold by salvage at session start.
    pub salvaged_shards: usize,
}

/// What a session's input lines are and how its designs are answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Protocol {
    /// [`DaemonRequest`](crate::proto::DaemonRequest) frames, answered
    /// with protocol responses.
    Daemon,
    /// Bare [`DesignRequest`] lines, answered with [`JobRecord`] lines.
    /// A line that does not parse aborts the session with
    /// [`BatchError::Parse`].
    Batch,
}

/// What the session loop waits for, in arrival order on one channel.
enum Event<R> {
    /// A frame from the reader thread.
    Frame(std::io::Result<Frame>),
    /// A pooled job's record.
    Done(JobRecord<R>),
    /// The reader thread is done: input ended, failed or the thread
    /// unwound.
    End,
}

/// The reader thread's end of the event channel: sends [`Event::End`]
/// when the thread ends, however it ends.
struct Reader<R>(Sender<Event<R>>);

impl<R> Drop for Reader<R> {
    fn drop(&mut self) {
        let _ = self.0.send(Event::End);
    }
}

/// A design job in flight: where its response goes once it completes.
struct PendingJob {
    seq: u64,
    rid: Option<String>,
    client: String,
    key: u64,
}

/// A design not yet answered or submitted, with where its response
/// goes.
struct Keyed {
    seq: u64,
    index: usize,
    id: String,
    rid: Option<String>,
    client: String,
    key: u64,
    design: DesignRequest,
}

struct Session<'a, R> {
    options: &'a DaemonOptions,
    protocol: Protocol,
    /// Frames, completions and the end of input, in arrival order.
    events: Receiver<Event<R>>,
    /// Frames and the end of input that arrived while the loop waited
    /// for a completion, in arrival order.
    deferred: VecDeque<Event<R>>,
    plan: FaultPlan,
    cache: &'a ShardedCache<R>,
    admission: AdmissionController,
    /// In-flight design jobs by pool index.
    meta: HashMap<usize, PendingJob>,
    /// Content keys currently being computed, each with the copies
    /// parked behind its job in arrival order (at most one job per key
    /// is ever in flight).
    in_flight_keys: HashMap<u64, VecDeque<Keyed>>,
    /// Parked copies that missed the cache after their job finished,
    /// each with the copies behind it: dispatched before the next frame.
    released: VecDeque<(Keyed, VecDeque<Keyed>)>,
    /// Ready responses awaiting their turn, by arrival sequence.
    ready: BTreeMap<u64, String>,
    next_seq: u64,
    next_emit: u64,
    written: u64,
    design_index: usize,
    requests: u64,
    /// Pooled jobs completed so far, for the plan's `abort_after`.
    completed: usize,
    /// Every answered design without its result (moved into the cache
    /// or dropped): the metrics read only the run fields.
    records: Vec<JobRecord<R>>,
    shutdown: bool,
}

impl<R: Clone + Send + Serialize + 'static> Session<'_, R> {
    fn shard_tag(&self, key: u64) -> Option<usize> {
        (self.cache.shard_count() > 1).then(|| self.cache.shard_of(key))
    }

    /// Takes a completed pool record: fires the `abort_after` fault,
    /// releases admission, queues the response at the job's arrival
    /// sequence, memoizes the result — unless a drift fault answered
    /// different inputs than the request describes, which would poison
    /// the cache under the request's key (the schedule is pure, so the
    /// drift is recomputable here) — and releases the copies parked
    /// behind the job.
    fn absorb(&mut self, record: JobRecord<R>, pool: &WorkerPool<DesignRequest, R>) {
        let Some(job) = self.meta.remove(&record.index) else {
            return;
        };
        self.completed += 1;
        if self.plan.abort_after == Some(self.completed) {
            pool.abort();
        }
        self.admission.finish(&job.client);
        let parked = self.in_flight_keys.remove(&job.key).unwrap_or_default();
        let drifted = (0..record.attempts)
            .any(|a| self.plan.fault_at(record.index, a) == Some(FaultKind::Drift));
        let record = record.with_shard(self.shard_tag(job.key));
        let memo = (!drifted).then_some(job.key);
        self.finish_design(record, job.seq, job.rid.as_ref(), memo);
        self.release(job.key, parked);
    }

    /// Answers the copies parked behind `key`'s finished job in arrival
    /// order, each with one cache lookup right after the job's insert:
    /// hits are answered at once; the first miss is released for
    /// dispatch with the rest parked behind it.
    fn release(&mut self, key: u64, mut parked: VecDeque<Keyed>) {
        while let Some(copy) = parked.pop_front() {
            match self.cache.get(key) {
                Some(result) => self.answer_hit(copy, result),
                None => {
                    self.released.push_back((copy, parked));
                    return;
                }
            }
        }
    }

    /// Answers `design` with a cached result.
    fn answer_hit(&mut self, design: Keyed, result: R) {
        let record = JobRecord::ok(design.index, design.id, result, 0, 0.0)
            .from_cache()
            .with_shard(self.shard_tag(design.key));
        self.finish_design(record, design.seq, design.rid.as_ref(), None);
    }

    /// Queues a design's response, moves its result into the cache
    /// under `memo` (dropping it otherwise), and keeps the rest of the
    /// record for the metrics. Moving rather than cloning leaves each
    /// result alive exactly once, in the cache.
    fn finish_design(
        &mut self,
        mut record: JobRecord<R>,
        seq: u64,
        rid: Option<&String>,
        memo: Option<u64>,
    ) {
        let canonical = self.options.canonical;
        let response = match self.protocol {
            Protocol::Daemon => design_response(&record, rid, canonical),
            Protocol::Batch if canonical => record.clone().canonical().to_value().to_json(),
            Protocol::Batch => record.to_value().to_json(),
        };
        self.ready.insert(seq, response);
        if let (Some(result), Some(key)) = (record.result.take(), memo) {
            self.cache.insert(key, result);
        }
        self.records.push(record);
    }

    /// Writes every response whose turn has come, applying the
    /// slow-client stall fault to the write side only.
    fn emit<W: Write>(&mut self, out: &mut W) -> std::io::Result<()> {
        let mut wrote = false;
        while let Some(line) = self.ready.remove(&self.next_emit) {
            if let Some(stall) = self.plan.slow_client_stall(self.written as usize) {
                std::thread::sleep(stall);
            }
            writeln!(out, "{line}")?;
            self.next_emit += 1;
            self.written += 1;
            wrote = true;
        }
        if wrote {
            out.flush()?;
        }
        Ok(())
    }

    /// The next event to arrive.
    fn recv(&self) -> Event<R> {
        self.events
            .recv()
            .expect("the pool's workers keep the event channel open")
    }

    /// The next event: a deferred one first, else the next to arrive.
    fn next_event(&mut self) -> Event<R> {
        self.deferred.pop_front().unwrap_or_else(|| self.recv())
    }

    /// Blocks until one pooled job completes, deferring the events that
    /// arrive before it, then writes what is ready. Call only with a job
    /// in flight.
    fn wait<W: Write>(
        &mut self,
        pool: &WorkerPool<DesignRequest, R>,
        out: &mut W,
    ) -> std::io::Result<()> {
        loop {
            match self.recv() {
                Event::Done(record) => break self.absorb(record, pool),
                event => self.deferred.push_back(event),
            }
        }
        self.emit(out)
    }
}

/// The record of a design answered without running it.
fn unrun<R>(index: usize, id: String, kind: ErrorKind, message: String) -> JobRecord<R> {
    JobRecord::error(index, id, ErrorRecord { kind, message }, 0, 0.0)
}

/// Opens the session's cache: applies the fault plan's `shard_loss`
/// and `cache_fault` to the persisted files, then loads
/// `options.cache_path` (salvaging torn shards when opted in), or
/// starts empty without one. The second return counts salvaged shards.
fn open_cache<R>(options: &DaemonOptions) -> Result<(ShardedCache<R>, usize), BatchError>
where
    R: Clone + Deserialize,
{
    let shards = options.shards.max(1);
    let Some(path) = &options.cache_path else {
        return Ok((ShardedCache::new(shards, options.cache_capacity), 0));
    };
    if let Some(plan) = &options.faults {
        if let Some(lost) = plan.shard_loss {
            let _ = std::fs::remove_file(shard_file(path, lost, shards));
        }
        // A torn write lands on shard 0's file, leaving the others intact.
        if let Some(fault) = plan.cache_fault {
            let first = shard_file(path, 0, shards);
            if first.exists() {
                apply_cache_fault(&first, fault)?;
            }
        }
    }
    ShardedCache::load(path, shards, options.cache_capacity, options.cache_salvage)
        .map_err(|e| BatchError::Cache(e.to_string()))
}

/// Runs one session: opens the cache, answers frames until an in-band
/// `shutdown` or input EOF, drains and answers all in-flight work (a
/// `shutdown` acknowledgement is always the last line), writes the
/// trace file, and persists the cache.
pub(crate) fn run_session<R, In, Out>(
    executor: Executor<DesignRequest, R>,
    options: &DaemonOptions,
    input: In,
    output: &mut Out,
    protocol: Protocol,
) -> Result<DaemonReport, BatchError>
where
    R: Clone + Send + Serialize + Deserialize + 'static,
    In: BufRead + Send + 'static,
    Out: Write,
{
    let (cache, salvaged_shards) = open_cache(options)?;
    let started = Instant::now();
    let plan = options.faults.clone().unwrap_or_default();
    // The fault schedule sits between pool and executor; drift faults
    // turn an attempt into a warm repair job over a synthetic shift.
    let injector = FaultInjector::new(plan.clone());
    let chaos = injector.wrap_with(
        executor,
        Arc::new(|request: &DesignRequest, seed: u64| synthetic_drift(request, seed)),
    );
    let pool_options = PoolOptions {
        workers: options.workers,
        max_retries: options.max_retries,
        deadline: options.deadline_ms.map(Duration::from_millis),
        trace: options.trace_json.is_some(),
    };
    let workers = pool_options.effective_workers();

    // A reader thread turns the (possibly blocking) input into events,
    // and the pool's workers add their records to the same channel, so
    // the session loop blocks on one receive and interleaves frame
    // intake with completions — required for in-order emission to
    // half-duplex clients that write their whole session before reading.
    let (events_tx, events) = mpsc::channel();
    let done_tx = events_tx.clone();
    let mut pool: WorkerPool<DesignRequest, R> =
        WorkerPool::with_sink(chaos, pool_options, move |record| {
            done_tx.send(Event::Done(record)).is_ok()
        });
    let reader = Reader(events_tx);
    std::thread::spawn(move || {
        for frame in FramedReader::new(input) {
            let stop = frame.is_err();
            if reader.0.send(Event::Frame(frame)).is_err() || stop {
                break;
            }
        }
    });

    let mut session = Session {
        options,
        protocol,
        events,
        deferred: VecDeque::new(),
        plan,
        cache: &cache,
        admission: AdmissionController::new(options.admission, workers),
        meta: HashMap::new(),
        in_flight_keys: HashMap::new(),
        released: VecDeque::new(),
        ready: BTreeMap::new(),
        next_seq: 0,
        next_emit: 0,
        written: 0,
        design_index: 0,
        requests: 0,
        completed: 0,
        records: Vec::new(),
        shutdown: false,
    };
    let outcome = drive(&mut session, &mut pool, output);
    if outcome.is_err() {
        pool.abort();
    }
    pool.join();
    outcome?;

    if let Some(path) = &options.trace_json {
        std::fs::write(path, render_trace_file(&session.records))?;
    }
    let mut metrics =
        ServeMetrics::from_records(&session.records, started.elapsed(), Some(cache.stats()))
            .with_admission(session.admission.stats())
            .with_faults(injector.counters());
    if cache.shard_count() > 1 {
        metrics = metrics.with_shards(&session.records, &cache.shard_stats());
    }
    if let Some(path) = &options.cache_path {
        cache.save_atomic(path)?;
    }
    Ok(DaemonReport {
        metrics,
        requests: session.requests,
        responses: session.written,
        shutdown: session.shutdown,
        salvaged_shards,
    })
}

/// The session loop: one event at a time — a frame, a completion or
/// the end of input — until `shutdown` or the end of input; then drain
/// every in-flight job.
fn drive<R, Out>(
    session: &mut Session<'_, R>,
    pool: &mut WorkerPool<DesignRequest, R>,
    output: &mut Out,
) -> Result<(), BatchError>
where
    R: Clone + Send + Serialize + 'static,
    Out: Write,
{
    let mut input_done = false;
    loop {
        settle(session, pool, output, false)?;
        session.emit(output)?;
        if session.shutdown || input_done {
            if session.meta.is_empty() {
                return Ok(());
            }
            session.wait(pool, output)?;
            continue;
        }
        match session.next_event() {
            Event::Done(record) => session.absorb(record, pool),
            Event::End => input_done = true,
            Event::Frame(frame) => {
                session.requests += 1;
                let seq = session.next_seq;
                session.next_seq += 1;
                handle_frame(session, pool, seq, &frame?, output)?;
            }
        }
    }
}

/// Dispatches one accepted frame.
fn handle_frame<R, Out>(
    session: &mut Session<'_, R>,
    pool: &mut WorkerPool<DesignRequest, R>,
    seq: u64,
    frame: &Frame,
    output: &mut Out,
) -> Result<(), BatchError>
where
    R: Clone + Send + Serialize + 'static,
    Out: Write,
{
    if session.protocol == Protocol::Batch {
        let design = serde_json::from_str(&frame.text).map_err(|e| BatchError::Parse {
            line: frame.line,
            message: e.to_string(),
        })?;
        return handle_design(session, pool, seq, design, None, "anon".into(), output);
    }
    let request: DaemonRequest = match serde_json::from_str(&frame.text) {
        Ok(request) => request,
        Err(e) => {
            session.ready.insert(
                seq,
                error_response(None, frame.line, &format!("bad frame: {e}")),
            );
            return Ok(());
        }
    };
    let rid = request.rid.clone();
    let response = match request.op_kind() {
        Err(message) => error_response(rid.as_ref(), frame.line, &message),
        Ok(OpKind::Ping) => ping_response(rid.as_ref()),
        Ok(OpKind::Stats) => {
            // A parked copy may yet be shed: settle every earlier
            // design first, so the counters cover all of them.
            settle(session, pool, output, true)?;
            stats_response(
                rid.as_ref(),
                session.requests,
                &session.admission.stats(),
                &session.cache.stats(),
                session.admission.in_flight(),
                session.options.canonical,
            )
        }
        Ok(OpKind::Shutdown) => {
            // The ack sits at the highest sequence so far; in-order
            // emission makes it the session's last line after every
            // in-flight design drains.
            session.shutdown = true;
            shutdown_response(rid.as_ref())
        }
        Ok(OpKind::Design) => {
            let design = match &request.request {
                None => Err("design frame missing `request`".to_string()),
                Some(payload) => {
                    serde_json::from_value(payload).map_err(|e| format!("bad request: {e}"))
                }
            };
            match design {
                Ok(design) => {
                    let client = request.client_name().to_string();
                    return handle_design(session, pool, seq, design, rid, client, output);
                }
                Err(message) => error_response(rid.as_ref(), frame.line, &message),
            }
        }
    };
    session.ready.insert(seq, response);
    Ok(())
}

/// Answers one design: an invalid-key record, a copy parked behind
/// the in-flight job with its key, a cache hit, or a dispatch.
fn handle_design<R, Out>(
    session: &mut Session<'_, R>,
    pool: &mut WorkerPool<DesignRequest, R>,
    seq: u64,
    design: DesignRequest,
    rid: Option<String>,
    client: String,
    output: &mut Out,
) -> Result<(), BatchError>
where
    R: Clone + Send + Serialize + 'static,
    Out: Write,
{
    let index = session.design_index;
    session.design_index += 1;
    let id = design.display_id(index);
    let key = match design.cache_key() {
        Ok(key) => key,
        Err(e) => {
            // The chip half does not resolve: the executor would fail
            // identically, so answer without occupying a worker.
            let record = unrun(index, id, ErrorKind::InvalidRequest, e.to_string());
            session.finish_design(record, seq, rid.as_ref(), None);
            return Ok(());
        }
    };
    let design = Keyed {
        seq,
        index,
        id,
        rid,
        client,
        key,
        design,
    };

    // Coalesce: if this key is already being computed, park the copy
    // behind that job instead of racing it on another worker; it looks
    // the cache up once when the job finishes. This keeps cache
    // behaviour — canonical output and the hit/miss counters alike —
    // independent of the worker count and of timing.
    if let Some(parked) = session.in_flight_keys.get_mut(&key) {
        parked.push_back(design);
        return Ok(());
    }
    match session.cache.get(key) {
        Some(result) => {
            session.answer_hit(design, result);
            Ok(())
        }
        None => dispatch(session, pool, design, VecDeque::new(), output),
    }
}

/// Runs a design that missed the cache: a shed, or a pool submit after
/// any backpressure wait with `parked` behind it. A design that never
/// runs releases `parked` again.
fn dispatch<R, Out>(
    session: &mut Session<'_, R>,
    pool: &mut WorkerPool<DesignRequest, R>,
    design: Keyed,
    parked: VecDeque<Keyed>,
    output: &mut Out,
) -> Result<(), BatchError>
where
    R: Clone + Send + Serialize + 'static,
    Out: Write,
{
    let Keyed {
        seq,
        index,
        id,
        rid,
        client,
        key,
        design,
    } = design;

    // Deadline-aware shedding: refuse work whose deadline cannot be
    // met at the current (real + phantom) queue depth. The message
    // carries no depth estimate — that would leak real timing into
    // canonical output.
    let deadline_ms = design.deadline_ms.or(session.options.deadline_ms);
    let phantom = session.plan.overload_phantom(index);
    if session
        .admission
        .should_shed(deadline_ms, phantom)
        .is_some()
    {
        session.admission.note_shed();
        let message = format!(
            "deadline of {} ms infeasible at current queue depth",
            deadline_ms.unwrap_or(0)
        );
        let record = unrun(index, id, ErrorKind::Shed, message);
        session.finish_design(record, seq, rid.as_ref(), None);
        session.release(key, parked);
        return Ok(());
    }

    // Backpressure: a full queue or a client over its in-flight cap
    // stalls intake until completions free a slot. Never changes what
    // the request computes — only when.
    while session.admission.would_block(&client) && !session.meta.is_empty() {
        session.admission.note_backpressure();
        session.wait(pool, output)?;
    }

    let deadline = design.deadline_ms.map(Duration::from_millis);
    if !pool.submit(index, id.clone(), design, deadline) {
        // The abort fault already fired: the pool takes no more work.
        let message = "pool aborted before the job started".to_string();
        let record = unrun(index, id, ErrorKind::Cancelled, message);
        let record = record.with_shard(session.shard_tag(key));
        session.finish_design(record, seq, rid.as_ref(), None);
        session.release(key, parked);
        return Ok(());
    }
    session.admission.begin(&client);
    session.in_flight_keys.insert(key, parked);
    session.meta.insert(
        index,
        PendingJob {
            seq,
            rid,
            client,
            key,
        },
    );
    Ok(())
}

/// Dispatches every released copy; with `all`, also waits until no
/// copy is parked, so every design read so far is answered or running.
fn settle<R, Out>(
    session: &mut Session<'_, R>,
    pool: &mut WorkerPool<DesignRequest, R>,
    output: &mut Out,
    all: bool,
) -> Result<(), BatchError>
where
    R: Clone + Send + Serialize + 'static,
    Out: Write,
{
    loop {
        while let Some((design, parked)) = session.released.pop_front() {
            dispatch(session, pool, design, parked, output)?;
        }
        if !all || session.in_flight_keys.values().all(VecDeque::is_empty) {
            return Ok(());
        }
        session.wait(pool, output)?;
    }
}

/// The `trace_json` file body: `{"jobs":[<trace>...]}`, in the order
/// designs were answered. Cache hits and designs answered without
/// running carry no trace and are omitted.
fn render_trace_file<R>(records: &[JobRecord<R>]) -> String {
    use serde::{Map, Value};
    let jobs = Value::Array(
        records
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .map(Serialize::to_value)
            .collect(),
    );
    let mut map = Map::new();
    map.insert("jobs".into(), jobs);
    Value::Object(map).to_json()
}

/// One `youtiao serve` session over a sharded cache opened from
/// `options`: daemon frames in, responses out. See the module docs for
/// the protocol and the determinism contract.
pub fn run_daemon<R, In, Out>(
    executor: Executor<DesignRequest, R>,
    options: &DaemonOptions,
    input: In,
    output: &mut Out,
) -> Result<DaemonReport, BatchError>
where
    R: Clone + Send + Serialize + Deserialize + 'static,
    In: BufRead + Send + 'static,
    Out: Write,
{
    run_session(executor, options, input, output, Protocol::Daemon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ExecError;
    use crate::request::ChipRequest;
    use serde::Value;
    use std::io::Cursor;

    /// The batch tests' cheap executor: "result" is the qubit count.
    fn counting_executor() -> Executor<DesignRequest, u64> {
        Arc::new(|request: &DesignRequest, ctx| {
            ctx.cancel
                .checkpoint()
                .map_err(|_| ExecError::cancelled())?;
            let chip = request
                .chip
                .build()
                .map_err(|e| ExecError::permanent(ErrorKind::InvalidRequest, e.to_string()))?;
            Ok(chip.num_qubits() as u64)
        })
    }

    fn design_line(rows: usize, rid: &str) -> String {
        format!(
            r#"{{"op":"design","rid":"{rid}","request":{{"chip":{{"topology":"square","rows":{rows},"cols":3}}}}}}"#
        )
    }

    /// [`counting_executor`] holding each job for ~20 ms, polling its
    /// cancel token: jobs are reliably still in flight when the next
    /// frame is read.
    fn slow_counting_executor() -> Executor<DesignRequest, u64> {
        let inner = counting_executor();
        Arc::new(move |request: &DesignRequest, ctx| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(20) {
                ctx.cancel
                    .checkpoint()
                    .map_err(|_| ExecError::cancelled())?;
                std::thread::sleep(Duration::from_millis(2));
            }
            inner(request, ctx)
        })
    }

    fn run_session(input: &str, options: &DaemonOptions) -> (Vec<String>, DaemonReport) {
        run_session_with(counting_executor(), input, options)
    }

    fn run_session_with(
        executor: Executor<DesignRequest, u64>,
        input: &str,
        options: &DaemonOptions,
    ) -> (Vec<String>, DaemonReport) {
        let mut out = Vec::new();
        let report =
            run_daemon(executor, options, Cursor::new(input.to_string()), &mut out).unwrap();
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        (lines, report)
    }

    #[test]
    fn session_answers_in_request_order_and_acks_shutdown_last() {
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            r#"{"op":"ping","rid":"p1"}"#,
            design_line(2, "d1"),
            design_line(3, "d2"),
            r#"{"op":"stats","rid":"s1"}"#,
            r#"{"op":"shutdown","rid":"bye"}"#,
        );
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 5);
        let ops: Vec<String> = lines
            .iter()
            .map(|l| {
                serde_json::from_str::<Value>(l).unwrap()["op"]
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(ops, ["ping", "design", "design", "stats", "shutdown"]);
        let d1: Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(d1["rid"], "d1");
        assert_eq!(d1["result"], 6);
        let stats: Value = serde_json::from_str(&lines[3]).unwrap();
        assert_eq!(stats["requests"], 4, "stats counts frames seen so far");
        assert!(report.shutdown);
        assert_eq!(report.requests, 5);
        assert_eq!(report.responses, 5);
        assert_eq!(report.metrics.jobs, 2);
        assert_eq!(report.metrics.admission.admitted, 2);
    }

    #[test]
    fn eof_ends_the_session_after_draining() {
        let input = format!("{}\n{}\n", design_line(2, "a"), design_line(2, "b"));
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 2);
        assert!(!report.shutdown, "EOF is not an in-band shutdown");
        // The duplicate was coalesced or served from cache; either way
        // both carry the same result.
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["result"], 6);
        }
        assert_eq!(report.metrics.ok, 2);
    }

    #[test]
    fn bad_frames_and_bad_requests_get_error_responses_in_order() {
        let input = format!(
            "not json\n{}\n{}\n{}\n",
            r#"{"op":"reboot","rid":"r"}"#,
            r#"{"op":"design","rid":"x"}"#,
            r#"{"op":"design","rid":"k","request":{"chip":{"topology":"klein-bottle"}}}"#,
        );
        let (lines, report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(lines.len(), 4);
        let v: Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(v["op"], "error");
        assert_eq!(v["line"], 1);
        let v: Value = serde_json::from_str(&lines[1]).unwrap();
        assert!(v["error"].as_str().unwrap().contains("reboot"));
        assert_eq!(v["rid"], "r");
        let v: Value = serde_json::from_str(&lines[2]).unwrap();
        assert!(v["error"].as_str().unwrap().contains("missing `request`"));
        // An unresolvable chip is a design *record*, not a protocol error.
        let v: Value = serde_json::from_str(&lines[3]).unwrap();
        assert_eq!(v["op"], "design");
        assert_eq!(v["status"], "Error");
        assert_eq!(v["error"]["kind"], "InvalidRequest");
        assert_eq!(report.metrics.jobs, 1);
        assert_eq!(report.metrics.errors, 1);
    }

    #[test]
    fn equal_seed_sessions_are_byte_identical_across_workers_and_shards() {
        // 12 designs over 3 distinct chips (duplicates exercise the
        // coalescing path) plus interleaved control frames.
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&design_line(2 + i % 3, &format!("d{i}")));
            input.push('\n');
            if i == 5 {
                input.push_str("{\"op\":\"stats\",\"rid\":\"mid\"}\n");
            }
        }
        input.push_str("{\"op\":\"shutdown\"}\n");

        let mut outputs = Vec::new();
        for (workers, shards) in [(1usize, 1usize), (4, 1), (1, 8), (4, 8), (2, 3)] {
            let options = DaemonOptions {
                workers,
                shards,
                faults: Some(FaultPlan::smoke(2)),
                ..DaemonOptions::default()
            };
            let (lines, _) = run_session(&input, &options);
            outputs.push((workers, shards, lines.join("\n")));
        }
        let (_, _, reference) = &outputs[0];
        for (workers, shards, output) in &outputs[1..] {
            assert_eq!(
                output, reference,
                "canonical session diverged at workers={workers} shards={shards}"
            );
        }
    }

    #[test]
    fn non_canonical_responses_carry_run_fields_and_shard_tags() {
        let input = format!("{}\n{}\n", design_line(2, "a"), design_line(2, "b"));
        let options = DaemonOptions {
            canonical: false,
            shards: 4,
            workers: 1,
            ..DaemonOptions::default()
        };
        let (lines, report) = run_session(&input, &options);
        let first: Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(first["cache_hit"], false);
        assert_eq!(first["attempts"], 1);
        assert!(first.get("shard").is_some(), "sharded runs tag the shard");
        let second: Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(second["cache_hit"], true, "duplicate served from cache");
        assert_eq!(second["attempts"], 0);
        assert_eq!(second["shard"], first["shard"]);
        assert_eq!(report.metrics.shards.len(), 4);
        let jobs: usize = report.metrics.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(jobs, 2);
    }

    #[test]
    fn overload_burst_sheds_deterministically() {
        // est 10ms over 2 workers with 60s deadlines: nothing sheds on
        // real depth, but the burst's million phantom jobs shed indices
        // 3..7 regardless of scheduling. Chips are all distinct — a
        // duplicate is served from cache before the shed check, which
        // is always deadline-feasible.
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&format!(
                r#"{{"op":"design","rid":"d{i}","request":{{"chip":{{"topology":"square","rows":{},"cols":3}},"deadline_ms":60000}}}}"#,
                2 + i
            ));
            input.push('\n');
        }
        let options = DaemonOptions {
            workers: 2,
            admission: AdmissionConfig {
                max_queue: 64,
                client_inflight: 0,
                est_ms: 10.0,
            },
            faults: Some(FaultPlan {
                overload_burst: Some(crate::fault::OverloadBurst {
                    start: Some(3),
                    count: Some(4),
                    extra: Some(1_000_000),
                }),
                ..FaultPlan::default()
            }),
            ..DaemonOptions::default()
        };
        let (lines, report) = run_session(&input, &options);
        let (lines_again, _) = run_session(&input, &options);
        assert_eq!(lines, lines_again, "pinned overload is reproducible");
        assert_eq!(report.metrics.admission.shed, 4);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).unwrap();
            if (3..7).contains(&i) {
                assert_eq!(v["error"]["kind"], "Shed", "index {i}");
                assert!(v["error"]["message"]
                    .as_str()
                    .unwrap()
                    .contains("infeasible"));
            } else {
                assert_eq!(v["status"], "Ok", "index {i}: {v}");
            }
        }
    }

    #[test]
    fn client_inflight_cap_backpressures_without_changing_output() {
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&design_line(2 + i % 3, &format!("d{i}")));
            input.push('\n');
        }
        let capped = DaemonOptions {
            workers: 4,
            admission: AdmissionConfig {
                max_queue: 64,
                client_inflight: 1,
                est_ms: 0.0,
            },
            ..DaemonOptions::default()
        };
        let (capped_lines, capped_report) =
            run_session_with(slow_counting_executor(), &input, &capped);
        let (free_lines, free_report) = run_session(&input, &DaemonOptions::default());
        assert_eq!(capped_lines, free_lines, "backpressure never alters bytes");
        assert!(
            capped_report.metrics.admission.backpressure_waits > 0,
            "the cap actually stalled intake"
        );
        assert_eq!(free_report.metrics.admission.backpressure_waits, 0);
        assert!(capped_report.metrics.admission.max_in_flight <= 1);
    }

    #[test]
    fn daemon_cache_persists_and_survives_single_shard_loss() {
        let path = std::env::temp_dir().join(format!(
            "youtiao-daemon-test-{}.cache.json",
            std::process::id()
        ));
        let shards = 4usize;
        for index in 0..shards {
            let _ = std::fs::remove_file(shard_file(&path, index, shards));
        }
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&design_line(2 + i, &format!("d{i}")));
            input.push('\n');
        }
        let options = DaemonOptions {
            shards,
            cache_path: Some(path.clone()),
            canonical: false,
            ..DaemonOptions::default()
        };
        let run = |options: &DaemonOptions| {
            let mut out = Vec::new();
            let report = run_daemon(
                counting_executor(),
                options,
                Cursor::new(input.clone()),
                &mut out,
            )
            .unwrap();
            (String::from_utf8(out).unwrap(), report)
        };

        let (_, cold) = run(&options);
        assert_eq!(cold.metrics.cache_hits, 0);
        let (_, warm) = run(&options);
        assert_eq!(warm.metrics.cache_hits, 6, "all six keys persisted");

        // Lose one shard via the fault plan: only its keys recompute.
        let keys: Vec<u64> = (0..6)
            .map(|i| {
                let mut r = DesignRequest::new(ChipRequest::grid("square", 2 + i, 3));
                r.id = Some(format!("d{i}"));
                r.cache_key().unwrap()
            })
            .collect();
        let lost_shard = crate::shard::shard_of_key(keys[0], shards);
        let lost = keys
            .iter()
            .filter(|k| crate::shard::shard_of_key(**k, shards) == lost_shard)
            .count() as u64;
        assert!(lost > 0, "the lost shard holds at least the first key");
        let lossy = DaemonOptions {
            faults: Some(FaultPlan {
                shard_loss: Some(lost_shard),
                ..FaultPlan::default()
            }),
            ..options.clone()
        };
        let (_, after_loss) = run(&lossy);
        assert_eq!(after_loss.metrics.cache_hits, 6 - lost);
        assert_eq!(after_loss.metrics.cache_misses, lost);

        for index in 0..shards {
            let _ = std::fs::remove_file(shard_file(&path, index, shards));
        }
    }

    #[test]
    fn duplicate_keys_count_one_miss_per_distinct_key() {
        // 12 designs over 3 distinct chips: whether a copy arrives while
        // its first is in flight or after it finished, it is one hit,
        // and each distinct key is one miss — at any worker count.
        let (mut session, mut batch) = (String::new(), String::new());
        for i in 0..12 {
            session.push_str(&design_line(2 + i % 3, &format!("d{i}")));
            session.push('\n');
            batch.push_str(&format!(
                "{{\"chip\":{{\"topology\":\"square\",\"rows\":{},\"cols\":3}}}}\n",
                2 + i % 3
            ));
        }
        for workers in [1usize, 4] {
            let options = DaemonOptions {
                workers,
                ..DaemonOptions::default()
            };
            let (_, report) = run_session_with(slow_counting_executor(), &session, &options);
            let metrics = crate::batch::run_batch(
                slow_counting_executor(),
                &options,
                Cursor::new(batch.clone()),
                &mut Vec::new(),
            )
            .unwrap();
            for metrics in [report.metrics, metrics] {
                assert_eq!(metrics.cache_misses, 3, "workers={workers}");
                assert_eq!(metrics.cache_hits, 9, "workers={workers}");
            }
        }
    }

    #[test]
    fn a_parked_duplicate_does_not_stall_intake() {
        // A, A, B, C, D over 4 workers: the copy of A parks behind A's
        // job and intake goes on, so B, C and D start while A runs. A
        // holds its worker until all four jobs have started (or 5 s
        // pass, which is the failure).
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let started = Arc::new(AtomicUsize::new(0));
        let overlapped = Arc::new(AtomicBool::new(false));
        let (seen, flag) = (started.clone(), overlapped.clone());
        let inner = counting_executor();
        let executor: Executor<DesignRequest, u64> = Arc::new(move |request, ctx| {
            seen.fetch_add(1, Ordering::SeqCst);
            if request.chip.rows == Some(2) {
                let start = Instant::now();
                while seen.load(Ordering::SeqCst) < 4 && start.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                flag.store(seen.load(Ordering::SeqCst) >= 4, Ordering::SeqCst);
            }
            inner(request, ctx)
        });
        let input: String = [2, 2, 3, 4, 5]
            .iter()
            .map(|rows| {
                format!("{{\"chip\":{{\"topology\":\"square\",\"rows\":{rows},\"cols\":3}}}}\n")
            })
            .collect();
        let options = DaemonOptions {
            workers: 4,
            canonical: false,
            ..DaemonOptions::default()
        };
        let mut out = Vec::new();
        let metrics =
            crate::batch::run_batch(executor, &options, Cursor::new(input), &mut out).unwrap();
        assert!(overlapped.load(Ordering::SeqCst), "B, C, D ran while A did");
        assert_eq!(started.load(Ordering::SeqCst), 4, "A's copy never ran");
        assert_eq!((metrics.cache_misses, metrics.cache_hits), (4, 1));
        let records: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        let order: Vec<u64> = records
            .iter()
            .map(|r| r["index"].as_u64().unwrap())
            .collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        assert_eq!(records[1]["cache_hit"], true);
        assert_eq!(records[1]["result"], records[0]["result"]);
    }

    #[test]
    fn stats_waits_for_a_parked_copy_to_settle() {
        // d0's job fails after ~20 ms, so its parked copy d1 is
        // dispatched again — and shed, by a pinned burst on index 1.
        // The stats frame behind them reports that shed at any timing.
        let inner = slow_counting_executor();
        let executor: Executor<DesignRequest, u64> = Arc::new(move |request, ctx| {
            inner(request, ctx)?;
            Err(ExecError::permanent(ErrorKind::InvalidRequest, "refused"))
        });
        let design = r#"{"op":"design","rid":"RID","request":{"chip":{"topology":"square","rows":2,"cols":3},"deadline_ms":60000}}"#;
        let input = format!(
            "{}\n{}\n{}\n",
            design.replace("RID", "d0"),
            design.replace("RID", "d1"),
            r#"{"op":"stats","rid":"s"}"#,
        );
        let options = DaemonOptions {
            workers: 2,
            admission: AdmissionConfig {
                est_ms: 10.0,
                ..AdmissionConfig::default()
            },
            faults: Some(FaultPlan {
                overload_burst: Some(crate::fault::OverloadBurst {
                    start: Some(1),
                    count: Some(1),
                    extra: Some(1_000_000),
                }),
                ..FaultPlan::default()
            }),
            ..DaemonOptions::default()
        };
        let (lines, report) = run_session_with(executor, &input, &options);
        assert_eq!(lines.len(), 3);
        let copy: Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(copy["error"]["kind"], "Shed", "{copy}");
        let stats: Value = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(stats["shed"], 1, "{stats}");
        assert_eq!(report.metrics.cache_misses, 2, "one lookup per copy");
    }

    /// Live instances of [`Counted`], the memory-bound test's result.
    static LIVE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A result that counts its live instances.
    struct Counted(u64);

    impl Counted {
        fn new(value: u64) -> Self {
            LIVE.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Counted(value)
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Serialize for Counted {
        fn to_value(&self) -> Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Counted {
        fn from_value(value: &Value) -> Result<Self, serde::DeError> {
            u64::from_value(value).map(Counted::new)
        }
    }

    /// An output that samples [`LIVE`] at every line it is handed.
    struct Sampling {
        live: Vec<usize>,
    }

    impl Write for Sampling {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.contains(&b'\n') {
                self.live
                    .push(LIVE.load(std::sync::atomic::Ordering::SeqCst));
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn session_holds_no_result_past_its_response() {
        let inner = counting_executor();
        let executor: Executor<DesignRequest, Counted> =
            Arc::new(move |request: &DesignRequest, ctx| inner(request, ctx).map(Counted::new));
        let mut input = String::new();
        for i in 0..24 {
            input.push_str(&design_line(2 + i, &format!("d{i}")));
            input.push('\n');
        }
        let options = DaemonOptions {
            workers: 1,
            cache_capacity: 1,
            ..DaemonOptions::default()
        };
        let mut output = Sampling { live: Vec::new() };
        let report = run_daemon(executor, &options, Cursor::new(input), &mut output).unwrap();
        assert_eq!(report.metrics.ok, 24);
        assert_eq!(output.live.len(), 24);
        // When the last response is written, only the one cached entry
        // is alive: the 24 answered records no longer hold results.
        assert_eq!(output.live.last(), Some(&1), "{:?}", output.live);
    }
}
