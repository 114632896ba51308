//! End-to-end and per-layer benchmark of the YOUTIAO design service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-design|plan-sweep|daemon-warm|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the program's own front doors — an in-process
//! `youtiao serve` session (`serve::run_design_daemon`) or the sweep
//! engine (`xplore::run_sweep`) — as one closed-loop client and prints
//! the end-to-end metrics. `--trace 1` runs the same operations again,
//! replayed through each layer's public calls with spans recorded by
//! this binary, and prints the per-layer metrics. The last stdout line
//! is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for the rationale.

mod alloc;
mod check;
mod session;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use youtiao::chip::Chip;
use youtiao::core::tdm::DemuxLevel;
use youtiao::core::{PlanContext, PlannerConfig, YoutiaoPlanner};
use youtiao::cost::WiringTally;
use youtiao::serve::effective_plan_threads;
use youtiao::xplore::{
    run_sweep, GridPoint, PointResult, SweepGrid, SweepOptions, SweepRecord, SweepSpec,
};

use crate::session::Session;
use crate::stats::{digest, geomean, host_probe_ms, median, tail, tail_rank, Digest};
use crate::trace::{layer_of, self_times, Recorder, Replay, Span, LAYERS};
use crate::workload::DaemonWorkload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up is repeated this many times per run and its median reported,
/// so one slow set-up does not move `setup_s`.
const SETUP_ROUNDS: usize = 3;

/// Traced spans must account for the untraced latency of the same
/// operations within this share (summed over the run).
const RECONCILE_TOLERANCE: f64 = 0.15;

const WORKLOADS: [&str; 3] = ["cold-design", "plan-sweep", "daemon-warm"];

const USAGE: &str =
    "usage: perfbench --workload <cold-design|plan-sweep|daemon-warm|all> --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = get("workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

/// One run's result: the final JSON line plus diagnostics printed just
/// before it.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    diagnostics: BTreeMap<String, String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn diag(&mut self, name: &str, json: impl Into<String>) {
        self.diagnostics.insert(name.to_string(), json.into());
    }

    fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.problems.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.problems.push(message);
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn print(&self) {
        let diagnostics: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"diagnostics\":{{{}}}}}", diagnostics.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

fn json_f64s(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in workloads {
        let probe_before = host_probe_ms();
        let mut report = match (workload, args.trace) {
            ("plan-sweep", false) => sweep_e2e(&args),
            ("plan-sweep", true) => sweep_traced(&args),
            (_, false) => daemon_e2e(workload, &args),
            (_, true) => daemon_traced(workload, &args),
        };
        let probe_after = host_probe_ms();
        report.diag("workload", json_str(workload));
        report.diag("seed", args.seed.to_string());
        report.diag("host.probe_ms", json_f64s(&[probe_before, probe_after]));
        if args.trace {
            report.metric("host.probe_ms", (probe_before + probe_after) / 2.0, "ms");
        }
        eprintln!(
            "== {workload} (seed {}, trace {})",
            args.seed,
            u8::from(args.trace)
        );
        for (name, value, unit) in &report.metrics {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
        eprintln!(
            "  host.probe_ms before/after      {probe_before:.2} / {probe_after:.2} (diagnostic)"
        );
        report.print();
        all_correct &= report.correct();
    }
    std::io::stdout().flush().expect("stdout flush");
    if !all_correct {
        std::process::exit(1);
    }
}

fn daemon_workload(workload: &str, args: &Args) -> DaemonWorkload {
    match workload {
        "cold-design" => workload::cold_design(args.seed, args.seconds),
        _ => workload::daemon_warm(args.seed, args.seconds),
    }
}

/// Reduction factors of checked operations, failed ones counting 1.0.
#[derive(Default)]
struct Scores {
    cost: Vec<f64>,
    coax: Vec<f64>,
}

impl Scores {
    fn add(
        &mut self,
        report: &mut Report,
        checked: Result<check::Outcome, String>,
        response: &str,
    ) {
        match checked {
            Ok(outcome) => {
                if !outcome.ok {
                    report.failed += 1;
                }
                self.cost.push(outcome.cost_reduction);
                self.coax.push(outcome.coax_reduction);
            }
            Err(e) => report.problem(format!("{e} (response {})", truncate(response))),
        }
    }
}

/// Checks every response and folds the outcomes into the shared
/// end-to-end quality metrics.
fn score(report: &mut Report, ops: &[workload::Op], responses: &[String]) -> (Vec<f64>, Vec<f64>) {
    let mut scores = Scores::default();
    let mut checker = check::Checker::default();
    for (op, response) in ops.iter().zip(responses) {
        let checked = checker.check(op.request_key, &op.request, response);
        scores.add(report, checked, response);
    }
    (scores.cost, scores.coax)
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(160)]
}

/// Per-class median latency and the classes the two percentiles fall
/// in; a percentile whose neighbours belong to another class sits on a
/// class boundary.
fn class_diagnostics(report: &mut Report, classes: &[&str], latencies: &[(f64, &str)]) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(ms, class) in latencies {
        by_class.entry(class).or_default().push(ms);
    }
    let medians: Vec<String> = classes
        .iter()
        .filter_map(|c| by_class.get(c).map(|v| (c, v)))
        .map(|(c, v)| {
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            format!(
                "\"{c}\":{{\"n\":{},\"p10_ms\":{},\"median_ms\":{},\"p90_ms\":{},\"max_ms\":{}}}",
                v.len(),
                at(0.1),
                median(v),
                at(0.9),
                at(1.0)
            )
        })
        .collect();
    report.diag("class_median_ms", format!("{{{}}}", medians.join(",")));
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    let at = |rank: usize| -> String {
        let class = sorted[rank].1;
        let interior = (rank == 0 || sorted[rank - 1].1 == class)
            && (rank + 1 == n || sorted[rank + 1].1 == class);
        format!("{{\"class\":\"{class}\",\"interior\":{interior}}}")
    };
    report.diag("p50_at", at((n - 1) / 2));
    report.diag("tail_at", at(tail_rank(n) - 1));
}

fn latency_metrics(report: &mut Report, latencies_ms: &[f64], wall_s: f64) {
    let (tail_ms, percentile, beyond) = tail(latencies_ms);
    report.metric("latency_p50_ms", median(latencies_ms), "ms");
    report.metric("latency_tail_ms", tail_ms, "ms");
    report.metric("throughput_rps", latencies_ms.len() as f64 / wall_s, "op/s");
    report.diag(
        "latency_tail",
        format!(
            "{{\"percentile\":{percentile},\"samples\":{},\"beyond\":{beyond}}}",
            latencies_ms.len()
        ),
    );
}

fn quality_metrics(report: &mut Report, cost: &[f64], coax: &[f64], setup_s: &[f64]) {
    let attempted = report.attempted as f64;
    let error_share = report.failed as f64 / attempted;
    report.metric("ok_share", 1.0 - error_share, "ratio");
    report.metric("cost_reduction_geomean", geomean(cost), "x");
    report.metric("coax_reduction_geomean", geomean(coax), "x");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB");
    report.diag("error_share", error_share.to_string());
    report.diag("setup_s", json_f64s(setup_s));
}

/// `--trace 0` on a daemon workload: set up (three times, keeping the
/// last session), then one closed-loop client over the measured ops.
fn daemon_e2e(workload: &str, args: &Args) -> Report {
    let w = daemon_workload(workload, args);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut setup_responses = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_ROUNDS {
        drop(session.take());
        let started = Instant::now();
        let mut s = Session::start(None);
        setup_responses = w.setup.iter().map(|op| s.call(&op.frame).0).collect();
        setup_s.push(started.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up round");

    // Each response is checked, and folded into the digest, as soon as
    // it arrives: the run keeps no response, so the heap peak is the
    // daemon's. The measured wall time is the sum of the request
    // windows; the client's own checking is not part of it.
    let mut setup_report = Report::default();
    score(&mut setup_report, &w.setup, &setup_responses);
    for problem in setup_report.problems {
        report.problem(format!("set-up: {problem}"));
    }
    let mut latencies = Vec::with_capacity(w.ops.len());
    let mut scores = Scores::default();
    let mut digest = Digest::new();
    let mut checker = check::Checker::default();
    for op in &w.ops {
        let (response, latency) = session.call(&op.frame);
        latencies.push(latency.as_secs_f64() * 1e3);
        digest.line(&response);
        let checked = checker.check(op.request_key, &op.request, &response);
        scores.add(&mut report, checked, &response);
    }
    let wall_s = latencies.iter().sum::<f64>() / 1e3;
    let daemon = session.finish();
    report.attempted = w.ops.len();
    let (cost, coax) = (scores.cost, scores.coax);
    latency_metrics(&mut report, &latencies, wall_s);
    quality_metrics(&mut report, &cost, &coax, &setup_s);

    let tagged: Vec<(f64, &str)> = latencies
        .iter()
        .zip(&w.ops)
        .map(|(&ms, op)| (ms, op.class))
        .collect();
    class_diagnostics(&mut report, &w.classes, &tagged);
    report.diag("digest", json_str(&digest.hex()));
    report.diag("measured_s", wall_s.to_string());
    report.diag(
        "daemon",
        format!(
            "{{\"cache_hits\":{},\"cache_misses\":{},\"repair_hits\":{},\"repair_fallbacks\":{}}}",
            daemon.metrics.cache_hits,
            daemon.metrics.cache_misses,
            daemon.metrics.repair.hits,
            daemon.metrics.repair.fallbacks
        ),
    );
    report
}

/// Per-layer aggregation shared by the traced runs.
struct LayerTotals {
    ops: usize,
    /// Self time per layer, summed over the measured operations.
    self_ms: BTreeMap<&'static str, f64>,
    /// Total (not self) time per span name.
    total_ms: HashMap<&'static str, f64>,
    /// Planner sub-stage totals.
    stage_ms: HashMap<&'static str, f64>,
    count: HashMap<&'static str, usize>,
    failures: HashMap<&'static str, usize>,
    op_ms: f64,
}

impl LayerTotals {
    fn new(spans: &[Span], ops: usize, op_ms: f64) -> LayerTotals {
        let selfs = self_times(spans);
        let mut totals = LayerTotals {
            ops,
            self_ms: LAYERS.iter().map(|&l| (l, 0.0)).collect(),
            total_ms: HashMap::new(),
            stage_ms: HashMap::new(),
            count: HashMap::new(),
            failures: HashMap::new(),
            op_ms,
        };
        for span in spans {
            if span.stage {
                *totals.stage_ms.entry(span.name).or_default() += span.ms();
                continue;
            }
            *totals.self_ms.entry(layer_of(span.name)).or_default() += selfs[&span.id];
            *totals.total_ms.entry(span.name).or_default() += span.ms();
            *totals.count.entry(span.name).or_default() += 1;
            if span.failed {
                *totals.failures.entry(span.name).or_default() += 1;
            }
        }
        totals
    }

    fn per_op(&self, ms: f64) -> f64 {
        ms / self.ops as f64
    }

    fn share(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0) / self.op_ms
    }

    fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    fn largest(&self) -> (&'static str, f64) {
        self.self_ms
            .iter()
            .map(|(&l, &ms)| (l, ms))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("layers are listed")
    }

    fn shares_json(&self) -> String {
        let items: Vec<String> = self
            .self_ms
            .iter()
            .map(|(l, ms)| format!("\"{l}\":{}", ms / self.op_ms))
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// The per-layer metric set every traced run reports.
    fn emit(&self, report: &mut Report) {
        let noise_self = self.self_ms["noise"];
        report.metric("noise.busy_ms", self.per_op(noise_self), "ms");
        report.metric("noise.share", self.share("noise"), "ratio");
        report.metric(
            "noise.fits",
            self.count.get("noise.fit").copied().unwrap_or(0) as f64,
            "count",
        );
        report.metric(
            "core.context.busy_ms",
            self.per_op(self.total("core.context")),
            "ms",
        );
        report.metric(
            "core.plan.busy_ms",
            self.per_op(self.total("core.plan")),
            "ms",
        );
        report.metric("core.share", self.share("core"), "ratio");
        for stage in PLAN_STAGES {
            let ms = self.stage_ms.get(stage).copied().unwrap_or(0.0);
            report.metric(&format!("core.plan.{stage}_ms"), self.per_op(ms), "ms");
        }
        report.metric("route.busy_ms", self.per_op(self.self_ms["route"]), "ms");
        report.metric("route.share", self.share("route"), "ratio");
        report.metric(
            "route.failures",
            self.failures.get("route.channel").copied().unwrap_or(0) as f64,
            "count",
        );
        report.metric("repair.busy_ms", self.per_op(self.self_ms["repair"]), "ms");
        report.metric("repair.share", self.share("repair"), "ratio");
        report.metric("multi.busy_ms", self.per_op(self.self_ms["multi"]), "ms");
        report.metric("multi.share", self.share("multi"), "ratio");
        report.metric("chip.share", self.share("chip"), "ratio");
        report.metric("serve.share", self.share("serve"), "ratio");
        report.metric("xplore.share", self.share("xplore"), "ratio");
        report.diag("layer_shares", self.shares_json());
    }
}

/// Sub-stages `plan_with_hook` reports on the context-backed path.
const PLAN_STAGES: [&str; 8] = [
    "fdm_grouping",
    "tdm_grouping",
    "freq_alloc",
    "freq.place",
    "freq.swap",
    "readout",
    "readout.place",
    "readout.swap",
];

/// Records whether a stated prediction held, with the measured value.
fn prediction(held: &mut Vec<String>, name: &str, measured: f64, ok: bool) {
    eprintln!(
        "  prediction {name}: measured {measured:.4} -> {}",
        if ok { "held" } else { "NOT held" }
    );
    held.push(format!(
        "{{\"prediction\":{},\"measured\":{measured},\"held\":{ok}}}",
        json_str(name)
    ));
}

/// `--trace 1` on a daemon workload: an untraced session and a traced
/// one (the replaying executor under `serve::run_daemon`) answer every
/// frame in turn; their responses must be byte-equal.
fn daemon_traced(workload: &str, args: &Args) -> Report {
    let w = daemon_workload(workload, args);
    let mut report = Report::default();
    let epoch = Instant::now();
    let ids = Arc::new(AtomicU64::new(0));
    let replay = Replay::new(epoch, Arc::clone(&ids), w.setup.len());
    let mut plain = Session::start(None);
    let mut traced = Session::start(Some(replay.executor()));
    for op in &w.setup {
        let (a, _) = plain.call(&op.frame);
        let (b, _) = traced.call(&op.frame);
        if a != b {
            report.problem(format!("set-up replay differs for {}", op.class));
        }
    }

    let n = w.ops.len();
    let mut client_spans = Vec::new();
    let mut untraced_ms = Vec::with_capacity(n);
    let mut responses = Vec::with_capacity(n);
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for (i, op) in w.ops.iter().enumerate() {
        let started = Instant::now();
        let (a, latency) = plain.call(&op.frame);
        plain_wall += started.elapsed().as_secs_f64();
        untraced_ms.push(latency.as_secs_f64() * 1e3);
        let started = Instant::now();
        let mut rec = Recorder::new(epoch, Arc::clone(&ids), i, 0);
        rec.time("chip.build", |_| op.request.chip.build().is_ok());
        rec.time("serve.key", |_| op.request.cache_key().is_ok());
        let (b, _) = rec.time("serve.request", |_| traced.call(&op.frame));
        traced_wall += started.elapsed().as_secs_f64();
        if a != b {
            report.problem(format!(
                "replay of op {i} ({}) is not byte-equal to the session's response",
                op.class
            ));
        }
        client_spans.extend(rec.spans);
        responses.push(a);
    }
    plain.finish();
    traced.finish();

    report.attempted = n;
    score(&mut report, &w.ops, &responses);

    // Attach every executor attempt to its operation's request span,
    // and keep only the measured operations.
    let request_span: HashMap<usize, u32> = client_spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| (s.op, s.id))
        .collect();
    let mut exec_spans: Vec<Span> = replay
        .spans
        .lock()
        .expect("span sink lock")
        .drain(..)
        .filter(|s| s.op < n)
        .collect();
    for span in exec_spans.iter_mut() {
        if span.name == "serve.exec" && span.parent.is_none() {
            span.parent = request_span.get(&span.op).copied();
        }
    }
    let mut attempts = vec![0usize; n];
    for span in exec_spans.iter().filter(|s| s.name == "serve.exec") {
        attempts[span.op] += 1;
    }
    // The client-side build and key calls replicate work the daemon
    // does inside the request window: the op tree is the request span,
    // and the replicas are moved out of its serve self time.
    let (mut tree, replicas): (Vec<Span>, Vec<Span>) = client_spans
        .into_iter()
        .partition(|s| s.name == "serve.request");
    tree.extend(exec_spans);
    let op_ms: Vec<f64> = {
        let mut v = vec![0.0; n];
        for s in tree.iter().filter(|s| s.name == "serve.request") {
            v[s.op] = s.ms();
        }
        v
    };

    let totals_for = |ops: &dyn Fn(usize) -> bool| -> LayerTotals {
        let spans: Vec<Span> = tree.iter().filter(|s| ops(s.op)).cloned().collect();
        let count = (0..n).filter(|&i| ops(i)).count().max(1);
        let total: f64 = (0..n).filter(|&i| ops(i)).map(|i| op_ms[i]).sum();
        let mut totals = LayerTotals::new(&spans, count, total);
        let build: f64 = replicas
            .iter()
            .filter(|s| ops(s.op) && s.name == "chip.build")
            .map(Span::ms)
            .sum();
        *totals.self_ms.get_mut("chip").expect("layer") += build;
        *totals.self_ms.get_mut("serve").expect("layer") -= build;
        totals
    };
    let all = totals_for(&|_| true);
    all.emit(&mut report);
    let replica_ms = |name: &str| -> f64 {
        replicas
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    };
    let exec_ms = all.total("serve.exec");
    let op_total: f64 = op_ms.iter().sum();
    let executed = attempts.iter().filter(|&&a| a > 0).count();
    report.metric(
        "chip.build_ms",
        all.per_op(replica_ms("chip.build") + all.total("chip.build")),
        "ms",
    );
    report.metric("serve.key_ms", all.per_op(replica_ms("serve.key")), "ms");
    report.metric("serve.exec_ms", all.per_op(exec_ms), "ms");
    report.metric("serve.overhead_ms", all.per_op(op_total - exec_ms), "ms");
    report.metric(
        "serve.cache_hit_ratio",
        (n - executed) as f64 / n as f64,
        "ratio",
    );
    report.metric(
        "serve.attempts_per_request",
        attempts.iter().sum::<usize>() as f64 / executed.max(1) as f64,
        "count",
    );
    let deltas = w
        .ops
        .iter()
        .filter(|op| op.request.effective_delta().is_some())
        .count();
    let local = replay.local_repairs.load(Ordering::Relaxed) as f64;
    report.metric(
        "repair.local_ratio",
        if deltas > 0 {
            local / deltas as f64
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("xplore.context_ms", 0.0, "ms");
    report.metric("xplore.points", 0.0, "count");

    // Reconciliation and tracing overhead. The gate is on the whole
    // run; per-class errors, over a handful of operations each, mostly
    // show host noise between the two sessions and are reported only.
    let untraced_total: f64 = untraced_ms.iter().sum();
    report.metric(
        "trace.overhead_ms",
        (traced_wall - plain_wall) * 1e3 / n as f64,
        "ms",
    );
    let mut per_class = Vec::new();
    for class in &w.classes {
        let idx: Vec<usize> = (0..n).filter(|&i| w.ops[i].class == *class).collect();
        if idx.is_empty() {
            continue;
        }
        let traced_sum: f64 = idx.iter().map(|&i| op_ms[i]).sum();
        let untraced_sum: f64 = idx.iter().map(|&i| untraced_ms[i]).sum();
        let error = (traced_sum - untraced_sum).abs() / untraced_sum;
        let class_totals = totals_for(&|i| i < n && w.ops[i].class == *class);
        per_class.push(format!(
            "\"{class}\":{{\"ops\":{},\"traced_ms\":{traced_sum},\"untraced_ms\":{untraced_sum},\"reconcile_error\":{error},\"shares\":{}}}",
            idx.len(),
            class_totals.shares_json()
        ));
    }
    let error = (op_ms.iter().sum::<f64>() - untraced_total).abs() / untraced_total;
    report.metric("trace.reconcile_error", error, "ratio");
    report.metric("trace.ops", n as f64, "count");
    if error > RECONCILE_TOLERANCE {
        report.problem(format!(
            "spans miss the untraced latency by {error:.3} (tolerance {RECONCILE_TOLERANCE})"
        ));
    }
    report.diag("classes", format!("{{{}}}", per_class.join(",")));
    report.diag(
        "wall_s",
        format!(
            "{{\"untraced\":{plain_wall},\"traced\":{traced_wall},\"untraced_latency_sum_s\":{}}}",
            untraced_total / 1e3
        ),
    );

    let mut held = Vec::new();
    if workload == "cold-design" {
        let share = all.share("noise");
        prediction(
            &mut held,
            "noise.share >= 0.9 on cold-design",
            share,
            share >= 0.9,
        );
    } else {
        let hits = totals_for(&|i| i < n && w.ops[i].class == "hit");
        let (largest, _) = hits.largest();
        prediction(
            &mut held,
            "serve is the largest layer on daemon-warm hits",
            hits.share("serve"),
            largest == "serve",
        );
        let share = all.share("noise");
        prediction(
            &mut held,
            "noise.share == 0 in daemon-warm's measured phase",
            share,
            share == 0.0,
        );
    }
    report.diag("predictions", format!("[{}]", held.join(",")));
    write_spans(workload, args.seed, &tree, &replicas);
    report
}

/// Spans are kept in memory during the run and written out at the end.
fn write_spans(workload: &str, seed: u64, spans: &[Span], more: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for span in spans.iter().chain(more) {
            writeln!(out, "{}", span.to_json())?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Collects streamed sweep records and when each one arrived.
struct StampSink {
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl StampSink {
    fn new() -> StampSink {
        StampSink {
            pending: Vec::new(),
            lines: Vec::new(),
        }
    }
}

impl Write for StampSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.lines.push((Instant::now(), text));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn sweep_options() -> SweepOptions {
    SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    }
}

/// One untraced sweep: its records, per-point latencies and the wait
/// for the first record. A point's latency is the time since the
/// previous record; the first record also waits for the context phase,
/// so its wait is reported separately (as `xplore.context_ms` in the
/// traced run) and is not a latency sample.
fn timed_sweep(spec: &SweepSpec) -> (Vec<String>, Vec<f64>, f64) {
    let mut sink = StampSink::new();
    let started = Instant::now();
    run_sweep(spec, &sweep_options(), &mut sink).expect("the sweep spec is valid");
    let mut previous = started;
    let mut waits = Vec::with_capacity(sink.lines.len());
    let mut lines = Vec::with_capacity(sink.lines.len());
    for (at, line) in sink.lines {
        waits.push((at - previous).as_secs_f64() * 1e3);
        previous = at;
        lines.push(line);
    }
    let first_ms = waits.remove(0);
    (lines, waits, first_ms)
}

fn couplers_by_chip(spec: &SweepSpec) -> HashMap<String, usize> {
    spec.chips
        .iter()
        .map(|c| {
            let chip = c.build().expect("sweep chips build");
            (chip.name().to_string(), chip.num_couplers())
        })
        .collect()
}

fn score_records(report: &mut Report, spec: &SweepSpec, lines: &[String]) -> (Vec<f64>, Vec<f64>) {
    let couplers = couplers_by_chip(spec);
    let lookup = |name: &str| couplers.get(name).copied().unwrap_or(0);
    let mut scores = Scores::default();
    for line in lines {
        scores.add(report, check::check_record(line, &lookup), line);
    }
    (scores.cost, scores.coax)
}

/// `--trace 0` on plan-sweep: three warm-up sweeps (median is
/// `setup_s`), then the measured sweeps, each with a fresh plan cache.
fn sweep_e2e(args: &Args) -> Report {
    let spec = workload::sweep_spec();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let started = Instant::now();
        run_sweep(&spec, &sweep_options(), &mut std::io::sink()).expect("the sweep spec is valid");
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let sweeps = workload::sweep_count(args.seconds);
    let mut latencies = Vec::new();
    let mut all_lines: Vec<String> = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let started = Instant::now();
    for _ in 0..sweeps {
        let (lines, waits, _) = timed_sweep(&spec);
        latencies.extend(waits);
        match &first {
            None => first = Some(lines.clone()),
            Some(reference) if *reference != lines => {
                report.problem("repeated sweeps streamed different records")
            }
            Some(_) => {}
        }
        all_lines.extend(lines);
    }
    let wall_s = started.elapsed().as_secs_f64();
    report.attempted = all_lines.len();
    let (cost, coax) = score_records(&mut report, &spec, &all_lines);
    latency_metrics(&mut report, &latencies, wall_s);
    quality_metrics(&mut report, &cost, &coax, &setup_s);

    // Latency samples are points 1.. of each sweep.
    let points = first.as_ref().map_or(0, Vec::len);
    let tagged: Vec<(f64, &str)> = latencies
        .iter()
        .enumerate()
        .map(|(i, &ms)| (ms, SWEEP_CLASSES[(1 + i % (points - 1)) * 3 / points]))
        .collect();
    class_diagnostics(&mut report, &SWEEP_CLASSES, &tagged);
    report.diag(
        "digest",
        json_str(&digest(first.iter().flatten().map(String::as_str))),
    );
    report.diag("measured_s", wall_s.to_string());
    report.diag("sweeps", sweeps.to_string());
    report
}

/// plan-sweep latency classes, ascending: the points of each chip (the
/// chip axis is outermost, a third of the grid each).
const SWEEP_CLASSES: [&str; 3] = ["surface-d9", "square-16x16", "square-24x24"];

/// Replays one sweep through the layers: chip builds and shared
/// contexts, then every point's plan and tally, rendered as the engine
/// renders its records.
fn replay_sweep(spec: &SweepSpec, rec: &mut Recorder) -> Vec<String> {
    rec.time("xplore.sweep", |rec| {
        let grid = SweepGrid::resolve(spec).expect("the sweep spec is valid");
        let weights = PlannerConfig::default().weights;
        let chips: Vec<(Chip, PlanContext)> = grid
            .chips
            .iter()
            .map(|request| {
                let chip = rec.time("chip.build", |_| {
                    request.build().expect("sweep chips build")
                });
                let context =
                    rec.time("core.context", |_| PlanContext::build(&chip, None, weights));
                (chip, context)
            })
            .collect();
        let plan_threads = effective_plan_threads(sweep_options().plan_threads, 1);
        (0..grid.len())
            .map(|index| {
                let point = grid.point(index);
                let (chip, context) = &chips[point.chip_idx];
                rec.time("xplore.point", |rec| {
                    replay_point(&point, chip, context, plan_threads, rec)
                })
            })
            .collect()
    })
}

fn replay_point(
    point: &GridPoint,
    chip: &Chip,
    context: &PlanContext,
    plan_threads: usize,
    rec: &mut Recorder,
) -> String {
    let mut config = PlannerConfig::default();
    config.tdm.theta = point.theta;
    config.tdm.max_shared_slots = point.max_shared_slots;
    config.tdm.allow_one_to_eight = point.one_to_eight;
    config.fdm_capacity = point.fdm_capacity;
    config.readout_capacity = point.readout_capacity;
    config.plan_threads = plan_threads;
    let skeleton = SweepRecord::skeleton(point, chip.name(), chip.num_qubits() * point.chiplets);
    let planner = YoutiaoPlanner::new(chip)
        .with_config(config)
        .with_context(context);
    let record = match rec.plan(planner) {
        Ok(plan) => {
            let dedicated = WiringTally::google(chip);
            let tally = WiringTally::youtiao(&plan);
            let (mut deep, mut one_to_two, mut direct) = (0, 0, 0);
            for group in plan.tdm_groups() {
                match group.level() {
                    DemuxLevel::OneToEight | DemuxLevel::OneToFour => deep += group.len(),
                    DemuxLevel::OneToTwo => one_to_two += group.len(),
                    _ => direct += group.len(),
                }
            }
            skeleton.with_result(&PointResult {
                qubits: chip.num_qubits(),
                xy_lines: tally.xy_lines,
                z_lines: tally.z_lines,
                readout_feedlines: tally.readout_feedlines,
                coax_lines: tally.coax_lines(),
                cost_kusd: tally.cost_kusd(),
                dedicated_coax: dedicated.coax_lines(),
                dedicated_cost_kusd: dedicated.cost_kusd(),
                demux_deep: deep,
                demux_one_to_two: one_to_two,
                demux_direct: direct,
                fidelity: None,
                mean_gate_fidelity: None,
            })
        }
        Err(e) => skeleton.with_error(e.to_string()),
    };
    serde_json::to_string(&record).expect("records always serialize")
}

/// `--trace 1` on plan-sweep: each measured sweep runs untraced through
/// `run_sweep`, then replayed through the layers; records must match
/// byte for byte.
fn sweep_traced(args: &Args) -> Report {
    let spec = workload::sweep_spec();
    let mut report = Report::default();
    let sweeps = workload::sweep_count(args.seconds);
    let epoch = Instant::now();
    let ids = Arc::new(AtomicU64::new(0));
    let mut spans = Vec::new();
    let mut lines_all = Vec::new();
    let mut context_ms = Vec::new();
    let (mut untraced_wall, mut traced_sum) = (0.0, 0.0);
    for s in 0..sweeps {
        let (lines, waits, first_ms) = timed_sweep(&spec);
        untraced_wall += first_ms + waits.iter().sum::<f64>();
        context_ms.push(first_ms);
        let mut rec = Recorder::new(epoch, Arc::clone(&ids), s, 0);
        let replayed = replay_sweep(&spec, &mut rec);
        if replayed != lines {
            report.problem(format!(
                "replay of sweep {s} is not byte-equal to run_sweep's records"
            ));
        }
        traced_sum += rec
            .spans
            .iter()
            .filter(|sp| sp.name == "xplore.sweep")
            .map(Span::ms)
            .sum::<f64>();
        spans.extend(rec.spans);
        lines_all.extend(lines);
    }
    let points = lines_all.len();
    report.attempted = points;
    score_records(&mut report, &spec, &lines_all);

    let totals = LayerTotals::new(&spans, points, traced_sum);
    totals.emit(&mut report);
    report.metric(
        "chip.build_ms",
        totals.per_op(totals.total("chip.build")),
        "ms",
    );
    // A sweep uses neither the daemon nor the repair path.
    for (name, unit) in [
        ("serve.key_ms", "ms"),
        ("serve.exec_ms", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.attempts_per_request", "count"),
        ("repair.local_ratio", "ratio"),
    ] {
        report.metric(name, 0.0, unit);
    }
    report.metric("xplore.context_ms", median(&context_ms), "ms");
    report.metric("xplore.points", points as f64, "count");
    report.metric(
        "trace.overhead_ms",
        (traced_sum - untraced_wall) / points as f64,
        "ms",
    );
    let error = (traced_sum - untraced_wall).abs() / untraced_wall;
    report.metric("trace.reconcile_error", error, "ratio");
    report.metric("trace.ops", points as f64, "count");
    if error > RECONCILE_TOLERANCE {
        report.problem(format!(
            "spans miss the untraced sweep time by {error:.3} (tolerance {RECONCILE_TOLERANCE})"
        ));
    }
    let mut held = Vec::new();
    let noise = totals.share("noise");
    prediction(
        &mut held,
        "noise.share == 0 on plan-sweep",
        noise,
        noise == 0.0,
    );
    let plan_self: f64 = {
        let selfs = self_times(&spans);
        spans
            .iter()
            .filter(|s| !s.stage && s.name == "core.plan")
            .map(|s| selfs[&s.id])
            .sum()
    };
    let largest_other = totals
        .self_ms
        .iter()
        .filter(|(l, _)| **l != "core")
        .map(|(_, &ms)| ms)
        .fold(totals.self_ms["core"] - plan_self, f64::max);
    prediction(
        &mut held,
        "core.plan is the largest layer on plan-sweep",
        plan_self / traced_sum,
        plan_self > largest_other,
    );
    report.diag("predictions", format!("[{}]", held.join(",")));
    report.diag(
        "wall_ms",
        format!("{{\"untraced\":{untraced_wall},\"traced\":{traced_sum}}}"),
    );
    write_spans("plan-sweep", args.seed, &spans, &[]);
    report
}
