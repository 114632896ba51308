//! The `youtiao` command-line tool: plan multiplexed wiring for a chip,
//! compare costs against dedicated wiring, and export chip/plan JSON.
//!
//! ```text
//! youtiao topologies
//! youtiao plan --topology square --rows 6 --cols 6 [--theta 4] [--json]
//! youtiao plan --chip my_chip.json --json
//! youtiao cost --topology heavy-square --rows 3 --cols 3
//! youtiao export-chip --topology surface --distance 5 --out chip.json
//! youtiao batch --in jobs.jsonl --out results.jsonl --jobs 8 --deadline-ms 5000
//! youtiao chaos --in jobs.jsonl --faults faults.json --seed 7 --out records.jsonl
//! youtiao serve --socket /tmp/youtiao.sock --shards 8 --cache plans.json
//! youtiao sweep --spec sweep.json --out records.jsonl --threads 8 --pareto cost,fidelity
//! youtiao bench-plan --sizes 6,8,10,12,16 --iters 9 --out BENCH_plan.json
//! youtiao bench-plan --repair --sizes 8,12 --out BENCH_repair.json
//! youtiao repair --topology square --rows 5 --cols 5 --drift 6:18:3e-3 --compare-replan
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use youtiao::bench::perf::{Layout, PerfConfig};
use youtiao::bench::repair_perf::RepairBenchConfig;
use youtiao::chip::multi::{LinkTopology, MultiDieChip};
use youtiao::chip::spec::ChipSpec;
use youtiao::chip::{Chip, CouplerId, DeviceId, QubitId};
use youtiao::core::tdm::brickwork_activity;
use youtiao::core::{CryostatBudget, PlanContext, PlanSummary, PlannerConfig, YoutiaoPlanner};
use youtiao::cost::WiringTally;
use youtiao::multi::{design_multi_chip, MultiDesignOptions};
use youtiao::repair::{
    diff_inputs, repair_plan, replan_from_snapshot, PlanInputs, QualityReport, RepairConfig,
};
use youtiao::serve::{
    content_key, near_square, run_design_batch, run_design_daemon, AdmissionConfig, ChipRequest,
    DaemonOptions, DaemonReport, FaultPlan,
};
use youtiao::xplore::{parse_objectives, run_sweep, write_csv, SweepOptions, SweepSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  youtiao topologies
  youtiao plan   <chip args> [--theta T] [--fdm-capacity K] [--one-to-eight]
                 [--plan-threads N] [--chiplets N]
                 [--link-topology grid|torus|isolated] [--coax-budget N]
                 [--validate] [--json] [--viz]
                 (--chiplets tiles the chip into a near-square multi-die array:
                  each die planned independently — byte-identical at any
                  --plan-threads — cross-die links reconciled by in-line
                  frequency swaps, an optional shared --coax-budget
                  partitioned across dies, and per-die + cross-die wiring
                  invariants checked under --validate; --validate without
                  --chiplets validates the chip as a 1x1 array, whose plan
                  is exactly the monolithic one; --viz is single-die only)
  youtiao cost   <chip args> [--theta T] [--fdm-capacity K] [--one-to-eight]
  youtiao export-chip <chip args> --out FILE
  youtiao batch  --in FILE.jsonl [--out FILE.jsonl] [--jobs N] [--plan-threads N]
                 [--deadline-ms T] [--retries R] [--cache FILE]
                 [--cache-capacity N] [--shards N]
                 [--metrics-json] [--trace-json FILE] [--validate] [--canonical]
                 (--in - reads stdin; input streams through the framed reader one
                  line at a time; records come out in request order, and a
                  request repeated within the batch is computed once and its
                  copies answered from the cache; --out defaults to stdout;
                  metrics go to stderr;
                  --jobs/--workers/--threads are synonyms: worker threads, 0 = one
                  per core (the default); --plan-threads parallelizes inside each
                  plan — plans are byte-identical at any value; left at 0 it
                  resolves to serial plans whenever the pool has >1 worker, and
                  to one thread per core when the pool is single-worker;
                  --canonical zeroes latency and strips traces from records so
                  equal-seed runs are byte-comparable;
                  --shards splits the plan cache into N
                  independently locked + persisted shards; --trace-json writes
                  per-job stage-span traces; --validate fails a job when its
                  finished plan breaks a wiring invariant)
  youtiao serve  [--socket PATH] [--shards N] [--cache FILE] [--cache-capacity N]
                 [--workers N] [--plan-threads N] [--retries R] [--deadline-ms T]
                 [--max-queue N]
                 [--client-inflight N] [--est-ms MS] [--no-canonical] [--salvage]
                 [--validate] [--faults FILE.json] [--seed N] [--metrics-json]
                 (long-lived daemon speaking newline-framed JSONL request frames
                  {\"op\":\"design\"|\"ping\"|\"stats\"|\"shutdown\",\"rid\":ID,\"request\":{...}}
                  over stdin/stdout, or one session per connection on a unix
                  socket with --socket; an in-band shutdown frame stops the
                  daemon after draining. Responses are canonical — latency
                  zeroed, traces and shard tags stripped — so equal-seed
                  sessions are byte-identical across --shards, --workers and
                  --plan-threads (same policy as batch).
                  The plan cache shards into N files, each lost or salvaged
                  (--salvage) independently; --max-queue and --client-inflight
                  bound intake (backpressure), --est-ms (non-negative) enables
                  deadline-aware load shedding (structured Shed errors);
                  per-session metrics go to stderr)
  youtiao chaos  --in FILE.jsonl [--faults FILE.json] [--seed N] [+ batch flags]
                 (batch run under a deterministic fault-injection schedule: the
                  FaultPlan JSON sets per-attempt rates for transient/permanent
                  errors, panics, delays and cancellations, an abort-after
                  threshold, and cache-file corruption; --seed overrides the
                  plan's seed; --faults defaults to the built-in smoke plan;
                  records are emitted canonical — zero latency, no trace — so
                  equal seeds give byte-identical streams)
  youtiao sweep  --spec FILE.json [--out FILE.jsonl] [--csv FILE.csv] [--threads N]
                 [--plan-threads N] [--pareto cost,coax,fidelity,latency]
                 [--cache FILE]
                 [--cache-capacity N] [--timings] [--summary-json]
                 (--spec is a SweepSpec: axes over chips/theta/capacities/modes/seeds;
                  records stream as JSONL to --out (default stdout) in grid order,
                  byte-identical for any --threads and --plan-threads (0 = one
                  per core; auto plan-threads stay serial while points fan out);
                  the Pareto
                  front and per-axis marginals go to stderr, or as JSON with
                  --summary-json; --timings adds per-point latency/stage wall times)
  youtiao repair <chip args> [--theta T] [--fdm-capacity K] [--one-to-eight]
                 [--plan-threads N]
                 [--drift A:B:X,...] [--dead-couplers A-B,...]
                 [--activity qN:MASK,cN:MASK,...] [--compare-replan] [--json]
                 (plans a base snapshot, applies the delta flags as a new
                  snapshot, diffs, and repairs: value-only drift and activity
                  deltas patch the plan locally, structural deltas fall back to
                  a full replan byte-identical to from-scratch planning;
                  --compare-replan adds the repair-vs-replan quality table and
                  tie-break verdict; prints the repaired plan's content hash)
  youtiao bench-plan [--sizes N,N,...] [--layouts grid:N,surface:D,heavy-hex:RxC]
                 [--iters N] [--plan-threads N] [--out FILE.json] [--json]
                 [--repair]
                 (times the planner's grouping/refine and freq_alloc/readout
                  hot loops and the full plan across square-grid chip sizes,
                  default 6,8,10,12,16,24 at 9 iterations, plus a partitioned
                  serial-vs-parallel plan row at --plan-threads (default 8)
                  with scratch-arena reuse probes; writes the
                  BENCH_plan.json perf trajectory to --out; a summary table
                  goes to stderr, or the full report to stdout with --json;
                  --layouts appends rotated-surface-code and heavy-hex fabrics,
                  replacing the default grid list unless --sizes is also given;
                  --repair runs the repair-vs-replan harness instead — default
                  sizes 8,12 at 15 iterations, reporting the freq-patch share
                  of the repair median — and writes the BENCH_repair.json
                  trajectory)

chip args (one of):
  --topology square|heavy-square|hexagon|heavy-hexagon|low-density|sycamore|linear|ring
             [--rows R] [--cols C] [--size N]
  --topology surface --distance D
  --topology ibm-heavy-hex --size N
  --chip FILE.json    (a ChipSpec exported by export-chip)";

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "topologies" => {
            println!("built-in topology generators:");
            for (name, note) in [
                (
                    "square",
                    "rows x cols grid (the paper's square / Xmon devices)",
                ),
                ("heavy-square", "grid with a qubit on every edge"),
                ("hexagon", "honeycomb patch (rows x cols cells)"),
                ("heavy-hexagon", "honeycomb with a qubit on every edge"),
                ("low-density", "snake path, average degree 2"),
                ("sycamore", "diagonal grid (Google-style)"),
                ("linear", "1-D chain (--size N)"),
                ("ring", "cycle (--size N)"),
                ("surface", "rotated surface code (--distance D)"),
                (
                    "ibm-heavy-hex",
                    "heavy-hex patch closest to --size N qubits",
                ),
            ] {
                println!("  {name:<15} {note}");
            }
            Ok(())
        }
        "plan" => {
            let chip = load_chip(&flags)?;
            let config = planner_config(&flags)?;
            if flags.contains_key("chiplets")
                || flags.contains_key("link-topology")
                || flags.contains_key("coax-budget")
                || flags.contains_key("validate")
            {
                return run_plan_multi(&chip, config, &flags);
            }
            let plan = YoutiaoPlanner::new(&chip)
                .with_config(config)
                .plan()
                .map_err(|e| e.to_string())?;
            let summary = PlanSummary::from_plan(&plan);
            if flags.contains_key("json") {
                let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
                println!("{json}");
            } else {
                print_plan(&chip, &summary);
            }
            if flags.contains_key("viz") {
                println!("\nFDM lines (qubits labelled by line):");
                print!("{}", youtiao::core::viz::render_fdm(&chip, &plan));
                println!("\nTDM groups (devices labelled by Z line):");
                print!("{}", youtiao::core::viz::render_tdm(&chip, &plan));
            }
            Ok(())
        }
        "cost" => {
            let chip = load_chip(&flags)?;
            let config = planner_config(&flags)?;
            let plan = YoutiaoPlanner::new(&chip)
                .with_config(config)
                .plan()
                .map_err(|e| e.to_string())?;
            let g = WiringTally::google(&chip);
            let y = WiringTally::youtiao(&plan);
            println!("{}", chip);
            println!(
                "{:<22} {:>10} {:>10} {:>8}",
                "", "dedicated", "YOUTIAO", "ratio"
            );
            let rows: [(&str, usize, usize); 5] = [
                ("XY lines", g.xy_lines, y.xy_lines),
                ("Z lines", g.z_lines, y.z_lines),
                ("coax total", g.coax_lines(), y.coax_lines()),
                ("DAC channels", g.dac_channels(), y.dac_channels()),
                ("chip interfaces", g.interfaces(), y.interfaces()),
            ];
            for (name, gv, yv) in rows {
                println!(
                    "{name:<22} {gv:>10} {yv:>10} {:>7.2}x",
                    gv as f64 / yv as f64
                );
            }
            println!(
                "{:<22} {:>9.0}K {:>9.0}K {:>7.2}x",
                "wiring cost ($)",
                g.cost_kusd(),
                y.cost_kusd(),
                g.cost_kusd() / y.cost_kusd()
            );
            Ok(())
        }
        "export-chip" => {
            let chip = load_chip(&flags)?;
            let out = flags
                .get("out")
                .and_then(|v| v.clone())
                .ok_or("export-chip requires --out FILE")?;
            let spec = ChipSpec::from_chip(&chip);
            let json = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
            std::fs::write(&out, json).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} qubits, {} couplers)",
                out,
                chip.num_qubits(),
                chip.num_couplers()
            );
            Ok(())
        }
        "batch" => {
            let options = DaemonOptions {
                canonical: flags.contains_key("canonical"),
                ..session_options(&flags)?
            };
            run_batch_command(&flags, options)
        }
        "chaos" => run_chaos_command(&flags),
        "serve" => run_serve_command(&flags),
        "sweep" => run_sweep_command(&flags),
        "repair" => run_repair_command(&flags),
        "bench-plan" => run_bench_plan_command(&flags),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The `batch` and `chaos` subcommands: JSONL requests in (`--in`, `-`
/// for stdin), read one line at a time; JSONL records out (`--out`,
/// default stdout) in request order; metrics summary on stderr.
fn run_batch_command(
    flags: &HashMap<String, Option<String>>,
    options: DaemonOptions,
) -> Result<(), String> {
    let options = DaemonOptions {
        trace_json: match flags.get("trace-json") {
            None => None,
            Some(Some(path)) => Some(std::path::PathBuf::from(path)),
            Some(None) => return Err("--trace-json expects a file path".into()),
        },
        ..options
    };
    let input = flags
        .get("in")
        .and_then(|v| v.clone())
        .ok_or("requires --in FILE (JSONL; `-` reads stdin)")?;
    let reader: Box<dyn std::io::BufRead + Send> = if input == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let file = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    let metrics = with_output(flags, |mut out| {
        run_design_batch(&options, reader, &mut out)
    })?;
    report_metrics(&metrics, flags);
    Ok(())
}

/// The `chaos` subcommand: a batch under a deterministic seeded
/// fault-injection schedule (the built-in smoke plan unless `--faults`
/// names one). Records are canonical (latency zeroed, traces stripped)
/// so two equal-seed runs are byte-identical, and a torn cache file
/// salvages to a cold start instead of failing the run.
fn run_chaos_command(flags: &HashMap<String, Option<String>>) -> Result<(), String> {
    let options = DaemonOptions {
        canonical: true,
        cache_salvage: true,
        faults: fault_plan(flags, Some(FaultPlan::smoke(0)))?,
        ..session_options(flags)?
    };

    // Scheduled panics are contained by the pool (they become Internal
    // error records); keep their default hook output — a "thread
    // panicked" line per injection — off the terminal. Anything else
    // still reaches the previous hook.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected panic") {
            previous(info);
        }
    }));

    run_batch_command(flags, options)
}

/// The session flags shared by `batch`, `chaos` and `serve`; every
/// other option is left at its default for the subcommand to set.
fn session_options(flags: &HashMap<String, Option<String>>) -> Result<DaemonOptions, String> {
    let deadline_ms = match flags.get("deadline-ms") {
        None => None,
        Some(Some(v)) => Some(
            v.parse()
                .map_err(|_| "--deadline-ms expects milliseconds")?,
        ),
        Some(None) => return Err("--deadline-ms expects a value".into()),
    };
    // `--jobs`, `--workers` and `--threads` are synonyms for the pool
    // size; 0 (the default) spawns one worker per available core.
    let workers = ["jobs", "workers", "threads"]
        .iter()
        .find(|key| flags.contains_key(**key))
        .map(|key| get_usize(flags, key, 0))
        .transpose()?
        .unwrap_or(0);
    Ok(DaemonOptions {
        workers,
        plan_threads: get_usize(flags, "plan-threads", 0)?,
        max_retries: get_usize(flags, "retries", 2)? as u32,
        deadline_ms,
        cache_capacity: get_usize(flags, "cache-capacity", 1024)?,
        shards: get_usize(flags, "shards", 1)?.max(1),
        cache_path: flags
            .get("cache")
            .and_then(|v| v.clone())
            .map(std::path::PathBuf::from),
        validate: flags.contains_key("validate"),
        ..DaemonOptions::default()
    })
}

/// The fault plan of `chaos` and `serve`: `--faults FILE` or
/// `default`, with `--seed` overriding its seed.
fn fault_plan(
    flags: &HashMap<String, Option<String>>,
    default: Option<FaultPlan>,
) -> Result<Option<FaultPlan>, String> {
    let mut faults = match flags.get("faults") {
        None => default,
        Some(Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(serde_json::from_str::<FaultPlan>(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        Some(None) => return Err("--faults expects a file path".into()),
    };
    if let Some(Some(seed)) = flags.get("seed") {
        let seed = seed.parse().map_err(|_| "--seed expects an integer")?;
        faults.get_or_insert_with(FaultPlan::default).seed = Some(seed);
    }
    if let Some(plan) = &faults {
        plan.validate().map_err(|e| format!("fault plan: {e}"))?;
    }
    Ok(faults)
}

/// Runs `run` against `--out` (default stdout), buffering file output.
fn with_output<T>(
    flags: &HashMap<String, Option<String>>,
    run: impl FnOnce(&mut dyn std::io::Write) -> Result<T, youtiao::serve::BatchError>,
) -> Result<T, String> {
    let out = flags
        .get("out")
        .and_then(|v| v.clone())
        .filter(|v| v != "-");
    match out {
        Some(path) => {
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            run(&mut writer).map_err(|e| e.to_string())
        }
        None => {
            let stdout = std::io::stdout();
            run(&mut stdout.lock()).map_err(|e| e.to_string())
        }
    }
}

/// Prints the metrics summary to stderr (JSON with `--metrics-json`).
fn report_metrics(metrics: &youtiao::serve::ServeMetrics, flags: &HashMap<String, Option<String>>) {
    if flags.contains_key("metrics-json") {
        match serde_json::to_string_pretty(metrics) {
            Ok(json) => eprintln!("{json}"),
            Err(e) => eprintln!("metrics: {e}"),
        }
    } else {
        eprintln!("{}", metrics.render());
    }
}

/// Prints one daemon session's summary + metrics to stderr.
fn report_daemon(report: &DaemonReport, flags: &HashMap<String, Option<String>>) {
    if !flags.contains_key("metrics-json") {
        let mut line = format!(
            "session: {} requests, {} responses",
            report.requests, report.responses
        );
        if report.salvaged_shards > 0 {
            line.push_str(&format!(", {} shards salvaged", report.salvaged_shards));
        }
        if report.shutdown {
            line.push_str(", shutdown");
        }
        eprintln!("{line}");
    }
    report_metrics(&report.metrics, flags);
}

/// The `serve` subcommand: a long-lived daemon session over
/// stdin/stdout, or an accept loop on a unix socket with `--socket`
/// (one session per connection; an in-band shutdown stops the daemon).
fn run_serve_command(flags: &HashMap<String, Option<String>>) -> Result<(), String> {
    let est_ms = match flags.get("est-ms") {
        None => 0.0,
        Some(Some(v)) => {
            let est: f64 = v.parse().map_err(|_| "--est-ms expects milliseconds")?;
            // A negative estimate would silently disable shedding (the
            // controller treats est_ms <= 0 as "off"); reject it here so
            // the operator learns at startup, not from missing sheds.
            if !est.is_finite() || est < 0.0 {
                return Err(format!(
                    "--est-ms expects a non-negative number of milliseconds, got `{v}`"
                ));
            }
            est
        }
        Some(None) => return Err("--est-ms expects a value".into()),
    };
    let options = DaemonOptions {
        cache_salvage: flags.contains_key("salvage"),
        canonical: !flags.contains_key("no-canonical"),
        faults: fault_plan(flags, None)?,
        admission: AdmissionConfig {
            max_queue: get_usize(flags, "max-queue", 1024)?.max(1),
            client_inflight: get_usize(flags, "client-inflight", 0)?,
            est_ms,
        },
        ..session_options(flags)?
    };
    match flags.get("socket") {
        None => {
            let reader = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            let report = run_design_daemon(&options, reader, &mut stdout.lock())
                .map_err(|e| e.to_string())?;
            report_daemon(&report, flags);
            Ok(())
        }
        Some(Some(path)) => serve_socket(path, &options, flags),
        Some(None) => Err("--socket expects a path".into()),
    }
}

/// The unix-socket accept loop: sessions run one at a time (requests
/// within a session already fan out across the worker pool); the
/// socket file is created fresh and removed on shutdown.
fn serve_socket(
    path: &str,
    options: &DaemonOptions,
    flags: &HashMap<String, Option<String>>,
) -> Result<(), String> {
    use std::io::Write as _;
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("youtiao serve: listening on {path}");
    let outcome = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => break Err(format!("{path}: accept: {e}")),
        };
        let reader = match stream.try_clone() {
            Ok(clone) => std::io::BufReader::new(clone),
            Err(e) => break Err(format!("{path}: {e}")),
        };
        let mut writer = std::io::BufWriter::new(stream);
        let report = match run_design_daemon(options, reader, &mut writer) {
            Ok(report) => report,
            Err(e) => break Err(e.to_string()),
        };
        if let Err(e) = writer.flush() {
            break Err(e.to_string());
        }
        report_daemon(&report, flags);
        if report.shutdown {
            break Ok(());
        }
    };
    let _ = std::fs::remove_file(path);
    outcome
}

/// The `sweep` subcommand: a JSON `SweepSpec` in, JSONL records out
/// (grid order, thread-count independent), summary on stderr.
fn run_sweep_command(flags: &HashMap<String, Option<String>>) -> Result<(), String> {
    let spec_path = flags
        .get("spec")
        .and_then(|v| v.clone())
        .ok_or("sweep requires --spec FILE (a JSON SweepSpec)")?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec: SweepSpec = serde_json::from_str(&text).map_err(|e| format!("{spec_path}: {e}"))?;

    let mut options = SweepOptions {
        threads: get_usize(flags, "threads", 0)?,
        plan_threads: get_usize(flags, "plan-threads", 0)?,
        timings: flags.contains_key("timings"),
        cache_capacity: get_usize(flags, "cache-capacity", 1024)?,
        cache_path: flags
            .get("cache")
            .and_then(|v| v.clone())
            .map(std::path::PathBuf::from),
        ..SweepOptions::default()
    };
    match flags.get("pareto") {
        None => {}
        Some(Some(list)) => options.objectives = parse_objectives(list)?,
        Some(None) => return Err("--pareto expects a comma-separated objective list".into()),
    }

    let out = flags
        .get("out")
        .and_then(|v| v.clone())
        .filter(|v| v != "-");
    let outcome = match out {
        Some(path) => {
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            run_sweep(&spec, &options, &mut writer)
        }
        None => {
            let stdout = std::io::stdout();
            run_sweep(&spec, &options, &mut stdout.lock())
        }
    }
    .map_err(|e| e.to_string())?;

    match flags.get("csv") {
        None => {}
        Some(Some(path)) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            write_csv(&outcome.records, &mut writer).map_err(|e| format!("{path}: {e}"))?;
        }
        Some(None) => return Err("--csv expects a file path".into()),
    }

    if flags.contains_key("summary-json") {
        let json = serde_json::to_string_pretty(&outcome.summary).map_err(|e| e.to_string())?;
        eprintln!("{json}");
    } else {
        eprint!("{}", outcome.summary.render());
    }
    Ok(())
}

/// The `repair` subcommand: plan a base snapshot, apply the delta
/// flags as a new snapshot, diff, and run the incremental repair pass.
fn run_repair_command(flags: &HashMap<String, Option<String>>) -> Result<(), String> {
    let chip = load_chip(flags)?;
    let config = planner_config(flags)?;
    let ctx = PlanContext::build(&chip, None, config.weights);
    let activity = brickwork_activity(&chip);
    let base = YoutiaoPlanner::new(&chip)
        .with_activity(&activity)
        .with_config(config.clone())
        .with_context(&ctx)
        .plan()
        .map_err(|e| e.to_string())?;

    // The new snapshot: the base with the delta flags applied.
    let num_qubits = chip.num_qubits() as u32;
    let mutated = match parse_pairs(flags, "dead-couplers")? {
        dead if dead.is_empty() => None,
        dead => {
            let mut spec = ChipSpec::from_chip(&chip);
            for (a, b) in dead {
                let key = (a.min(b), a.max(b));
                let before = spec.couplers.len();
                spec.couplers.retain(|&(x, y)| (x.min(y), x.max(y)) != key);
                if spec.couplers.len() == before {
                    return Err(format!("--dead-couplers: {a}-{b} is not a coupler"));
                }
            }
            Some(spec.to_chip().map_err(|e| e.to_string())?)
        }
    };
    let new_chip = mutated.as_ref().unwrap_or(&chip);

    let mut new_xtalk = ctx.crosstalk().clone();
    for entry in list_flag(flags, "drift", "A:B:X (qubit:qubit:crosstalk)")? {
        let parts: Vec<&str> = entry.split(':').collect();
        let parsed = match parts.as_slice() {
            [a, b, x] => match (a.parse::<u32>(), b.parse::<u32>(), x.parse::<f64>()) {
                (Ok(a), Ok(b), Ok(x)) => Some((a, b, x)),
                _ => None,
            },
            _ => None,
        };
        let Some((a, b, x)) = parsed else {
            return Err(format!("--drift: `{entry}` is not A:B:X"));
        };
        if a >= num_qubits || b >= num_qubits || a == b || !(x.is_finite() && x >= 0.0) {
            return Err(format!("--drift: `{entry}` is out of range"));
        }
        new_xtalk.set(QubitId::new(a), QubitId::new(b), x);
    }

    let mut new_activity = brickwork_activity(new_chip);
    for entry in list_flag(flags, "activity", "qN:MASK or cN:MASK")? {
        let device_mask = entry.split_once(':').and_then(|(device, mask)| {
            let mask = mask.parse::<u32>().ok()?;
            let index = device.get(1..)?.parse::<u32>().ok()?;
            let device = match device.as_bytes().first()? {
                b'q' if (index as usize) < new_chip.num_qubits() => {
                    DeviceId::Qubit(QubitId::new(index))
                }
                b'c' if (index as usize) < new_chip.num_couplers() => {
                    DeviceId::Coupler(CouplerId::new(index))
                }
                _ => return None,
            };
            Some((device, mask))
        });
        let Some((device, mask)) = device_mask else {
            return Err(format!(
                "--activity: `{entry}` is not an in-range qN:MASK or cN:MASK"
            ));
        };
        new_activity.insert(device, mask);
    }

    let old = PlanInputs {
        chip: &chip,
        xtalk: ctx.crosstalk(),
        activity: &activity,
    };
    let new = PlanInputs {
        chip: new_chip,
        xtalk: &new_xtalk,
        activity: &new_activity,
    };
    let changes = diff_inputs(&old, &new);
    let report = repair_plan(
        &base,
        &ctx,
        &new,
        &changes,
        &config,
        &RepairConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let summary = PlanSummary::from_plan(&report.plan);
    let hash = content_key(&summary);

    if flags.contains_key("json") {
        #[derive(serde::Serialize)]
        struct RepairCliReport {
            outcome: &'static str,
            changes: usize,
            structural: bool,
            dirty_qubits: usize,
            invalidated_rows: usize,
            dirty_groups: usize,
            regrouped_devices: usize,
            validation_clean: Option<bool>,
            plan_hash: String,
            summary: PlanSummary,
        }
        let out = RepairCliReport {
            outcome: report.outcome.as_str(),
            changes: changes.len(),
            structural: changes.structural(),
            dirty_qubits: report.dirty_qubits,
            invalidated_rows: report.invalidated_rows,
            dirty_groups: report.dirty_groups,
            regrouped_devices: report.regrouped_devices,
            validation_clean: report.validation.as_ref().map(|v| v.is_clean()),
            plan_hash: format!("{hash:016x}"),
            summary,
        };
        let json = serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }

    println!("{chip}");
    println!("\nchange set ({}):", changes.len());
    if changes.is_empty() {
        println!("  (empty)");
    } else {
        print!("{}", changes.render());
    }
    println!(
        "\noutcome: {} ({} dirty qubits, {} crosstalk rows invalidated, {} groups regrouped over {} devices)",
        report.outcome.as_str(),
        report.dirty_qubits,
        report.invalidated_rows,
        report.dirty_groups,
        report.regrouped_devices,
    );
    if let Some(validation) = &report.validation {
        println!(
            "validation: {}",
            if validation.is_clean() {
                "clean"
            } else {
                "VIOLATIONS"
            }
        );
    }
    println!("plan hash: {hash:016x}");

    if flags.contains_key("compare-replan") {
        let (replanned, _) = replan_from_snapshot(&new, &config).map_err(|e| e.to_string())?;
        let quality = QualityReport::compare(&report.plan, &replanned, &new_xtalk, &new_activity);
        println!("\nrepair vs replan (repair | replan):");
        print!("{}", quality.render());
        println!(
            "quality-equal: {}",
            quality.quality_equal(youtiao::bench::repair_perf::QUALITY_TOLERANCE)
        );
    }
    Ok(())
}

/// Splits a comma-separated `--key` value into trimmed entries; an
/// absent flag yields no entries.
fn list_flag(
    flags: &HashMap<String, Option<String>>,
    key: &str,
    expects: &str,
) -> Result<Vec<String>, String> {
    match flags.get(key) {
        None => Ok(Vec::new()),
        Some(Some(list)) => Ok(list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()),
        Some(None) => Err(format!(
            "--{key} expects a comma-separated list of {expects}"
        )),
    }
}

/// Parses a `--key A-B,C-D` endpoint-pair list.
fn parse_pairs(
    flags: &HashMap<String, Option<String>>,
    key: &str,
) -> Result<Vec<(u32, u32)>, String> {
    list_flag(flags, key, "A-B endpoint pairs")?
        .iter()
        .map(|entry| {
            entry
                .split_once('-')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| format!("--{key}: `{entry}` is not an A-B endpoint pair"))
        })
        .collect()
}

/// The `bench-plan` subcommand: run the planner micro-benchmark harness
/// and write the `BENCH_plan.json` perf trajectory (or, with
/// `--repair`, the repair-vs-replan harness and `BENCH_repair.json`).
fn run_bench_plan_command(flags: &HashMap<String, Option<String>>) -> Result<(), String> {
    let sizes = match flags.get("sizes") {
        None => None,
        Some(Some(list)) => {
            let sizes: Vec<usize> = list
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| format!("--sizes: `{s}` is not a grid side >= 2"))
                })
                .collect::<Result<_, _>>()?;
            if sizes.is_empty() {
                return Err("--sizes expects a comma-separated list".into());
            }
            Some(sizes)
        }
        Some(None) => return Err("--sizes expects a comma-separated list (e.g. 6,8,12)".into()),
    };

    if flags.contains_key("repair") {
        if flags.contains_key("layouts") {
            return Err("--repair benchmarks square grids only; drop --layouts".into());
        }
        let mut config = RepairBenchConfig::default();
        if let Some(sizes) = sizes {
            config.sizes = sizes;
        }
        config.iterations = get_usize(flags, "iters", config.iterations)?;
        if config.iterations == 0 {
            return Err("--iters must be positive".into());
        }
        let report = youtiao::bench::repair_perf::run(&config);
        return write_bench_report(flags, &report, || report.render());
    }

    let mut config = PerfConfig::default();
    if let Some(sizes) = sizes {
        config.sizes = sizes;
    }
    match flags.get("layouts") {
        None => {}
        Some(Some(list)) => {
            config.layouts = list
                .split(',')
                .map(Layout::parse)
                .collect::<Result<_, _>>()?;
            // An explicit layout list replaces the default grids unless
            // --sizes asked for both.
            if !flags.contains_key("sizes") {
                config.sizes.clear();
            }
        }
        Some(None) => {
            return Err(
                "--layouts expects a comma-separated list (e.g. grid:12,surface:5,heavy-hex:3x4)"
                    .into(),
            )
        }
    }
    config.iterations = get_usize(flags, "iters", config.iterations)?;
    if config.iterations == 0 {
        return Err("--iters must be positive".into());
    }
    config.plan_threads = get_usize(flags, "plan-threads", config.plan_threads)?.max(1);

    let report = youtiao::bench::perf::run(&config);
    write_bench_report(flags, &report, || report.render())
}

/// Writes a bench report to `--out` (when given) and prints either the
/// JSON (`--json`) or the rendered table to stderr.
fn write_bench_report(
    flags: &HashMap<String, Option<String>>,
    report: &impl serde::Serialize,
    render: impl FnOnce() -> String,
) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    if let Some(Some(path)) = flags.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{json}");
    } else {
        eprint!("{}", render());
    }
    Ok(())
}

/// Parses `--key value` and boolean `--flag` arguments.
fn parse_flags(args: &[String]) -> Result<HashMap<String, Option<String>>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{arg}`"))?;
        let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
        if value.is_some() {
            i += 2;
        } else {
            i += 1;
        }
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn get_usize(
    flags: &HashMap<String, Option<String>>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(Some(v)) => v.parse().map_err(|_| format!("--{key} expects an integer")),
        Some(None) => Err(format!("--{key} expects a value")),
    }
}

/// The chip the flags describe: a `ChipSpec` file (`--chip`), or a
/// named generator built by the request engine's own table, which
/// rejects zero sizes instead of panicking on them.
fn load_chip(flags: &HashMap<String, Option<String>>) -> Result<Chip, String> {
    if let Some(Some(path)) = flags.get("chip") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let spec: ChipSpec = serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
        return spec.to_chip().map_err(|e| e.to_string());
    }
    let topology = flags
        .get("topology")
        .and_then(|v| v.clone())
        .ok_or("missing --topology or --chip")?;
    let dimension = |key: &str| {
        flags
            .contains_key(key)
            .then(|| get_usize(flags, key, 0))
            .transpose()
    };
    let request = ChipRequest {
        rows: dimension("rows")?,
        cols: dimension("cols")?,
        size: dimension("size")?,
        distance: dimension("distance")?,
        ..ChipRequest::named(topology)
    };
    request.build().map_err(|e| e.to_string())
}

fn planner_config(flags: &HashMap<String, Option<String>>) -> Result<PlannerConfig, String> {
    let mut config = PlannerConfig::default();
    if let Some(Some(theta)) = flags.get("theta") {
        config.tdm.theta = theta.parse().map_err(|_| "--theta expects a number")?;
    }
    config.fdm_capacity = get_usize(flags, "fdm-capacity", config.fdm_capacity)?;
    config.tdm.allow_one_to_eight = flags.contains_key("one-to-eight");
    // Plans are byte-identical at any thread count, so this is purely
    // a latency knob (0 = one thread per core).
    config.plan_threads = get_usize(flags, "plan-threads", config.plan_threads)?;
    Ok(config)
}

/// The `plan --chiplets N` path: tiles the loaded chip into the
/// near-square multi-die array, plans every die, reconciles cross-die
/// links, optionally partitions a shared coax budget, and prints the
/// combined cryostat-level summary (pretty JSON with `--json` — the
/// byte-comparable form used to check plan-thread determinism).
fn run_plan_multi(
    template: &Chip,
    config: PlannerConfig,
    flags: &HashMap<String, Option<String>>,
) -> Result<(), String> {
    let chiplets = get_usize(flags, "chiplets", 1)?;
    if chiplets == 0 {
        return Err("--chiplets must be positive".into());
    }
    let name = match flags.get("link-topology") {
        None => "grid",
        Some(Some(v)) => v.as_str(),
        Some(None) => return Err("--link-topology expects a value".into()),
    };
    let link = LinkTopology::parse(name)
        .ok_or_else(|| format!("unknown link topology `{name}` (grid, torus or isolated)"))?;
    let budget = match flags.get("coax-budget") {
        None => None,
        Some(Some(v)) => Some(CryostatBudget {
            coax_lines: v.parse().map_err(|_| "--coax-budget expects an integer")?,
        }),
        Some(None) => return Err("--coax-budget expects a value".into()),
    };
    let (rows, cols) = near_square(chiplets);
    let mdc = MultiDieChip::tile(template, rows, cols, link).map_err(|e| e.to_string())?;
    let options = MultiDesignOptions {
        planner: config,
        use_model: false,
        budget,
        validate: flags.contains_key("validate"),
        ..Default::default()
    };
    let report = design_multi_chip(&mdc, &options).map_err(|e| e.to_string())?;
    let summary = report.summary(&mdc);
    if flags.contains_key("json") {
        let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!("{mdc}");
    let reconcile = &report.outcome.reconcile;
    println!(
        "cross-die links: {} band pairs checked, {} frequency swaps, {} unresolved",
        reconcile.checked, reconcile.swapped, reconcile.unresolved
    );
    if let Some(partition) = &report.outcome.partition {
        let per_die: Vec<String> = partition
            .required
            .iter()
            .zip(&partition.allowances)
            .map(|(used, allowed)| format!("{used}/{allowed}"))
            .collect();
        println!(
            "coax budget {} split across dies (used/allowed): {}",
            partition.total,
            per_die.join(" ")
        );
    }
    print_plan_lines(&summary.plan);
    println!(
        "\ncoax total: dedicated {} vs YOUTIAO {} ({:.2}x)",
        report.dedicated.coax_lines(),
        report.multiplexed.coax_lines(),
        report.coax_reduction()
    );
    Ok(())
}

fn print_plan(chip: &Chip, summary: &PlanSummary) {
    println!("{chip}");
    print_plan_lines(summary);
}

/// The XY/Z/readout/DEMUX sections shared by the single-die and
/// multi-die `plan` renderings (multi-die summaries arrive already
/// renumbered into the cryostat-global id space).
fn print_plan_lines(summary: &PlanSummary) {
    println!("\nXY lines ({}):", summary.xy_lines.len());
    for (i, line) in summary.xy_lines.iter().enumerate() {
        let cells: Vec<String> = line
            .qubits
            .iter()
            .zip(&line.frequencies_ghz)
            .map(|(q, f)| format!("q{q}@{f:.2}"))
            .collect();
        println!("  xy{i}: {}", cells.join(" "));
    }
    println!("\nZ lines ({}):", summary.z_lines.len());
    for (i, group) in summary.z_lines.iter().enumerate() {
        println!("  z{i} [{}]: {}", group.demux, group.devices.join(" "));
    }
    println!("\nreadout feedlines ({}):", summary.readout_lines.len());
    for (i, line) in summary.readout_lines.iter().enumerate() {
        let cells: Vec<String> = line
            .qubits
            .iter()
            .zip(&line.frequencies_ghz)
            .map(|(q, f)| format!("q{q}@{f:.2}"))
            .collect();
        println!("  ro{i}: {}", cells.join(" "));
    }
    println!("\nDEMUX select lines: {}", summary.demux_select_lines);
}
