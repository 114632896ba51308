//! The JSONL batch front-end behind `youtiao batch` and `youtiao chaos`.
//!
//! [`run_batch`] is a session of the one request engine
//! ([`daemon`](crate::daemon)) over a jobs file: every bare
//! [`DesignRequest`] line is a design frame, answered with one JSON
//! [`JobRecord`](crate::job::JobRecord) line in request order.
//! Repeated content keys are computed once — a later copy parks
//! behind the first while intake goes on, and is answered from the
//! cache when the first finishes. Per-job failures are
//! records; a line that does not parse aborts the batch with
//! [`BatchError::Parse`].
//!
//! The front-end is generic over the executor's result type `R` — the
//! `youtiao` facade instantiates it with the design-flow report summary
//! (`youtiao::serve::run_design_batch`).

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::daemon::{run_session, DaemonOptions, Protocol};
use crate::metrics::ServeMetrics;
use crate::pool::Executor;
use crate::request::DesignRequest;

/// Session failures (per-job failures are *records*, not errors — only
/// input, output and cache-file problems abort a session).
#[derive(Debug)]
#[non_exhaustive]
pub enum BatchError {
    /// Reading input or writing output failed.
    Io(std::io::Error),
    /// A JSONL input line did not parse as a [`DesignRequest`].
    Parse {
        /// 1-based input line number.
        line: usize,
        /// Parser detail.
        message: String,
    },
    /// The cache file exists but could not be loaded.
    Cache(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Io(e) => write!(f, "batch i/o failed: {e}"),
            BatchError::Parse { line, message } => {
                write!(f, "jobs file line {line}: {message}")
            }
            BatchError::Cache(message) => write!(f, "cache file: {message}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BatchError {
    fn from(e: std::io::Error) -> Self {
        BatchError::Io(e)
    }
}

/// Runs the JSONL requests read from `input` through `executor`,
/// writing one record line per request into `output` in request order,
/// and returns the session's [`ServeMetrics`]. Blank lines and `#`
/// comment lines are skipped. The cache is loaded from and saved to
/// `options.cache_path` when set.
pub fn run_batch<R, In, Out>(
    executor: Executor<DesignRequest, R>,
    options: &DaemonOptions,
    input: In,
    output: &mut Out,
) -> Result<ServeMetrics, BatchError>
where
    R: Clone + Send + Serialize + Deserialize + 'static,
    In: BufRead + Send + 'static,
    Out: Write,
{
    run_session(executor, options, input, output, Protocol::Batch).map(|report| report.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ErrorKind, ExecError};
    use serde::Value;
    use std::io::Cursor;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    /// A cheap stand-in executor: "result" is the qubit count.
    fn counting_executor() -> Executor<DesignRequest, u64> {
        Arc::new(|request, ctx| {
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

    /// `n` request lines over three distinct chips: line `i` is a
    /// square 2+i%3 by 3 grid with id `sq<i>`.
    fn requests(n: usize) -> String {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"id\":\"sq{i}\",\"chip\":{{\"topology\":\"square\",\"rows\":{},\"cols\":3}}}}\n",
                    2 + i % 3
                )
            })
            .collect()
    }

    /// Non-canonical options, so records keep their run fields.
    fn non_canonical() -> DaemonOptions {
        DaemonOptions {
            canonical: false,
            ..DaemonOptions::default()
        }
    }

    fn batch<R>(
        input: &str,
        executor: Executor<DesignRequest, R>,
        options: &DaemonOptions,
    ) -> Result<(ServeMetrics, Vec<Value>), BatchError>
    where
        R: Clone + Send + Serialize + Deserialize + 'static,
    {
        let mut out = Vec::new();
        let metrics = run_batch(executor, options, Cursor::new(input.to_string()), &mut out)?;
        let lines = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        Ok((metrics, lines))
    }

    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "youtiao-serve-test-{}.{tag}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn parses_jsonl_with_comments_and_blanks() {
        let text = "\n# sweep over θ\n{\"chip\":{\"topology\":\"square\"}}\n\n{\"chip\":{\"topology\":\"ring\",\"size\":8},\"theta\":2.0}\n";
        let theta: Executor<DesignRequest, Option<f64>> = Arc::new(|request, _| Ok(request.theta));
        let (metrics, lines) = batch(text, theta.clone(), &non_canonical()).unwrap();
        assert_eq!(metrics.jobs, 2);
        assert_eq!(lines[1]["result"], 2.0);
        let err = batch("{\"chip\":}", theta, &non_canonical()).unwrap_err();
        assert!(matches!(err, BatchError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn streams_a_record_per_job_and_caches_repeats() {
        let reqs = requests(6); // 3 distinct chips, each twice
        let options = DaemonOptions {
            cache_path: Some(temp_path("repeats")),
            ..non_canonical()
        };
        let (metrics, lines) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(lines.len(), 6);
        assert_eq!(metrics.jobs, 6);
        assert_eq!(metrics.ok, 6);
        assert_eq!(metrics.cache_misses, 3, "each distinct key missed once");
        assert_eq!(
            metrics.cache_hits, 3,
            "each repeat was answered from the cache"
        );

        // Second pass over the same requests: all hits.
        let (metrics, lines) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(metrics.cache_hits, 6);
        assert_eq!(metrics.retries, 0);
        for v in lines {
            assert_eq!(v["cache_hit"], true);
            assert_eq!(v["attempts"], 0);
        }
        let _ = std::fs::remove_file(options.cache_path.unwrap());
    }

    #[test]
    fn invalid_requests_become_records_not_errors() {
        let reqs = requests(2) + "{\"chip\":{\"topology\":\"klein-bottle\"}}\n";
        let (metrics, lines) = batch(&reqs, counting_executor(), &non_canonical()).unwrap();
        assert_eq!(metrics.jobs, 3);
        assert_eq!(metrics.ok, 2);
        assert_eq!(metrics.errors, 1);
        let bad = lines.iter().find(|v| v["status"] == "Error").unwrap();
        assert_eq!(bad["error"]["kind"], "InvalidRequest");
        assert!(bad["error"]["message"]
            .as_str()
            .unwrap()
            .contains("klein-bottle"));
    }

    #[test]
    fn trace_json_holds_one_trace_per_executed_job() {
        let path = temp_path("trace");
        let traced_executor: Executor<DesignRequest, u64> = Arc::new(|request, ctx| {
            let span = ctx.tracer.span("build");
            let chip = request
                .chip
                .build()
                .map_err(|e| ExecError::permanent(ErrorKind::InvalidRequest, e.to_string()))?;
            span.annotate("qubits", chip.num_qubits() as u64);
            Ok(chip.num_qubits() as u64)
        });
        let options = DaemonOptions {
            trace_json: Some(path.clone()),
            ..non_canonical()
        };
        let (metrics, lines) = batch(&requests(3), traced_executor, &options).unwrap();

        // Records carry the traces inline too.
        for v in lines {
            assert_eq!(v["trace"]["job"], v["id"]);
        }
        // The trace file is {"jobs":[...]} with one entry per executed job.
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let jobs = v["jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 3);
        for job in jobs {
            assert_eq!(job["spans"][0]["name"], "attempt");
            assert_eq!(job["spans"][0]["spans"][0]["name"], "build");
        }
        // And the metrics aggregate the spans per stage.
        assert!(metrics.stages.iter().any(|s| s.name == "build"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_faults_are_injected_and_records_canonicalized() {
        let options = DaemonOptions {
            faults: Some(crate::fault::FaultPlan {
                transient_rate: Some(1.0),
                ..Default::default()
            }),
            canonical: true,
            max_retries: 2,
            ..DaemonOptions::default()
        };
        let (metrics, lines) = batch(&requests(6), counting_executor(), &options).unwrap();
        // Every attempt of every job faulted transiently: all jobs
        // exhaust their retries and fail as injected Internal errors.
        assert_eq!(metrics.errors, 6);
        assert_eq!(metrics.retries, 12);
        assert_eq!(metrics.faults.transient, 18, "3 attempts x 6 jobs");
        for v in lines {
            assert_eq!(v["latency_ms"], 0.0, "canonical records zero latency");
            assert_eq!(v["error"]["kind"], "Internal");
            assert!(v["error"]["message"]
                .as_str()
                .unwrap()
                .contains("injected transient fault"));
        }
    }

    #[test]
    fn abort_after_fault_cancels_the_tail_without_losing_records() {
        let slow: Executor<DesignRequest, u64> = Arc::new(|_, ctx| {
            let start = std::time::Instant::now();
            while start.elapsed() < Duration::from_millis(30) {
                ctx.cancel
                    .checkpoint()
                    .map_err(|_| ExecError::cancelled())?;
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(1)
        });
        let options = DaemonOptions {
            workers: 1,
            faults: Some(crate::fault::FaultPlan {
                abort_after: Some(1),
                ..Default::default()
            }),
            ..non_canonical()
        };
        // sq3 repeats sq0: it waits for sq0, which completes before the
        // abort lands, and is answered from the cache.
        let (metrics, _) = batch(&requests(4), slow, &options).unwrap();
        assert_eq!(metrics.jobs, 4, "aborted jobs still yield records");
        assert_eq!(metrics.ok, 2);
        assert_eq!(metrics.cancelled, 2);
    }

    #[test]
    fn torn_cache_file_fails_loudly_or_salvages_when_opted_in() {
        let path = temp_path("torn-cache");
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            ..non_canonical()
        };
        let reqs = requests(3);
        batch(&reqs, counting_executor(), &options).unwrap();
        crate::fault::apply_cache_fault(&path, crate::fault::CacheFault::Truncate).unwrap();

        // Default: the torn file aborts the batch with a cache error.
        let err = batch(&reqs, counting_executor(), &options).unwrap_err();
        assert!(matches!(err, BatchError::Cache(_)), "{err}");

        // Salvage: cold start, run fine, and rewrite a valid snapshot.
        let salvage = DaemonOptions {
            cache_salvage: true,
            ..options.clone()
        };
        let (cold, _) = batch(&reqs, counting_executor(), &salvage).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let (warm, _) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(warm.cache_hits, 3, "salvage run re-persisted a valid file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_persists_across_batch_runs() {
        let path = temp_path("cache");
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            ..non_canonical()
        };
        let reqs = requests(4);
        let (cold, _) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(cold.cache_hits, 1, "sq3 repeats sq0 within the batch");
        let (warm, _) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(warm.cache_hits, 4, "all jobs answered from the cache file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_follow_request_order_and_a_bad_line_aborts() {
        let text = "\n# a sweep\n{\"chip\":{\"topology\":\"square\",\"rows\":2,\"cols\":3},\"id\":\"a\"}\n{\"chip\":{\"topology\":\"square\",\"rows\":3,\"cols\":3},\"id\":\"b\"}\n{\"chip\":{\"topology\":\"klein-bottle\"},\"id\":\"c\"}\n";
        let (metrics, lines) = batch(text, counting_executor(), &non_canonical()).unwrap();
        assert_eq!(metrics.jobs, 3);
        assert_eq!(metrics.ok, 2);
        assert_eq!(metrics.errors, 1);
        let indices: Vec<u64> = lines.iter().map(|v| v["index"].as_u64().unwrap()).collect();
        assert_eq!(indices, [0, 1, 2], "records come out in request order");
        assert_eq!(lines[0]["id"], "a");
        assert_eq!(lines[0]["result"], 6);
        assert_eq!(lines[1]["result"], 9);
        assert_eq!(lines[2]["error"]["kind"], "InvalidRequest");

        // A mid-stream parse error aborts loudly with its line number.
        let bad = "{\"chip\":{\"topology\":\"square\"}}\n{\"chip\":}\n";
        let err = batch(bad, counting_executor(), &non_canonical()).unwrap_err();
        assert!(matches!(err, BatchError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn sharded_batch_tags_records_and_persists_per_shard() {
        let path = temp_path("sharded-cache");
        let shards = 4usize;
        for index in 0..shards {
            let _ = std::fs::remove_file(crate::shard::shard_file(&path, index, shards));
        }
        let options = DaemonOptions {
            cache_path: Some(path.clone()),
            shards,
            ..non_canonical()
        };
        let reqs = requests(6); // 3 distinct chips, each twice
        let (cold, lines) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(cold.cache_hits, 3, "each repeat waits for its first copy");
        assert!(!cold.shards.is_empty(), "sharded metrics attach");
        let jobs: usize = cold.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(jobs, 6, "every keyed record lands in a shard bucket");
        for v in lines {
            let shard = v["shard"].as_u64().expect("sharded records are tagged");
            assert!((shard as usize) < shards);
        }

        // Warm pass reads the per-shard files back.
        let (warm, _) = batch(&reqs, counting_executor(), &options).unwrap();
        assert_eq!(warm.cache_hits, 6);

        // Flat single-shard runs keep their compact untagged lines.
        let (_, lines) = batch(&reqs, counting_executor(), &non_canonical()).unwrap();
        for v in lines {
            assert!(v.get("shard").is_none());
        }
        for index in 0..shards {
            let _ = std::fs::remove_file(crate::shard::shard_file(&path, index, shards));
        }
    }
}
