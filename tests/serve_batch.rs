//! End-to-end tests of the serving layer: determinism across worker
//! counts, warm-cache reuse, structured per-job failures, and the
//! `youtiao batch` CLI.

use std::process::Command;

use serde::Value;
use youtiao::serve::{run_design_batch, DaemonOptions, ServeMetrics};

/// The standard sweep used across tests: a few small distinct chips,
/// each appearing once, with explicit ids.
fn sweep_jsonl() -> String {
    [
        r#"{"id":"sq","chip":{"topology":"square","rows":3,"cols":3}}"#,
        r#"{"id":"hex","chip":{"topology":"hexagon","rows":2,"cols":2},"theta":2.0}"#,
        r#"{"id":"ring","chip":{"topology":"ring","size":8},"routing":false}"#,
        r#"{"id":"lin","chip":{"topology":"linear","size":6},"one_to_eight":true}"#,
        r#"{"id":"surf","chip":{"topology":"surface","distance":3},"routing":false}"#,
    ]
    .join("\n")
}

/// Runs `jobs` (JSONL text) as one batch session, collecting its
/// record lines into `out`.
fn batch(jobs: String, options: &DaemonOptions, out: &mut Vec<u8>) -> ServeMetrics {
    run_design_batch(options, std::io::Cursor::new(jobs), out).unwrap()
}

/// Runs the sweep at a given worker count and returns `(metrics_ok,
/// id -> serialized result)` sorted by id.
fn run_sweep(workers: usize) -> Vec<(String, String)> {
    let requests = sweep_jsonl().lines().count();
    let options = DaemonOptions {
        workers,
        ..Default::default()
    };
    let mut out = Vec::new();
    let metrics = batch(sweep_jsonl(), &options, &mut out);
    assert_eq!(metrics.ok, requests, "all sweep jobs succeed");
    let mut results: Vec<(String, String)> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|line| {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["status"], "Ok");
            (
                v["id"].as_str().unwrap().to_string(),
                serde_json::to_string(&v["result"]).unwrap(),
            )
        })
        .collect();
    results.sort();
    results
}

#[test]
fn parallel_results_match_serial_byte_for_byte() {
    let serial = run_sweep(1);
    let parallel = run_sweep(8);
    assert_eq!(serial.len(), 5);
    for ((id_a, result_a), (id_b, result_b)) in serial.iter().zip(&parallel) {
        assert_eq!(id_a, id_b);
        assert_eq!(result_a, result_b, "job {id_a} differs across --jobs");
    }
}

#[test]
fn warm_cache_answers_everything_identically() {
    let requests = sweep_jsonl().lines().count();
    let cache = std::env::temp_dir().join(format!(
        "youtiao-warm-cache-test-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);
    let options = DaemonOptions {
        cache_path: Some(cache.clone()),
        canonical: false,
        ..Default::default()
    };

    let mut cold_out = Vec::new();
    let cold = batch(sweep_jsonl(), &options, &mut cold_out);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, requests as u64);

    let mut warm_out = Vec::new();
    let warm = batch(sweep_jsonl(), &options, &mut warm_out);
    let _ = std::fs::remove_file(&cache);
    assert_eq!(warm.cache_hits, requests as u64, "every job a cache hit");
    assert!((warm.cache_hit_rate - 1.0).abs() < 1e-9);

    let result_by_id = |bytes: &[u8]| -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = std::str::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|line| {
                let v: Value = serde_json::from_str(line).unwrap();
                (
                    v["id"].as_str().unwrap().to_string(),
                    serde_json::to_string(&v["result"]).unwrap(),
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(result_by_id(&cold_out), result_by_id(&warm_out));

    for line in std::str::from_utf8(&warm_out).unwrap().lines() {
        let v: Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["cache_hit"], true);
        assert_eq!(v["attempts"], 0, "hits never touch a worker");
    }
}

#[test]
fn failures_surface_as_structured_records_not_aborts() {
    let text = [
        r#"{"id":"good","chip":{"topology":"square","rows":2,"cols":2},"routing":false}"#,
        r#"{"id":"bad-topology","chip":{"topology":"moebius"}}"#,
        r#"{"id":"bad-config","chip":{"topology":"square"},"fdm_capacity":0,"routing":false}"#,
        r#"{"id":"too-slow","chip":{"topology":"square","rows":4,"cols":4},"deadline_ms":0}"#,
    ]
    .join("\n");
    let mut out = Vec::new();
    let metrics = batch(text, &DaemonOptions::default(), &mut out);

    assert_eq!(metrics.jobs, 4);
    assert_eq!(metrics.ok, 1);
    assert_eq!(metrics.errors, 3);
    assert_eq!(metrics.timeouts, 1);

    let mut kinds = std::collections::HashMap::new();
    for line in std::str::from_utf8(&out).unwrap().lines() {
        let v: Value = serde_json::from_str(line).unwrap();
        let id = v["id"].as_str().unwrap().to_string();
        if v["status"] == "Error" {
            assert!(v["error"]["message"].as_str().is_some());
            kinds.insert(id, v["error"]["kind"].as_str().unwrap().to_string());
        } else {
            kinds.insert(id, "Ok".to_string());
        }
    }
    assert_eq!(kinds["good"], "Ok");
    assert_eq!(kinds["bad-topology"], "InvalidRequest");
    assert_eq!(kinds["bad-config"], "Plan");
    assert_eq!(kinds["too-slow"], "Timeout");
}

fn youtiao(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_youtiao"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_batch_streams_jsonl_and_warms_cache_file() {
    let dir = std::env::temp_dir().join(format!("youtiao-batch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.jsonl");
    let results = dir.join("results.jsonl");
    let cache = dir.join("plans.cache.json");
    std::fs::write(&jobs, sweep_jsonl()).unwrap();

    let (ok, stdout, stderr) = youtiao(&[
        "batch",
        "--in",
        jobs.to_str().unwrap(),
        "--out",
        results.to_str().unwrap(),
        "--jobs",
        "4",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stderr.contains("batch:"),
        "human metrics on stderr: {stderr}"
    );
    let text = std::fs::read_to_string(&results).unwrap();
    assert_eq!(text.lines().count(), 5);
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["status"], "Ok", "{line}");
        assert!(v["result"]["plan"].as_object().is_some(), "{line}");
    }

    // Second run over the same jobs with the persisted cache: all hits,
    // reported in machine-readable metrics.
    let (ok, _, stderr) = youtiao(&[
        "batch",
        "--in",
        jobs.to_str().unwrap(),
        "--out",
        results.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--metrics-json",
    ]);
    assert!(ok, "{stderr}");
    let metrics: Value = serde_json::from_str(&stderr).expect("stderr is metrics JSON");
    assert_eq!(metrics["jobs"], 5);
    assert_eq!(metrics["cache_hits"], 5);
    assert_eq!(metrics["ok"], 5);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_batch_requires_input() {
    let (ok, _, stderr) = youtiao(&["batch"]);
    assert!(!ok);
    assert!(stderr.contains("--in"), "{stderr}");
}

#[test]
fn cli_chaos_records_stay_canonical_under_no_canonical() {
    // `chaos` always emits canonical records: `--no-canonical` is a
    // `serve` flag and must not bring latency back into its stream.
    let dir = std::env::temp_dir().join(format!("youtiao-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.jsonl");
    std::fs::write(&jobs, sweep_jsonl()).unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec!["chaos", "--in", jobs.to_str().unwrap(), "--jobs", "2"];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = youtiao(&args);
        assert!(ok, "{stderr}");
        stdout
    };
    let canonical = run(&[]);
    assert_eq!(canonical.lines().count(), 5);
    for line in canonical.lines() {
        let v: Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["latency_ms"], 0.0, "{line}");
        assert!(v.get("trace").is_none(), "{line}");
    }
    assert_eq!(run(&["--no-canonical"]), canonical);
    std::fs::remove_dir_all(&dir).ok();
}
