//! The daemon's newline-framed JSONL wire protocol.
//!
//! One frame per line, JSON object per frame, in both directions —
//! the same framing `youtiao batch` files use, read by the same
//! [`FramedReader`]. Blank lines and `#` comment lines are skipped.
//! The payloads differ: a batch line is a bare `DesignRequest`, while
//! a daemon frame wraps one under `request`. Request frames carry an
//! `op` (`design`, `ping`, `stats`, `shutdown`; a frame with a
//! `request` and no `op` is a design request), an optional
//! caller-chosen `rid` echoed verbatim in the response, and an optional
//! `client` name for per-client admission accounting.
//!
//! Responses are emitted **in request order** regardless of completion
//! order, and every response map is key-sorted (the vendored `Map` is
//! a BTreeMap) — so a session's output is a deterministic function of
//! its input plus the executor. In canonical mode design responses
//! additionally omit every run-dependent field (`latency_ms`,
//! `attempts`, `cache_hit`, `shard`, traces) and stats responses
//! reduce to their deterministic counters, making equal-seed sessions
//! byte-identical across shard counts and worker counts.

use std::io::BufRead;

use serde::{Map, Serialize, Value};

use crate::admission::AdmissionStats;
use crate::cache::CacheStats;
use crate::job::JobRecord;

/// One non-empty, non-comment input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// 1-based line number in the underlying stream (comment and blank
    /// lines count, so errors point at the real file line).
    pub line: usize,
    /// The line's text, without the trailing newline.
    pub text: String,
}

/// Streaming frame reader over any [`BufRead`]: yields one [`Frame`]
/// per payload line without ever buffering the whole stream — the
/// memory footprint is one line, however long the session runs.
///
/// # Example
///
/// ```
/// use youtiao_serve::proto::FramedReader;
///
/// let input = "# comment\n\n{\"op\":\"ping\"}\n";
/// let frames: Vec<_> = FramedReader::new(input.as_bytes())
///     .map(Result::unwrap)
///     .collect();
/// assert_eq!(frames.len(), 1);
/// assert_eq!(frames[0].line, 3);
/// ```
pub struct FramedReader<R> {
    input: R,
    line: usize,
}

impl<R: BufRead> FramedReader<R> {
    /// A reader over `input`, starting at line 1.
    pub fn new(input: R) -> Self {
        FramedReader { input, line: 0 }
    }
}

impl<R: BufRead> Iterator for FramedReader<R> {
    type Item = std::io::Result<Frame>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut buf = String::new();
            match self.input.read_line(&mut buf) {
                Err(e) => return Some(Err(e)),
                Ok(0) => return None,
                Ok(_) => {
                    self.line += 1;
                    let text = buf.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    return Some(Ok(Frame {
                        line: self.line,
                        text: text.to_string(),
                    }));
                }
            }
        }
    }
}

/// What a request frame asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Run (or serve from cache) one design request.
    Design,
    /// Liveness probe; answered immediately, in order.
    Ping,
    /// Session counters so far.
    Stats,
    /// Drain in-flight work, answer everything, ack, end the session.
    Shutdown,
}

/// One parsed request frame. All fields optional, so control frames
/// (`{"op":"ping"}`) and design frames (a `DesignRequest` object under
/// `request`) both parse.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DaemonRequest {
    /// Operation name; absent means `design` when `request` is set.
    pub op: Option<String>,
    /// Caller-chosen request id, echoed in the response.
    pub rid: Option<String>,
    /// Client name for per-client admission accounting (default
    /// `"anon"`).
    pub client: Option<String>,
    /// The design request payload (a `DesignRequest` object), for
    /// `design` frames.
    pub request: Option<Value>,
}

impl DaemonRequest {
    /// Resolves the frame's operation, or a protocol error message.
    pub fn op_kind(&self) -> Result<OpKind, String> {
        match self.op.as_deref() {
            Some("design") => Ok(OpKind::Design),
            Some("ping") => Ok(OpKind::Ping),
            Some("stats") => Ok(OpKind::Stats),
            Some("shutdown") => Ok(OpKind::Shutdown),
            Some(other) => Err(format!("unknown op `{other}`")),
            None if self.request.is_some() => Ok(OpKind::Design),
            None => Err("frame has neither an `op` nor a `request`".to_string()),
        }
    }

    /// The client name for admission accounting.
    pub fn client_name(&self) -> &str {
        self.client.as_deref().unwrap_or("anon")
    }
}

fn render(map: Map) -> String {
    serde_json::to_string(&Value::Object(map)).expect("response maps always serialize")
}

fn base_map(op: &str, rid: Option<&String>) -> Map {
    let mut map = Map::new();
    map.insert("op".into(), op.to_value());
    if let Some(rid) = rid {
        map.insert("rid".into(), rid.to_value());
    }
    map
}

/// The response line for a finished design job. Canonical mode keeps
/// only fields that are pure functions of (session input, executor):
/// run-dependent `latency_ms`, `attempts`, `cache_hit` and `shard` are
/// omitted so equal-seed sessions compare byte-identical across shard
/// and worker counts.
pub fn design_response<R: Serialize>(
    record: &JobRecord<R>,
    rid: Option<&String>,
    canonical: bool,
) -> String {
    let mut map = base_map("design", rid);
    map.insert("index".into(), record.index.to_value());
    map.insert("id".into(), record.id.to_value());
    map.insert("status".into(), record.status.to_value());
    map.insert("result".into(), record.result.to_value());
    map.insert("error".into(), record.error.to_value());
    if !canonical {
        map.insert("attempts".into(), record.attempts.to_value());
        map.insert("latency_ms".into(), record.latency_ms.to_value());
        map.insert("cache_hit".into(), record.cache_hit.to_value());
        if let Some(shard) = record.shard {
            map.insert("shard".into(), shard.to_value());
        }
        if let Some(trace) = &record.trace {
            map.insert("trace".into(), trace.to_value());
        }
    }
    render(map)
}

/// The `ping` acknowledgement.
pub fn ping_response(rid: Option<&String>) -> String {
    let mut map = base_map("ping", rid);
    map.insert("ok".into(), true.to_value());
    render(map)
}

/// The `shutdown` acknowledgement — always the session's last line.
pub fn shutdown_response(rid: Option<&String>) -> String {
    let mut map = base_map("shutdown", rid);
    map.insert("ok".into(), true.to_value());
    render(map)
}

/// A protocol-level error (unparsable frame, unknown op). `line` is
/// the input line the frame came from.
pub fn error_response(rid: Option<&String>, line: usize, message: &str) -> String {
    let mut map = base_map("error", rid);
    map.insert("line".into(), line.to_value());
    map.insert("error".into(), message.to_value());
    render(map)
}

/// The `stats` response. Canonical mode keeps only counters that are
/// deterministic for an equal-seed session — requests seen and
/// requests shed — and drops load-dependent ones (in-flight depth,
/// backpressure stalls, cache hit/miss splits, which all vary with
/// worker and shard counts).
pub fn stats_response(
    rid: Option<&String>,
    requests: u64,
    admission: &AdmissionStats,
    cache: &CacheStats,
    in_flight: usize,
    canonical: bool,
) -> String {
    let mut map = base_map("stats", rid);
    map.insert("requests".into(), requests.to_value());
    map.insert("shed".into(), admission.shed.to_value());
    if !canonical {
        map.insert("admitted".into(), admission.admitted.to_value());
        map.insert(
            "backpressure_waits".into(),
            admission.backpressure_waits.to_value(),
        );
        map.insert("in_flight".into(), in_flight.to_value());
        map.insert("cache_entries".into(), cache.entries.to_value());
        map.insert("cache_hits".into(), cache.hits.to_value());
        map.insert("cache_misses".into(), cache.misses.to_value());
        map.insert("cache_evictions".into(), cache.evictions.to_value());
    }
    render(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ErrorKind, ErrorRecord};

    #[test]
    fn framed_reader_skips_noise_and_numbers_real_lines() {
        let input = "# session\n\n{\"op\":\"ping\"}\n   \n{\"op\":\"stats\"}\n";
        let frames: Vec<Frame> = FramedReader::new(input.as_bytes())
            .map(Result::unwrap)
            .collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(
            (frames[0].line, frames[0].text.as_str()),
            (3, "{\"op\":\"ping\"}")
        );
        assert_eq!(
            (frames[1].line, frames[1].text.as_str()),
            (5, "{\"op\":\"stats\"}")
        );
        // Final line without a trailing newline still frames.
        let frames: Vec<Frame> = FramedReader::new("{\"op\":\"ping\"}".as_bytes())
            .map(Result::unwrap)
            .collect();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn op_resolution_defaults_bare_requests_to_design() {
        let control: DaemonRequest = serde_json::from_str(r#"{"op":"ping","rid":"r1"}"#).unwrap();
        assert_eq!(control.op_kind(), Ok(OpKind::Ping));
        assert_eq!(control.client_name(), "anon");

        let bare: DaemonRequest =
            serde_json::from_str(r#"{"request":{"chip":{"topology":"square"}}}"#).unwrap();
        assert_eq!(bare.op_kind(), Ok(OpKind::Design));

        let named: DaemonRequest =
            serde_json::from_str(r#"{"op":"shutdown","client":"alice"}"#).unwrap();
        assert_eq!(named.op_kind(), Ok(OpKind::Shutdown));
        assert_eq!(named.client_name(), "alice");

        let unknown: DaemonRequest = serde_json::from_str(r#"{"op":"reboot"}"#).unwrap();
        assert!(unknown.op_kind().unwrap_err().contains("reboot"));
        let empty: DaemonRequest = serde_json::from_str("{}").unwrap();
        assert!(empty.op_kind().is_err());
    }

    #[test]
    fn canonical_design_responses_drop_run_dependent_fields() {
        let record = JobRecord::ok(2, "j2".into(), 7u32, 3, 41.5)
            .from_cache()
            .with_shard(Some(5));
        let rid = Some("r-7".to_string());

        let full = design_response(&record, rid.as_ref(), false);
        let v: Value = serde_json::from_str(&full).unwrap();
        assert_eq!(v["op"], "design");
        assert_eq!(v["rid"], "r-7");
        assert_eq!(v["attempts"], 3);
        assert_eq!(v["cache_hit"], true);
        assert_eq!(v["shard"], 5);

        let canon = design_response(&record, rid.as_ref(), true);
        let v: Value = serde_json::from_str(&canon).unwrap();
        assert_eq!(v["result"], 7);
        assert_eq!(v["index"], 2);
        for dropped in ["attempts", "latency_ms", "cache_hit", "shard", "trace"] {
            assert!(v.get(dropped).is_none(), "{dropped} leaked into canonical");
        }
        // Key-sorted map -> stable bytes for equal inputs.
        assert_eq!(canon, design_response(&record, rid.as_ref(), true));

        let failed = JobRecord::<u32>::error(
            0,
            "j0".into(),
            ErrorRecord {
                kind: ErrorKind::Shed,
                message: "deadline infeasible".into(),
            },
            0,
            0.0,
        );
        let v: Value = serde_json::from_str(&design_response(&failed, None, true)).unwrap();
        assert_eq!(v["status"], "Error");
        assert_eq!(v["error"]["kind"], "Shed");
        assert!(v.get("rid").is_none());
    }

    #[test]
    fn control_responses_are_stable_one_liners() {
        let rid = Some("c1".to_string());
        let ping: Value = serde_json::from_str(&ping_response(rid.as_ref())).unwrap();
        assert_eq!(
            (ping["op"].clone(), ping["ok"].clone()),
            ("ping".to_value(), true.to_value())
        );
        let down: Value = serde_json::from_str(&shutdown_response(None)).unwrap();
        assert_eq!(down["op"], "shutdown");
        let err: Value =
            serde_json::from_str(&error_response(rid.as_ref(), 12, "unknown op `x`")).unwrap();
        assert_eq!(err["line"], 12);
        assert_eq!(err["error"], "unknown op `x`");

        let admission = AdmissionStats {
            admitted: 5,
            shed: 2,
            backpressure_waits: 3,
            max_in_flight: 4,
        };
        let cache = CacheStats {
            entries: 1,
            capacity: 8,
            hits: 6,
            misses: 1,
            evictions: 0,
        };
        let full: Value =
            serde_json::from_str(&stats_response(None, 9, &admission, &cache, 2, false)).unwrap();
        assert_eq!(full["requests"], 9);
        assert_eq!(full["shed"], 2);
        assert_eq!(full["cache_hits"], 6);
        assert_eq!(full["in_flight"], 2);

        let canon: Value =
            serde_json::from_str(&stats_response(None, 9, &admission, &cache, 2, true)).unwrap();
        assert_eq!(canon["requests"], 9);
        assert_eq!(canon["shed"], 2);
        for dropped in ["admitted", "backpressure_waits", "in_flight", "cache_hits"] {
            assert!(
                canon.get(dropped).is_none(),
                "{dropped} leaked into canonical"
            );
        }
    }
}
