//! Batch-run service metrics.
//!
//! [`ServeMetrics`] is the end-of-session summary `youtiao batch`,
//! `chaos` and `serve` print:
//! outcome counts, retry volume, cache behavior, throughput, and
//! latency percentiles over per-job wall times.

use std::time::Duration;

use crate::admission::AdmissionStats;
use crate::cache::CacheStats;
use crate::fault::FaultCounters;
use crate::job::{ErrorKind, JobRecord, JobStatus};

/// Summary of one session.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeMetrics {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs that produced a result.
    pub ok: usize,
    /// Jobs that failed (including timeouts and cancellations).
    pub errors: usize,
    /// Failed jobs whose final error was a deadline expiry.
    pub timeouts: usize,
    /// Failed jobs cancelled by shutdown/abort.
    pub cancelled: usize,
    /// Executor retries beyond each job's first attempt.
    pub retries: u64,
    /// Jobs answered from the plan cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries evicted during the run.
    pub cache_evictions: u64,
    /// Cache hit fraction over all lookups.
    pub cache_hit_rate: f64,
    /// Wall-clock duration of the whole batch, milliseconds.
    pub wall_ms: f64,
    /// Completed jobs per second of wall time.
    pub throughput_per_s: f64,
    /// Median per-job latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile per-job latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile per-job latency, milliseconds.
    pub p99_ms: f64,
    /// Slowest job, milliseconds.
    pub max_ms: f64,
    /// Per-stage latency aggregates over every traced job, sorted by
    /// stage name (empty when the run was untraced).
    pub stages: Vec<StageStat>,
    /// Per-shard cache and latency aggregates, indexed by shard (empty
    /// when the run used a flat, unsharded cache).
    pub shards: Vec<ShardStat>,
    /// Admission-control counters.
    pub admission: AdmissionStats,
    /// Faults injected during the run, by kind (all zero outside chaos
    /// runs).
    pub faults: FaultCounters,
    /// Warm-path repair counters (all zero when no request carried a
    /// delta).
    pub repair: RepairStats,
}

/// Counters for the warm repair path: how delta-carrying requests were
/// answered. Included in [`ServeMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RepairStats {
    /// Delta requests whose base plan was already resident, answered by
    /// incremental repair.
    pub hits: u64,
    /// Delta requests whose base plan had to be computed first (then
    /// repaired from).
    pub misses: u64,
    /// Delta requests where repair fell back to a full replan
    /// (structural change, threshold exceeded, or validation failure).
    pub fallbacks: u64,
}

impl RepairStats {
    /// Total delta requests the repair path saw.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.fallbacks
    }
}

/// Latency aggregate of one pipeline stage across a batch, built from
/// the span traces of its jobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageStat {
    /// Span/stage name (e.g. `"plan"`, `"tdm_grouping"`).
    pub name: String,
    /// Spans observed with this name (≥ jobs when stages repeat).
    pub count: u64,
    /// Summed wall time, milliseconds.
    pub total_ms: f64,
    /// Mean wall time per span, milliseconds.
    pub mean_ms: f64,
    /// Median span wall time, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile span wall time, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile span wall time, milliseconds.
    pub p99_ms: f64,
    /// Slowest span, milliseconds.
    pub max_ms: f64,
}

/// Per-shard slice of a sharded run: that shard's cache counters plus
/// latency percentiles over the jobs whose keys mapped to it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Jobs whose content key mapped to this shard.
    pub jobs: usize,
    /// Resident cache entries at end of run.
    pub entries: usize,
    /// Cache hits served by this shard.
    pub hits: u64,
    /// Cache misses charged to this shard.
    pub misses: u64,
    /// LRU evictions within this shard's budget.
    pub evictions: u64,
    /// Median latency of this shard's jobs, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency of this shard's jobs, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency of this shard's jobs, milliseconds.
    pub p99_ms: f64,
}

/// Aggregates every span of every traced record by name.
fn stage_stats<R>(records: &[JobRecord<R>]) -> Vec<StageStat> {
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = std::collections::BTreeMap::new();
    for record in records {
        let Some(trace) = &record.trace else { continue };
        for (name, ms) in trace.flatten() {
            by_name.entry(name).or_default().push(ms);
        }
    }
    by_name
        .into_iter()
        .map(|(name, mut samples)| {
            samples.sort_by(f64::total_cmp);
            let count = samples.len() as u64;
            let total_ms: f64 = samples.iter().sum();
            StageStat {
                name: name.to_string(),
                count,
                total_ms,
                mean_ms: total_ms / count as f64,
                p50_ms: percentile(&samples, 50.0),
                p95_ms: percentile(&samples, 95.0),
                p99_ms: percentile(&samples, 99.0),
                max_ms: samples.last().copied().unwrap_or(0.0),
            }
        })
        .collect()
}

/// Nearest-rank percentile of an unsorted sample (q in 0..=100).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeMetrics {
    /// Aggregates the records of a finished batch.
    pub fn from_records<R>(
        records: &[JobRecord<R>],
        wall: Duration,
        cache: Option<CacheStats>,
    ) -> Self {
        let mut latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
        latencies.sort_by(f64::total_cmp);
        let ok = records.iter().filter(|r| r.status == JobStatus::Ok).count();
        let kind_count = |kind: ErrorKind| {
            records
                .iter()
                .filter(|r| r.error.as_ref().is_some_and(|e| e.kind == kind))
                .count()
        };
        let wall_ms = wall.as_secs_f64() * 1e3;
        let throughput_per_s = if wall_ms > 0.0 {
            records.len() as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        let cache = cache.unwrap_or(CacheStats {
            entries: 0,
            capacity: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        });
        ServeMetrics {
            jobs: records.len(),
            ok,
            errors: records.len() - ok,
            timeouts: kind_count(ErrorKind::Timeout),
            cancelled: kind_count(ErrorKind::Cancelled),
            retries: records.iter().map(|r| r.retries() as u64).sum(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_hit_rate: cache.hit_rate(),
            wall_ms,
            throughput_per_s,
            p50_ms: percentile(&latencies, 50.0),
            p90_ms: percentile(&latencies, 90.0),
            p99_ms: percentile(&latencies, 99.0),
            max_ms: latencies.last().copied().unwrap_or(0.0),
            stages: stage_stats(records),
            shards: Vec::new(),
            admission: AdmissionStats::default(),
            faults: FaultCounters::default(),
            repair: RepairStats::default(),
        }
    }

    /// Attaches per-shard aggregates: `shard_stats[i]` is shard `i`'s
    /// cache counters; latency percentiles come from the records whose
    /// `shard` tag is `i`.
    pub fn with_shards<R>(mut self, records: &[JobRecord<R>], shard_stats: &[CacheStats]) -> Self {
        self.shards = shard_stats
            .iter()
            .enumerate()
            .map(|(shard, cache)| {
                let mut latencies: Vec<f64> = records
                    .iter()
                    .filter(|r| r.shard == Some(shard))
                    .map(|r| r.latency_ms)
                    .collect();
                latencies.sort_by(f64::total_cmp);
                ShardStat {
                    shard,
                    jobs: latencies.len(),
                    entries: cache.entries,
                    hits: cache.hits,
                    misses: cache.misses,
                    evictions: cache.evictions,
                    p50_ms: percentile(&latencies, 50.0),
                    p95_ms: percentile(&latencies, 95.0),
                    p99_ms: percentile(&latencies, 99.0),
                }
            })
            .collect();
        self
    }

    /// Attaches a session's admission-control counters.
    pub fn with_admission(mut self, admission: AdmissionStats) -> Self {
        self.admission = admission;
        self
    }

    /// Attaches a chaos run's injected-fault counters.
    pub fn with_faults(mut self, faults: FaultCounters) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches the warm repair path's counters.
    pub fn with_repair(mut self, repair: RepairStats) -> Self {
        self.repair = repair;
        self
    }

    /// Human-readable multi-line summary (what the CLI prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "batch: {} jobs in {:.0} ms ({:.1} jobs/s)\n\
             outcome: {} ok, {} errors ({} timeouts, {} cancelled), {} retries\n\
             latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms\n\
             cache: {} hits, {} misses, {} evictions ({:.0}% hit rate)",
            self.jobs,
            self.wall_ms,
            self.throughput_per_s,
            self.ok,
            self.errors,
            self.timeouts,
            self.cancelled,
            self.retries,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.max_ms,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_rate * 100.0,
        );
        if self.faults.total() > 0 {
            out.push_str(&format!(
                "\nfaults: {} injected ({} transient, {} permanent, {} panics, {} delays, {} cancels, {} drifts)",
                self.faults.total(),
                self.faults.transient,
                self.faults.permanent,
                self.faults.panics,
                self.faults.delays,
                self.faults.cancels,
                self.faults.drifts,
            ));
        }
        if self.repair.total() > 0 {
            out.push_str(&format!(
                "\nrepair: {} delta jobs ({} base hits, {} base misses, {} replan fallbacks)",
                self.repair.total(),
                self.repair.hits,
                self.repair.misses,
                self.repair.fallbacks,
            ));
        }
        if self.admission.decisions() > 0 || self.admission.backpressure_waits > 0 {
            out.push_str(&format!(
                "\nadmission: {} admitted, {} shed, {} backpressure waits, max {} in flight",
                self.admission.admitted,
                self.admission.shed,
                self.admission.backpressure_waits,
                self.admission.max_in_flight,
            ));
        }
        for stage in &self.stages {
            out.push_str(&format!(
                "\nstage {}: {} spans, mean {:.1} ms, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, max {:.1} ms, total {:.0} ms",
                stage.name,
                stage.count,
                stage.mean_ms,
                stage.p50_ms,
                stage.p95_ms,
                stage.p99_ms,
                stage.max_ms,
                stage.total_ms
            ));
        }
        if self.shards.len() > 1 {
            for shard in &self.shards {
                out.push_str(&format!(
                    "\nshard {}: {} jobs, {} entries, {} hits, {} misses, {} evictions, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
                    shard.shard,
                    shard.jobs,
                    shard.entries,
                    shard.hits,
                    shard.misses,
                    shard.evictions,
                    shard.p50_ms,
                    shard.p95_ms,
                    shard.p99_ms
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ErrorRecord;

    fn ok(index: usize, latency: f64) -> JobRecord<u32> {
        JobRecord::ok(index, format!("j{index}"), 1, 1, latency)
    }

    fn failed(index: usize, kind: ErrorKind, attempts: u32) -> JobRecord<u32> {
        JobRecord::error(
            index,
            format!("j{index}"),
            ErrorRecord {
                kind,
                message: "x".into(),
            },
            attempts,
            1.0,
        )
    }

    #[test]
    fn aggregates_counts_and_percentiles() {
        let mut records: Vec<JobRecord<u32>> = (0..98).map(|i| ok(i, (i + 1) as f64)).collect();
        records.push(failed(98, ErrorKind::Timeout, 1));
        records.push(failed(99, ErrorKind::Plan, 3));
        let m = ServeMetrics::from_records(&records, Duration::from_secs(1), None);
        assert_eq!(m.jobs, 100);
        assert_eq!(m.ok, 98);
        assert_eq!(m.errors, 2);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.cancelled, 0);
        assert_eq!(m.retries, 2);
        assert!((m.throughput_per_s - 100.0).abs() < 1e-9);
        // 98 latencies 1..=98 plus two 1.0s: p50 is the 50th smallest.
        assert!((m.p50_ms - 48.0).abs() < 1e-9, "{}", m.p50_ms);
        assert_eq!(m.max_ms, 98.0);
        let rendered = m.render();
        assert!(rendered.contains("p99"));
        assert!(rendered.contains("100 jobs"));
    }

    #[test]
    fn empty_batch_is_all_zeros() {
        let m = ServeMetrics::from_records::<u32>(&[], Duration::ZERO, None);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.p99_ms, 0.0);
        assert_eq!(m.throughput_per_s, 0.0);
    }

    #[test]
    fn stage_aggregates_come_from_traces() {
        let tracer = youtiao_obs::Tracer::new("j0");
        tracer.record("plan", Duration::from_millis(10));
        tracer.record("route", Duration::from_millis(4));
        let a = ok(0, 14.0).with_trace(tracer.try_finish());
        let tracer = youtiao_obs::Tracer::new("j1");
        tracer.record("plan", Duration::from_millis(20));
        let b = ok(1, 20.0).with_trace(tracer.try_finish());
        let untraced = ok(2, 1.0);

        let m = ServeMetrics::from_records(&[a, b, untraced], Duration::from_secs(1), None);
        assert_eq!(m.stages.len(), 2);
        let plan = &m.stages[0];
        assert_eq!(plan.name, "plan");
        assert_eq!(plan.count, 2);
        assert!((plan.total_ms - 30.0).abs() < 1e-9);
        assert!((plan.mean_ms - 15.0).abs() < 1e-9);
        assert!((plan.max_ms - 20.0).abs() < 1e-9);
        assert_eq!(m.stages[1].name, "route");
        // Percentiles over the two plan samples (10, 20): nearest rank
        // puts p50 on the first, p95/p99 on the last.
        assert!((plan.p50_ms - 10.0).abs() < 1e-9);
        assert!((plan.p95_ms - 20.0).abs() < 1e-9);
        assert!((plan.p99_ms - 20.0).abs() < 1e-9);
        assert!(m.render().contains("stage plan: 2 spans"));
        assert!(m.render().contains("p95"), "{}", m.render());

        let untraced_run = ServeMetrics::from_records(&[ok(0, 1.0)], Duration::from_secs(1), None);
        assert!(untraced_run.stages.is_empty());
        assert!(!untraced_run.render().contains("stage "));
    }

    #[test]
    fn fault_counters_render_only_when_nonzero() {
        let quiet = ServeMetrics::from_records(&[ok(0, 1.0)], Duration::from_secs(1), None);
        assert_eq!(quiet.faults.total(), 0);
        assert!(!quiet.render().contains("faults:"));

        let chaotic = quiet.with_faults(FaultCounters {
            transient: 3,
            panics: 1,
            ..Default::default()
        });
        let rendered = chaotic.render();
        assert!(rendered.contains("faults: 4 injected"), "{rendered}");
        assert!(rendered.contains("3 transient"), "{rendered}");
    }

    #[test]
    fn repair_counters_render_only_when_nonzero() {
        let plain = ServeMetrics::from_records(&[ok(0, 1.0)], Duration::from_secs(1), None);
        assert_eq!(plain.repair.total(), 0);
        assert!(!plain.render().contains("repair:"));

        let repaired = plain.with_repair(RepairStats {
            hits: 4,
            misses: 1,
            fallbacks: 2,
        });
        let rendered = repaired.render();
        assert!(rendered.contains("repair: 7 delta jobs"), "{rendered}");
        assert!(rendered.contains("4 base hits"), "{rendered}");
        assert!(rendered.contains("2 replan fallbacks"), "{rendered}");
    }

    #[test]
    fn shard_and_admission_aggregates_attach_and_render() {
        let records: Vec<JobRecord<u32>> = (0..8)
            .map(|i| ok(i, (i + 1) as f64).with_shard(Some(i % 2)))
            .collect();
        let shard_stats = [
            CacheStats {
                entries: 3,
                capacity: 8,
                hits: 2,
                misses: 2,
                evictions: 0,
            },
            CacheStats {
                entries: 1,
                capacity: 8,
                hits: 0,
                misses: 4,
                evictions: 1,
            },
        ];
        let m = ServeMetrics::from_records(&records, Duration::from_secs(1), None)
            .with_shards(&records, &shard_stats)
            .with_admission(AdmissionStats {
                admitted: 8,
                shed: 2,
                backpressure_waits: 1,
                max_in_flight: 4,
            });
        assert_eq!(m.shards.len(), 2);
        // Shard 0 saw latencies 1,3,5,7; shard 1 saw 2,4,6,8.
        assert_eq!(m.shards[0].jobs, 4);
        assert!((m.shards[0].p50_ms - 3.0).abs() < 1e-9);
        assert!((m.shards[0].p99_ms - 7.0).abs() < 1e-9);
        assert!((m.shards[1].p99_ms - 8.0).abs() < 1e-9);
        assert_eq!(m.shards[1].evictions, 1);
        let rendered = m.render();
        assert!(
            rendered.contains("admission: 8 admitted, 2 shed"),
            "{rendered}"
        );
        assert!(rendered.contains("shard 0: 4 jobs"), "{rendered}");
        assert!(rendered.contains("shard 1: 4 jobs"), "{rendered}");

        // A flat (single-shard) run renders no shard lines, and a
        // batch run with no admission decisions no admission line.
        let flat = ServeMetrics::from_records(&records, Duration::from_secs(1), None)
            .with_shards(&records, &shard_stats[..1]);
        assert_eq!(flat.shards.len(), 1);
        assert!(!flat.render().contains("\nshard 0:"));
        assert!(!flat.render().contains("admission:"));
    }

    #[test]
    fn metrics_serialize() {
        let m = ServeMetrics::from_records(&[ok(0, 2.0)], Duration::from_millis(10), None);
        let json = serde_json::to_string(&m).unwrap();
        let back: ServeMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
