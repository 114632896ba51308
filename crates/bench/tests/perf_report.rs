//! The bench-plan harness end to end on tiny grids.
//!
//! `run` asserts on deltas of process-global probes (scratch-arena
//! takes, kernel builds), which any other test of the same process
//! would move while it runs. So these checks live alone in this binary
//! and run one after another inside a single `#[test]`.

use youtiao_bench::perf::{run, Layout, PerfConfig, SCHEMA};

#[test]
fn harness_runs_produce_complete_reports() {
    tiny_run_produces_complete_report();
    report_serializes();
    extra_layouts_are_timed_after_the_grids();
}

fn tiny_run_produces_complete_report() {
    let report = run(&PerfConfig {
        sizes: vec![3, 4],
        layouts: Vec::new(),
        iterations: 2,
        plan_threads: 2,
    });
    assert_eq!(report.schema, SCHEMA);
    assert_eq!(report.sizes.len(), 2);
    for size in &report.sizes {
        for stage in [
            "kernels_build",
            "grouping_kernels",
            "grouping_deep",
            "refine_kernels",
            "freq_alloc_kernels",
            "readout_kernels",
            "plan_total",
            "plan_partitioned_serial",
            "plan_partitioned_parallel",
            "plan.tdm_grouping",
            "plan.refine",
            "plan.freq.place",
            "plan.freq.swap",
            "plan.freq_alloc",
            "plan.readout.place",
            "plan.readout.swap",
            "plan.readout",
        ] {
            let s = &size.stages[stage];
            assert!(s.median_us >= 0.0);
            assert!(s.p10_us <= s.p90_us, "{stage}: {s:?}");
        }
        assert_eq!(size.kernel_builds_during_plans, 0);
        // The arena probes: nothing fresh after warmup, reuse live.
        assert_eq!(size.scratch_fresh, 0);
        assert!(size.scratch_reused > 0);
        assert_eq!(size.threads, 2);
        assert!(size.speedup_parallel.is_finite());
        // Allocation builds no frequency kernels, and `plan_total` is
        // the one timing of the whole plan.
        for gone in ["freq_kernels_build", "plan.freq.kernels", "plan.total"] {
            assert!(!size.stages.contains_key(gone), "{gone}");
        }
    }
    // One context per size; no kernels built inside the plan loops
    // (the probe deltas include the timed standalone builds).
    assert!(report.contexts_built >= 2);
    let rendered = report.render();
    assert!(rendered.contains("3x3"));
    assert!(rendered.contains("4x4"));
}

fn report_serializes() {
    let report = run(&PerfConfig {
        sizes: vec![3],
        layouts: Vec::new(),
        iterations: 1,
        plan_threads: 1,
    });
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"schema\""));
    assert!(json.contains("grouping_kernels"));
    assert!(json.contains("\"speedup_parallel\""));
    assert!(json.contains("\"scratch_reused\""));
}

fn extra_layouts_are_timed_after_the_grids() {
    let report = run(&PerfConfig {
        sizes: vec![3],
        layouts: vec![Layout::Surface(3), Layout::HeavyHex(1, 2)],
        iterations: 1,
        plan_threads: 2,
    });
    let labels: Vec<&str> = report.sizes.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["3x3", "surface-d3", "heavy-hex-1x2"]);
    for size in &report.sizes {
        assert!(size.stages.contains_key("plan_total"), "{}", size.label);
        assert_eq!(size.kernel_builds_during_plans, 0, "{}", size.label);
    }
}
