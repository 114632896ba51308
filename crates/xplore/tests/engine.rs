//! End-to-end engine tests: determinism across thread counts,
//! error-record flow, objective validation, and plan-cache reuse. The
//! shared-context build probe lives alone in `tests/context_builds.rs`.

mod common;

use common::{no_model_spec, sweep_jsonl};
use youtiao_xplore::{
    parse_objectives, run_sweep, run_sweep_with_cache, ChipRequest, ShardedCache, SpecError,
    SweepError, SweepMode, SweepOptions, SweepSpec,
};

#[test]
fn jsonl_is_byte_identical_across_thread_counts() {
    let spec = no_model_spec();
    let mut options = SweepOptions {
        objectives: parse_objectives("cost").unwrap(),
        ..SweepOptions::default()
    };

    options.threads = 1;
    let (serial, outcome_serial) = sweep_jsonl(&spec, &options);
    options.threads = 8;
    let (parallel, outcome_parallel) = sweep_jsonl(&spec, &options);

    assert_eq!(serial, parallel, "JSONL must not depend on thread count");
    assert_eq!(outcome_serial.records, outcome_parallel.records);
    assert_eq!(outcome_serial.summary.threads, 1);
    // threads clamp to the grid size (12 points here).
    assert_eq!(outcome_parallel.summary.threads, 8);

    // Records arrive in dense grid order.
    let indices: Vec<usize> = outcome_serial.records.iter().map(|r| r.index).collect();
    assert_eq!(indices, (0..12).collect::<Vec<_>>());
    assert!(outcome_serial.records.iter().all(|r| r.is_ok()));
    assert!(!outcome_serial.summary.pareto.is_empty());
}

#[test]
fn failed_points_become_error_records_not_failures() {
    let mut spec = no_model_spec();
    spec.modes = Some(vec![SweepMode::Youtiao]);
    spec.thetas = None;
    spec.fdm_capacities = Some(vec![0, 5]); // 0 is rejected by the planner
    let (out, outcome) = sweep_jsonl(&spec, &SweepOptions::default());

    assert_eq!(outcome.records.len(), 4);
    assert_eq!(outcome.summary.errors, 2);
    assert_eq!(outcome.summary.ok, 2);
    for record in &outcome.records {
        if record.fdm_capacity == 0 {
            assert!(!record.is_ok());
            let msg = record.error.as_deref().unwrap();
            assert!(msg.contains("fdm capacity"), "{msg}");
            assert!(record.cost_kusd.is_none());
        } else {
            assert!(record.is_ok());
        }
    }
    // Every point still produced a JSONL line.
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 4);
    // The front only contains successful points.
    assert!(outcome
        .summary
        .pareto
        .iter()
        .all(|e| outcome.records[e.index].is_ok()));
}

#[test]
fn latency_objective_requires_timings() {
    let spec = no_model_spec();
    let mut options = SweepOptions {
        objectives: parse_objectives("cost,latency").unwrap(),
        ..SweepOptions::default()
    };
    let err = run_sweep(&spec, &options, &mut Vec::new()).unwrap_err();
    assert!(matches!(err, SweepError::Objective(_)), "{err}");

    options.timings = true;
    let mut out = Vec::new();
    let outcome = run_sweep(&spec, &options, &mut out).expect("timings unlock latency");
    assert!(outcome.records.iter().all(|r| r.latency_ms.is_some()));
    assert!(outcome.records[0].stages.is_some());
}

#[test]
fn shared_cache_answers_repeat_sweeps() {
    let spec = no_model_spec();
    let options = SweepOptions::default();
    let cache = ShardedCache::new(1, 64);

    let mut first = Vec::new();
    let outcome1 = run_sweep_with_cache(&spec, &options, &cache, &mut first).unwrap();
    assert_eq!(outcome1.summary.cache_hits, 0);
    assert_eq!(outcome1.summary.cache_misses, 12);

    let mut second = Vec::new();
    let outcome2 = run_sweep_with_cache(&spec, &options, &cache, &mut second).unwrap();
    assert_eq!(outcome2.summary.cache_hits, 12);
    assert_eq!(outcome2.summary.cache_misses, 0);

    // Cache hits change nothing about the byte stream.
    assert_eq!(first, second);
}

#[test]
fn chiplet_axis_scales_monolithic_points() {
    let mut spec = SweepSpec::new(vec![ChipRequest::grid("square", 3, 3)]);
    spec.use_model = Some(false);
    spec.chiplets = Some(vec![1, 4]);
    let (_, outcome) = sweep_jsonl(&spec, &SweepOptions::default());
    assert_eq!(outcome.records.len(), 2);
    let mono = &outcome.records[0];
    let multi = &outcome.records[1];
    assert!(mono.is_ok() && multi.is_ok(), "{:?}", multi.error);
    assert_eq!((mono.chiplets, multi.chiplets), (1, 4));
    assert_eq!(multi.qubits, 4 * mono.qubits);
    // Identical dies and additive cryostat resources: the array's
    // totals are the monolithic tallies times the die count (link
    // reconciliation only swaps frequencies, never lines).
    assert_eq!(multi.coax_lines, mono.coax_lines.map(|c| 4 * c));
    assert_eq!(multi.dedicated_coax, mono.dedicated_coax.map(|c| 4 * c));
    assert_eq!(multi.z_lines, mono.z_lines.map(|z| 4 * z));
    // Multi-die points are visibly labeled; monolithic ids are stable.
    assert!(multi.id.ends_with("/x4-grid"), "{}", multi.id);
    assert!(
        mono.id.ends_with(&format!("/seed{}", mono.seed)),
        "{}",
        mono.id
    );
    assert!(outcome
        .summary
        .marginals
        .iter()
        .any(|m| m.axis == "chiplets"));
}

#[test]
fn chiplet_sweeps_are_deterministic_across_threads() {
    let mut spec = SweepSpec::new(vec![ChipRequest::grid("square", 3, 3)]);
    spec.chiplets = Some(vec![2]);
    spec.link_topologies = Some(vec!["torus".into()]);
    let mut options = SweepOptions {
        threads: 1,
        plan_threads: 1,
        ..SweepOptions::default()
    };
    let (serial, outcome) = sweep_jsonl(&spec, &options);
    assert!(outcome.records.iter().all(|r| r.is_ok()));
    assert_eq!(outcome.records[0].link_topology, "torus");
    options.threads = 4;
    options.plan_threads = 4;
    let (parallel, _) = sweep_jsonl(&spec, &options);
    assert_eq!(
        serial, parallel,
        "multi-die sweep JSONL must not depend on thread counts"
    );
}

#[test]
fn per_chip_chiplet_knobs_are_rejected() {
    let mut chip = ChipRequest::grid("square", 3, 3);
    chip.chiplets = Some(4);
    let spec = SweepSpec::new(vec![chip]);
    let err = run_sweep(&spec, &SweepOptions::default(), &mut Vec::new()).unwrap_err();
    assert!(matches!(err, SweepError::Spec(_)), "{err}");
    assert!(err.to_string().contains("chiplets"), "{err}");
}

#[test]
fn chips_too_small_to_characterize_are_spec_errors() {
    // Two qubits give fewer ordered pairs than the fit's five folds: the
    // context phase reports the chip, it does not panic.
    let mut tiny = ChipRequest::named("linear");
    tiny.size = Some(2);
    let spec = SweepSpec::new(vec![tiny, ChipRequest::grid("square", 3, 3)]);
    let err = run_sweep(&spec, &SweepOptions::default(), &mut Vec::new()).unwrap_err();
    match &err {
        SweepError::Spec(SpecError::Chip { index, message }) => {
            assert_eq!(*index, 0);
            assert!(message.contains("characterization failed"), "{message}");
        }
        other => panic!("expected a chip spec error, got {other}"),
    }
}

#[test]
fn grid_points_match_single_planner_runs() {
    use youtiao_core::{PlannerConfig, TdmConfig, YoutiaoPlanner};
    use youtiao_cost::WiringTally;

    // The sweep's record at θ=8 equals a hand-rolled planner run.
    let mut spec = SweepSpec::new(vec![ChipRequest::grid("square", 3, 3)]);
    spec.thetas = Some(vec![8.0]);
    spec.use_model = Some(false);
    let (_, outcome) = sweep_jsonl(&spec, &SweepOptions::default());
    let record = &outcome.records[0];

    let chip = youtiao_chip::topology::square_grid(3, 3);
    let config = PlannerConfig {
        tdm: TdmConfig {
            theta: 8.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let plan = YoutiaoPlanner::new(&chip)
        .with_config(config)
        .plan()
        .unwrap();
    let tally = WiringTally::youtiao(&plan);
    assert_eq!(record.coax_lines, Some(tally.coax_lines()));
    assert_eq!(record.cost_kusd, Some(tally.cost_kusd()));
    assert_eq!(
        record.dedicated_coax,
        Some(WiringTally::google(&chip).coax_lines())
    );
}
