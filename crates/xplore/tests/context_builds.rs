//! The shared-context build probe: a sweep builds one `PlanContext`
//! per chip axis value, not one per grid point.
//!
//! `PlanContext::build_count` is process-global, and every other sweep
//! of the same process would move it while this test reads its deltas.
//! So this test lives alone in its binary.

mod common;

use common::{no_model_spec, sweep_jsonl};
use youtiao_core::PlanContext;
use youtiao_xplore::{ChipRequest, SweepOptions, SweepSpec};

#[test]
fn contexts_are_built_once_per_chip_axis_value() {
    // Without a model: one context per chip, regardless of how many
    // grid points (2 chips × 2 modes × 3 thetas = 12 points) hit it.
    let spec = no_model_spec();
    let before = PlanContext::build_count();
    let (_, outcome) = sweep_jsonl(&spec, &SweepOptions::default());
    let built = PlanContext::build_count() - before;
    assert_eq!(outcome.summary.contexts_built, 2);
    assert_eq!(
        built, 2,
        "matrices must be built once per chip, not per point"
    );

    // With a model: one context per chip × characterization seed.
    let mut spec = SweepSpec::new(vec![ChipRequest::grid("square", 3, 3)]);
    spec.thetas = Some(vec![2.0, 8.0]);
    spec.seeds = Some(vec![1, 2]);
    let before = PlanContext::build_count();
    let (_, outcome) = sweep_jsonl(&spec, &SweepOptions::default());
    let built = PlanContext::build_count() - before;
    assert_eq!(outcome.summary.contexts_built, 2);
    assert_eq!(built, 2);
    assert_eq!(outcome.records.len(), 4);
    assert!(outcome.records.iter().all(|r| r.is_ok()));
}
