//! Sweep helpers shared by the engine's integration-test binaries.

use youtiao_xplore::{run_sweep, ChipRequest, SweepMode, SweepOptions, SweepOutcome, SweepSpec};

/// Two model-free chips × two modes × three thetas: 12 grid points.
pub fn no_model_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![
        ChipRequest::grid("square", 3, 3),
        ChipRequest::named("linear"),
    ]);
    spec.name = Some("engine-test".into());
    spec.modes = Some(vec![SweepMode::Youtiao, SweepMode::Dedicated]);
    spec.thetas = Some(vec![2.0, 4.0, 8.0]);
    spec.use_model = Some(false);
    spec
}

/// Runs a sweep, returning its JSONL bytes and outcome.
pub fn sweep_jsonl(spec: &SweepSpec, options: &SweepOptions) -> (Vec<u8>, SweepOutcome) {
    let mut out = Vec::new();
    let outcome = run_sweep(spec, options, &mut out).expect("sweep runs");
    (out, outcome)
}
