//! Exact deltas of the process-global probes: scratch-arena takes
//! ([`fresh_count`], [`reuse_count`]), kernel invalidations, kernel
//! builds and context builds.
//!
//! Every test that builds a context or takes an arena moves these
//! counters, and the tests of one binary run concurrently. So these
//! checks live alone in this binary and run one after another inside a
//! single `#[test]`.

use youtiao_chip::distance::EquivalentWeights;
use youtiao_chip::{topology, QubitId};
use youtiao_core::scratch::{fresh_count, reuse_count, Scratch};
use youtiao_core::{PairKernels, PlanContext};

#[test]
fn global_probes_advance_by_exactly_the_work_done() {
    takes_are_filled_and_reuse_retired_capacity();
    nested_takes_clear_inners_but_keep_capacity();
    nested_shapes_coexist_instead_of_cannibalizing();
    crosstalk_delta_matches_a_fresh_context();
    zz_model_keeps_the_kernels();
}

fn takes_are_filled_and_reuse_retired_capacity() {
    let mut s = Scratch::default();
    let before = (fresh_count(), reuse_count());
    let buf = s.take_f64(64, f64::NAN);
    assert_eq!(buf.len(), 64);
    assert!(buf.iter().all(|v| v.is_nan()));
    assert_eq!(fresh_count(), before.0 + 1);
    s.retire_f64(buf);
    let buf = s.take_f64(32, 0.5);
    assert_eq!(buf.len(), 32);
    assert!(buf.iter().all(|&v| v == 0.5));
    assert_eq!(reuse_count(), before.1 + 1, "shrinking take reuses");
    s.retire_f64(buf);
    // A grower may have to reallocate: counted as fresh.
    let fresh_before = fresh_count();
    let buf = s.take_f64(1024, 0.0);
    assert_eq!(buf.len(), 1024);
    assert_eq!(fresh_count(), fresh_before + 1);
}

fn nested_takes_clear_inners_but_keep_capacity() {
    let mut s = Scratch::default();
    let mut rows = s.take_rows(4);
    rows[2].extend([1.0, 2.0, 3.0]);
    let kept = rows[2].capacity();
    s.retire_rows(rows);
    let before = reuse_count();
    let rows = s.take_rows(4);
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(Vec::is_empty), "inners come back cleared");
    assert!(rows[2].capacity() >= kept);
    assert_eq!(reuse_count(), before + 1);
    s.retire_rows(rows);
}

fn nested_shapes_coexist_instead_of_cannibalizing() {
    // The XY/readout alternation: a wide table and a narrow table
    // cycling through one arena must each stay warm — a shrinking
    // reuse would drop the wide table's row capacities every plan.
    let mut s = Scratch::default();
    let wide = s.take_rows(60);
    s.retire_rows(wide);
    let narrow = s.take_rows(5); // fresh: must not shrink the wide one
    s.retire_rows(narrow);
    let before = (fresh_count(), reuse_count());
    for _ in 0..3 {
        let wide = s.take_rows(60);
        s.retire_rows(wide);
        let narrow = s.take_rows(5);
        s.retire_rows(narrow);
    }
    assert_eq!(fresh_count(), before.0, "steady-state takes stay warm");
    assert_eq!(reuse_count(), before.1 + 6);
}

fn crosstalk_delta_matches_a_fresh_context() {
    let chip = topology::square_grid(4, 4);
    let mut ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
    let mut drifted = ctx.crosstalk().clone();
    let (a, b) = (QubitId::new(3), QubitId::new(7));
    drifted.set(a, b, drifted.get(a, b) * 2.5 + 1e-3);

    let deltas = PlanContext::crosstalk_deltas();
    let builds = (PlanContext::build_count(), PairKernels::build_count());
    let rows = ctx
        .apply_crosstalk_delta(&chip, drifted.clone(), &[a, b])
        .unwrap();
    // q3 (a corner, two couplers) and q7 (an edge, three), sharing one.
    assert_eq!(rows, 6, "both qubits and the four distinct couplers");
    assert_eq!(PlanContext::crosstalk_deltas(), deltas + 1);
    assert_eq!(
        (PlanContext::build_count(), PairKernels::build_count()),
        builds,
        "delta must not rebuild"
    );

    let fresh = PlanContext::from_matrix(&chip, EquivalentWeights::balanced(), drifted);
    assert_eq!(ctx, fresh, "patched context must equal a fresh build");
}

fn zz_model_keeps_the_kernels() {
    use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
    use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
    let chip = topology::square_grid(4, 4);
    let zz = fit_crosstalk_model(
        &synthesize(&chip, CrosstalkKind::Zz, &SynthConfig::zz(), 5),
        &FitConfig::fast(),
    )
    .unwrap();
    let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
    let kernels = PairKernels::build_count();
    let zz_ctx = ctx.clone().with_zz_model(&chip, &zz);
    assert_eq!(
        PairKernels::build_count(),
        kernels,
        "kernels are topology-only"
    );
    assert_eq!(zz_ctx.kernels(), ctx.kernels());
    assert_eq!(Some(zz_ctx.tdm_crosstalk()), zz_ctx.zz_crosstalk());
}
