//! Properties of the cost model. Grid sizes and system sizes are
//! covered exhaustively over their ranges; the six resource counts of
//! the monotonicity property are drawn from a seeded ChaCha8 stream,
//! so every run checks the same cases and a failure names its case.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::EquivalentWeights;
use youtiao_chip::topology;
use youtiao_core::{PlanContext, YoutiaoPlanner};
use youtiao_cost::scale::{square_system, ScalingModel};
use youtiao_cost::WiringTally;

/// Google tallies follow the closed forms on any grid.
#[test]
fn google_tally_closed_forms() {
    for rows in 1usize..7 {
        for cols in 1usize..7 {
            let case = format!("{rows}x{cols}");
            let chip = topology::square_grid(rows, cols);
            let t = WiringTally::google(&chip);
            let q = rows * cols;
            assert_eq!(t.xy_lines, q, "{case}");
            assert_eq!(t.z_lines, q + chip.num_couplers(), "{case}");
            assert_eq!(t.readout_feedlines, q.div_ceil(8), "{case}");
            assert_eq!(t.readout_dacs, q.div_ceil(4), "{case}");
            assert_eq!(t.demux_select_lines, 0, "{case}");
            assert_eq!(t.dac_channels(), t.rf_dacs(), "{case}");
            assert_eq!(t.interfaces(), t.coax_lines(), "{case}");
            assert!(t.cost_kusd() > 0.0, "{case}");
        }
    }
}

/// YOUTIAO never uses more resources than dedicated wiring, on any
/// grid large enough to multiplex, and a plan recalled from a shared
/// context tallies as the plan that context first made.
#[test]
fn youtiao_dominates_google() {
    for rows in 2usize..6 {
        for cols in 2usize..6 {
            let case = format!("{rows}x{cols}");
            let chip = topology::square_grid(rows, cols);
            let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
            let y = WiringTally::youtiao(&plan);
            let g = WiringTally::google(&chip);
            assert!(y.xy_lines <= g.xy_lines, "{case}");
            assert!(y.z_lines <= g.z_lines, "{case}");
            assert!(y.coax_lines() <= g.coax_lines(), "{case}");
            assert!(y.cost_kusd() <= g.cost_kusd(), "{case}");

            let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
            for _ in 0..2 {
                let on_ctx = YoutiaoPlanner::new(&chip).with_context(&ctx).plan();
                assert_eq!(WiringTally::youtiao(&on_ctx.unwrap()), y, "{case}");
            }
            assert_eq!(
                ctx.chain_stats().hits,
                3,
                "{case}: the second plan recalled"
            );
        }
    }
}

/// Cost is monotone in every resource dimension.
#[test]
fn cost_is_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc057);
    for _ in 0..256 {
        let base = WiringTally {
            xy_lines: rng.gen_range(0usize..100),
            z_lines: rng.gen_range(0usize..300),
            readout_feedlines: rng.gen_range(0usize..20),
            readout_dacs: rng.gen_range(0usize..40),
            demux_select_lines: rng.gen_range(0usize..80),
        };
        let bump = rng.gen_range(1usize..10);
        let case = format!("{base:?} + {bump}");
        for grown in [
            WiringTally {
                xy_lines: base.xy_lines + bump,
                ..base
            },
            WiringTally {
                z_lines: base.z_lines + bump,
                ..base
            },
            WiringTally {
                demux_select_lines: base.demux_select_lines + bump,
                ..base
            },
        ] {
            assert!(grown.cost_kusd() > base.cost_kusd(), "{case}");
            assert!(grown.coax_lines() >= base.coax_lines(), "{case}");
        }
    }
}

/// Square systems always hold at least the requested qubits with a
/// near-square aspect ratio.
#[test]
fn square_system_holds_request() {
    for n in 1usize..100_000 {
        let s = square_system(n);
        assert!(s.qubits() >= n, "{n}");
        assert!(s.cols >= s.rows, "{n}");
        assert!(
            s.cols - s.rows <= s.rows + 1,
            "{n}: aspect {}x{}",
            s.rows,
            s.cols
        );
        // Coupler closed form for grids.
        assert_eq!(s.couplers(), 2 * s.rows * s.cols - s.rows - s.cols, "{n}");
    }
}

/// The scaling model's estimates grow monotonically with system size.
#[test]
fn scaling_is_monotone() {
    let model = ScalingModel {
        z_devices_per_line: 3.5,
        select_per_line: 1.8,
    };
    for n in 50usize..5_000 {
        for factor in 2usize..5 {
            let case = format!("{n} x {factor}");
            let small = model.youtiao_tally(n);
            let large = model.youtiao_tally(n * factor);
            assert!(large.coax_lines() > small.coax_lines(), "{case}");
            assert!(large.cost_kusd() > small.cost_kusd(), "{case}");
            let g_small = model.google_tally(n);
            let g_large = model.google_tally(n * factor);
            assert!(g_large.coax_lines() > g_small.coax_lines(), "{case}");
            // The reduction factor stays roughly stable at scale.
            let r_small = g_small.coax_lines() as f64 / small.coax_lines() as f64;
            let r_large = g_large.coax_lines() as f64 / large.coax_lines() as f64;
            assert!((r_small - r_large).abs() < 1.0, "{case}");
        }
    }
}
