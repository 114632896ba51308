//! Properties of chip construction and distance metrics. The small
//! integer ranges (grid sizes, patch sizes, code distances, qubit
//! picks) are covered exhaustively; the equivalent-distance weight is
//! drawn from a seeded ChaCha8 stream, so every run checks the same
//! cases and a failure names its case.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::distance::{equivalent_matrix, topological_distance, EquivalentWeights};
use youtiao_chip::surface::SurfaceCode;
use youtiao_chip::topology;

/// Grid generators produce connected chips with the expected counts
/// for any dimensions.
#[test]
fn grids_are_connected_with_exact_counts() {
    for rows in 1usize..7 {
        for cols in 1usize..7 {
            let chip = topology::square_grid(rows, cols);
            let case = format!("{rows}x{cols}");
            assert_eq!(chip.num_qubits(), rows * cols, "{case}");
            assert_eq!(
                chip.num_couplers(),
                rows * (cols - 1) + cols * (rows - 1),
                "{case}"
            );
            assert!(chip.is_connected(), "{case}");
        }
    }
}

/// Topological distance is symmetric and bounded by the qubit count.
#[test]
fn topological_distance_symmetric() {
    for rows in 2usize..6 {
        for cols in 2usize..6 {
            let chip = topology::square_grid(rows, cols);
            let n = chip.num_qubits() as u32;
            for seed in 0u32..100 {
                let case = format!("{rows}x{cols} seed {seed}");
                let a = (seed % n).into();
                let b = ((seed / 7) % n).into();
                let dab = topological_distance(&chip, a, b).unwrap();
                let dba = topological_distance(&chip, b, a).unwrap();
                assert_eq!(dab.hops(), dba.hops(), "{case}");
                assert_eq!(dab.path_count(), dba.path_count(), "{case}");
                assert!((dab.hops() as usize) < chip.num_qubits(), "{case}");
            }
        }
    }
}

/// The equivalent-distance matrix is symmetric with a zero diagonal
/// and strictly positive off-diagonal entries on connected chips.
#[test]
fn equivalent_matrix_is_well_formed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xe9);
    for rows in 2usize..6 {
        for cols in 2usize..6 {
            for _ in 0..3 {
                let w = rng.gen_range(0.01f64..0.99);
                let case = format!("{rows}x{cols} w {w}");
                let chip = topology::square_grid(rows, cols);
                let weights = EquivalentWeights::new(w, 1.0 - w).unwrap();
                let m = equivalent_matrix(&chip, weights);
                for a in chip.qubit_ids() {
                    assert_eq!(m.get(a, a), 0.0, "{case}");
                    for b in chip.qubit_ids() {
                        assert_eq!(m.get(a, b), m.get(b, a), "{case}");
                        if a != b {
                            assert!(m.get(a, b) > 0.0, "{case}: {a} {b}");
                        }
                    }
                }
            }
        }
    }
}

/// Hexagon patches obey the closed-form vertex/edge counts.
#[test]
fn hexagon_patch_counts() {
    for r in 1usize..4 {
        for c in 1usize..4 {
            let chip = topology::hexagon_patch(r, c);
            let case = format!("{r}x{c}");
            assert_eq!(chip.num_qubits(), 2 * (r * c + r + c), "{case}");
            assert_eq!(chip.num_couplers(), 3 * r * c + 2 * r + 2 * c - 1, "{case}");
            for q in chip.qubit_ids() {
                assert!(chip.connectivity(q) <= 3, "{case}: {q}");
            }
        }
    }
}

/// Heavy variants add exactly one qubit per base coupler and double
/// the coupler count.
#[test]
fn heavy_square_counts() {
    for rows in 2usize..5 {
        for cols in 2usize..5 {
            let base = topology::square_grid(rows, cols);
            let heavy = topology::heavy_square(rows, cols);
            let case = format!("{rows}x{cols}");
            assert_eq!(
                heavy.num_qubits(),
                base.num_qubits() + base.num_couplers(),
                "{case}"
            );
            assert_eq!(heavy.num_couplers(), 2 * base.num_couplers(), "{case}");
        }
    }
}

/// Rotated surface codes always satisfy the Table-1 closed forms.
#[test]
fn surface_code_closed_forms() {
    for k in 1usize..6 {
        let d = 2 * k + 1;
        let code = SurfaceCode::rotated(d);
        assert_eq!(code.chip().num_qubits(), 2 * d * d - 1, "d {d}");
        assert_eq!(
            code.chip().num_couplers(),
            4 * (d - 1) * (d - 1) + 4 * (d - 1),
            "d {d}"
        );
        assert_eq!(code.stabilizers().len(), d * d - 1, "d {d}");
        assert!(code.chip().is_connected(), "d {d}");
    }
}
