//! Properties of the state-vector simulator. Random circuits and angles
//! are drawn from a seeded ChaCha8 stream, so every run checks the same
//! cases and a failure names its case.

use std::ops::Range;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_circuit::{Circuit, Gate};
use youtiao_sim::state::{gate_matrix, StateVector};

/// Inputs per property.
const CASES: u64 = 2000;

/// Runs `property` on cases `0..CASES`, each with its own stream.
fn for_each_case(mut property: impl FnMut(u64, &mut ChaCha8Rng)) {
    for case in 0..CASES {
        property(case, &mut ChaCha8Rng::seed_from_u64(case));
    }
}

/// A length drawn from `len`, then that many `(kind, a, b, angle)`
/// gates with `kind < 6`, both qubit picks below `qubits` and an angle
/// of `0..620` hundredths of a radian.
fn random_ops(rng: &mut ChaCha8Rng, qubits: u32, len: Range<usize>) -> Vec<(u8, u8, u8, u16)> {
    let len = rng.gen_range(len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u32..6) as u8,
                rng.gen_range(0..qubits) as u8,
                rng.gen_range(0..qubits) as u8,
                rng.gen_range(0u32..620) as u16,
            )
        })
        .collect()
}

fn random_unitary_circuit(n: usize, ops: &[(u8, u8, u8, u16)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, angle) in ops {
        let qa = ((a as usize) % n).into();
        let qb = ((b as usize) % n).into();
        let theta = angle as f64 / 100.0;
        match kind % 6 {
            0 => c.push1(Gate::H, qa).unwrap(),
            1 => c.push1(Gate::X, qa).unwrap(),
            2 => c.push1(Gate::Rx(theta), qa).unwrap(),
            3 => c.push1(Gate::Ry(theta), qa).unwrap(),
            4 => c.push1(Gate::Rz(theta), qa).unwrap(),
            _ => {
                if qa != qb {
                    c.push2(Gate::Cz, qa, qb).unwrap();
                }
            }
        }
    }
    c
}

/// Any circuit of basis gates preserves the norm exactly.
#[test]
fn unitarity() {
    for_each_case(|case, rng| {
        let n = rng.gen_range(1usize..7);
        let c = random_unitary_circuit(n, &random_ops(rng, 8, 0..60));
        let s = StateVector::run(&c).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-9, "case {case}");
    });
}

/// Basis probabilities always sum to one and lie in [0, 1].
#[test]
fn probabilities_are_a_distribution() {
    for_each_case(|case, rng| {
        let n = rng.gen_range(1usize..6);
        let c = random_unitary_circuit(n, &random_ops(rng, 8, 0..40));
        let s = StateVector::run(&c).unwrap();
        let mut sum = 0.0;
        for b in 0..(1usize << n) {
            let p = s.probability_of(b);
            assert!((0.0..=1.0 + 1e-12).contains(&p), "case {case}: {p}");
            sum += p;
        }
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: {sum}");
    });
}

/// Applying a gate then its inverse returns to the original state
/// (fidelity 1).
#[test]
fn rotation_inverses() {
    for_each_case(|case, rng| {
        let n = rng.gen_range(1usize..5);
        let q = (rng.gen_range(0usize..8) % n).into();
        let theta = rng.gen_range(0.0..6.2);
        let mut fwd = Circuit::new(n);
        fwd.push1(Gate::H, q).unwrap();
        fwd.push1(Gate::Rx(theta), q).unwrap();
        fwd.push1(Gate::Rx(-theta), q).unwrap();
        let s = StateVector::run(&fwd).unwrap();
        let mut href = Circuit::new(n);
        href.push1(Gate::H, q).unwrap();
        let r = StateVector::run(&href).unwrap();
        assert!((s.fidelity(&r) - 1.0).abs() < 1e-9, "case {case}");
    });
}

/// Gate matrices are unitary: M†M = I.
#[test]
fn matrices_are_unitary() {
    for_each_case(|case, rng| {
        let theta = rng.gen_range(-6.2..6.2);
        for gate in [
            Gate::H,
            Gate::X,
            Gate::Rx(theta),
            Gate::Ry(theta),
            Gate::Rz(theta),
        ] {
            let m = gate_matrix(gate);
            // columns are orthonormal
            let c0 = (m[0].norm_sqr() + m[2].norm_sqr() - 1.0).abs();
            let c1 = (m[1].norm_sqr() + m[3].norm_sqr() - 1.0).abs();
            let cross = (m[0].conj() * m[1] + m[2].conj() * m[3]).norm();
            assert!(
                c0 < 1e-12 && c1 < 1e-12 && cross < 1e-12,
                "case {case}: {gate:?}"
            );
        }
    });
}

/// CZ is an involution: applying it twice is the identity.
#[test]
fn cz_involution() {
    for_each_case(|case, rng| {
        let base = random_unitary_circuit(4, &random_ops(rng, 4, 0..20));
        let s0 = StateVector::run(&base).unwrap();
        let mut twice = base.clone();
        twice.push2(Gate::Cz, 0u32.into(), 1u32.into()).unwrap();
        twice.push2(Gate::Cz, 0u32.into(), 1u32.into()).unwrap();
        let s1 = StateVector::run(&twice).unwrap();
        assert!((s0.fidelity(&s1) - 1.0).abs() < 1e-9, "case {case}");
    });
}
