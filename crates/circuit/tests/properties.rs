//! Properties of circuit generation, transpilation and scheduling.
//! Random circuits are drawn from a seeded ChaCha8 stream, so every run
//! checks the same cases and a failure names its case; widths and grid
//! sizes are covered exhaustively.

use std::ops::Range;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::topology;
use youtiao_chip::DeviceId;
use youtiao_circuit::benchmarks::{self, Benchmark};
use youtiao_circuit::schedule::{schedule_asap, schedule_with_tdm_strict, SharedLineConstraint};
use youtiao_circuit::transpile::{is_hardware_compatible, snake_order, transpile_snake};
use youtiao_circuit::{Circuit, Gate};

/// Random circuits per property.
const CASES: u64 = 1000;

/// Runs `property` on cases `0..CASES`, each with its own stream.
fn for_each_case(mut property: impl FnMut(u64, &mut ChaCha8Rng)) {
    for case in 0..CASES {
        property(case, &mut ChaCha8Rng::seed_from_u64(case));
    }
}

/// Groups every coupler by `id % k` — an arbitrary, legal-ish constraint
/// for stress-testing the scheduler (qubits stay dedicated, so no gate
/// is unrealizable).
struct ModuloGroups(usize);

impl SharedLineConstraint for ModuloGroups {
    fn group_of(&self, device: DeviceId) -> Option<usize> {
        match device {
            DeviceId::Coupler(c) => Some(c.index() % self.0),
            DeviceId::Qubit(_) => None,
        }
    }
}

/// A length drawn from `len`, then that many `(kind, a, b)` triples
/// with `kind < 4` and both qubit picks below `qubits`.
fn random_ops(rng: &mut ChaCha8Rng, qubits: u32, len: Range<usize>) -> Vec<(u8, u8, u8)> {
    let len = rng.gen_range(len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u32..4) as u8,
                rng.gen_range(0..qubits) as u8,
                rng.gen_range(0..qubits) as u8,
            )
        })
        .collect()
}

fn random_circuit(n_qubits: usize, ops: &[(u8, u8, u8)]) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    for &(kind, a, b) in ops {
        let qa = ((a as usize) % n_qubits).into();
        let qb = ((b as usize) % n_qubits).into();
        match kind % 4 {
            0 => c.push1(Gate::H, qa).unwrap(),
            1 => c.push1(Gate::Rx(0.3), qa).unwrap(),
            2 => c.push1(Gate::Rz(0.7), qa).unwrap(),
            _ => {
                if qa != qb {
                    c.push2(Gate::Cz, qa, qb).unwrap();
                }
            }
        }
    }
    c
}

/// Transpilation makes any random circuit hardware-compatible and
/// preserves non-CZ gate counts.
#[test]
fn transpile_makes_compatible() {
    let chip = topology::square_grid(4, 4);
    for_each_case(|case, rng| {
        let logical = random_circuit(16, &random_ops(rng, 16, 1..40));
        let t = transpile_snake(&logical, &chip).unwrap();
        assert!(is_hardware_compatible(&t.circuit, &chip), "case {case}");
        // Every logical CZ maps to >= 1 physical CZ; swaps only add CZs.
        assert!(
            t.circuit.two_qubit_count() >= logical.two_qubit_count(),
            "case {case}"
        );
    });
}

/// Scheduling preserves the non-virtual operation count and never
/// reorders gates on the same qubit (depth >= per-qubit gate count).
#[test]
fn schedule_preserves_ops() {
    let chip = topology::square_grid(3, 3);
    for_each_case(|case, rng| {
        let logical = random_circuit(9, &random_ops(rng, 9, 1..60));
        let physical = transpile_snake(&logical, &chip).unwrap().circuit;
        let s = schedule_asap(&physical, &chip).unwrap();
        let non_virtual = physical
            .operations()
            .iter()
            .filter(|o| !o.gate.is_virtual())
            .count();
        assert_eq!(s.op_count(), non_virtual, "case {case}");
        // Depth is at least the busiest qubit's gate count.
        let mut per_qubit = [0usize; 9];
        for op in physical.operations() {
            if !op.gate.is_virtual() {
                for q in op.qubits() {
                    per_qubit[q.index()] += 1;
                }
            }
        }
        assert!(
            s.depth() >= per_qubit.iter().copied().max().unwrap_or(0),
            "case {case}"
        );
    });
}

/// TDM constraints can only increase depth, never change op counts,
/// for arbitrary coupler groupings.
#[test]
fn tdm_monotone_in_depth() {
    // An input once recorded as a failure, checked before the stream.
    let recorded = [
        (3, 5, 8),
        (3, 2, 3),
        (0, 0, 0),
        (0, 0, 0),
        (3, 0, 5),
        (3, 5, 6),
        (3, 2, 3),
        (1, 5, 4),
    ];
    tdm_monotone(&recorded, 2, "recorded");
    for_each_case(|case, rng| {
        let ops = random_ops(rng, 9, 1..50);
        let k = rng.gen_range(1usize..5);
        tdm_monotone(&ops, k, &format!("case {case}"));
    });
}

fn tdm_monotone(ops: &[(u8, u8, u8)], k: usize, case: &str) {
    let chip = topology::square_grid(3, 3);
    let physical = transpile_snake(&random_circuit(9, ops), &chip)
        .unwrap()
        .circuit;
    let base = schedule_asap(&physical, &chip).unwrap();
    let constrained = schedule_with_tdm_strict(&physical, &chip, &ModuloGroups(k)).unwrap();
    assert!(constrained.depth() >= base.depth(), "{case}");
    assert_eq!(constrained.op_count(), base.op_count(), "{case}");
    // Note: makespan is NOT monotone — delaying a CZ can co-locate it
    // with a long measurement layer and shrink the sum of layer
    // maxima — so only depth and op counts are invariant.
}

/// Barriers never decrease depth.
#[test]
fn barriers_monotone() {
    let chip = topology::square_grid(3, 3);
    for_each_case(|case, rng| {
        let ops = random_ops(rng, 9, 2..40);
        let at = rng.gen_range(0usize..40);
        let plain = transpile_snake(&random_circuit(9, &ops), &chip)
            .unwrap()
            .circuit;
        // Rebuild with a barrier inserted mid-stream.
        let mut with_barrier = Circuit::new(plain.num_qubits());
        for (i, op) in plain.operations().iter().enumerate() {
            if i == at % plain.operations().len().max(1) {
                with_barrier.push_barrier();
            }
            with_barrier.push(*op).unwrap();
        }
        let d0 = schedule_asap(&plain, &chip).unwrap().depth();
        let d1 = schedule_asap(&with_barrier, &chip).unwrap().depth();
        assert!(d1 >= d0, "case {case}");
    });
}

/// Benchmark generators scale: gate counts grow with width and stay
/// in the declared basis.
#[test]
fn benchmarks_scale() {
    for n in 3usize..12 {
        for b in Benchmark::ALL {
            let small = b.generate(n);
            let large = b.generate(n + 4);
            assert!(large.len() >= small.len(), "{} at {n}", b.name());
        }
        let r = benchmarks::random_xy_layers(n, 5, 1);
        assert_eq!(r.len(), 5 * n, "{n}");
    }
}

/// The snake order is always a permutation of the chip's qubits with
/// adjacent consecutive entries on grids.
#[test]
fn snake_is_adjacent_permutation() {
    for rows in 2usize..6 {
        for cols in 2usize..6 {
            let chip = topology::square_grid(rows, cols);
            let order = snake_order(&chip);
            assert_eq!(order.len(), chip.num_qubits(), "{rows}x{cols}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), chip.num_qubits(), "{rows}x{cols}");
            for w in order.windows(2) {
                assert!(
                    chip.are_adjacent(w[0], w[1]),
                    "{rows}x{cols}: {} !~ {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}
