//! Workload generation. Every input is derived from the workload seed
//! alone, and every run of a workload at a given `--seconds` has the
//! same composition: the operation count is fixed from nominal
//! per-class costs, never from how fast this run happens to go.

use std::collections::HashSet;

use youtiao::chip::spec::ChipSpec;
use youtiao::serve::{ActivityOverride, ChipRequest, DeltaSpec, DesignRequest, DriftEntry};
use youtiao::xplore::{SweepMode, SweepSpec};

use crate::stats::Rng;

/// One closed-loop design operation.
pub struct Op {
    /// Request class, for per-class medians and per-class shares.
    pub class: &'static str,
    pub request: DesignRequest,
    /// Hash of the serialized request: equal for exact repeats.
    pub request_key: u64,
    /// The daemon frame carrying `request`.
    pub frame: String,
}

impl Op {
    fn new(class: &'static str, rid: String, request: DesignRequest) -> Op {
        let payload = serde_json::to_string(&request).expect("design requests serialize");
        let frame = format!(r#"{{"op":"design","rid":"{rid}","request":{payload}}}"#);
        Op {
            class,
            request,
            request_key: crate::check::fnv(&payload),
            frame,
        }
    }
}

/// A daemon workload: frames sent during set-up, then the measured
/// operations.
pub struct DaemonWorkload {
    pub setup: Vec<Op>,
    pub ops: Vec<Op>,
    /// Request classes in ascending order of nominal latency.
    pub classes: Vec<&'static str>,
}

fn grid(topology: &str, rows: usize, cols: usize) -> ChipRequest {
    ChipRequest::grid(topology, rows, cols)
}

fn sized(topology: &str, size: usize) -> ChipRequest {
    ChipRequest {
        size: Some(size),
        ..ChipRequest::named(topology)
    }
}

fn surface(distance: usize) -> ChipRequest {
    ChipRequest {
        distance: Some(distance),
        ..ChipRequest::named("surface")
    }
}

fn seeded(chip: ChipRequest, seed: u64) -> DesignRequest {
    DesignRequest {
        seed: Some(seed),
        ..DesignRequest::new(chip)
    }
}

/// cold-design classes, ascending by nominal latency on the reference
/// host (2-core Xeon VM), with their operations per cycle: chiplet
/// ~0.15 s, heavy-square ~0.25 s, surface ~0.3 s, square 8×8 ~0.45 s,
/// heavy-hex 65 ~0.6 s, a first drift delta on a never-designed 9×9
/// base ~0.85 s, heavy-hex 127 ~2.1 s, square 10×10 ~2.8 s (three
/// routing attempts, all failing). The second chiplet per cycle keeps
/// the p50 off the boundary an even class count would put it on.
pub const COLD_CLASSES: [(&str, usize); 8] = [
    ("chiplet-4x4x4", 2),
    ("heavy-square-4x4", 1),
    ("surface-d5", 1),
    ("square-8x8", 1),
    ("heavy-hex-65", 1),
    ("square-9x9-delta", 1),
    ("heavy-hex-127", 1),
    ("square-10x10", 1),
];

/// Nominal wall time of one cold-design cycle.
const COLD_CYCLE_S: f64 = 8.0;

fn cold_request(class: &str, rng: &mut Rng) -> DesignRequest {
    let chip = match class {
        "chiplet-4x4x4" => ChipRequest {
            chiplets: Some(4),
            ..grid("square", 4, 4)
        },
        "heavy-square-4x4" => grid("heavy-square", 4, 4),
        "surface-d5" => surface(5),
        "square-8x8" => grid("square", 8, 8),
        "heavy-hex-65" => sized("ibm-heavy-hex", 65),
        "square-9x9-delta" => grid("square", 9, 9),
        "heavy-hex-127" => sized("ibm-heavy-hex", 127),
        "square-10x10" => grid("square", 10, 10),
        other => unreachable!("unknown cold class {other}"),
    };
    let request = seeded(chip, rng.next_u64());
    if class == "square-9x9-delta" {
        // The repair store has never seen this base: the daemon designs
        // it inline, then repairs it toward the drift.
        return with_delta(&request, drift(rng, 81));
    }
    request
}

/// Whether the 1-based nearest ranks of the p50 (both middle samples)
/// and of the tail fall strictly inside a class, given class sizes in
/// ascending latency order.
fn ranks_interior(sizes: &[usize]) -> bool {
    let n: usize = sizes.iter().sum();
    let interior = |rank: usize| {
        let mut end = 0;
        sizes.iter().any(|&size| {
            let start = end + 1;
            end += size;
            start < rank && rank < end
        })
    };
    interior(n.div_ceil(2)) && interior(n / 2 + 1) && interior(crate::stats::tail_rank(n))
}

/// Cycles for a run of nominally `seconds`: at least six, so each
/// class median averages six seeds, and more until both percentiles
/// sit strictly inside a class.
fn cold_cycles(seconds: u64) -> usize {
    let mut cycles = (((seconds as f64) / COLD_CYCLE_S).round() as usize).max(6);
    while !ranks_interior(&COLD_CLASSES.map(|(_, per)| per * cycles)) {
        cycles += 1;
    }
    cycles
}

/// cold-design: every request carries a fresh characterization seed,
/// so nothing hits a cache. The set-up frame designs a chip outside
/// the mix, large enough (~1.7 s) that set-up is not a sub-second
/// timing.
pub fn cold_design(seed: u64, seconds: u64) -> DaemonWorkload {
    let mut rng = Rng::new(seed);
    let warmup = seeded(sized("ibm-heavy-hex", 100), rng.next_u64());
    let setup = vec![Op::new("warmup", "warmup".into(), warmup)];
    let mut ops = Vec::new();
    // Classes run in the same order every cycle, so every run passes
    // through the same states and reaches the same heap peak.
    for cycle in 0..cold_cycles(seconds) {
        let order = COLD_CLASSES
            .iter()
            .flat_map(|&(class, per)| std::iter::repeat_n(class, per));
        for (slot, class) in order.enumerate() {
            let request = cold_request(class, &mut rng);
            ops.push(Op::new(class, format!("{class}-{cycle}-{slot}"), request));
        }
    }
    DaemonWorkload {
        setup,
        ops,
        classes: COLD_CLASSES.iter().map(|&(class, _)| class).collect(),
    }
}

/// plan-sweep: three chips in the topology-only mode of Figure 16 over
/// θ × FDM capacity × max shared slots × 1:8 DEMUX — 72 points. The
/// planner is deterministic in this mode, so the seed changes nothing.
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![
        surface(9),
        grid("square", 16, 16),
        grid("square", 24, 24),
    ]);
    spec.name = Some("plan-sweep".into());
    spec.modes = Some(vec![SweepMode::Youtiao]);
    spec.thetas = Some(vec![2.0, 4.0, 8.0]);
    spec.fdm_capacities = Some(vec![4, 8]);
    spec.max_shared_slots = Some(vec![1, 2]);
    spec.one_to_eight = Some(vec![false, true]);
    spec.use_model = Some(false);
    spec
}

/// Nominal wall time of one 72-point sweep.
const SWEEP_S: f64 = 1.6;

/// Sweeps per run: at least sixteen, so every grid point is sampled
/// sixteen times and the tail (p99) falls among the repeats of the
/// slowest 24×24 points.
pub fn sweep_count(seconds: u64) -> usize {
    (((seconds as f64) / SWEEP_S).round() as usize).max(16)
}

/// daemon-warm request classes, ascending by nominal latency.
pub const WARM_CLASSES: [&str; 4] = ["hit", "activity", "drift", "dead-coupler"];

/// One block of [`WARM_BLOCK`] operations as (class, base) counts:
/// exact repeats, activity deltas, drift deltas and dead-coupler deltas
/// (base `None` = drawn uniformly per operation). The 8×8 repeats are
/// the slowest hits and three quarters of them, so the p50 — the hits'
/// 62.5th percentile at 80 % hits — is the median of the 8×8 hits.
/// Dead-coupler deltas go to the 8×8 base only, whose full replan
/// (~6 ms) sits above every local repair (~3 ms), so the tail (p99,
/// 2 % of operations in the class) falls in the middle of one class.
const WARM_MIX: [(usize, Option<usize>, usize); 6] = [
    (0, Some(0), 60),
    (0, Some(1), 10),
    (0, Some(2), 10),
    (1, None, 9),
    (2, None, 9),
    (3, Some(0), 2),
];
const WARM_BLOCK: usize = 100;
/// Nominal wall time of one block.
const WARM_BLOCK_MS: f64 = 130.0;

/// daemon-warm: three resident bases answered from the plan cache
/// (hits), or repaired toward unique deltas.
pub fn daemon_warm(seed: u64, seconds: u64) -> DaemonWorkload {
    let mut rng = Rng::new(seed);
    let bases: Vec<DesignRequest> = [grid("square", 8, 8), surface(5), sized("ibm-heavy-hex", 65)]
        .into_iter()
        .map(|chip| seeded(chip, rng.next_u64()))
        .collect();
    let chips: Vec<ChipSpec> = bases
        .iter()
        .map(|b| ChipSpec::from_chip(&b.chip.build().expect("base chips build")))
        .collect();

    let mut seen: HashSet<u64> = HashSet::new();
    let mut setup = Vec::new();
    for (i, base) in bases.iter().enumerate() {
        seen.insert(base.cache_key().expect("base keys resolve"));
        setup.push(Op::new("base", format!("base-{i}"), base.clone()));
    }
    for (i, base) in bases.iter().enumerate() {
        let request = with_delta(base, drift(&mut rng, chips[i].qubits.len()));
        seen.insert(request.cache_key().expect("delta keys resolve"));
        setup.push(Op::new("first-delta", format!("first-{i}"), request));
    }

    let blocks = ((seconds as f64 * 1e3 / WARM_BLOCK_MS).round() as usize).max(1);
    let mut ops = Vec::new();
    for block in 0..blocks {
        let mut slots: Vec<(usize, Option<usize>)> = WARM_MIX
            .iter()
            .flat_map(|&(kind, base, count)| std::iter::repeat_n((kind, base), count))
            .collect();
        rng.shuffle(&mut slots);
        for (slot, (kind, base)) in slots.into_iter().enumerate() {
            let class = WARM_CLASSES[kind];
            let rid = format!("{class}-{}", block * WARM_BLOCK + slot);
            let b = base.unwrap_or_else(|| rng.below(bases.len()));
            let request = loop {
                let delta = match kind {
                    0 => None,
                    1 => Some(activity(&mut rng, &chips[b])),
                    2 => Some(drift(&mut rng, chips[b].qubits.len())),
                    _ => Some(dead_coupler(&mut rng, &chips[b])),
                };
                let Some(delta) = delta else {
                    break bases[b].clone();
                };
                let request = with_delta(&bases[b], delta);
                // Deltas are unique, so each one misses the plan cache.
                if seen.insert(request.cache_key().expect("delta keys resolve")) {
                    break request;
                }
            };
            ops.push(Op::new(class, rid, request));
        }
    }
    DaemonWorkload {
        setup,
        ops,
        classes: WARM_CLASSES.to_vec(),
    }
}

fn with_delta(base: &DesignRequest, delta: DeltaSpec) -> DesignRequest {
    DesignRequest {
        delta: Some(delta),
        ..base.clone()
    }
}

fn drift(rng: &mut Rng, qubits: usize) -> DeltaSpec {
    let a = rng.below(qubits);
    let b = (a + 1 + rng.below(qubits - 1)) % qubits;
    DeltaSpec {
        drift: Some(vec![DriftEntry {
            a: a as u32,
            b: b as u32,
            xtalk: rng.uniform(5e-4, 5e-3),
        }]),
        ..DeltaSpec::default()
    }
}

fn activity(rng: &mut Rng, chip: &ChipSpec) -> DeltaSpec {
    let qubit = ActivityOverride {
        qubit: Some(rng.below(chip.qubits.len()) as u32),
        coupler: None,
        mask: 1 + rng.below(15) as u32,
    };
    let coupler = ActivityOverride {
        qubit: None,
        coupler: Some(rng.below(chip.couplers.len()) as u32),
        mask: 1 + rng.below(15) as u32,
    };
    DeltaSpec {
        activity: Some(vec![qubit, coupler]),
        ..DeltaSpec::default()
    }
}

/// Two dead couplers that share no qubit, so no qubit loses more than
/// one of its couplers.
fn dead_coupler(rng: &mut Rng, chip: &ChipSpec) -> DeltaSpec {
    let first = chip.couplers[rng.below(chip.couplers.len())];
    let second = loop {
        let (a, b) = chip.couplers[rng.below(chip.couplers.len())];
        if ![first.0, first.1].contains(&a) && ![first.0, first.1].contains(&b) {
            break (a, b);
        }
    };
    DeltaSpec {
        dead_couplers: Some(vec![first, second]),
        ..DeltaSpec::default()
    }
}
