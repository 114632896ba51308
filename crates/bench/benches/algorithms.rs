//! Criterion benchmarks over YOUTIAO's core algorithms.
//!
//! Run with `cargo bench -p youtiao-bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use youtiao_chip::distance::EquivalentWeights;
use youtiao_chip::surface::SurfaceCode;
use youtiao_chip::{topology, DeviceId};
use youtiao_circuit::benchmarks::Benchmark;
use youtiao_circuit::schedule::{schedule_asap, schedule_with_tdm};
use youtiao_circuit::surface_cycle::cycles_circuit;
use youtiao_circuit::transpile::transpile_snake;
use youtiao_core::fdm::group_fdm;
use youtiao_core::freq::{allocate_frequencies, FreqConfig};
use youtiao_core::partition::{partition_chip, PartitionConfig};
use youtiao_core::tdm::{group_tdm, ActivityProfile, TdmConfig};
use youtiao_core::{PlanContext, YoutiaoPlanner};
use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
use youtiao_route::channel::{channel_route, ChannelConfig};
use youtiao_route::router::{route_chip, NetSpec, RouteConfig};

fn bench_crosstalk_fit(c: &mut Criterion) {
    let chip = topology::square_grid(6, 6);
    let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::xy(), 1);
    let mut group = c.benchmark_group("fit");
    group.sample_size(10);
    group.bench_function("fit_crosstalk_model/6x6/fast", |b| {
        b.iter(|| fit_crosstalk_model(&samples, &FitConfig::fast()).unwrap())
    });
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let chip = topology::square_grid(8, 8);
    let ctx = PlanContext::build(&chip, None, EquivalentWeights::balanced());
    let (eq, xtalk) = (ctx.equivalent(), ctx.crosstalk());
    c.bench_function("group_fdm/8x8/cap5", |b| b.iter(|| group_fdm(&chip, eq, 5)));
    c.bench_function("group_tdm/8x8", |b| {
        let devices: Vec<DeviceId> = chip.device_ids().collect();
        let none = ActivityProfile::new();
        b.iter(|| group_tdm(&ctx, &TdmConfig::default(), &devices, &none))
    });
    c.bench_function("allocate_frequencies/8x8", |b| {
        let lines = group_fdm(&chip, eq, 5);
        b.iter(|| allocate_frequencies(&chip, &lines, xtalk, &FreqConfig::default()).unwrap())
    });
    c.bench_function("partition_chip/8x8/4regions", |b| {
        b.iter(|| partition_chip(&chip, eq, &PartitionConfig::default()))
    });
}

fn bench_planner(c: &mut Criterion) {
    let chip36 = topology::square_grid(6, 6);
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);
    group.bench_function("6x6", |b| {
        b.iter(|| YoutiaoPlanner::new(&chip36).plan().unwrap())
    });
    let code = SurfaceCode::rotated(5);
    group.bench_function("surface-d5", |b| {
        b.iter(|| YoutiaoPlanner::new(code.chip()).plan().unwrap())
    });
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let chip = topology::square_grid(6, 6);
    let plan = YoutiaoPlanner::new(&chip).plan().unwrap();
    let physical = transpile_snake(&Benchmark::Vqc.generate(36), &chip)
        .unwrap()
        .circuit;
    c.bench_function("schedule_asap/vqc36", |b| {
        b.iter(|| schedule_asap(&physical, &chip).unwrap())
    });
    c.bench_function("schedule_with_tdm/vqc36", |b| {
        b.iter(|| schedule_with_tdm(&physical, &chip, &plan).unwrap())
    });
    let code = SurfaceCode::rotated(5);
    let cycle = cycles_circuit(&code, 25).unwrap();
    c.bench_function("schedule_asap/surface-d5-25cycles", |b| {
        b.iter(|| schedule_asap(&cycle, code.chip()).unwrap())
    });
}

fn bench_transpile(c: &mut Criterion) {
    let chip = topology::square_grid(6, 6);
    let qft = Benchmark::Qft.generate(36);
    let mut group = c.benchmark_group("transpile");
    group.sample_size(10);
    group.bench_function("snake/qft36", |b| {
        b.iter_batched(
            || qft.clone(),
            |logical| transpile_snake(&logical, &chip).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let chip = topology::square_grid(3, 3);
    let nets: Vec<NetSpec> = chip
        .qubits()
        .map(|q| NetSpec::chain(format!("n{}", q.id()), vec![q.position()]))
        .collect();
    c.bench_function("maze_route/3x3/9nets", |b| {
        b.iter(|| route_chip(&chip, &nets, &RouteConfig::coarse()).unwrap())
    });
    let big = topology::square_grid(6, 6);
    let mut dense = Vec::new();
    for q in big.qubits() {
        dense.push(NetSpec::chain(format!("xy{}", q.id()), vec![q.position()]));
        dense.push(NetSpec::chain(format!("z{}", q.id()), vec![q.position()]));
    }
    for cp in big.couplers() {
        dense.push(NetSpec::chain(
            format!("zc{}", cp.id()),
            vec![cp.position()],
        ));
    }
    let cfg = ChannelConfig {
        margin_mm: 9.0,
        ..Default::default()
    };
    c.bench_function("channel_route/6x6/132nets", |b| {
        b.iter(|| channel_route(&big, &dense, &cfg).unwrap())
    });
}

fn bench_simulation(c: &mut Criterion) {
    use youtiao_sim::{simulate_fidelity_mc, NoiseParams, StateVector};
    let chip = topology::linear(12);
    let circuit = Benchmark::Vqc.generate(12);
    let schedule = schedule_asap(&circuit, &chip).unwrap();
    c.bench_function("statevector/vqc12", |b| {
        b.iter(|| StateVector::run(&circuit).unwrap())
    });
    let mut group = c.benchmark_group("mc");
    group.sample_size(10);
    group.bench_function("fidelity/vqc12/20trials", |b| {
        b.iter(|| simulate_fidelity_mc(&schedule, 12, &NoiseParams::paper(), 20, 1))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crosstalk_fit,
    bench_grouping,
    bench_planner,
    bench_scheduling,
    bench_transpile,
    bench_routing,
    bench_simulation
);
criterion_main!(benches);
