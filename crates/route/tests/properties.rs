//! Properties of the routers. Grid sizes and qubits are covered
//! exhaustively where their ranges are small; net picks and terminal
//! offsets are drawn from seeded ChaCha8 streams, so every run checks
//! the same cases and a failure names its case.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use youtiao_chip::topology;
use youtiao_chip::Position;
use youtiao_route::channel::{channel_route, ChannelConfig};
use youtiao_route::router::{route_chip, NetSpec, RouteConfig};

/// Seeded cases per drawn property.
const CASES: u64 = 48;

/// Maze-routing any single qubit pad on any small grid succeeds,
/// DRC-clean, with a positive length.
#[test]
fn maze_single_net_always_routes() {
    for rows in 2usize..4 {
        for cols in 2usize..4 {
            let chip = topology::square_grid(rows, cols);
            for q in chip.qubit_ids() {
                let case = format!("{rows}x{cols} {q}");
                let pos = chip.qubit(q).unwrap().position();
                let nets = vec![NetSpec::chain("n", vec![pos])];
                let r = route_chip(&chip, &nets, &RouteConfig::coarse()).unwrap();
                assert!(r.drc.is_clean(), "{case}");
                assert_eq!(r.nets.len(), 1, "{case}");
                assert!(r.total_length_mm > 0.0, "{case}");
            }
        }
    }
}

/// Channel routing is deterministic, gives every net an interface
/// pad, and overfills no channel.
#[test]
fn channel_route_deterministic() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let chip = topology::square_grid(rng.gen_range(2..5), rng.gen_range(2..5));
        let n = chip.num_qubits() as u32;
        let nets: Vec<NetSpec> = (0..rng.gen_range(1..6))
            .map(|i| {
                let q = rng.gen_range(0..n).into();
                NetSpec::chain(format!("n{i}"), vec![chip.qubit(q).unwrap().position()])
            })
            .collect();
        let cfg = ChannelConfig {
            margin_mm: 3.0,
            ..Default::default()
        };
        let a = channel_route(&chip, &nets, &cfg).unwrap();
        let b = channel_route(&chip, &nets, &cfg).unwrap();
        assert_eq!(
            a.routing.total_length_mm.to_bits(),
            b.routing.total_length_mm.to_bits(),
            "case {case}"
        );
        assert_eq!(a.routing.num_interfaces, nets.len(), "case {case}");
        assert!(a.routing.routing_area_mm2 > 0.0, "case {case}");
        for ch in &a.channels {
            assert!(ch.used <= ch.capacity, "case {case}");
        }
    }
}

/// Adding a terminal to a chained net never shortens it.
#[test]
fn chains_grow_monotonically() {
    let chip = topology::square_grid(3, 4);
    let base_terminals = vec![
        chip.qubit(0u32.into()).unwrap().position(),
        chip.qubit(5u32.into()).unwrap().position(),
    ];
    let cfg = ChannelConfig {
        margin_mm: 2.0,
        ..Default::default()
    };
    let short = channel_route(&chip, &[NetSpec::chain("s", base_terminals.clone())], &cfg)
        .unwrap()
        .routing
        .total_length_mm;
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let extra = Position::new(rng.gen_range(0.0..3.0), rng.gen_range(0.0..2.0));
        let mut longer = base_terminals.clone();
        longer.push(extra);
        let long = channel_route(&chip, &[NetSpec::chain("l", longer)], &cfg).unwrap();
        assert!(
            long.routing.total_length_mm >= short - 1e-9,
            "case {case}: {extra:?} gives {} < {short}",
            long.routing.total_length_mm
        );
    }
}
