//! On-chip control-line routing for YOUTIAO (§5.3).
//!
//! The paper's chip-level experiment "is implemented using path-based
//! simulations, where routing paths are represented by a grid with a
//! resolution of 10 µm … the shortest routing paths are determined by
//! applying an A* algorithm, subject to standard EDA constraints —
//! prohibiting routing intersections and maintaining adequate spacing
//! between adjacent lines". The design flow does not reproduce that A*
//! router: it routes only with the deterministic channel router
//! ([`channel`]), which keeps the same constraints (no crossings, 30 µm
//! pitch) by construction, since dense dedicated netlists deadlock a
//! sequential maze router without rip-up. The crate still holds a maze
//! router, reached only from tests, a bench and a debug binary:
//!
//! * [`grid`] — the routing grid over the die bounding box, with qubit
//!   footprints as obstacles and net ownership per cell;
//! * [`astar`] — 4-connected A* shortest paths;
//! * [`router`] — perimeter interface assignment (0.5 mm pitch), chained
//!   multi-terminal net routing with spacing halos, and routing-area
//!   accounting at 20 µm width / 30 µm pitch;
//! * [`drc`] — design-rule check over the final grid.
//!
//! # Example
//!
//! ```
//! use youtiao_chip::topology;
//! use youtiao_route::router::{route_chip, NetSpec, RouteConfig};
//!
//! let chip = topology::square_grid(3, 3);
//! // One XY net chaining three qubits.
//! let positions: Vec<_> = (0..3u32)
//!     .map(|i| chip.qubit(i.into()).unwrap().position())
//!     .collect();
//! let nets = vec![NetSpec::chain("xy0", positions)];
//! let result = route_chip(&chip, &nets, &RouteConfig::default())?;
//! assert_eq!(result.nets.len(), 1);
//! assert!(result.routing_area_mm2 > 0.0);
//! assert!(result.drc.is_clean());
//! # Ok::<(), youtiao_route::router::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod channel;
pub mod drc;
pub mod grid;
pub mod router;

pub use crate::channel::{channel_route, ChannelConfig, ChannelResult};
pub use crate::drc::DrcReport;
pub use crate::grid::{Cell, RoutingGrid};
pub use crate::router::{route_chip, NetSpec, RouteConfig, RouteError, RoutingResult};
