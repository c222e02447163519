//! # pool-gpsr — Greedy Perimeter Stateless Routing
//!
//! A from-scratch implementation of GPSR (Karp & Kung, MobiCom 2000), the
//! routing substrate that Pool, DIM, and GHT all assume (§2 of the Pool
//! paper):
//!
//! * [`greedy`] — greedy geographic forwarding to the neighbor closest to
//!   the destination.
//! * [`planar`] — distributed Gabriel-graph / relative-neighborhood-graph
//!   planarization of the unit-disk radio graph.
//! * [`perimeter`] — the right-hand rule for face traversal.
//! * [`router`] — the complete protocol with perimeter-mode recovery, face
//!   changes, and home-node delivery semantics for location-addressed
//!   packets.
//! * [`shortest`] — BFS hop-optimal routing, used only to validate GPSR's
//!   path stretch.
//!
//! # Examples
//!
//! ```
//! use pool_gpsr::{Gpsr, Planarization};
//! use pool_netsim::deployment::Deployment;
//! use pool_netsim::topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let deployment = Deployment::paper_setting(300, 40.0, 20.0, 7)?;
//! let topology = Topology::build(deployment.nodes(), 40.0)?;
//! let gpsr = Gpsr::new(&topology, Planarization::Gabriel);
//! let from = topology.nodes()[0].id;
//! let to = topology.nodes()[100].id;
//! let route = gpsr.route_to_node(&topology, from, to)?;
//! assert_eq!(route.delivered, to);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod greedy;
pub mod perimeter;
pub mod planar;
pub mod router;
pub mod shortest;

pub use planar::{PlanarGraph, Planarization};
pub use router::{Gpsr, Route, RouteError};
