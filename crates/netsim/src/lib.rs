//! # pool-netsim — wireless sensor network simulation substrate
//!
//! The simulation substrate underneath the Pool reproduction: everything the
//! ICDCS 2007 paper's custom simulator provided, built from scratch.
//!
//! * [`geometry`] — planar points, rectangles, segment predicates.
//! * [`node`] — node identity and positions (nodes know their location, §2).
//! * [`deployment`] — uniform random placement sized to the paper's density
//!   (40 m radio range, ~20 neighbors on average, §5.1).
//! * [`topology`] — unit-disk neighbor tables and spatial queries.
//! * [`schedule`] — the deterministic discrete-event queue that serves as
//!   the virtual clock of record for the latency-aware execution layer.
//! * [`stats`] — summary statistics (mean, spread, percentiles) over
//!   per-query and per-node samples.
//! * [`energy`] — first-order radio energy model for lifetime/hotspot
//!   studies and the workload-sharing trigger.
//!
//! # Examples
//!
//! Build the paper's 900-node setting and check its density:
//!
//! ```
//! use pool_netsim::deployment::Deployment;
//! use pool_netsim::topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let deployment = Deployment::paper_setting(900, 40.0, 20.0, 42)?;
//! let topology = Topology::build(deployment.nodes(), 40.0)?;
//! assert!(topology.mean_degree() > 15.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod deployment;
pub mod energy;
pub mod error;
pub mod exec;
pub mod geometry;
pub mod node;
pub mod radio;
pub mod render;
pub mod schedule;
pub mod stats;
pub mod topology;

pub use deployment::{Deployment, Placement};
pub use error::NetsimError;
pub use geometry::{Point, Rect};
pub use node::{Node, NodeId};
pub use stats::Summary;
pub use topology::Topology;
