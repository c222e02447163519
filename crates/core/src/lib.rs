//! # pool-core — the Pool multi-dimensional range-query storage scheme
//!
//! A full reproduction of *"Supporting Multi-Dimensional Range Query for
//! Sensor Networks"* (Chung, Su & Lee, ICDCS 2007): an efficient, scalable
//! data-centric storage scheme whose index nodes are grouped into **pools**,
//! mapping `k`-dimensional events onto a two-dimensional sensor field while
//! preserving proximity.
//!
//! ## Layered API
//!
//! *Pure math (no network):*
//! * [`event`] / [`query`] — events, the four query types (§2), rewriting.
//! * [`grid`] / [`layout`] — the α-cell grid, pools, Equation 1 ranges.
//! * [`insert`] — Theorem 3.1 placement + §4.1 tie handling.
//! * [`resolve`] — Theorem 3.2 / Algorithm 2 relevant-cell computation.
//! * [`interval`] — the half-open/closed interval arithmetic beneath it.
//!
//! *Deployed system (over `pool-netsim` + `pool-gpsr`):*
//! * [`system`] — system lifecycle, insertion, workload sharing (§4.2),
//!   and per-message cost accounting over the pluggable
//!   [`pool_transport::Transport`] substrate.
//! * [`forward`] — splitter-based query forwarding (§3.2.3), aggregates,
//!   and monitor dissemination over the splitter tree.
//! * [`explain`] — inspectable query plans (derived ranges, relevant
//!   cells, splitters) without touching the network.
//! * [`monitor`] — continuous (standing) queries with push notifications
//!   (§6 extension).
//! * [`nn`] — k-nearest-neighbor queries in event space (§6 extension).
//! * [`failure`] — node-failure injection, index re-election, replication
//!   and recovery.
//! * [`dynamics`] — continuous churn: epoch-stepped joins, deaths (scripted
//!   or energy-driven), waypoint mobility, and incremental budgeted repair.
//! * [`audit`] — whole-system invariant checking.
//! * [`config`] / [`storage`] / [`error`] — supporting types.
//!
//! # Examples
//!
//! Resolving Example 3.2's partial-match query with pure math only:
//!
//! ```
//! use pool_core::grid::{CellCoord, Grid};
//! use pool_core::layout::PoolLayout;
//! use pool_core::query::RangeQuery;
//! use pool_core::resolve::relevant_cells;
//! use pool_netsim::geometry::Rect;
//!
//! # fn main() -> Result<(), pool_core::error::PoolError> {
//! let grid = Grid::over(Rect::square(100.0), 5.0)?;
//! let layout = PoolLayout::with_pivots(
//!     &grid,
//!     5,
//!     vec![CellCoord::new(1, 2), CellCoord::new(2, 10), CellCoord::new(7, 3)],
//! )?;
//! let query = RangeQuery::from_bounds(vec![None, None, Some((0.8, 0.84))])?;
//! let cells = relevant_cells(&layout, &query);
//! assert_eq!(cells.len(), 7); // Figure 5: 1 + 1 + 5 cells
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod config;
pub mod dynamics;
pub mod error;
pub mod event;
pub mod explain;
pub mod failure;
pub mod forward;
pub mod grid;
pub mod insert;
pub mod interval;
pub mod layout;
pub mod monitor;
pub mod nn;
pub mod query;
pub mod resolve;
pub mod storage;
pub mod system;

pub use audit::{AuditReport, AuditViolation};
pub use batch::BatchResult;
pub use config::{PoolConfig, SharingPolicy};
pub use dynamics::{
    ChurnConfig, ChurnPlanner, ChurnScenario, EnergyBudget, EpochPlan, RepairQueue,
};
pub use error::PoolError;
pub use event::Event;
pub use explain::{PlannedCell, PoolPlan, QueryPlan};
pub use failure::FailureReport;
pub use insert::InsertError;
pub use monitor::{Monitor, MonitorId, Notification};
pub use query::{QueryType, RangeQuery};
pub use system::{
    AggregateOp, AggregateResult, Completeness, InsertReceipt, MonitorInstall, PoolSystem,
    QueryCost, QueryResult,
};
