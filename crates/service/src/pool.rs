//! Pool backend: sharded by pool dimension.
//!
//! Pool's §3.2.3 forwarding tree makes per-pool sharding *exact*: a
//! query is one independent branch per relevant pool, launched in
//! parallel from the sink, so handing each pool's branch to the shard
//! that owns it reproduces the monolithic system's messages, ledger
//! charges, and per-branch virtual time — the full query's elapsed time
//! is the max over branches either way. Inserts land in exactly one
//! pool (the Theorem 3.1 storage cell), monitors decompose like queries.
//!
//! Every shard holds a full [`PoolSystem`], a clone of one system built
//! over the shared topology — so all shards agree on the grid, layout,
//! and index-node election — but only ever executes
//! operations restricted to its owned pools, keeping the mutable halves
//! (stores, monitor tables, ledgers, clocks) disjoint.

use crate::backend::{merge_overlapping_queries, ServiceBackend};
use crate::request::{Request, ShardResponse};
use pool_core::config::PoolConfig;
use pool_core::grid::{CellCoord, Grid};
use pool_core::insert::{storage_cell, InsertError};
use pool_core::layout::PoolLayout;
use pool_core::resolve::relevant_cells;
use pool_core::system::PoolSystem;
use pool_core::PoolError;
use pool_netsim::geometry::Rect;
use pool_netsim::topology::Topology;
use std::sync::Arc;

/// Encodes a `(pool dim, cell)` slice as an opaque id (dims and grid
/// coordinates are all far below 2^20).
fn cell_id(dim: usize, cell: CellCoord) -> u64 {
    ((dim as u64) << 40) | (u64::from(cell.x) << 20) | u64::from(cell.y)
}

/// The immutable router half of a sharded Pool deployment.
#[derive(Debug)]
pub struct PoolBackend {
    topology: Arc<Topology>,
    grid: Grid,
    layout: PoolLayout,
    /// Pool dim → owning shard (round-robin).
    shard_of_pool: Vec<usize>,
    shards: usize,
}

/// One shard: a full Pool system restricted to `pools`.
#[derive(Debug)]
pub struct PoolShard {
    /// The shard's system instance (own transport/ledger/clock/tracer).
    pub system: PoolSystem,
    /// The pool dimensions this shard owns.
    pub pools: Vec<usize>,
}

impl PoolBackend {
    /// Builds the router and its shards over one shared topology, each
    /// shard reaching the radio through `config.substrate`, as
    /// [`PoolSystem::build`] does. `shards` is clamped to `1..=config.dims`
    /// (a pool is the unit of ownership).
    ///
    /// One system is built; every shard starts as a clone of it, which
    /// behaves exactly as a second build would, so all shards agree on the
    /// grid, layout and index-node election, and the topology is
    /// planarised once per handle. The router takes its grid and layout
    /// from that system.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::build`].
    pub fn build(
        topology: Topology,
        field: Rect,
        config: PoolConfig,
        shards: usize,
    ) -> Result<(Self, Vec<PoolShard>), PoolError> {
        let topology = Arc::new(topology);
        let dims = config.dims;
        let system = PoolSystem::build(Arc::clone(&topology), field, config)?;
        let shards = shards.clamp(1, dims);
        let (grid, layout) = (system.grid().clone(), system.layout().clone());
        let shard_of_pool: Vec<usize> = (0..dims).map(|d| d % shards).collect();
        let shard_state = std::iter::repeat_n(system, shards)
            .enumerate()
            .map(|(s, system)| {
                let pools = (0..dims).filter(|&d| shard_of_pool[d] == s).collect();
                PoolShard { system, pools }
            })
            .collect();
        Ok((PoolBackend { topology, grid, layout, shard_of_pool, shards }, shard_state))
    }

    fn placement_of(
        &self,
        source: pool_netsim::node::NodeId,
        event: &pool_core::event::Event,
    ) -> pool_core::insert::Placement {
        let detected = self.grid.cell_of(self.topology.position(source));
        storage_cell(&self.layout, &self.grid, event, detected)
    }
}

impl ServiceBackend for PoolBackend {
    type Shard = PoolShard;

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shards_of(&self, request: &Request) -> Vec<usize> {
        match request {
            Request::Insert { source, event } => {
                vec![self.shard_of_pool[self.placement_of(*source, event).pool_dim]]
            }
            Request::Query { query, .. } | Request::Monitor { query, .. } => {
                let mut shards: Vec<usize> = relevant_cells(&self.layout, query)
                    .iter()
                    .map(|&(dim, _)| self.shard_of_pool[dim])
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                shards
            }
            other => panic!("pool backend cannot serve {other:?}"),
        }
    }

    fn relevant_ids(&self, request: &Request) -> Vec<u64> {
        match request {
            Request::Insert { source, event } => {
                let p = self.placement_of(*source, event);
                vec![cell_id(p.pool_dim, p.cell)]
            }
            Request::Query { query, .. } | Request::Monitor { query, .. } => {
                relevant_cells(&self.layout, query)
                    .iter()
                    .map(|&(dim, cell)| cell_id(dim, cell))
                    .collect()
            }
            other => panic!("pool backend cannot serve {other:?}"),
        }
    }

    fn execute(&self, shard: &mut PoolShard, request: &Request) -> ShardResponse {
        let mut out = ShardResponse::default();
        match request {
            Request::Insert { source, event } => {
                match shard.system.insert_from(*source, event.clone()) {
                    Ok(receipt) => {
                        out.messages = receipt.messages;
                        out.delivered = true;
                        out.elapsed = receipt.elapsed;
                    }
                    Err(InsertError::Undeliverable { transmissions, .. }) => {
                        let p = self.placement_of(*source, event);
                        out.messages = transmissions;
                        out.unreached = vec![cell_id(p.pool_dim, p.cell)];
                        out.elapsed = 0.0;
                    }
                    Err(InsertError::Pool(e)) => panic!("pool insert failed: {e}"),
                }
            }
            Request::Query { sink, query } => {
                let result = shard
                    .system
                    .query_pools_from(*sink, query, &shard.pools)
                    .expect("restricted pool query");
                out.events = result.events;
                out.messages = result.cost.total();
                out.retransmissions = result.cost.retransmit_messages;
                out.unreached = result
                    .completeness
                    .unreached_cells
                    .iter()
                    .map(|&(dim, cell)| cell_id(dim, cell))
                    .collect();
                out.delivered = result.completeness.is_complete();
                out.elapsed = result.cost.elapsed;
            }
            Request::Monitor { sink, query } => {
                let install = shard
                    .system
                    .install_monitor_pools(*sink, query.clone(), &shard.pools)
                    .expect("restricted monitor install");
                out.messages = install.cost.total();
                out.retransmissions = install.cost.retransmit_messages;
                out.unreached = install
                    .completeness
                    .unreached_cells
                    .iter()
                    .map(|&(dim, cell)| cell_id(dim, cell))
                    .collect();
                out.delivered = install.completeness.is_complete();
                out.elapsed = install.cost.elapsed;
            }
            other => panic!("pool backend cannot serve {other:?}"),
        }
        out.end = shard.system.transport().clock().now();
        out
    }

    fn seek(&self, shard: &mut PoolShard, t: f64) {
        shard.system.transport_mut().clock_mut().seek(t);
    }

    fn now(&self, shard: &PoolShard) -> f64 {
        shard.system.transport().clock().now()
    }

    fn ledger<'a>(&self, shard: &'a PoolShard) -> &'a pool_transport::TrafficLedger {
        shard.system.ledger()
    }

    fn try_merge(&self, merged: &Request, next: &Request) -> Option<Request> {
        match (merged, next) {
            (Request::Query { sink: sa, query: qa }, Request::Query { sink: sb, query: qb }) => {
                merge_overlapping_queries(*sa, qa, *sb, qb)
                    .map(|query| Request::Query { sink: *sa, query })
            }
            _ => None,
        }
    }
}
