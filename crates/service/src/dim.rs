//! DIM backend: sharded by zone.
//!
//! The zone tree is partitioned round-robin over its DFS zone order;
//! each shard holds a full [`DimSystem`] over the shared topology but
//! stores and answers only its owned zones. Unlike Pool, DIM's
//! monolithic query walks one serial owner chain, so the union of
//! per-shard restricted chains is *not* message-identical to the single
//! chain (each shard pays its own sink → first-owner leg) — the service
//! trades a few extra forward legs for zone-parallel execution, and
//! reports the honest per-shard costs it actually charged.

use crate::backend::{merge_overlapping_queries, ServiceBackend};
use crate::request::{Request, ShardResponse};
use pool_core::insert::InsertError;
use pool_core::PoolError;
use pool_dim::{DimSystem, ZoneTree};
use pool_netsim::geometry::Rect;
use pool_netsim::topology::Topology;
use pool_transport::Substrate;

/// The immutable router half of a sharded DIM deployment.
#[derive(Debug)]
pub struct DimBackend {
    tree: ZoneTree,
    /// Zone index → owning shard (round-robin).
    shard_of_zone: Vec<usize>,
    shards: usize,
}

/// One shard: a full DIM system restricted to `zones`.
#[derive(Debug)]
pub struct DimShard {
    /// The shard's system instance (own transport/ledger/clock/tracer).
    pub system: DimSystem,
    /// The zone indices this shard owns, ascending
    /// ([`DimSystem::query_zones_from`] binary-searches them).
    pub zones: Vec<usize>,
}

impl DimBackend {
    /// Builds the router and its shards over one shared topology, each
    /// shard reaching the radio through `substrate`, as
    /// [`DimSystem::build`] does. `shards` is clamped to at least 1 and at
    /// most the zone count.
    ///
    /// One system is built; every shard starts as a clone of it, which
    /// behaves exactly as a second build would, so the topology is
    /// planarised and the zone tree built once per handle. The router
    /// takes that system's tree, so zone indices agree across the whole
    /// deployment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DimSystem::build`].
    pub fn build(
        topology: Topology,
        field: Rect,
        dims: usize,
        substrate: &Substrate,
        shards: usize,
    ) -> Result<(Self, Vec<DimShard>), PoolError> {
        let system = DimSystem::build(topology, field, dims, substrate)?;
        let tree = system.tree().clone();
        let zone_count = tree.zones().len();
        let shards = shards.clamp(1, zone_count.max(1));
        let shard_of_zone: Vec<usize> = (0..zone_count).map(|z| z % shards).collect();
        let shard_state = std::iter::repeat_n(system, shards)
            .enumerate()
            .map(|(s, system)| {
                let zones = (0..zone_count).filter(|&z| shard_of_zone[z] == s).collect();
                DimShard { system, zones }
            })
            .collect();
        Ok((DimBackend { tree, shard_of_zone, shards }, shard_state))
    }
}

impl ServiceBackend for DimBackend {
    type Shard = DimShard;

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shards_of(&self, request: &Request) -> Vec<usize> {
        match request {
            Request::Insert { event, .. } => {
                vec![self.shard_of_zone[self.tree.zone_index_of_event(event.values())]]
            }
            Request::Query { query, .. } => {
                let mut shards = Vec::new();
                self.tree.for_each_overlapping(&query.rewritten(), |z| {
                    shards.push(self.shard_of_zone[z]);
                });
                shards.sort_unstable();
                shards.dedup();
                shards
            }
            other => panic!("dim backend cannot serve {other:?}"),
        }
    }

    fn relevant_ids(&self, request: &Request) -> Vec<u64> {
        match request {
            Request::Insert { event, .. } => {
                vec![self.tree.zone_index_of_event(event.values()) as u64]
            }
            Request::Query { query, .. } => {
                let mut ids = Vec::new();
                self.tree.for_each_overlapping(&query.rewritten(), |z| ids.push(z as u64));
                ids
            }
            other => panic!("dim backend cannot serve {other:?}"),
        }
    }

    fn execute(&self, shard: &mut DimShard, request: &Request) -> ShardResponse {
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
                        out.messages = transmissions;
                        out.unreached = vec![self.tree.zone_index_of_event(event.values()) as u64];
                    }
                    Err(InsertError::Pool(e)) => panic!("dim insert failed: {e}"),
                }
            }
            Request::Query { sink, query } => {
                let result = shard
                    .system
                    .query_zones_from(*sink, query, &shard.zones)
                    .expect("restricted dim query");
                out.events = result.events;
                out.messages = result.cost.total();
                out.retransmissions = result.cost.retransmit_messages;
                out.unreached = result.unreached_zones.iter().map(|&z| z as u64).collect();
                out.delivered = result.zones_reached == result.zones_visited;
                out.elapsed = result.cost.elapsed;
            }
            other => panic!("dim backend cannot serve {other:?}"),
        }
        out.end = shard.system.transport().clock().now();
        out
    }

    fn seek(&self, shard: &mut DimShard, t: f64) {
        shard.system.transport_mut().clock_mut().seek(t);
    }

    fn now(&self, shard: &DimShard) -> f64 {
        shard.system.transport().clock().now()
    }

    fn ledger<'a>(&self, shard: &'a DimShard) -> &'a pool_transport::TrafficLedger {
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
