//! GHT backend: sharded by key hash.
//!
//! GHT is the easiest scheme to shard: a key's home node is a pure
//! function of the key and the (shared, immutable) topology, so routing
//! state never crosses keys. Each shard owns the keys hashing to it,
//! with its own table and transport stack; duplicate gets for one key in
//! an admission window coalesce into a single fetch.

use crate::backend::ServiceBackend;
use crate::request::{Request, ShardResponse};
use pool_ght::GhtTable;
use pool_netsim::topology::Topology;
use pool_transport::{OpRetryPolicy, Substrate, Transport};
use std::sync::Arc;

/// FNV-1a over the key bytes — a stable, dependency-free shard hash.
fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The immutable router half of a sharded GHT deployment.
#[derive(Debug)]
pub struct GhtBackend {
    topology: Arc<Topology>,
    shards: usize,
}

/// One shard: the table slice for its keys plus its own transport stack.
#[derive(Debug, Clone)]
pub struct GhtShard {
    /// The shard's hash-table slice.
    pub table: GhtTable<u64>,
    /// The shard's transport (own ledger/clock).
    pub transport: Box<dyn Transport>,
    retry: Option<OpRetryPolicy>,
}

impl GhtBackend {
    /// Builds the router and its shards over one shared topology, each
    /// shard reaching the radio through `substrate`'s stack (stand-in seed
    /// 0), as Pool and DIM do: the fault plan is evaluated against each
    /// shard's clock, and [`Substrate::op_retry`] retries puts and gets.
    ///
    /// One stack and one empty table are built; every shard starts with
    /// clones of them, which behave exactly as second builds would, so the
    /// topology is planarised once per handle.
    pub fn build(
        topology: Topology,
        substrate: &Substrate,
        shards: usize,
    ) -> (Self, Vec<GhtShard>) {
        let topology = Arc::new(topology);
        let shards = shards.max(1);
        let transport = substrate.stack(&topology, 0);
        let retry = substrate.op_retry;
        let shard = GhtShard { table: GhtTable::new(&topology), transport, retry };
        (GhtBackend { topology, shards }, vec![shard; shards])
    }

    fn shard_of_key(&self, key: &str) -> usize {
        (key_hash(key) % self.shards as u64) as usize
    }
}

impl ServiceBackend for GhtBackend {
    type Shard = GhtShard;

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shards_of(&self, request: &Request) -> Vec<usize> {
        match request {
            Request::Put { key, .. } | Request::Get { key, .. } => vec![self.shard_of_key(key)],
            other => panic!("ght backend cannot serve {other:?}"),
        }
    }

    fn relevant_ids(&self, request: &Request) -> Vec<u64> {
        match request {
            Request::Put { key, .. } | Request::Get { key, .. } => vec![key_hash(key)],
            other => panic!("ght backend cannot serve {other:?}"),
        }
    }

    fn execute(&self, shard: &mut GhtShard, request: &Request) -> ShardResponse {
        let mut out = ShardResponse::default();
        match request {
            Request::Put { source, key, value } => {
                let receipt = shard.table.put_with_retry(
                    &self.topology,
                    shard.transport.as_mut(),
                    *source,
                    key,
                    *value,
                    shard.retry,
                );
                match receipt {
                    Ok(receipt) => {
                        out.messages = receipt.messages;
                        out.delivered = receipt.delivered;
                        out.elapsed = receipt.elapsed;
                        if !receipt.delivered {
                            out.unreached = vec![key_hash(key)];
                        }
                    }
                    Err(pool_gpsr::RouteError::NotDelivered { .. }) => {
                        out.unreached = vec![key_hash(key)];
                    }
                    Err(e) => panic!("ght put failed: {e}"),
                }
            }
            Request::Get { sink, key } => {
                let result = shard.table.get_with_retry(
                    &self.topology,
                    shard.transport.as_mut(),
                    *sink,
                    key,
                    shard.retry,
                );
                match result {
                    Ok((values, receipt)) => {
                        out.values = values;
                        out.messages = receipt.messages;
                        out.delivered = receipt.delivered;
                        out.elapsed = receipt.elapsed;
                        if !receipt.delivered {
                            out.unreached = vec![key_hash(key)];
                        }
                    }
                    Err(pool_gpsr::RouteError::NotDelivered { .. }) => {
                        out.unreached = vec![key_hash(key)];
                    }
                    Err(e) => panic!("ght get failed: {e}"),
                }
            }
            other => panic!("ght backend cannot serve {other:?}"),
        }
        out.end = shard.transport.clock().now();
        out
    }

    fn seek(&self, shard: &mut GhtShard, t: f64) {
        shard.transport.clock_mut().seek(t);
    }

    fn now(&self, shard: &GhtShard) -> f64 {
        shard.transport.clock().now()
    }

    fn ledger<'a>(&self, shard: &'a GhtShard) -> &'a pool_transport::TrafficLedger {
        shard.transport.ledger()
    }

    fn try_merge(&self, merged: &Request, next: &Request) -> Option<Request> {
        match (merged, next) {
            (Request::Get { sink: sa, key: ka }, Request::Get { sink: sb, key: kb })
                if sa == sb && ka == kb =>
            {
                Some(merged.clone())
            }
            _ => None,
        }
    }
}
