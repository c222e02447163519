//! The geographic hash table: put/get of keyed values at home nodes.
//!
//! The home node of a key is the node where a GPSR packet addressed to the
//! key's hashed location is delivered. `Put` routes the value there and the
//! home node stores it; `Get` routes a request there and the stored values
//! travel back along the reverse path. All routing, charging, and virtual
//! timing goes through a caller-provided [`Transport`], so experiments can
//! compare GHT's per-layer costs and latencies with Pool's and DIM's on
//! the same ledger and clock. Operations travel as real deliveries: on a
//! lossy radio a put whose packet dies stores nothing, and every ARQ
//! retransmission pays its own virtual time.

use crate::hash::hash_to_location;
use pool_gpsr::router::RouteError;
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{retry, OpRetryPolicy, TrafficLayer, Transport};
use std::collections::HashMap;

/// Receipt for one GHT operation (put or get).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhtReceipt {
    /// The home node the operation targeted.
    pub home: NodeId,
    /// Radio messages charged (first attempts + ARQ retransmissions).
    pub messages: u64,
    /// Virtual time the operation took, in seconds.
    pub elapsed: f64,
    /// Whether every leg of the operation fully delivered (always `true`
    /// on a loss-free radio).
    pub delivered: bool,
}

/// A geographic hash table over one deployed network.
///
/// The table owns the per-node key→values storage; routing and message
/// accounting are delegated to a caller-provided [`Transport`] over the
/// same topology.
///
/// # Examples
///
/// ```
/// use pool_ght::GhtTable;
/// use pool_gpsr::Planarization;
/// use pool_netsim::deployment::Deployment;
/// use pool_netsim::topology::Topology;
/// use pool_transport::TransportKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deployment = Deployment::paper_setting(300, 40.0, 20.0, 9)?;
/// let topology = Topology::build(deployment.nodes(), 40.0)?;
/// let mut transport = TransportKind::Gpsr.build(&topology, Planarization::Gabriel);
/// let mut ght = GhtTable::new(&topology);
/// let sensor = topology.nodes()[5].id;
///
/// let put = ght.put(&topology, transport.as_mut(), sensor, "fire-alarm", 451.0)?;
/// assert!(put.delivered && put.elapsed > 0.0);
/// let (values, _receipt) = ght.get(&topology, transport.as_mut(), sensor, "fire-alarm")?;
/// assert_eq!(values, vec![451.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GhtTable<V> {
    /// Per-node storage: node index → key → values.
    pub(crate) storage: Vec<HashMap<String, Vec<V>>>,
}

impl<V: Clone> GhtTable<V> {
    /// Creates an empty table sized for `topology`.
    pub fn new(topology: &Topology) -> Self {
        GhtTable { storage: vec![HashMap::new(); topology.len()] }
    }

    /// The home node of `key`: where a packet addressed to the key's hashed
    /// location is delivered from `from`.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn home_node(
        &self,
        topology: &Topology,
        transport: &mut dyn Transport,
        from: NodeId,
        key: &str,
    ) -> Result<NodeId, RouteError> {
        let loc = self.key_location(topology, key);
        Ok(transport.route_to_location(topology, from, loc)?.delivered)
    }

    /// The hashed location of `key` in this network's field.
    pub fn key_location(&self, topology: &Topology, key: &str) -> Point {
        hash_to_location(key.as_bytes(), topology.bounds())
    }

    /// Stores `value` under `key`, routing from the detecting node `from`
    /// to the key's home node as a real delivery charged under
    /// [`TrafficLayer::Insert`]: [`GhtTable::put_with_retry`] without a
    /// retry policy. On a lossy radio a put whose packet dies en route
    /// stores nothing (the transmissions stay charged — the radio sent
    /// them); the receipt's [`GhtReceipt::delivered`] says which.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn put(
        &mut self,
        topology: &Topology,
        transport: &mut dyn Transport,
        from: NodeId,
        key: &str,
        value: V,
    ) -> Result<GhtReceipt, RouteError> {
        self.put_with_retry(topology, transport, from, key, value, None)
    }

    /// Retrieves all values stored under `key`, issuing the request from
    /// `from`: [`GhtTable::get_with_retry`] without a retry policy. Returns
    /// the values and a receipt (request charged under
    /// [`TrafficLayer::Forward`], response along the reverse path under
    /// [`TrafficLayer::Reply`]). On a lossy radio a dead request leg
    /// returns nothing, and a dead reply leg loses the answer in flight.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn get(
        &mut self,
        topology: &Topology,
        transport: &mut dyn Transport,
        from: NodeId,
        key: &str,
    ) -> Result<(Vec<V>, GhtReceipt), RouteError> {
        self.get_with_retry(topology, transport, from, key, None)
    }

    /// [`GhtTable::put`] with bounded idempotent retry: when the packet
    /// dies en route and `policy` is set, the operation re-routes to the
    /// *same* home node (the key's home is pinned by the first routing
    /// decision, so retries stay idempotent), detouring around the hop that
    /// just failed plus the transport's standing suspects when the policy
    /// allows. Every attempt is charged normally; the value is stored at
    /// most once.
    ///
    /// # Errors
    ///
    /// Propagates routing failures of the initial attempt.
    pub fn put_with_retry(
        &mut self,
        topology: &Topology,
        transport: &mut dyn Transport,
        from: NodeId,
        key: &str,
        value: V,
        policy: Option<OpRetryPolicy>,
    ) -> Result<GhtReceipt, RouteError> {
        let loc = self.key_location(topology, key);
        let route = transport.route_to_location(topology, from, loc)?;
        let home = route.delivered;
        let (outcome, _) =
            retry::deliver(topology, transport, &route.path, TrafficLayer::Insert, policy, None);
        if outcome.delivered {
            self.storage[home.index()].entry(key.to_owned()).or_default().push(value);
        }
        Ok(GhtReceipt {
            home,
            messages: outcome.transmissions,
            elapsed: outcome.latency,
            delivered: outcome.delivered,
        })
    }

    /// [`GhtTable::get`] with bounded idempotent retry: the request leg
    /// re-routes to the key's pinned home node around failed hops (when the
    /// policy detours), and a lost reply is re-sent along the request path
    /// the packet actually travelled. Reads are idempotent, so retries can
    /// only turn a missing answer into a delivered one.
    ///
    /// # Errors
    ///
    /// Propagates routing failures of the initial attempt.
    pub fn get_with_retry(
        &mut self,
        topology: &Topology,
        transport: &mut dyn Transport,
        from: NodeId,
        key: &str,
        policy: Option<OpRetryPolicy>,
    ) -> Result<(Vec<V>, GhtReceipt), RouteError> {
        let loc = self.key_location(topology, key);
        let route = transport.route_to_location(topology, from, loc)?;
        let home = route.delivered;
        let (fwd, rerouted) =
            retry::deliver(topology, transport, &route.path, TrafficLayer::Forward, policy, None);
        let mut receipt = GhtReceipt {
            home,
            messages: fwd.transmissions,
            elapsed: fwd.latency,
            delivered: fwd.delivered,
        };
        if !fwd.delivered {
            return Ok((Vec::new(), receipt));
        }
        let values = self.storage[home.index()].get(key).cloned().unwrap_or_default();
        if values.is_empty() {
            return Ok((values, receipt));
        }
        // The single aggregated response retraces the request path the
        // packet actually travelled (which already avoids any
        // detoured-around node).
        let back = &rerouted.unwrap_or(route).path;
        let rev =
            retry::deliver_reverse(topology, transport, back, 1, TrafficLayer::Reply, policy, None);
        receipt.messages += rev.transmissions;
        receipt.elapsed += rev.latency;
        receipt.delivered = rev.delivered_copies == 1;
        if receipt.delivered {
            Ok((values, receipt))
        } else {
            Ok((Vec::new(), receipt))
        }
    }

    /// Values stored at a specific node (diagnostics / load inspection).
    pub fn stored_at(&self, node: NodeId) -> usize {
        self.storage[node.index()].values().map(Vec::len).sum()
    }

    /// Total values stored in the whole network.
    pub fn total_stored(&self) -> usize {
        (0..self.storage.len()).map(|i| self.stored_at(NodeId(i as u32))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;
    use pool_transport::TransportKind;

    fn setup(seed: u64) -> (Topology, Box<dyn Transport>) {
        let dep = Deployment::paper_setting(200, 40.0, 20.0, seed).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        assert!(topo.is_connected(), "seed {seed} produced a disconnected network");
        let transport = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
        (topo, transport)
    }

    #[test]
    fn put_then_get_roundtrips() {
        let (topo, mut t) = setup(100);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        ght.put(&topo, t.as_mut(), NodeId(0), "k", 1).unwrap();
        ght.put(&topo, t.as_mut(), NodeId(50), "k", 2).unwrap();
        let (values, _) = ght.get(&topo, t.as_mut(), NodeId(100), "k").unwrap();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn different_sources_agree_on_home_node() {
        let (topo, mut t) = setup(101);
        let ght: GhtTable<u32> = GhtTable::new(&topo);
        let homes: Vec<NodeId> = [0u32, 17, 99, 150]
            .iter()
            .map(|&s| ght.home_node(&topo, t.as_mut(), NodeId(s), "shared-key").unwrap())
            .collect();
        assert!(homes.windows(2).all(|w| w[0] == w[1]), "homes differ: {homes:?}");
    }

    #[test]
    fn get_of_missing_key_is_empty_and_cheap() {
        let (topo, mut t) = setup(102);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        let before = t.ledger().total_messages();
        let (values, receipt) = ght.get(&topo, t.as_mut(), NodeId(3), "nothing-here").unwrap();
        assert!(values.is_empty());
        // Only the request path is charged when there is nothing to return.
        assert_eq!(t.ledger().total_messages() - before, receipt.messages);
        assert_eq!(t.ledger().layer_total(TrafficLayer::Reply), 0);
    }

    #[test]
    fn storage_lands_on_single_home_per_key() {
        let (topo, mut t) = setup(103);
        let mut ght: GhtTable<u8> = GhtTable::new(&topo);
        for src in 0..20u32 {
            ght.put(&topo, t.as_mut(), NodeId(src), "one-key", 0).unwrap();
        }
        assert_eq!(ght.total_stored(), 20);
        let loaded: Vec<usize> =
            (0..topo.len()).map(|i| ght.stored_at(NodeId(i as u32))).filter(|&c| c > 0).collect();
        assert_eq!(loaded, vec![20], "all copies must share one home node");
    }

    #[test]
    fn keys_spread_over_many_homes() {
        let (topo, mut t) = setup(104);
        let mut ght: GhtTable<u8> = GhtTable::new(&topo);
        for i in 0..60u32 {
            ght.put(&topo, t.as_mut(), NodeId(0), &format!("key-{i}"), 0).unwrap();
        }
        let homes = (0..topo.len()).filter(|&i| ght.stored_at(NodeId(i as u32)) > 0).count();
        assert!(homes > 30, "only {homes} distinct home nodes for 60 keys");
    }

    #[test]
    fn traffic_accumulates_hops() {
        let (topo, mut t) = setup(105);
        let mut ght: GhtTable<u8> = GhtTable::new(&topo);
        let receipt = ght.put(&topo, t.as_mut(), NodeId(0), "k", 9).unwrap();
        assert_eq!(t.ledger().total_messages(), receipt.messages);
        assert_eq!(t.ledger().layer_total(TrafficLayer::Insert), receipt.messages);
    }

    #[test]
    fn put_and_get_accrue_virtual_time() {
        let (topo, mut t) = setup(107);
        let mut ght: GhtTable<u8> = GhtTable::new(&topo);
        let put = ght.put(&topo, t.as_mut(), NodeId(0), "k", 9).unwrap();
        assert!(put.delivered);
        assert!(put.elapsed > 0.0, "a routed put takes virtual time");
        let before = t.clock().now();
        let (values, get) = ght.get(&topo, t.as_mut(), NodeId(120), "k").unwrap();
        assert_eq!(values, vec![9]);
        // Request plus reply both accrue; the clock advanced by exactly the
        // receipt's elapsed time (get legs are serial: ask, then answer).
        assert!((t.clock().now() - before - get.elapsed).abs() < 1e-12);
        assert!(get.elapsed > 0.0);
        assert!(t.ledger().layer_total(TrafficLayer::Reply) > 0, "the reply leg was charged");
    }

    #[test]
    fn cached_transport_preserves_ght_costs() {
        let (topo, mut plain) = setup(106);
        let mut cached = TransportKind::Cached.build(&topo, Planarization::Gabriel);
        let mut a: GhtTable<u8> = GhtTable::new(&topo);
        let mut b: GhtTable<u8> = GhtTable::new(&topo);
        for i in 0..10u32 {
            let key = format!("k{}", i % 3); // repeated keys exercise the memo
            let ra = a.put(&topo, plain.as_mut(), NodeId(i), &key, 1).unwrap();
            let rb = b.put(&topo, cached.as_mut(), NodeId(i), &key, 1).unwrap();
            assert_eq!(ra, rb, "cache hit must charge and time identically");
        }
        assert_eq!(plain.ledger(), cached.ledger());
    }
}
