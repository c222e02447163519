//! The deployed DIM system: insertion and range-query processing with
//! message accounting, mirroring [`pool_core::system::PoolSystem`]'s API so
//! the benchmark harness can drive both schemes identically.
//!
//! ## Cost model
//!
//! * **Insertion**: the detecting node computes the event's zone locally
//!   and GPSR-routes the event to the zone owner — identical in kind to
//!   Pool's insertion (the paper omits the insertion comparison for exactly
//!   this reason, §5.2).
//! * **Query**: the relevant zones are visited along a chain in code (DFS)
//!   order, which is geographically local because code order is space
//!   order. The sink routes to the first owner; each owner forwards to the
//!   next; aggregated replies retrace the chain. This is a *charitable*
//!   model for DIM — real DIM pays additional splitting overhead — so any
//!   Pool advantage measured against it is conservative.

use crate::churn::DimRepairQueue;
use crate::zone::ZoneTree;
use pool_core::event::Event;
use pool_core::failure::FailureReport;
use pool_core::insert::InsertError;
use pool_core::query::RangeQuery;
use pool_core::system::QueryCost;
use pool_core::PoolError;
use pool_gpsr::Route;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::metrics::{LedgerSnapshot, LoadReport, NodeRole};
use pool_transport::trace::{TraceOp, Tracer};
use pool_transport::{
    retry, DeliveryOutcome, EpochPlan, Leg, LossyConfig, OpRetryPolicy, ReverseDelivery, Substrate,
    TrafficLayer, TrafficLedger, Transport, TransportKind,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of one DIM query.
#[derive(Debug, Clone, PartialEq)]
pub struct DimQueryResult {
    /// All qualifying events.
    pub events: Vec<Event>,
    /// Message cost breakdown (same shape as Pool's).
    pub cost: QueryCost,
    /// Number of zones whose attribute region overlapped the query.
    pub zones_visited: usize,
    /// Zones that received the query and (when they had matches) got their
    /// reply back to the sink — DIM's analogue of Pool's
    /// [`pool_core::system::Completeness`]. Equals `zones_visited` on a
    /// loss-free radio.
    pub zones_reached: usize,
    /// Zone indices (into [`DimSystem::tree`]'s zone order) among the
    /// visited zones that did NOT fully answer — cut off the forward
    /// chain, or stranded by a dead reply leg. The sharded service layer
    /// uses this identity to recompose per-request completeness when
    /// queries are coalesced.
    pub unreached_zones: Vec<usize>,
}

/// Receipt for one DIM insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct DimInsertReceipt {
    /// The owner node the event was stored at.
    pub owner: NodeId,
    /// Radio messages charged.
    pub messages: u64,
    /// Virtual time the insertion took, in seconds.
    pub elapsed: f64,
}

/// A running DIM deployment over one sensor network.
///
/// A clone is an independent deployment that shares only the immutable
/// topology and planar graph; a clone of a freshly built system behaves
/// exactly as a second build from the same inputs.
///
/// # Examples
///
/// ```
/// use pool_core::event::Event;
/// use pool_core::query::RangeQuery;
/// use pool_dim::system::DimSystem;
/// use pool_netsim::deployment::Deployment;
/// use pool_netsim::topology::Topology;
/// use pool_transport::Substrate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deployment = Deployment::paper_setting(300, 40.0, 20.0, 23)?;
/// let field = deployment.field();
/// let topology = Topology::build(deployment.nodes(), 40.0)?;
/// let mut dim = DimSystem::build(topology, field, 3, &Substrate::default())?;
///
/// let src = dim.topology().nodes()[4].id;
/// dim.insert_from(src, Event::new(vec![0.7, 0.2, 0.4])?)?;
/// let result = dim.query_from(
///     dim.topology().nodes()[9].id,
///     &RangeQuery::exact(vec![(0.6, 0.8), (0.1, 0.3), (0.3, 0.5)])?,
/// )?;
/// assert_eq!(result.events.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DimSystem {
    pub(crate) topology: Arc<Topology>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) tree: ZoneTree,
    dims: usize,
    /// Events stored per zone index (index into `tree.zones()`).
    pub(crate) store: HashMap<usize, Vec<Event>>,
    tracer: Tracer,
    /// Optional bounded operation-level retry for query legs
    /// ([`Substrate::op_retry`]).
    op_retry: Option<OpRetryPolicy>,
}

impl DimSystem {
    /// Builds a DIM deployment for `dims`-dimensional events over
    /// `topology`, reaching the radio through `substrate`'s stack (stand-in
    /// seed 0). Pass Pool's [`Substrate`] to make both schemes route,
    /// memoize, lose and retry identically; callers that build several
    /// systems over one network snapshot pass clones of one [`Arc`].
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] for `dims == 0` and
    /// [`PoolError::Routing`] for a disconnected network.
    pub fn build(
        topology: impl Into<Arc<Topology>>,
        field: Rect,
        dims: usize,
        substrate: &Substrate,
    ) -> Result<Self, PoolError> {
        let topology = topology.into();
        if dims == 0 {
            return Err(PoolError::InvalidConfig { reason: "k = 0".into() });
        }
        topology.require_connected().map_err(|e| PoolError::Routing(e.to_string()))?;
        let tree = ZoneTree::build(&topology, field);
        let transport = substrate.stack(&topology, 0);
        Ok(DimSystem {
            topology,
            transport,
            tree,
            dims,
            store: HashMap::new(),
            tracer: Tracer::default(),
            op_retry: substrate.op_retry,
        })
    }

    /// [`DimSystem::build`] over a substrate of `kind` and `lossy` (a shim
    /// the benchmark package calls).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DimSystem::build`].
    pub fn build_with_substrate(
        topology: Topology,
        field: Rect,
        dims: usize,
        kind: TransportKind,
        lossy: Option<LossyConfig>,
    ) -> Result<Self, PoolError> {
        Self::build(topology, field, dims, &Substrate { kind, lossy, ..Substrate::default() })
    }

    /// Delivers one packet along `path` through the shared retry loop
    /// ([`retry::deliver`]), recording one trace span per attempt.
    fn deliver_leg(
        &mut self,
        op: TraceOp,
        path: &[NodeId],
        layer: TrafficLayer,
        policy: Option<OpRetryPolicy>,
    ) -> (DeliveryOutcome, Option<Arc<Route>>) {
        let trace = Some((&mut self.tracer, op));
        retry::deliver(&self.topology, self.transport.as_mut(), path, layer, policy, trace)
    }

    /// Delivers one packet along `path`, once, charging `layer` and
    /// tracing the leg under `op`.
    pub(crate) fn deliver_traced(
        &mut self,
        op: TraceOp,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> DeliveryOutcome {
        self.deliver_leg(op, path, layer, None).0
    }

    /// Delivers along `leg` under the configured operation retry. Returns
    /// the aggregated outcome and the leg the packet last travelled, which
    /// the reply must retrace.
    fn deliver_with_recovery(
        &mut self,
        op: TraceOp,
        leg: Leg,
        layer: TrafficLayer,
    ) -> (DeliveryOutcome, Leg) {
        let (outcome, rerouted) = self.deliver_leg(op, leg.path(), layer, self.op_retry);
        (outcome, rerouted.map_or(leg, Leg::Route))
    }

    /// Delivers `copies` reply packets in reverse along `path` under the
    /// configured operation retry ([`retry::deliver_reverse`]), tracing.
    fn deliver_reverse_with_retry(
        &mut self,
        op: TraceOp,
        path: &[NodeId],
        copies: u64,
        layer: TrafficLayer,
    ) -> ReverseDelivery {
        retry::deliver_reverse(
            &self.topology,
            self.transport.as_mut(),
            path,
            copies,
            layer,
            self.op_retry,
            Some((&mut self.tracer, op)),
        )
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The zone tree.
    pub fn tree(&self) -> &ZoneTree {
        &self.tree
    }

    /// The per-layer message ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        self.transport.ledger()
    }

    /// The routing substrate.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Mutable access to the routing substrate.
    pub fn transport_mut(&mut self) -> &mut dyn Transport {
        self.transport.as_mut()
    }

    /// The delivery trace (one span per routed leg, bounded ring buffer).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the delivery trace.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Assembles the per-node load report: message loads from the ledger
    /// (busy times from them at the clock's service time), storage loads
    /// from the zone store, and an [`NodeRole::Index`] tag on every zone
    /// owner (DIM has no splitters or delegates — every owner is its
    /// zone's index).
    pub fn load_report(&self) -> LoadReport {
        let service_time = self.transport.clock().model().service_time;
        let mut report = LoadReport::from_ledger(self.transport.ledger(), service_time);
        report.set_delivery_stats(self.transport.delivery_stats());
        let zones = self.tree.zones();
        let mut held: HashMap<NodeId, u64> = HashMap::new();
        for (&zone_idx, events) in &self.store {
            *held.entry(zones[zone_idx].owner).or_insert(0) += events.len() as u64;
        }
        for (&owner, &count) in &held {
            report.set_events_held(owner, count);
        }
        for z in zones {
            report.tag(z.owner, NodeRole::Index);
        }
        report
    }

    /// Number of stored events.
    pub fn stored_events(&self) -> usize {
        self.store.values().map(Vec::len).sum()
    }

    /// The largest number of events held by any single zone owner (hotspot
    /// indicator; DIM "does not adapt gracefully to skewed data", §1).
    pub fn max_owner_load(&self) -> usize {
        let mut by_owner: HashMap<NodeId, usize> = HashMap::new();
        for (&zone_idx, events) in &self.store {
            *by_owner.entry(self.tree.zones()[zone_idx].owner).or_insert(0) += events.len();
        }
        by_owner.values().copied().max().unwrap_or(0)
    }

    /// Inserts an event detected at `source`.
    ///
    /// # Errors
    ///
    /// [`InsertError::Undeliverable`] when the event cannot reach its zone
    /// owner over the lossy link layer; [`InsertError::Pool`] wrapping
    /// [`PoolError::DimensionMismatch`] for wrong arity or other routing
    /// errors — the same contract as
    /// [`pool_core::system::PoolSystem::insert_from`].
    pub fn insert_from(
        &mut self,
        source: NodeId,
        event: Event,
    ) -> Result<DimInsertReceipt, InsertError> {
        if event.dims() != self.dims {
            return Err(InsertError::Pool(PoolError::DimensionMismatch {
                expected: self.dims,
                got: event.dims(),
            }));
        }
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let zone_idx = self.tree.zone_index_of_event(event.values());
        let owner = self.tree.zones()[zone_idx].owner;
        let route = match self.transport.route_to_node(&self.topology, source, owner) {
            Ok(route) => route,
            Err(pool_gpsr::RouteError::NotDelivered { delivered, .. }) => {
                return Err(InsertError::Undeliverable {
                    from: source,
                    to: owner,
                    reached: delivered,
                    transmissions: 0,
                });
            }
            Err(e) => return Err(InsertError::Pool(e.into())),
        };
        let outcome = self.deliver_traced(TraceOp::Insert, &route.path, TrafficLayer::Insert);
        if !outcome.delivered {
            return Err(InsertError::Undeliverable {
                from: source,
                to: owner,
                reached: outcome.reached,
                transmissions: outcome.transmissions,
            });
        }
        self.store.entry(zone_idx).or_default().push(event);
        ledger_before.debug_assert_sum(
            self.transport.ledger(),
            "dim insert_from",
            outcome.transmissions,
            &[TrafficLayer::Insert, TrafficLayer::Retransmit],
        );
        Ok(DimInsertReceipt { owner, messages: outcome.transmissions, elapsed: outcome.latency })
    }

    /// Processes a range query issued at `sink`.
    ///
    /// # Errors
    ///
    /// [`PoolError::DimensionMismatch`] for wrong arity, routing errors
    /// otherwise.
    pub fn query_from(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
    ) -> Result<DimQueryResult, PoolError> {
        self.query_restricted(sink, query, None)
    }

    /// Processes a range query restricted to the given zone indices
    /// (indices into [`DimSystem::tree`]'s zone order).
    ///
    /// The sharded service layer partitions the zone tree across shards
    /// and has each shard answer only its owned slice. Unlike Pool's
    /// per-pool decomposition, DIM's full-query owner chain is serial —
    /// so the union of restricted sub-queries walks shorter chains (each
    /// paying its own sink → first-owner leg) rather than reproducing the
    /// single chain's cost. The result is still exact: every restricted
    /// zone that answers returns precisely its matching events.
    ///
    /// `zones` must be strictly ascending, as the sharded backend builds
    /// them: membership is a binary search. An unsorted slice is rejected
    /// rather than sorted — a copy and a sort per query per shard would cost
    /// more than the search saves — or searched, which would drop zones.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidQuery`] when `zones` is not strictly ascending,
    /// otherwise the same conditions as [`DimSystem::query_from`].
    pub fn query_zones_from(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
        zones: &[usize],
    ) -> Result<DimQueryResult, PoolError> {
        if !zones.windows(2).all(|w| w[0] < w[1]) {
            return Err(PoolError::InvalidQuery {
                reason: "restricting zone indices must be strictly ascending".into(),
            });
        }
        self.query_restricted(sink, query, Some(zones))
    }

    fn query_restricted(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
        zones: Option<&[usize]>,
    ) -> Result<DimQueryResult, PoolError> {
        if query.dims() != self.dims {
            return Err(PoolError::DimensionMismatch { expected: self.dims, got: query.dims() });
        }
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let mut relevant: Vec<(usize, NodeId)> = Vec::new();
        self.tree.for_each_overlapping(&query.rewritten(), |zone_idx| {
            if zones.is_none_or(|own| own.binary_search(&zone_idx).is_ok()) {
                relevant.push((zone_idx, self.tree.zones()[zone_idx].owner));
            }
        });
        let zones_visited = relevant.len();

        // Visit owners in code (DFS) order, skipping consecutive duplicates
        // (empty zones backed by the same physical node). `zone_pos[i]` is
        // the chain position serving relevant zone `i`.
        let mut chain: Vec<NodeId> = Vec::with_capacity(relevant.len());
        let mut zone_pos: Vec<usize> = Vec::with_capacity(relevant.len());
        for (_, owner) in &relevant {
            if chain.last() != Some(owner) {
                chain.push(*owner);
            }
            zone_pos.push(chain.len() - 1);
        }

        let mut cost = QueryCost::default();
        let mut events = Vec::new();
        if chain.is_empty() {
            return Ok(DimQueryResult {
                events,
                cost,
                zones_visited,
                zones_reached: 0,
                unreached_zones: Vec::new(),
            });
        }

        // DIM's chain is inherently serial in time too: each owner can only
        // forward once it has the query, and replies retrace leg by leg —
        // there is no fan-out to overlap, so the elapsed time is simply the
        // clock advance across the whole operation.
        let op_start = self.transport.clock().now();

        // Forward legs: sink to the first owner, then owner to owner. On a
        // lossy radio the chain is only as long as its weakest link — the
        // first undelivered leg cuts every owner past it off the query.
        let mut legs: Vec<Leg> = Vec::with_capacity(chain.len());
        let mut from = sink;
        for &to in &chain {
            let leg = match self.transport.leg_to_node(&self.topology, from, to) {
                Ok(leg) => leg,
                Err(pool_gpsr::RouteError::NotDelivered { .. }) => break,
                Err(e) => return Err(e.into()),
            };
            let (fwd, leg) = self.deliver_with_recovery(TraceOp::Query, leg, TrafficLayer::Forward);
            cost.add_forward(&fwd);
            if !fwd.delivered {
                break;
            }
            legs.push(leg);
            from = to;
        }
        // Owners at chain positions `0..reached_len` received the query.
        let reached_len = legs.len();

        // Collect matches from the owners the query reached.
        let mut any_match = false;
        let mut unreached_zones: Vec<usize> = Vec::new();
        // (zone idx, chain pos, matches) for zones the query reached.
        let mut per_zone: Vec<(usize, usize, Vec<Event>)> = Vec::with_capacity(relevant.len());
        for ((zone_idx, _), &pos) in relevant.iter().zip(&zone_pos) {
            if pos >= reached_len {
                unreached_zones.push(*zone_idx);
                continue;
            }
            let matches: Vec<Event> = self
                .store
                .get(zone_idx)
                .into_iter()
                .flatten()
                .filter(|e| query.matches(e))
                .cloned()
                .collect();
            if !matches.is_empty() {
                any_match = true;
            }
            per_zone.push((*zone_idx, pos, matches));
        }

        // Aggregated replies retrace the chain back to the sink: each owner
        // merges its sub-reply into the homeward stream, so each leg is
        // charged once in reverse, and owner `i`'s events arrive iff every
        // leg between it and the sink (reverse legs `0..=i`) delivered.
        let mut first_failed_reverse = reached_len;
        if any_match {
            for (j, leg) in legs.iter().enumerate() {
                let rev = self.deliver_reverse_with_retry(
                    TraceOp::Query,
                    leg.path(),
                    1,
                    TrafficLayer::Reply,
                );
                cost.add_reply(&rev);
                if rev.delivered_copies == 0 && j < first_failed_reverse {
                    first_failed_reverse = j;
                }
            }
        }
        cost.elapsed = self.transport.clock().now() - op_start;
        let mut zones_reached = 0usize;
        for (zone_idx, pos, matches) in per_zone {
            if matches.is_empty() {
                zones_reached += 1;
            } else if pos < first_failed_reverse {
                zones_reached += 1;
                events.extend(matches);
            } else {
                unreached_zones.push(zone_idx);
            }
        }
        ledger_before.debug_assert_layers(
            self.transport.ledger(),
            "dim query_from",
            &[
                (TrafficLayer::Forward, cost.forward_messages),
                (TrafficLayer::Reply, cost.reply_messages),
                (TrafficLayer::Retransmit, cost.retransmit_messages),
            ],
        );
        Ok(DimQueryResult { events, cost, zones_visited, zones_reached, unreached_zones })
    }

    /// Fails `dead` nodes: the deaths-only [`DimSystem::apply_epoch`] with
    /// no message budget. The events they owned are lost (DIM keeps no
    /// replicas), their zones are absorbed by the nearest survivors, and
    /// routing is refreshed over the live network. The report's `cells_*`
    /// fields count zones, and its `epochs` is 0.
    ///
    /// A failure that splits the survivors does not abort — the report's
    /// `partitioned` flag is set and the unreachable remainder tallied,
    /// mirroring Pool's degraded mode.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownNode`] if any id was never deployed (nothing is
    /// applied). Failing an already-dead node is an idempotent no-op:
    /// duplicates and corpses are filtered out before counting, mirroring
    /// [`pool_core::system::PoolSystem`]'s `fail_nodes`.
    pub fn fail_nodes(&mut self, dead: &[NodeId]) -> Result<FailureReport, PoolError> {
        let Some(plan) = EpochPlan::deaths_only(&self.topology, dead) else {
            return Ok(FailureReport::default());
        };
        let report = self.apply_epoch(&plan, &mut DimRepairQueue::default(), u64::MAX)?;
        Ok(FailureReport { epochs: 0, ..report })
    }

    /// Brute-force ground truth over every stored event.
    pub fn brute_force_query(&self, query: &RangeQuery) -> Vec<Event> {
        let mut out = Vec::new();
        for events in self.store.values() {
            for e in events {
                if query.matches(e) {
                    out.push(e.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::deployment::Deployment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> DimSystem {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(n, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return DimSystem::build(topo, dep.field(), 3, &Substrate::default()).unwrap();
            }
            s += 1000;
        }
    }

    fn ev(v: &[f64]) -> Event {
        Event::new(v.to_vec()).unwrap()
    }

    #[test]
    fn insert_query_roundtrip() {
        let mut dim = build(300, 1);
        dim.insert_from(NodeId(0), ev(&[0.7, 0.2, 0.4])).unwrap();
        dim.insert_from(NodeId(3), ev(&[0.1, 0.9, 0.9])).unwrap();
        let q = RangeQuery::exact(vec![(0.6, 0.8), (0.1, 0.3), (0.3, 0.5)]).unwrap();
        let r = dim.query_from(NodeId(99), &q).unwrap();
        assert_eq!(r.events, vec![ev(&[0.7, 0.2, 0.4])]);
        assert!(r.cost.total() > 0);
    }

    #[test]
    fn query_matches_brute_force_over_random_workload() {
        let mut dim = build(300, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let n = dim.topology().len() as u32;
        for _ in 0..300 {
            let e = ev(&[rng.gen(), rng.gen(), rng.gen()]);
            dim.insert_from(NodeId(rng.gen_range(0..n)), e).unwrap();
        }
        for trial in 0..15 {
            let mut bounds = Vec::new();
            for _ in 0..3 {
                if rng.gen_bool(0.3) {
                    bounds.push(None);
                } else {
                    let lo: f64 = rng.gen_range(0.0..0.8);
                    bounds.push(Some((lo, (lo + rng.gen_range(0.0..0.4)).min(1.0))));
                }
            }
            if bounds.iter().all(Option::is_none) {
                bounds[2] = Some((0.2, 0.8));
            }
            let q = RangeQuery::from_bounds(bounds).unwrap();
            let mut got = dim.query_from(NodeId(rng.gen_range(0..n)), &q).unwrap().events;
            let mut want = dim.brute_force_query(&q);
            let key = |e: &Event| e.values().iter().map(|v| (v * 1e9) as i64).collect::<Vec<_>>();
            got.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(got, want, "trial {trial}");
        }
    }

    #[test]
    fn empty_result_charges_no_replies() {
        let mut dim = build(300, 3);
        let q = RangeQuery::exact(vec![(0.0, 0.1), (0.0, 0.1), (0.0, 0.1)]).unwrap();
        let r = dim.query_from(NodeId(0), &q).unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.cost.reply_messages, 0);
        assert!(r.cost.forward_messages > 0, "the query still visits zones");
    }

    /// A restricted query answers exactly the restricting zones it
    /// overlaps, and refuses a slice it cannot binary-search.
    #[test]
    fn restricted_query_takes_ascending_zones_and_rejects_the_rest() {
        let mut dim = build(300, 4);
        let q = RangeQuery::exact(vec![(0.1, 0.9), (0.1, 0.9), (0.1, 0.9)]).unwrap();
        let mut all = Vec::new();
        dim.tree().for_each_overlapping(&q.rewritten(), |idx| all.push(idx));
        let odd: Vec<usize> = (0..dim.tree().zones().len()).filter(|z| z % 2 == 1).collect();
        let got = dim.query_zones_from(NodeId(0), &q, &odd).unwrap();
        assert_eq!(got.zones_visited, all.iter().filter(|z| *z % 2 == 1).count());
        assert!(got.zones_visited > 0);

        let before = dim.ledger().total_messages();
        for bad in [vec![all[1], all[0]], vec![all[0], all[0]]] {
            assert!(matches!(
                dim.query_zones_from(NodeId(0), &q, &bad),
                Err(PoolError::InvalidQuery { .. })
            ));
        }
        assert_eq!(dim.ledger().total_messages(), before, "a rejected query charges nothing");
    }

    #[test]
    fn wider_queries_visit_more_zones() {
        let mut dim = build(300, 4);
        let narrow = RangeQuery::exact(vec![(0.4, 0.45), (0.4, 0.45), (0.4, 0.45)]).unwrap();
        let wide = RangeQuery::exact(vec![(0.1, 0.9), (0.1, 0.9), (0.1, 0.9)]).unwrap();
        let zn = dim.query_from(NodeId(0), &narrow).unwrap().zones_visited;
        let zw = dim.query_from(NodeId(0), &wide).unwrap().zones_visited;
        assert!(zw > zn, "wide {zw} <= narrow {zn}");
    }

    #[test]
    fn unspecified_first_dimension_hurts_most() {
        // The Figure 7(b) effect: 1@1-partial queries prune worst in DIM.
        let mut dim = build(300, 5);
        let q1 = RangeQuery::from_bounds(vec![None, Some((0.4, 0.5)), Some((0.4, 0.5))]).unwrap();
        let q3 = RangeQuery::from_bounds(vec![Some((0.4, 0.5)), Some((0.4, 0.5)), None]).unwrap();
        let z1 = dim.query_from(NodeId(0), &q1).unwrap().zones_visited;
        let z3 = dim.query_from(NodeId(0), &q3).unwrap().zones_visited;
        assert!(z1 >= z3, "1@1-partial should visit at least as many zones as 1@3 ({z1} vs {z3})");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut dim = build(300, 6);
        assert!(matches!(
            dim.insert_from(NodeId(0), ev(&[0.5, 0.5])),
            Err(InsertError::Pool(PoolError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn skewed_data_concentrates_on_owners() {
        // DIM's hotspot problem: identical events pile on one owner.
        let mut dim = build(300, 7);
        for i in 0..50 {
            dim.insert_from(NodeId(i), ev(&[0.801, 0.102, 0.053])).unwrap();
        }
        assert_eq!(dim.max_owner_load(), 50);
    }

    #[test]
    fn failure_loses_dead_owners_events_and_repairs_zones() {
        let mut dim = build(300, 9);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let e = ev(&[rng.gen(), rng.gen(), rng.gen()]);
            dim.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
        }
        let before = dim.stored_events();
        // Fail three owners that hold events.
        let victims: Vec<NodeId> = {
            let zones = dim.tree().zones().to_vec();
            let mut owners: Vec<NodeId> = zones.iter().map(|z| z.owner).collect();
            owners.sort_unstable();
            owners.dedup();
            owners.into_iter().take(3).collect()
        };
        let report = dim.fail_nodes(&victims).unwrap();
        assert_eq!(report.failed_nodes, 3);
        assert!(report.cells_reassigned >= 3);
        assert_eq!(dim.stored_events(), before - report.events_lost);
        // Every zone owner is now alive, and queries still work.
        for z in dim.tree().zones() {
            assert!(dim.topology().is_alive(z.owner));
        }
        let q = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let got = dim.query_from(NodeId(250), &q).unwrap();
        assert_eq!(got.events.len(), dim.stored_events());
    }

    /// Regression: `nodes_unreachable` was `len() − |largest component|`,
    /// and `len()` counts every corpse, so each victim of the stripe was
    /// tallied as a survivor cut off from the main component.
    #[test]
    fn partitioning_failure_counts_only_live_nodes_as_unreachable() {
        let mut dim = build(400, 6);
        let xs = || dim.topology().nodes().iter().map(|n| n.position.x);
        let mid_x = (xs().fold(f64::INFINITY, f64::min) + xs().fold(0.0, f64::max)) / 2.0;
        let victims: Vec<NodeId> = dim
            .topology()
            .nodes()
            .iter()
            .filter(|n| (n.position.x - mid_x).abs() < 45.0)
            .map(|n| n.id)
            .collect();
        let report = dim.fail_nodes(&victims).unwrap();
        assert!(report.partitioned, "stripe failure must partition: {report:?}");
        let topology = dim.topology();
        assert_eq!(
            report.nodes_unreachable,
            topology.alive_count() - topology.largest_component_members().len(),
            "{} corpses must not be counted: {report:?}",
            victims.len()
        );
        assert!(report.nodes_unreachable > 0, "{report:?}");
    }

    #[test]
    fn traffic_ledger_tracks_costs() {
        let mut dim = build(300, 8);
        let r = dim.insert_from(NodeId(0), ev(&[0.3, 0.6, 0.2])).unwrap();
        assert_eq!(dim.ledger().total_messages(), r.messages);
    }
}
