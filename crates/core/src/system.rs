//! The deployed Pool system: lifecycle, insertion, and workload sharing
//! over a real (simulated) sensor network.
//!
//! This module ties the pure placement math to the network substrate:
//!
//! * **Insertion** (Algorithm 1): the detecting node computes the storage
//!   cell arithmetically and routes the event to that cell's index node.
//! * **Workload sharing** (§4.2): index nodes above their capacity delegate
//!   overflow storage to chained nearby nodes.
//!
//! Query processing (§3.2.3) lives in the sibling [`crate::forward`]
//! module; its public types ([`QueryCost`], [`QueryResult`],
//! [`AggregateOp`]) are re-exported here for compatibility.
//!
//! All routing and message accounting goes through the pluggable
//! [`Transport`] substrate: every radio hop is charged to its
//! [`pool_transport::TrafficLedger`] under a named [`TrafficLayer`] — the
//! paper's cost metric, broken down by protocol layer.

use crate::config::PoolConfig;
use crate::error::PoolError;
use crate::event::Event;
use crate::grid::{CellCoord, Grid};
use crate::insert::{storage_cell, InsertError, Placement};
use crate::layout::PoolLayout;
use crate::monitor::{MonitorId, MonitorTable, Notification};
use crate::storage::{CellStore, StoredEvent};
use pool_gpsr::Route;
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::metrics::{LedgerSnapshot, LoadReport, NodeRole};
use pool_transport::trace::{TraceOp, Tracer};
use pool_transport::{
    retry, DeliveryOutcome, OpRetryPolicy, TrafficLayer, TrafficLedger, Transport,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub use crate::forward::{
    AggregateOp, AggregateResult, Completeness, MonitorInstall, QueryCost, QueryResult,
};

/// Receipt returned by a successful insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertReceipt {
    /// Where the event was placed (pool and cell).
    pub placement: Placement,
    /// The node that physically holds the event (a delegate when workload
    /// sharing kicked in).
    pub holder: NodeId,
    /// Radio messages charged for this insertion (including notification
    /// deliveries to continuous-query sinks).
    pub messages: u64,
    /// Virtual time the insertion took end to end, in seconds. Notification
    /// and replication fan-out overlap in time (they launch together once
    /// the event is stored); the elapsed time is their critical path, not
    /// their sum.
    pub elapsed: f64,
    /// Continuous-query notifications triggered by this insertion.
    pub notifications: Vec<Notification>,
}

/// A running Pool deployment over one sensor network.
///
/// A clone is an independent deployment that shares only the immutable
/// topology and planar graph; a clone of a freshly built system behaves
/// exactly as a second build from the same inputs.
///
/// # Examples
///
/// ```
/// use pool_core::config::PoolConfig;
/// use pool_core::event::Event;
/// use pool_core::query::RangeQuery;
/// use pool_core::system::PoolSystem;
/// use pool_netsim::deployment::Deployment;
/// use pool_netsim::topology::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deployment = Deployment::paper_setting(300, 40.0, 20.0, 11)?;
/// let field = deployment.field();
/// let topology = Topology::build(deployment.nodes(), 40.0)?;
/// let mut pool = PoolSystem::build(topology, field, PoolConfig::paper())?;
///
/// let source = pool.topology().nodes()[0].id;
/// pool.insert_from(source, Event::new(vec![0.62, 0.30, 0.11])?)?;
///
/// let sink = pool.topology().nodes()[42].id;
/// let result = pool.query_from(sink, &RangeQuery::exact(vec![
///     (0.6, 0.7), (0.2, 0.4), (0.0, 0.5),
/// ])?)?;
/// assert_eq!(result.events.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PoolSystem {
    pub(crate) topology: Arc<Topology>,
    pub(crate) field: Rect,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) grid: Grid,
    pub(crate) layout: PoolLayout,
    pub(crate) config: PoolConfig,
    /// Written only by [`PoolSystem::elect_index_nodes`], together with
    /// `pool_index`.
    pub(crate) index_nodes: HashMap<CellCoord, NodeId>,
    /// Per pool, one `(index node, position)` row per cell in
    /// [`crate::layout::PoolSpec::cells`] order: what
    /// [`PoolSystem::splitter_of`] scans.
    pub(crate) pool_index: Vec<Vec<(NodeId, Point)>>,
    pub(crate) delegates: HashMap<CellCoord, Vec<NodeId>>,
    pub(crate) store: CellStore,
    pub(crate) monitors: MonitorTable,
    pub(crate) tracer: Tracer,
    /// Nodes that served as a query/dissemination splitter at least once
    /// (role tag for the load report).
    pub(crate) splitters_used: HashSet<NodeId>,
    /// Sends every cell of an epoch through the per-event store walk — the
    /// reference the untouched-cell shortcut is tested against.
    #[cfg(test)]
    pub(crate) walk_every_cell: bool,
}

impl PoolSystem {
    /// Builds a Pool deployment over `topology`, gridding the given `field`.
    ///
    /// The index node of each pool cell is the network node nearest the
    /// cell's center (with the paper's density most cells contain no sensor,
    /// so "the node closest to the center" is resolved network-wide; several
    /// cells may share one physical index node, and hops between co-located
    /// cells are free).
    ///
    /// The transport is [`PoolConfig::substrate`]'s stack, with
    /// [`PoolConfig::seed`] as its stand-in seed. Callers that build several
    /// systems over one network snapshot pass clones of one [`Arc`], so they
    /// all read the identical immutable neighbor tables.
    ///
    /// # Errors
    ///
    /// Configuration validation errors, [`PoolError::Routing`] for a
    /// disconnected network, and layout errors if the pools do not fit.
    pub fn build(
        topology: impl Into<Arc<Topology>>,
        field: Rect,
        config: PoolConfig,
    ) -> Result<Self, PoolError> {
        let topology = topology.into();
        config.validate()?;
        topology.require_connected().map_err(|e| PoolError::Routing(e.to_string()))?;
        let grid = Grid::over(field, config.alpha)?;
        let layout = match &config.pivots {
            Some(pivots) => PoolLayout::with_pivots(&grid, config.pool_side, pivots.clone())?,
            None => PoolLayout::random(&grid, config.dims, config.pool_side, config.seed)?,
        };
        let transport = config.substrate.stack(&topology, config.seed);
        let mut system = PoolSystem {
            topology,
            field,
            transport,
            grid,
            layout,
            config,
            index_nodes: HashMap::new(),
            pool_index: Vec::new(),
            delegates: HashMap::new(),
            store: CellStore::new(),
            monitors: MonitorTable::new(),
            tracer: Tracer::default(),
            splitters_used: HashSet::new(),
            #[cfg(test)]
            walk_every_cell: false,
        };
        system.elect_index_nodes();
        Ok(system)
    }

    /// [`PoolSystem::build`] over an already-shared `topology` (a shim the
    /// benchmark package calls).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::build`].
    pub fn build_shared(
        topology: Arc<Topology>,
        field: Rect,
        config: PoolConfig,
    ) -> Result<Self, PoolError> {
        Self::build(topology, field, config)
    }

    /// Elects every pool cell's index node from the live population (§2's
    /// nearest-to-center rule; purely local, zero messages) and returns
    /// how many cells changed hands.
    ///
    /// The only writer of `index_nodes` and of the `pool_index` rows
    /// [`PoolSystem::splitter_of`] reads, so the two cannot disagree. Call
    /// it after every topology change: the rows carry positions, which a
    /// move changes even when no cell changes hands.
    pub(crate) fn elect_index_nodes(&mut self) -> usize {
        let mut reassigned = 0usize;
        self.pool_index.resize_with(self.layout.dims(), Vec::new);
        for (pool, row) in self.layout.pools().iter().zip(&mut self.pool_index) {
            row.clear();
            for cell in pool.cells() {
                let elected = self.topology.nearest_node(self.grid.center(cell));
                if self.index_nodes.insert(cell, elected) != Some(elected) {
                    reassigned += 1;
                }
                row.push((elected, self.topology.position(elected)));
            }
        }
        reassigned
    }

    // ----- traced delivery: every routed leg goes through these ---------

    /// Delivers one packet along `path` through the shared retry loop
    /// ([`retry::deliver`]), recording one trace span per attempt. Returns
    /// the outcome and, when a retry detoured, the route the packet last
    /// travelled.
    pub(crate) fn deliver_leg(
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
    /// recording a trace span for the leg.
    pub(crate) fn deliver_traced(
        &mut self,
        op: TraceOp,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> DeliveryOutcome {
        self.deliver_leg(op, path, layer, None).0
    }

    /// Sends one backup copy from `source` to its neighbor `target` (see
    /// [`PoolSystem::backup_target`]). Returns the messages charged (1 on a
    /// perfect radio; more with ARQ retransmissions) and `target` — `None`
    /// on a lossy radio when the copy did not arrive. The caller records
    /// the holder on the event the copy backs ([`StoredEvent::backup`]).
    pub(crate) fn replicate_to(&mut self, source: NodeId, target: NodeId) -> (u64, Option<NodeId>) {
        let outcome =
            self.deliver_traced(TraceOp::Replicate, &[source, target], TrafficLayer::Replication);
        (outcome.transmissions, outcome.delivered.then_some(target))
    }

    /// The neighbor of `index_node` a new backup copy goes to: the one
    /// holding the fewest events, lowest id first (`None` when isolated).
    pub(crate) fn backup_target(&self, index_node: NodeId) -> Option<NodeId> {
        let neighbors = self.topology.neighbors(index_node).iter();
        neighbors.min_by_key(|&&n| (self.store.count_at(n), n)).copied()
    }

    /// The underlying network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The deployment field.
    pub fn field(&self) -> Rect {
        self.field
    }

    /// The virtual grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The pool layout.
    pub fn layout(&self) -> &PoolLayout {
        &self.layout
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The index node serving `cell`, or `None` if the cell belongs to no
    /// pool.
    pub fn index_node_of(&self, cell: CellCoord) -> Option<NodeId> {
        self.index_nodes.get(&cell).copied()
    }

    /// The event store (for load inspection).
    pub fn store(&self) -> &CellStore {
        &self.store
    }

    /// The per-layer message ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        self.transport.ledger()
    }

    /// The delivery trace: one [`pool_transport::Span`] per routed leg
    /// (bounded ring buffer).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the delivery trace (e.g. to clear it between
    /// experiment phases).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Assembles the per-node load report: message loads (total and per
    /// layer) from the ledger, radio busy times from those loads at the
    /// clock's service time, storage loads from the cell store, and role
    /// tags from the index/splitter/delegate registries.
    pub fn load_report(&self) -> LoadReport {
        let service_time = self.transport.clock().model().service_time;
        let mut report = LoadReport::from_ledger(self.transport.ledger(), service_time);
        report.set_delivery_stats(self.transport.delivery_stats());
        for node in self.topology.nodes() {
            report.set_events_held(node.id, self.store.count_at(node.id) as u64);
        }
        for &node in self.index_nodes.values() {
            report.tag(node, NodeRole::Index);
        }
        for chain in self.delegates.values() {
            for &node in chain {
                report.tag(node, NodeRole::Delegate);
            }
        }
        for &node in &self.splitters_used {
            report.tag(node, NodeRole::Splitter);
        }
        report
    }

    /// The routing substrate.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Mutable access to the routing substrate (e.g. to issue probe routes
    /// in tests or clear the ledger between experiment phases).
    pub fn transport_mut(&mut self) -> &mut dyn Transport {
        self.transport.as_mut()
    }

    /// The delegation chain of `cell` (empty without workload sharing).
    pub fn delegates_of(&self, cell: CellCoord) -> &[NodeId] {
        self.delegates.get(&cell).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Inserts an event detected at node `source` (Algorithm 1).
    ///
    /// On a lossy radio the event travels hop by hop with bounded ARQ; if
    /// some hop exhausts its retry budget the insertion fails with
    /// [`InsertError::Undeliverable`] (the transmissions already spent stay
    /// charged — the radio sent them). Notification drops do *not* fail the
    /// insertion; they are recorded on the receipt's
    /// [`Notification::delivered`] flags.
    ///
    /// # Errors
    ///
    /// [`InsertError::Undeliverable`] when the event cannot reach its
    /// storage cell; [`InsertError::Pool`] wrapping
    /// [`PoolError::DimensionMismatch`] for wrong arity or
    /// [`PoolError::Routing`] for pathological routing failures.
    pub fn insert_from(
        &mut self,
        source: NodeId,
        event: Event,
    ) -> Result<InsertReceipt, InsertError> {
        if event.dims() != self.config.dims {
            return Err(InsertError::Pool(PoolError::DimensionMismatch {
                expected: self.config.dims,
                got: event.dims(),
            }));
        }
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let op_start = self.transport.clock().now();
        let detected_cell = self.grid.cell_of(self.topology.position(source));
        let placement = storage_cell(&self.layout, &self.grid, &event, detected_cell);
        let index_node =
            *self.index_nodes.get(&placement.cell).expect("pool cells all have index nodes");
        let route = match self.transport.route_to_node(&self.topology, source, index_node) {
            Ok(route) => route,
            // No route at all (the destination sits in another partition):
            // undeliverable before a single transmission.
            Err(pool_gpsr::RouteError::NotDelivered { delivered, .. }) => {
                return Err(InsertError::Undeliverable {
                    from: source,
                    to: index_node,
                    reached: delivered,
                    transmissions: 0,
                });
            }
            Err(e) => return Err(InsertError::Pool(e.into())),
        };
        let outcome = self.deliver_traced(TraceOp::Insert, &route.path, TrafficLayer::Insert);
        let mut messages = outcome.transmissions;
        if !outcome.delivered {
            return Err(InsertError::Undeliverable {
                from: source,
                to: index_node,
                reached: outcome.reached,
                transmissions: outcome.transmissions,
            });
        }

        // §4.2 workload sharing: walk the cell's delegation chain to the
        // first holder with spare capacity, extending it if necessary.
        let holder = match self.config.sharing {
            None => index_node,
            Some(policy) => {
                let (holder, chain_hops) =
                    self.place_with_sharing(placement.cell, index_node, policy)?;
                messages += chain_hops;
                holder
            }
        };
        // Continuous queries (§6 extension): the index node checks the
        // monitors registered on this cell and notifies matching sinks. A
        // lost notification is recorded, not fatal — the event is already
        // stored. Notifications (and the replication copy below) all launch
        // from the moment the event is stored, so they overlap in virtual
        // time: the clock is re-seeked to `t_stored` before each fan-out
        // branch and the insertion ends at the latest branch.
        let t_stored = self.transport.clock().now();
        let mut op_end = t_stored;
        let mut notifications = Vec::new();
        let firing: Vec<(MonitorId, NodeId)> = self
            .monitors
            .watching(placement.cell)
            .filter(|m| m.query.matches(&event))
            .map(|m| (m.id, m.sink))
            .collect();
        for (monitor, sink) in firing {
            self.transport.clock_mut().seek(t_stored);
            match self.transport.route_to_node(&self.topology, index_node, sink) {
                Ok(route) => {
                    let outcome =
                        self.deliver_traced(TraceOp::Notify, &route.path, TrafficLayer::Monitor);
                    messages += outcome.transmissions;
                    notifications.push(Notification {
                        monitor,
                        sink,
                        messages: outcome.transmissions,
                        delivered: outcome.delivered,
                    });
                }
                Err(_) => notifications.push(Notification {
                    monitor,
                    sink,
                    messages: 0,
                    delivered: false,
                }),
            }
            op_end = op_end.max(self.transport.clock().now());
        }

        // Optional failure-tolerance replication: one backup copy at a
        // neighbor of the index node (overlapping the notifications).
        let mut backup = None;
        let target = if self.config.replicate { self.backup_target(index_node) } else { None };
        if let Some(target) = target {
            self.transport.clock_mut().seek(t_stored);
            let (sent, copy_at) = self.replicate_to(index_node, target);
            messages += sent;
            backup = copy_at;
            op_end = op_end.max(self.transport.clock().now());
        }
        self.transport.clock_mut().seek(op_end);

        self.store
            .insert_stored(placement.cell, StoredEvent { event, holder, backup: backup.into() });
        // Conservation audit: the receipt's flat count must equal the
        // ledger growth across exactly the layers insertion touches.
        ledger_before.debug_assert_sum(
            self.transport.ledger(),
            "insert_from",
            messages,
            &[
                TrafficLayer::Insert,
                TrafficLayer::Monitor,
                TrafficLayer::Replication,
                TrafficLayer::Retransmit,
            ],
        );
        Ok(InsertReceipt { placement, holder, messages, elapsed: op_end - op_start, notifications })
    }

    /// The continuous-query registry (for inspection).
    pub fn monitors(&self) -> &MonitorTable {
        &self.monitors
    }

    /// Finds (or creates) the holder for a new event in `cell` under the
    /// sharing policy, charging one hop per chain link walked.
    fn place_with_sharing(
        &mut self,
        cell: CellCoord,
        index_node: NodeId,
        policy: crate::config::SharingPolicy,
    ) -> Result<(NodeId, u64), PoolError> {
        let mut chain = vec![index_node];
        chain.extend_from_slice(self.delegates_of(cell));
        for (i, &node) in chain.iter().enumerate() {
            if self.store.count_at(node) < policy.capacity {
                let outcome =
                    self.deliver_traced(TraceOp::Insert, &chain[..=i], TrafficLayer::Insert);
                // If the chain walk stalls on a lossy link, the event rests
                // where it stopped — degraded placement rather than loss,
                // since the event already survived the trip to the cell.
                let holder = if outcome.delivered { node } else { outcome.reached };
                return Ok((holder, outcome.transmissions));
            }
        }
        // Everyone in the chain is full: recruit the least-loaded neighbor
        // of the chain tail that is not already in the chain.
        let tail = *chain.last().expect("chain contains at least the index node");
        let new_delegate = self
            .topology
            .neighbors(tail)
            .iter()
            .copied()
            .filter(|n| !chain.contains(n))
            .min_by_key(|&n| (self.store.count_at(n), n))
            .ok_or_else(|| {
                PoolError::Routing(format!("no delegate candidate near {tail} for cell {cell}"))
            })?;
        chain.push(new_delegate);
        let outcome = self.deliver_traced(TraceOp::Insert, &chain, TrafficLayer::Insert);
        if outcome.delivered {
            self.delegates.entry(cell).or_default().push(new_delegate);
            Ok((new_delegate, outcome.transmissions))
        } else {
            Ok((outcome.reached, outcome.transmissions))
        }
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared builders for system-level tests (also used by the forward
    //! module's tests).

    use super::*;
    use pool_netsim::deployment::Deployment;

    pub(crate) fn build_system(n: usize, seed: u64, config: PoolConfig) -> PoolSystem {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(n, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return PoolSystem::build(topo, dep.field(), config).unwrap();
            }
            s += 1000;
        }
    }

    pub(crate) fn ev(v: &[f64]) -> Event {
        Event::new(v.to_vec()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{build_system, ev};
    use super::*;
    use crate::query::RangeQuery;

    #[test]
    fn tied_events_stored_once_and_found() {
        let mut pool = build_system(300, 3, PoolConfig::paper());
        pool.insert_from(NodeId(5), ev(&[0.4, 0.4, 0.2])).unwrap();
        assert_eq!(pool.store().len(), 1);
        let q = RangeQuery::exact(vec![(0.3, 0.5), (0.3, 0.5), (0.1, 0.3)]).unwrap();
        let result = pool.query_from(NodeId(100), &q).unwrap();
        assert_eq!(result.events.len(), 1);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut pool = build_system(300, 4, PoolConfig::paper());
        let err = pool.insert_from(NodeId(0), ev(&[0.5, 0.5]));
        assert!(matches!(
            err,
            Err(InsertError::Pool(PoolError::DimensionMismatch { expected: 3, got: 2 }))
        ));
        let q = RangeQuery::exact(vec![(0.0, 1.0)]).unwrap();
        assert!(matches!(pool.query_from(NodeId(0), &q), Err(PoolError::DimensionMismatch { .. })));
    }

    #[test]
    fn workload_sharing_bounds_node_load() {
        use crate::config::SharingPolicy;
        let config = PoolConfig::paper().with_sharing(SharingPolicy::new(5));
        let mut pool = build_system(300, 7, config);
        // A heavily skewed workload: everything lands in the same cell.
        for i in 0..40 {
            pool.insert_from(NodeId(i % 300), ev(&[0.951, 0.052, 0.013])).unwrap();
        }
        assert_eq!(pool.store().len(), 40);
        assert!(
            pool.store().max_node_load() <= 5,
            "load {} exceeds capacity",
            pool.store().max_node_load()
        );
        // The same skew without sharing concentrates everything.
        let mut unshared = build_system(300, 7, PoolConfig::paper());
        for i in 0..40 {
            unshared.insert_from(NodeId(i % 300), ev(&[0.951, 0.052, 0.013])).unwrap();
        }
        assert!(unshared.store().max_node_load() >= 40);
    }

    #[test]
    fn workload_sharing_loses_no_events() {
        use crate::config::SharingPolicy;
        let config = PoolConfig::paper().with_sharing(SharingPolicy::new(3));
        let mut pool = build_system(300, 8, config);
        for i in 0..30 {
            pool.insert_from(NodeId(i), ev(&[0.851, 0.052, 0.013])).unwrap();
        }
        let q = RangeQuery::exact(vec![(0.8, 0.9), (0.0, 0.1), (0.0, 0.1)]).unwrap();
        let result = pool.query_from(NodeId(200), &q).unwrap();
        assert_eq!(result.events.len(), 30, "delegated events must remain queryable");
    }

    #[test]
    fn monitors_notify_only_matching_insertions() {
        let mut pool = build_system(300, 20, PoolConfig::paper());
        let sink = NodeId(7);
        let q = RangeQuery::exact(vec![(0.6, 0.7), (0.0, 0.5), (0.0, 0.5)]).unwrap();
        let install = pool.install_monitor(sink, q).unwrap();
        let id = install.id;
        assert!(install.cost.forward_messages > 0);
        assert!(install.completeness.is_complete(), "loss-free installs reach every cell");
        assert_eq!(pool.monitors().len(), 1);

        // A matching insertion notifies the sink.
        let r = pool.insert_from(NodeId(100), ev(&[0.65, 0.3, 0.2])).unwrap();
        assert_eq!(r.notifications.len(), 1);
        assert_eq!(r.notifications[0].sink, sink);
        assert_eq!(r.notifications[0].monitor, id);

        // A non-matching insertion does not.
        let r = pool.insert_from(NodeId(100), ev(&[0.95, 0.3, 0.2])).unwrap();
        assert!(r.notifications.is_empty());

        // After removal, nothing fires.
        let removed = pool.remove_monitor(id).unwrap();
        assert!(removed.is_some());
        let r = pool.insert_from(NodeId(100), ev(&[0.66, 0.3, 0.2])).unwrap();
        assert!(r.notifications.is_empty());
        assert!(pool.remove_monitor(id).unwrap().is_none());
    }

    #[test]
    fn monitor_catches_every_matching_event_in_a_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut pool = build_system(300, 21, PoolConfig::paper());
        let q = RangeQuery::from_bounds(vec![Some((0.8, 1.0)), None, None]).unwrap();
        pool.install_monitor(NodeId(0), q.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut expected = 0usize;
        let mut fired = 0usize;
        for _ in 0..150 {
            let event = ev(&[rng.gen(), rng.gen(), rng.gen()]);
            if q.matches(&event) {
                expected += 1;
            }
            let r = pool.insert_from(NodeId(rng.gen_range(0..300)), event).unwrap();
            fired += r.notifications.len();
        }
        assert!(expected > 0, "workload should contain matches");
        assert_eq!(fired, expected, "every matching insertion must notify exactly once");
    }

    #[test]
    fn insertions_accrue_virtual_time_and_fanout_overlaps() {
        let mut pool = build_system(300, 14, PoolConfig::paper().with_replication());
        let sink = NodeId(7);
        let q = RangeQuery::exact(vec![(0.6, 0.7), (0.0, 0.5), (0.0, 0.5)]).unwrap();
        pool.install_monitor(sink, q).unwrap();
        let before = pool.transport().clock().now();
        let r = pool.insert_from(NodeId(100), ev(&[0.65, 0.3, 0.2])).unwrap();
        let after = pool.transport().clock().now();
        assert!(r.elapsed > 0.0, "a routed insertion takes virtual time");
        assert!((after - before - r.elapsed).abs() < 1e-12, "the clock advances by elapsed");
        assert_eq!(r.notifications.len(), 1);
        // The transmissions occupied radios: utilization shows up in the
        // load report.
        let report = pool.load_report();
        assert!(report.busy_distribution().max > 0.0);
        let source_row =
            report.nodes().iter().find(|n| n.node == NodeId(100)).expect("row for the source");
        assert!(source_row.busy_time > 0.0, "the source transmitted");
    }

    #[test]
    fn traffic_ledger_accumulates() {
        let mut pool = build_system(300, 12, PoolConfig::paper());
        let r = pool.insert_from(NodeId(0), ev(&[0.5, 0.4, 0.3])).unwrap();
        assert_eq!(pool.ledger().total_messages(), r.messages);
        let q = RangeQuery::exact(vec![(0.4, 0.6), (0.3, 0.5), (0.2, 0.4)]).unwrap();
        let res = pool.query_from(NodeId(1), &q).unwrap();
        assert_eq!(pool.ledger().total_messages(), r.messages + res.cost.total());
    }

    #[test]
    fn ledger_layers_partition_system_traffic() {
        let mut pool = build_system(300, 13, PoolConfig::paper().with_replication());
        let r = pool.insert_from(NodeId(0), ev(&[0.5, 0.4, 0.3])).unwrap();
        let q = RangeQuery::exact(vec![(0.4, 0.6), (0.3, 0.5), (0.2, 0.4)]).unwrap();
        let res = pool.query_from(NodeId(1), &q).unwrap();
        let ledger = pool.ledger();
        let layered: u64 = ledger.by_layer().iter().map(|(_, n)| n).sum();
        assert_eq!(layered, ledger.total_messages(), "layers must partition the total");
        assert_eq!(
            ledger.layer_total(TrafficLayer::Insert)
                + ledger.layer_total(TrafficLayer::Replication),
            r.messages,
        );
        assert_eq!(ledger.layer_total(TrafficLayer::Forward), res.cost.forward_messages);
        assert_eq!(ledger.layer_total(TrafficLayer::Reply), res.cost.reply_messages);
    }
}
