//! The reference transport: plain GPSR, no memoization.

use crate::clock::{LatencyModel, VirtualClock};
use crate::{Leg, TrafficLedger, Transport, TransportKind};
use pool_gpsr::{Gpsr, Planarization, Route, RouteError};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::sync::Arc;

/// A [`Transport`] that recomputes every route with GPSR.
///
/// This is the original behaviour of the storage schemes before the
/// transport seam existed: every delivery charges and times a route
/// freshly computed by [`Gpsr`].
#[derive(Debug, Clone)]
pub struct GpsrTransport {
    gpsr: Gpsr,
    ledger: TrafficLedger,
    clock: VirtualClock,
    generation: u64,
}

impl GpsrTransport {
    /// Builds the transport over `topology`.
    pub fn new(topology: &Topology, planarization: Planarization) -> Self {
        GpsrTransport {
            gpsr: Gpsr::new(topology, planarization),
            ledger: TrafficLedger::new(topology.nodes().len()),
            clock: VirtualClock::new(topology.nodes().len(), LatencyModel::default()),
            generation: 0,
        }
    }

    /// The underlying router (e.g. for path-stretch validation).
    pub fn gpsr(&self) -> &Gpsr {
        &self.gpsr
    }
}

impl Transport for GpsrTransport {
    fn route_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Arc<Route>, RouteError> {
        self.gpsr.route_to_node(topology, from, to).map(Arc::new)
    }

    fn leg_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Leg, RouteError> {
        if self.gpsr.routes_directly(topology, from, to) {
            return Ok(Leg::Hop([from, to]));
        }
        self.route_to_node(topology, from, to).map(Leg::Route)
    }

    fn route_to_location(
        &mut self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Arc<Route>, RouteError> {
        self.gpsr.route(topology, from, target).map(Arc::new)
    }

    fn route_to_node_avoiding(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Arc<Route>, RouteError> {
        self.gpsr.route_to_node_avoiding(topology, from, to, excluded).map(Arc::new)
    }

    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        self.gpsr.refresh(topology, dirty);
        // Joins grow the network; the ledger and clock must keep every
        // node id addressable (counters for existing nodes are preserved).
        self.ledger.grow_to(topology.len());
        self.clock.grow_to(topology.len());
        self.generation += 1;
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut TrafficLedger {
        &mut self.ledger
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn clock_mut(&mut self) -> &mut VirtualClock {
        &mut self.clock
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Gpsr
    }
}
