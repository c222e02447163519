//! # pool-transport — the pluggable routing substrate
//!
//! Pool, DIM, and GHT all sit on the same two primitives: *route a packet*
//! (GPSR, §2 of the Pool paper) and *deliver it hop by hop* (each hop one
//! message of the paper's cost metric, §5, and one timed transmission).
//! This crate extracts that seam into one object-safe [`Transport`] trait so
//! the storage schemes above it never touch [`pool_gpsr::Gpsr`] directly and
//! never write the [`TrafficLedger`] themselves:
//!
//! * [`Transport`] — route to a node or a location, refresh after topology
//!   change, and deliver along a route: every delivery charges the
//!   per-layer [`TrafficLedger`] and times the same transmissions on the
//!   [`VirtualClock`].
//! * [`apply_change`] — the one place a batch of joins, moves and deaths is
//!   validated, written into the topology, compacted, and handed to
//!   [`Transport::refresh`] as the set of rows it dirtied.
//! * [`RepairQueue`] — the one budgeted FIFO every scheme drains its
//!   repairs through; a scheme supplies only [`Repair`]'s price and landing.
//! * [`GpsrTransport`] — the reference implementation; recomputes every
//!   route, reproducing the original message counts bit for bit.
//! * [`CachedTransport`] — memoizes delivered routes per endpoint pair and
//!   invalidates the memo on topology change; identical message accounting,
//!   much less recomputation on repeated-query workloads.
//! * [`TransportKind`] — the configuration-level selector that builds
//!   either implementation behind `Box<dyn Transport>`.
//! * [`Substrate`] — how a storage scheme reaches the radio: a
//!   [`TransportKind`] plus the link-layer options stacked over it. Every
//!   scheme's transport is built by [`Substrate::stack`].
//!
//! # Examples
//!
//! ```
//! use pool_gpsr::Planarization;
//! use pool_netsim::deployment::Deployment;
//! use pool_netsim::topology::Topology;
//! use pool_transport::{TrafficLayer, Transport, TransportKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let deployment = Deployment::paper_setting(300, 40.0, 20.0, 7)?;
//! let topology = Topology::build(deployment.nodes(), 40.0)?;
//! let mut transport = TransportKind::Cached.build(&topology, Planarization::Gabriel);
//! let (from, to) = (topology.nodes()[0].id, topology.nodes()[100].id);
//! let route = transport.route_to_node(&topology, from, to)?;
//! let outcome = transport.deliver(&topology, &route.path, TrafficLayer::Forward);
//! assert_eq!(transport.ledger().total_messages(), route.hops() as u64);
//! assert_eq!(outcome.transmissions, route.hops() as u64);
//! assert!(transport.clock().now() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cached;
pub mod change;
pub mod clock;
pub mod faults;
pub mod gpsr;
pub mod ledger;
pub mod lossy;
pub mod lru;
pub mod metrics;
pub mod retry;
pub mod trace;

pub use cached::CachedTransport;
pub use change::{apply_change, EpochPlan, NetworkChange, Price, Repair, RepairQueue, UnknownNode};
pub use clock::{clean_hops, Hop, LatencyModel, VirtualClock};
pub use faults::{Fault, FaultPlan, FaultyTransport, GilbertElliott};
pub use gpsr::GpsrTransport;
pub use ledger::{TrafficLayer, TrafficLedger};
pub use lossy::{
    AdaptiveState, ArqTransport, BackoffPolicy, DeliveryOutcome, DeliveryStats, LinkQuality,
    LossyConfig, LossyTransport, RecoveryConfig, ReverseDelivery,
};
pub use lru::{CacheStats, ShardedLru};
pub use metrics::{LedgerSnapshot, LoadDistribution, LoadReport, NodeLoad, NodeRole, RoleSet};
pub use retry::OpRetryPolicy;
pub use trace::{Span, SpanOutcome, TraceOp, Tracer};

use pool_gpsr::{Planarization, Route, RouteError};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A node-addressed route as an operation holds it: the two node ids of a
/// one-hop route, which live where the leg lives, or a shared [`Route`].
///
/// The storage schemes route, deliver and retrace their query legs through
/// [`Leg::path`]; most legs between adjacent owners are one hop, and a
/// [`Leg::Hop`] costs them no allocation at any step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Leg {
    /// `[from, to]`: one greedy hop to a radio neighbour.
    Hop([NodeId; 2]),
    /// Any route, as [`Transport::route_to_node`] returns it.
    Route(Arc<Route>),
}

impl Leg {
    /// Every node the leg visits, starting with its source.
    pub fn path(&self) -> &[NodeId] {
        match self {
            Leg::Hop(pair) => pair,
            Leg::Route(route) => &route.path,
        }
    }

    /// The leg as the route [`Transport::route_to_node`] returns.
    pub fn into_route(self) -> Arc<Route> {
        match self {
            Leg::Hop([from, to]) => Arc::new(Route::single_hop(from, to)),
            Leg::Route(route) => route,
        }
    }
}

/// A routing substrate: route computation plus message accounting.
///
/// Routing and delivery are deliberately separate calls — the storage
/// schemes decide *how* a route is delivered (forward once, retrace for
/// replies, fan out `copies` times), while the transport decides *how* the
/// route is obtained (fresh GPSR computation vs. memo lookup). Routes are
/// returned as [`Arc<Route>`] so cached implementations can hand out shared
/// copies without cloning paths, and as a [`Leg`] by
/// [`Transport::leg_to_node`] so a one-hop route need not be allocated.
///
/// Implementations must keep message accounting identical regardless of
/// how routes are produced: a cache may skip recomputation, never charges.
///
/// `Send` is a supertrait so whole deployments (which own their transport,
/// ledger, and tracer) can move into the bench harness's worker threads;
/// implementations hold only owned data, never shared mutable state.
///
/// A `Box<dyn Transport>` clones ([`TransportClone`]), and the clone is
/// independent: its ledger, clock, route memo, RNG streams, link
/// estimator and failure detector are copies that evolve on their own
/// from then on. Only the immutable planar graph is shared, and a
/// [`Transport::refresh`] on one clone gives that clone new planar arenas
/// without touching its siblings'. A clone of a transport that has carried
/// no traffic behaves exactly as a second build from the same inputs.
pub trait Transport: fmt::Debug + Send + TransportClone {
    /// Routes from `from` to the specific node `to`.
    ///
    /// A `from == to` route is the zero-hop path `[from]`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when GPSR cannot deliver (hop budget, or a
    /// node-addressed packet delivered elsewhere).
    fn route_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Arc<Route>, RouteError>;

    /// [`Transport::route_to_node`]'s route as a [`Leg`]: the same path and
    /// the same errors. The default wraps the route; a substrate that can
    /// tell a one-hop route without computing it answers [`Leg::Hop`].
    ///
    /// # Errors
    ///
    /// Exactly [`Transport::route_to_node`]'s.
    fn leg_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Leg, RouteError> {
        self.route_to_node(topology, from, to).map(Leg::Route)
    }

    /// Routes from `from` toward the location `target`, delivering at the
    /// home node (the node closest to `target` on its face).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::HopBudgetExceeded`] on pathological
    /// geometries.
    fn route_to_location(
        &mut self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Arc<Route>, RouteError>;

    /// Routes from `from` to `to` around an exclusion set: the route must
    /// not traverse any node in `excluded` (endpoints are exempt). Used by
    /// adaptive recovery to detour around suspect nodes.
    ///
    /// The default implementation ignores the exclusions — substrates
    /// without detour support fall back to the normal route. Detour routes
    /// are never memoized: they describe a transient suspicion, not the
    /// topology.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when no route survives the exclusions.
    fn route_to_node_avoiding(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Arc<Route>, RouteError> {
        let _ = excluded;
        self.route_to_node(topology, from, to)
    }

    /// Drops every memoized route that traverses `node` (targeted
    /// invalidation after a failed delivery proved it unreachable).
    /// Returns the number of routes dropped; the default (memo-free
    /// substrates) holds nothing to drop.
    fn evict_routes_through(&mut self, node: NodeId) -> u64 {
        let _ = node;
        0
    }

    /// Brings the substrate up to date with a changed topology:
    /// re-planarizes the `dirty` rows (and any row of a node that joined),
    /// bumps [`Transport::generation`], drops every memoized route, and
    /// grows the ledger and clock to address joiners.
    ///
    /// `dirty` must cover every node whose neighbor table was written or
    /// that has a neighbor that moved since the last refresh — what
    /// [`Topology::compact`] returns for the epoch. [`apply_change`] is the
    /// caller that gets this right for every scheme.
    ///
    /// The ledger is preserved: node identity is stable across failures, so
    /// accumulated traffic remains attributable.
    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]);

    /// Rebuilds the substrate over an arbitrary topology: the
    /// [`Transport::refresh`] with every row dirty.
    fn rebuild(&mut self, topology: &Topology) {
        let all: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        self.refresh(topology, &all);
    }

    /// Monotonic topology generation; incremented by every
    /// [`Transport::refresh`]. Routes obtained under an older generation
    /// must not be reused.
    fn generation(&self) -> u64;

    /// The message ledger.
    fn ledger(&self) -> &TrafficLedger;

    /// Mutable access to the message ledger.
    fn ledger_mut(&mut self) -> &mut TrafficLedger;

    /// The latency ledger: the virtual clock every delivery advances.
    fn clock(&self) -> &VirtualClock;

    /// Mutable access to the virtual clock (operations use it to bracket
    /// fan-out with [`VirtualClock::seek`]).
    fn clock_mut(&mut self) -> &mut VirtualClock;

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;

    /// Attempts to deliver one packet along `path`, charging transmissions
    /// under `layer` and reporting a structured [`DeliveryOutcome`].
    ///
    /// The default implementation is the loss-free link layer every
    /// substrate had before [`LossyTransport`]: each hop succeeds on its
    /// first transmission, so the ledger is charged once per non-self hop
    /// ([`TrafficLedger::charge_path`]) and the clock times the same hops.
    /// Lossy decorators override it with per-hop drops and ARQ. Either way
    /// every charged transmission is timed: the delivery advances the
    /// virtual clock and reports its elapsed time in
    /// [`DeliveryOutcome::latency`].
    ///
    /// # Panics
    ///
    /// Panics on an empty `path` (routes always contain at least their
    /// source node).
    fn deliver(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> DeliveryOutcome {
        let _ = topology;
        let transmissions = self.ledger_mut().charge_path(path, layer);
        let latency = self.clock_mut().time_path(path);
        let mut outcome = DeliveryOutcome::delivered_clean(path, transmissions);
        outcome.latency = latency;
        outcome
    }

    /// Attempts to deliver `copies` reply packets in reverse along `path`,
    /// charging under `layer`.
    ///
    /// The default implementation is loss-free: every copy arrives, and the
    /// ledger charges [`TrafficLedger::charge_path_reversed`] (each hop to
    /// its reverse-direction sender) for the transmissions it times. The copies
    /// launch concurrently on the virtual clock — they serialize on their
    /// shared sender's radio but overlap in flight, so
    /// [`ReverseDelivery::latency`] is the makespan of the fan-out, not a
    /// serial sum.
    fn deliver_reverse(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        copies: u64,
        layer: TrafficLayer,
    ) -> ReverseDelivery {
        let _ = topology;
        let transmissions = self.ledger_mut().charge_path_reversed(path, copies, layer);
        let latency = self.clock_mut().time_path_reversed(path, copies);
        ReverseDelivery { delivered_copies: copies, transmissions, retransmissions: 0, latency }
    }

    /// Cumulative link-layer delivery statistics (all zeros for loss-free
    /// substrates, which never fail and never retransmit).
    fn delivery_stats(&self) -> DeliveryStats {
        DeliveryStats::default()
    }
}

/// The object-safe half of `Clone` every [`Transport`] has, so a
/// `Box<dyn Transport>` clones; implemented for every `Clone` transport.
pub trait TransportClone {
    /// A boxed copy of this transport.
    fn clone_box(&self) -> Box<dyn Transport>;
}

impl<T: Transport + Clone + 'static> TransportClone for T {
    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Transport> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// Selects a [`Transport`] implementation at configuration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// [`GpsrTransport`]: recompute every route (reference behaviour).
    #[default]
    Gpsr,
    /// [`CachedTransport`]: memoize delivered routes per endpoint pair.
    Cached,
}

impl TransportKind {
    /// Builds the selected transport over `topology`.
    pub fn build(self, topology: &Topology, planarization: Planarization) -> Box<dyn Transport> {
        match self {
            TransportKind::Gpsr => Box::new(GpsrTransport::new(topology, planarization)),
            TransportKind::Cached => Box::new(CachedTransport::new(topology, planarization)),
        }
    }
}

/// How a storage scheme reaches the radio: the routing substrate and the
/// link layer stacked over it. Pool (`PoolConfig::substrate`), DIM, GHT
/// and the service backends each take one, so every scheme in a comparison
/// can ride the identical radio.
///
/// Every field defaults to the paper's radio: plain GPSR, no loss, no
/// faults, no recovery, no operation retry.
///
/// A few one-line shims still spell these options loose, because the
/// benchmark package calls them; each is marked for the next change to the
/// benchmark: `PoolSystem::build_shared`, `DimSystem::build_with_substrate`
/// and `PoolConfig::{with_transport, with_lossy, with_faults,
/// with_recovery, with_op_retry}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Substrate {
    /// Routing substrate implementation: plain GPSR, or the memoizing
    /// route cache (identical message counts either way).
    pub kind: TransportKind,
    /// Optional lossy link layer: every hop can be dropped and retried
    /// (bounded ARQ). `None` keeps the paper's loss-free radio.
    pub lossy: Option<LossyConfig>,
    /// Optional structured fault injection (crashes, pauses, partitions,
    /// burst loss, asymmetric links) against virtual time.
    pub faults: Option<FaultPlan>,
    /// Optional adaptive recovery: EWMA link estimation, backoff priced on
    /// the virtual clock, and a passive failure detector feeding detours
    /// and targeted route eviction.
    pub recovery: Option<RecoveryConfig>,
    /// Optional bounded idempotent retry of failed operation legs. The
    /// stack does not read it; the scheme applies it leg by leg.
    pub op_retry: Option<OpRetryPolicy>,
}

impl Substrate {
    /// Builds the transport stack over `topology`: the [`TransportKind`]
    /// over the Gabriel planarization, with the link layer the options
    /// call for on top. A fault plan or adaptive recovery puts the fault
    /// engine on top; with no loss model it runs over a perfect-link
    /// stand-in, [`LossyConfig::fixed`]`(1.0, stand_in_seed)`, so the plan
    /// alone can be exercised. A loss model alone puts the lossy engine on
    /// top. Neither leaves the bare substrate.
    ///
    /// The stand-in seed seeds the burst-loss channel, so it is part of a
    /// scheme's identity: Pool passes its pivot seed, DIM and GHT pass 0.
    pub fn stack(&self, topology: &Topology, stand_in_seed: u64) -> Box<dyn Transport> {
        let substrate = self.kind.build(topology, Planarization::Gabriel);
        if self.faults.is_some() || self.recovery.is_some() {
            let lossy = self.lossy.unwrap_or_else(|| LossyConfig::fixed(1.0, stand_in_seed));
            let plan = self.faults.clone().unwrap_or_default();
            Box::new(FaultyTransport::build(substrate, lossy, plan, self.recovery))
        } else if let Some(lossy) = self.lossy {
            Box::new(LossyTransport::wrap(substrate, lossy))
        } else {
            substrate
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Gpsr => "gpsr",
            TransportKind::Cached => "cached",
        })
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gpsr" => Ok(TransportKind::Gpsr),
            "cached" => Ok(TransportKind::Cached),
            other => Err(format!("unknown transport {other:?} (expected \"gpsr\" or \"cached\")")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::deployment::Deployment;

    fn deployed() -> Topology {
        let deployment = Deployment::paper_setting(200, 40.0, 20.0, 3).expect("deployment");
        Topology::build(deployment.nodes(), 40.0).expect("topology")
    }

    /// Every stack [`Substrate::stack`] makes clones through the
    /// object-safe [`TransportClone`], into a transport of the same kind
    /// whose traffic the original never sees.
    #[test]
    fn a_boxed_clone_is_an_independent_transport() {
        let topology = deployed();
        let (from, to) = (topology.nodes()[0].id, topology.nodes()[150].id);
        let lossy = Some(LossyConfig::fixed(0.8, 7));
        let substrates = [
            Substrate::default(),
            Substrate { kind: TransportKind::Cached, ..Substrate::default() },
            Substrate { kind: TransportKind::Cached, lossy, ..Substrate::default() },
            Substrate { lossy, recovery: Some(RecoveryConfig::default()), ..Substrate::default() },
        ];
        for substrate in substrates {
            let original = substrate.stack(&topology, 0);
            let mut copy = TransportClone::clone_box(original.as_ref());
            assert_eq!(copy.kind(), original.kind());
            let route = copy.route_to_node(&topology, from, to).expect("connected");
            copy.deliver(&topology, &route.path, TrafficLayer::Forward);
            assert!(copy.ledger().total_messages() > 0 && copy.clock().now() > 0.0);
            assert_eq!(original.ledger(), &TrafficLedger::new(topology.len()), "{substrate:?}");
            assert_eq!(original.clock().now(), 0.0);
            assert_eq!(original.delivery_stats(), DeliveryStats::default());
        }
    }

    /// A fault plan with no loss model runs over the perfect-link stand-in
    /// `LossyConfig::fixed(1.0, stand_in_seed)`: the seed reaches the
    /// burst-loss channel, so two seeds lose different hops, and each
    /// stack delivers exactly as one built with that stand-in spelt out.
    #[test]
    fn the_stand_in_seed_seeds_the_perfect_link_under_a_fault_plan() {
        let topology = deployed();
        let channel = GilbertElliott { p_gb: 0.3, p_bg: 0.3, good_prr: 1.0, bad_prr: 0.2 };
        let plan = FaultPlan::new().with(Fault::BurstLoss { channel, from: 0.0, until: 1e9 });
        let bursty = Substrate { faults: Some(plan), ..Substrate::default() };
        let n = topology.len();
        let stats = |transport: &mut Box<dyn Transport>| {
            for i in 0..40 {
                let (from, to) = (topology.nodes()[i].id, topology.nodes()[n - 1 - i].id);
                let route = transport.route_to_node(&topology, from, to).expect("connected");
                transport.deliver(&topology, &route.path, TrafficLayer::Forward);
            }
            transport.delivery_stats()
        };
        let [one, two] = [1, 2].map(|seed| {
            let stand_in = stats(&mut bursty.stack(&topology, seed));
            let spelt_out =
                Substrate { lossy: Some(LossyConfig::fixed(1.0, seed)), ..bursty.clone() };
            assert_eq!(stats(&mut spelt_out.stack(&topology, 99)), stand_in, "seed {seed}");
            stand_in
        });
        assert!(one.retransmissions > 0, "the burst channel drops hops");
        assert_ne!(one, two, "the stand-in seed reaches the burst channel");
    }
}
