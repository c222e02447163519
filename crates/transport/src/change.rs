//! One batch of topology change, applied once.
//!
//! Every scheme's churn epoch and failure burst starts with the same step:
//! check the batch names only deployed nodes, write joins, moves and deaths
//! into the topology, fold the mutation overlay, test connectivity, and
//! bring the routing substrate up to date. [`apply_change`] is that step.
//! Because it sees both the compaction and the transport, it is also where
//! the rows an epoch dirtied ([`Topology::compact`]'s return value) reach
//! [`Transport::refresh`], so the substrate re-planarizes `O(churn)` rows
//! instead of all `n`.

use crate::Transport;
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::error::Error;
use std::fmt;

/// A batch named a node id that was never deployed. Nothing was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNode {
    /// The id that is out of range.
    pub node: NodeId,
    /// Number of nodes the deployment would have had after the batch's joins.
    pub nodes: usize,
}

impl fmt::Display for UnknownNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown node {}: the deployment has {} nodes", self.node, self.nodes)
    }
}

impl Error for UnknownNode {}

/// What one applied batch did to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkChange {
    /// Every node whose neighbor table the batch wrote, ascending — the
    /// rows the transport re-planarized.
    pub dirty: Vec<NodeId>,
    /// The nodes the batch killed: the live members of `deaths`, ascending,
    /// without duplicates.
    pub victims: Vec<NodeId>,
    /// The live nodes the batch relocated, in `moves` order.
    pub displaced: Vec<NodeId>,
    /// Whether the surviving network is split into several components.
    pub partitioned: bool,
}

/// Applies `joins` (dense new ids), then `moves` (of live nodes; a dead
/// mover is skipped), then `deaths` to `topology` in place, compacts it
/// once, and refreshes `transport` over exactly the rows that changed.
///
/// The refresh always happens — an empty batch still bumps the generation,
/// empties the memo and resets adaptive link state, as one rebuild per epoch
/// always did.
///
/// # Errors
///
/// [`UnknownNode`] if a move or a death names an id beyond the deployment
/// and this batch's joiners; it is checked before the first write, so
/// neither the topology nor the transport is touched.
pub fn apply_change(
    topology: &mut Topology,
    transport: &mut dyn Transport,
    joins: &[Point],
    moves: &[(NodeId, Point)],
    deaths: &[NodeId],
) -> Result<NetworkChange, UnknownNode> {
    let nodes = topology.len() + joins.len();
    let mut named = moves.iter().map(|&(id, _)| id).chain(deaths.iter().copied());
    if let Some(node) = named.find(|id| id.index() >= nodes) {
        return Err(UnknownNode { node, nodes });
    }
    for &at in joins {
        topology.add_node(at);
    }
    let mut displaced = Vec::new();
    for &(id, to) in moves {
        if topology.is_alive(id) {
            topology.move_node(id, to);
            displaced.push(id);
        }
    }
    let mut victims: Vec<NodeId> =
        deaths.iter().copied().filter(|&d| topology.is_alive(d)).collect();
    victims.sort_unstable();
    victims.dedup();
    topology.fail_nodes(&victims);
    let dirty = topology.compact();
    let partitioned = !topology.is_connected();
    transport.refresh(topology, &dirty);
    Ok(NetworkChange { dirty, victims, displaced, partitioned })
}

/// The failure-burst case of [`apply_change`]: kills `dead`. When nobody in
/// `dead` is left to kill (an empty list, or only corpses) it returns `None`
/// without touching the network or the transport, so double-kills stay
/// idempotent no-ops.
///
/// # Errors
///
/// [`UnknownNode`] as for [`apply_change`].
pub fn apply_failures(
    topology: &mut Topology,
    transport: &mut dyn Transport,
    dead: &[NodeId],
) -> Result<Option<NetworkChange>, UnknownNode> {
    let nodes = topology.len();
    if dead.iter().all(|&d| d.index() < nodes && !topology.is_alive(d)) {
        return Ok(None);
    }
    apply_change(topology, transport, &[], &[], dead).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CachedTransport, Fault, FaultPlan, FaultyTransport, GpsrTransport, LossyConfig,
        RecoveryConfig, TrafficLayer, TransportKind,
    };
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const METHODS: [Planarization; 2] =
        [Planarization::Gabriel, Planarization::RelativeNeighborhood];

    const NODES: usize = 500;
    /// The relay the faulty-wrapper test keeps paused.
    const PAUSED: NodeId = NodeId(2);

    fn deployed(seed: u64) -> Topology {
        let deployment = Deployment::paper_setting(NODES, 40.0, 20.0, seed).expect("deployment");
        Topology::build(deployment.nodes(), 40.0).expect("topology")
    }

    type Batch = (Vec<Point>, Vec<(NodeId, Point)>, Vec<NodeId>);

    /// One epoch's batch against the current `topology`: 2 joins, 3 moves,
    /// 2 deaths, anywhere in the field (dead movers and corpses included —
    /// `apply_change` must skip them).
    fn batch(topology: &Topology, rng: &mut StdRng) -> Batch {
        let side = topology.bounds().max.x;
        let mut at = || Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let joins: Vec<Point> = (0..2).map(|_| at()).collect();
        let moves: Vec<Point> = (0..3).map(|_| at()).collect();
        let mut id = || NodeId(rng.gen_range(0..topology.len() as u32));
        let moves = moves.into_iter().map(|to| (id(), to)).collect();
        let deaths = (0..2).map(|_| id()).collect();
        (joins, moves, deaths)
    }

    /// 200 random endpoint pairs (dead nodes and joiners included) route to
    /// the same `Result` on `refreshed` as on a transport of `kind` built
    /// fresh over `topology`.
    fn assert_routes_like_fresh(
        refreshed: &mut dyn Transport,
        topology: &Topology,
        kind: TransportKind,
        method: Planarization,
        rng: &mut StdRng,
    ) {
        let mut fresh = kind.build(topology, method);
        let n = topology.len() as u32;
        for _ in 0..200 {
            let (from, to) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            assert_eq!(
                refreshed.route_to_node(topology, from, to),
                fresh.route_to_node(topology, from, to),
                "{kind} {method:?}: {from} -> {to}"
            );
            let target = topology.position(to);
            assert_eq!(
                refreshed.route_to_location(topology, from, target),
                fresh.route_to_location(topology, from, target),
                "{kind} {method:?}: {from} -> {target}"
            );
        }
    }

    /// After every refresh the ledger and clock address every node, joiners
    /// included, and a delivery from the newest one is charged.
    fn assert_joiners_addressable(transport: &mut dyn Transport, topology: &Topology) {
        assert_eq!(transport.ledger().stats().per_node().len(), topology.len());
        assert_eq!(transport.clock().tx_counts().len(), topology.len());
        let joiner = NodeId(topology.len() as u32 - 1);
        if let Some(&nb) = topology.neighbors(joiner).iter().find(|&&nb| nb != PAUSED) {
            let before = transport.ledger().total_messages();
            assert!(transport.deliver(topology, &[joiner, nb], TrafficLayer::Insert).delivered);
            assert_eq!(transport.ledger().total_messages(), before + 1);
        }
    }

    #[test]
    fn refreshed_substrates_route_like_fresh_ones() {
        for method in METHODS {
            let mut rng = StdRng::seed_from_u64(61);
            let mut topology = deployed(61);
            let mut gpsr = GpsrTransport::new(&topology, method);
            let mut cached = CachedTransport::new(&topology, method);
            for epoch in 1..=4u64 {
                let (joins, moves, deaths) = batch(&topology, &mut rng);
                let mut mirror = topology.clone();
                let change =
                    apply_change(&mut topology, &mut gpsr, &joins, &moves, &deaths).unwrap();
                assert_eq!(
                    apply_change(&mut mirror, &mut cached, &joins, &moves, &deaths).unwrap(),
                    change
                );
                assert_eq!(topology.patched_rows(), 0);
                assert!(
                    !change.dirty.is_empty() && change.dirty.len() < topology.len() / 2,
                    "some rows are recomputed and most are carried over"
                );
                assert_eq!(gpsr.generation(), epoch);
                assert_eq!(cached.generation(), epoch);
                assert_eq!(cached.cached_routes(), 0, "the memo is emptied every refresh");
                assert_eq!(
                    gpsr.gpsr().planar(),
                    pool_gpsr::Gpsr::new(&topology, method).planar(),
                    "{method:?}: refreshed rows differ from a full build"
                );
                assert_routes_like_fresh(
                    &mut gpsr,
                    &topology,
                    TransportKind::Gpsr,
                    method,
                    &mut rng,
                );
                assert_routes_like_fresh(
                    &mut cached,
                    &topology,
                    TransportKind::Cached,
                    method,
                    &mut rng,
                );
                assert!(cached.cached_routes() > 0, "routes memoize again after the refresh");
                assert_joiners_addressable(&mut gpsr, &topology);
                assert_joiners_addressable(&mut cached, &topology);
            }
        }
    }

    /// The decorator forwards the refresh to its substrate and forgets its
    /// adaptive state, exactly as it does for a rebuild.
    #[test]
    fn faulty_wrapper_forwards_the_refresh_and_resets_adaptive_state() {
        let method = Planarization::Gabriel;
        let mut rng = StdRng::seed_from_u64(62);
        let mut topology = deployed(62);
        // A paused relay gives the decorator a suspicion to forget.
        let plan = FaultPlan::new().with(Fault::Pause { node: PAUSED, from: 0.0, until: 1e9 });
        let mut faulty = FaultyTransport::wrap_adaptive(
            TransportKind::Cached.build(&topology, method),
            LossyConfig::fixed(1.0, 62),
            plan,
            RecoveryConfig::default(),
        );
        let mut planted = 0;
        for epoch in 1..=3u64 {
            if let Some(&nb) = topology.neighbors(PAUSED).first() {
                planted += 1;
                for _ in 0..RecoveryConfig::default().suspect_after {
                    assert!(
                        !faulty.deliver(&topology, &[nb, PAUSED], TrafficLayer::Forward).delivered
                    );
                }
                assert!(faulty.adaptive().expect("adaptive wrapper").is_suspect(PAUSED));
            }
            let (joins, moves, deaths) = batch(&topology, &mut rng);
            apply_change(&mut topology, &mut faulty, &joins, &moves, &deaths).unwrap();
            assert_eq!(faulty.generation(), epoch);
            assert_eq!(faulty.adaptive().expect("adaptive wrapper").suspects().count(), 0);
            assert_routes_like_fresh(
                &mut faulty,
                &topology,
                TransportKind::Cached,
                method,
                &mut rng,
            );
            assert_joiners_addressable(&mut faulty, &topology);
        }
        assert!(planted > 0, "the paused relay was reachable at least once");
    }

    /// `rebuild` is the refresh with every row dirty: it lands on the same
    /// graph from any starting point, including an unrelated topology.
    #[test]
    fn rebuild_is_the_all_dirty_refresh() {
        let method = Planarization::Gabriel;
        let mut rng = StdRng::seed_from_u64(63);
        let (elsewhere, topology) = (deployed(63), deployed(64));
        let mut cached = CachedTransport::new(&elsewhere, method);
        cached.rebuild(&topology);
        assert_eq!(cached.generation(), 1);
        assert_routes_like_fresh(&mut cached, &topology, TransportKind::Cached, method, &mut rng);
    }

    #[test]
    fn unknown_ids_are_refused_before_anything_is_written() {
        let mut topology = deployed(65);
        let mut transport = GpsrTransport::new(&topology, Planarization::Gabriel);
        let joins = [Point::new(5.0, 5.0)];
        let moves = [(NodeId(0), Point::new(9.0, 9.0)), (NodeId(900), Point::new(1.0, 1.0))];
        let err = apply_change(&mut topology, &mut transport, &joins, &moves, &[NodeId(999)]);
        assert_eq!(
            err,
            Err(UnknownNode { node: NodeId(900), nodes: NODES + 1 }),
            "moves come first"
        );
        let err = apply_failures(&mut topology, &mut transport, &[NodeId(3), NodeId(500)]);
        assert_eq!(err, Err(UnknownNode { node: NodeId(500), nodes: NODES }));
        assert_eq!(topology.len(), NODES);
        assert_eq!(topology.alive_count(), NODES);
        assert_eq!(topology.patched_rows(), 0);
        assert_eq!(transport.generation(), 0);
        // A joiner's id is known to the same batch's moves and deaths.
        let change =
            apply_change(&mut topology, &mut transport, &joins, &[], &[NodeId(500)]).unwrap();
        assert_eq!(change.victims, vec![NodeId(500)]);
    }

    #[test]
    fn killing_only_corpses_touches_nothing() {
        let mut topology = deployed(66);
        let mut transport = GpsrTransport::new(&topology, Planarization::Gabriel);
        let first = apply_failures(&mut topology, &mut transport, &[NodeId(8), NodeId(8)])
            .unwrap()
            .expect("a live victim");
        assert_eq!(first.victims, vec![NodeId(8)]);
        assert_eq!(transport.generation(), 1);
        assert_eq!(apply_failures(&mut topology, &mut transport, &[NodeId(8)]), Ok(None));
        assert_eq!(apply_failures(&mut topology, &mut transport, &[]), Ok(None));
        assert_eq!(transport.generation(), 1, "no refresh without a victim");
    }
}
