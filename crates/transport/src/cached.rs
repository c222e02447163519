//! The memoizing transport: GPSR routes cached per endpoint pair.

use crate::clock::{LatencyModel, VirtualClock};
use crate::lru::{CacheStats, ShardedLru};
use crate::{Leg, TrafficLedger, Transport, TransportKind};
use pool_gpsr::{Gpsr, Planarization, Route, RouteError};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::sync::Arc;

/// Memo key: either a node-addressed or a location-addressed route.
///
/// Location targets are keyed by their coordinate bit patterns, so two
/// targets memoize to the same route only when they are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RouteKey {
    /// `route_to_node(from, to)`.
    Node(NodeId, NodeId),
    /// `route_to_location(from, target)` with `target` as raw f64 bits.
    Location(NodeId, u64, u64),
}

/// Default memo capacity: 64k routes (a few MiB of path data) covers the
/// full working set of every paper workload while bounding the worst case.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A [`Transport`] that memoizes delivered GPSR routes.
///
/// GPSR is deterministic over a fixed planar graph, so the route between a
/// given endpoint pair never changes until the topology does. Repeated
/// query workloads (the fig. 6/7 experiments re-route sink → splitter →
/// index node for every query) therefore pay the face-traversal cost once
/// per pair; subsequent lookups are a memo hit returning the shared
/// [`Arc<Route>`]. Memoized are the `Ok` routes to a location and to a node
/// that is not a radio neighbour of the source.
///
/// The memo is a bounded [`ShardedLru`] rather than an unbounded map: on an
/// n-node deployment there are O(n²) endpoint pairs, which at 100k nodes
/// would otherwise grow without limit. When the memo is full the least
/// recently used route in the key's shard is evicted (counted in
/// [`CachedTransport::hit_stats`]); an evicted route is simply recomputed
/// on its next use, so eviction affects wall-clock only — message and
/// latency accounting are identical at any capacity.
///
/// Admission: a node-addressed route whose destination is in the source's
/// neighbour row ([`Topology::are_neighbors`]) never probes or enters the
/// memo. Where the router answers it by construction
/// ([`Gpsr::routes_directly`]: distance-greedy, no coincident nodes) such a
/// lookup is [`Leg::Hop`] — two node ids, no scan, no allocation, nothing a
/// memo could serve faster. Otherwise GPSR computes it, and it is still one
/// greedy step. Storing one-hop routes would only push multi-hop routes,
/// which cost microseconds to recompute, towards eviction (`dim_cold_100k`'s
/// owner chains are ~85 % one-hop legs). These lookups are counted by
/// [`CachedTransport::bypassed`], not in [`CachedTransport::hit_stats`]:
/// `hits + misses` is the number of lookups that consulted the memo, and
/// `hits + misses + bypassed` the number of lookups.
///
/// Invalidation: [`Transport::refresh`] clears the memo and bumps the
/// generation counter, so no route ever crosses a topology change.
/// Only `Ok` routes are cached — errors are recomputed, keeping failure
/// semantics identical to [`crate::GpsrTransport`]. Charging is unaffected:
/// a cache hit is charged exactly like a fresh route.
#[derive(Debug, Clone)]
pub struct CachedTransport {
    gpsr: Gpsr,
    ledger: TrafficLedger,
    clock: VirtualClock,
    generation: u64,
    routes: ShardedLru<RouteKey, Arc<Route>>,
    hits: u64,
    misses: u64,
    bypassed: u64,
}

impl CachedTransport {
    /// Builds the transport over `topology` with the default memo capacity
    /// (65 536 routes).
    pub fn new(topology: &Topology, planarization: Planarization) -> Self {
        Self::with_capacity(topology, planarization, DEFAULT_CAPACITY)
    }

    /// Builds the transport with a memo bounded to `capacity` routes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(
        topology: &Topology,
        planarization: Planarization,
        capacity: usize,
    ) -> Self {
        CachedTransport {
            gpsr: Gpsr::new(topology, planarization),
            ledger: TrafficLedger::new(topology.nodes().len()),
            clock: VirtualClock::new(topology.nodes().len(), LatencyModel::default()),
            generation: 0,
            routes: ShardedLru::new(capacity),
            hits: 0,
            misses: 0,
            bypassed: 0,
        }
    }

    /// Number of memoized routes (node-addressed + location-addressed);
    /// never exceeds [`CachedTransport::capacity`].
    pub fn cached_routes(&self) -> usize {
        self.routes.len()
    }

    /// The memo's route capacity bound.
    pub fn capacity(&self) -> usize {
        self.routes.capacity()
    }

    /// Hit/miss/eviction counters of the memo since construction (not reset
    /// by refresh). Lookups that never consulted it are
    /// [`CachedTransport::bypassed`].
    pub fn hit_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses, evictions: self.routes.evictions() }
    }

    /// Node-addressed lookups since construction that were answered without
    /// consulting the memo, because the destination was a radio neighbour
    /// of the source.
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Number of memoized routes whose path traverses `node` (test and
    /// diagnostics hook for targeted invalidation).
    pub fn routes_through(&mut self, node: NodeId) -> usize {
        let mut count = 0;
        self.routes.retain(|_, route| {
            if route.path.contains(&node) {
                count += 1;
            }
            true
        });
        count
    }

    /// The memoized route for `key`, computing and storing it on a miss.
    /// A route grows by doubling while it is computed; the memo keeps it
    /// for as long as the topology stands, so it is stored at exact size.
    fn memoized(
        &mut self,
        key: RouteKey,
        compute: impl FnOnce(&Gpsr) -> Result<Route, RouteError>,
    ) -> Result<Arc<Route>, RouteError> {
        if let Some(route) = self.routes.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(route));
        }
        self.misses += 1;
        let mut route = compute(&self.gpsr)?;
        route.path.shrink_to_fit();
        let route = Arc::new(route);
        self.routes.insert(key, Arc::clone(&route));
        Ok(route)
    }
}

impl Transport for CachedTransport {
    fn route_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Arc<Route>, RouteError> {
        self.leg_to_node(topology, from, to).map(Leg::into_route)
    }

    fn leg_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Leg, RouteError> {
        if !topology.are_neighbors(from, to) {
            let route = self
                .memoized(RouteKey::Node(from, to), |gpsr| gpsr.route_to_node(topology, from, to));
            return route.map(Leg::Route);
        }
        self.bypassed += 1;
        if self.gpsr.routes_directly(topology, from, to) {
            return Ok(Leg::Hop([from, to]));
        }
        self.gpsr.route_to_node(topology, from, to).map(|route| Leg::Route(Arc::new(route)))
    }

    fn route_to_location(
        &mut self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Arc<Route>, RouteError> {
        let key = RouteKey::Location(from, target.x.to_bits(), target.y.to_bits());
        self.memoized(key, |gpsr| gpsr.route(topology, from, target))
    }

    fn route_to_node_avoiding(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Arc<Route>, RouteError> {
        // Detour routes describe a transient suspicion, never the
        // topology — they bypass the memo entirely.
        self.gpsr.route_to_node_avoiding(topology, from, to, excluded).map(Arc::new)
    }

    fn evict_routes_through(&mut self, node: NodeId) -> u64 {
        // Targeted invalidation: drop exactly the memoized routes crossing
        // `node`, not the whole generation. Cheaper than a rebuild and
        // cost-neutral — an evicted route is recomputed identically.
        self.routes.retain(|_, route| !route.path.contains(&node)) as u64
    }

    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        self.gpsr.refresh(topology, dirty);
        self.routes.clear();
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
        TransportKind::Cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpsrTransport;
    use pool_gpsr::GreedyMetric;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::geometry::COINCIDENT_SQ;
    use pool_netsim::node::Node;

    fn setup(seed: u64) -> Topology {
        let deployment = Deployment::paper_setting(200, 40.0, 20.0, seed).expect("deployment");
        Topology::build(deployment.nodes(), 40.0).expect("topology")
    }

    /// A location inside the field and off every node, so delivery there is
    /// by home-node perimeter tour.
    fn off_node_target(i: usize) -> Point {
        Point::new((i * 13 % 40) as f64 + 0.37, (i * 29 % 20) as f64 + 0.61)
    }

    #[test]
    fn cache_hit_returns_identical_route() {
        let topology = setup(5);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let (a, b) = (topology.nodes()[0].id, topology.nodes()[150].id);
        let first = cached.route_to_node(&topology, a, b).expect("route");
        let second = cached.route_to_node(&topology, a, b).expect("route");
        assert_eq!(first.path, second.path);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the memoized route");
        assert_eq!(cached.hit_stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cached.cached_routes(), 1);
    }

    /// Node- and location-addressed routes, through a miss and then a
    /// hit (two bypasses for a neighbour pair), equal a fresh
    /// `GpsrTransport`'s.
    #[test]
    fn cached_routes_match_fresh_gpsr() {
        let topology = setup(9);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let mut fresh = GpsrTransport::new(&topology, Planarization::Gabriel);
        let nodes = topology.nodes();
        let mut neighbour_pairs = 0;
        for i in (0..nodes.len()).step_by(17) {
            let (a, b) = (nodes[i].id, nodes[(i * 7 + 3) % nodes.len()].id);
            neighbour_pairs += u64::from(topology.are_neighbors(a, b));
            let via_gpsr = fresh.route_to_node(&topology, a, b);
            assert_eq!(cached.route_to_node(&topology, a, b), via_gpsr);
            assert_eq!(cached.route_to_node(&topology, a, b), via_gpsr);
            let target = off_node_target(i);
            let via_gpsr = fresh.route_to_location(&topology, a, target);
            assert_eq!(cached.route_to_location(&topology, a, target), via_gpsr);
            assert_eq!(cached.route_to_location(&topology, a, target), via_gpsr);
        }
        let stats = cached.hit_stats();
        assert!(neighbour_pairs > 0 && stats.hits > 0, "both admission outcomes are exercised");
        assert_eq!(stats.hits, stats.misses, "every memoized lookup ran once as each");
        assert_eq!(cached.bypassed(), 2 * neighbour_pairs);
    }

    /// A route to a radio neighbour is computed every time: it neither
    /// probes nor enters the memo, and is counted apart from its probes.
    #[test]
    fn neighbour_routes_bypass_the_memo_and_are_counted_apart() {
        let topology = setup(5);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let mut fresh = GpsrTransport::new(&topology, Planarization::Gabriel);
        let far = cached.route_to_node(&topology, NodeId(0), NodeId(150)).expect("route");
        assert!(far.hops() > 1);
        let (a, b) = (NodeId(0), topology.neighbors(NodeId(0))[0]);
        let before = (cached.cached_routes(), cached.hit_stats());
        let want = fresh.route_to_node(&topology, a, b);
        assert_eq!(want.as_ref().map(|r| r.hops()), Ok(1));
        assert_eq!(cached.route_to_node(&topology, a, b), want);
        assert_eq!(cached.route_to_node(&topology, a, b), want);
        assert_eq!(cached.cached_routes(), before.0);
        assert_eq!(cached.hit_stats(), before.1, "the memo was not consulted");
        assert_eq!(cached.bypassed(), 2);
        assert_eq!(cached.routes_through(b), usize::from(far.path.contains(&b)));
    }

    /// The greedy/perimeter scan `Gpsr::route_to_node` runs when it cannot
    /// answer by construction: route to `to`'s position, then check where
    /// the packet stopped.
    fn scanned_route(
        gpsr: &Gpsr,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Route, RouteError> {
        let route = gpsr.route(topology, from, topology.position(to))?;
        if route.delivered != to {
            return Err(RouteError::NotDelivered { to, delivered: route.delivered });
        }
        Ok(route)
    }

    /// Every adjacent pair of `topology`: `Gpsr::route_to_node` and
    /// `cached`'s route and leg must all be the scan's answer, `Ok` and
    /// `Err` alike, with nothing stored, and a leg is [`Leg::Hop`] exactly
    /// when the router answers neighbours directly. The co-location flag
    /// must be up whenever two live nodes stand within the tolerance, and
    /// the other greedy metrics must never take the rule. Returns how many
    /// answers were errors.
    fn check_every_adjacent_pair(topology: &Topology, cached: &mut CachedTransport) -> usize {
        let live: Vec<&Node> =
            topology.nodes().iter().filter(|n| topology.is_alive(n.id)).collect();
        let coincident = live.iter().enumerate().any(|(i, a)| {
            live[i + 1..].iter().any(|b| a.position.distance_sq(b.position) < COINCIDENT_SQ)
        });
        assert!(!coincident || topology.has_coincident_nodes(), "a coincident pair went unflagged");
        let reference = Gpsr::new(topology, Planarization::Gabriel);
        let direct = !topology.has_coincident_nodes();
        let others = [GreedyMetric::MostForward, GreedyMetric::Compass]
            .map(|metric| Gpsr::new(topology, Planarization::Gabriel).with_metric(metric));
        let before = (cached.hit_stats(), cached.bypassed());
        let (mut pairs, mut errors, mut detours) = (0, 0, 0);
        for a in topology.nodes() {
            for &b in topology.neighbors(a.id) {
                let want = scanned_route(&reference, topology, a.id, b);
                assert_eq!(reference.routes_directly(topology, a.id, b), direct);
                assert_eq!(reference.route_to_node(topology, a.id, b), want, "{} -> {b}", a.id);
                let leg = cached.leg_to_node(topology, a.id, b);
                assert_eq!(matches!(leg, Ok(Leg::Hop(_))), direct, "{} -> {b}", a.id);
                let want = want.map(Arc::new);
                assert_eq!(leg.map(Leg::into_route), want, "{} -> {b}", a.id);
                assert_eq!(cached.route_to_node(topology, a.id, b), want, "{} -> {b}", a.id);
                for gpsr in &others {
                    assert!(!gpsr.routes_directly(topology, a.id, b));
                    let scanned = scanned_route(gpsr, topology, a.id, b);
                    detours += usize::from(scanned.as_ref().map_or(true, |r| r.hops() > 1));
                    assert_eq!(gpsr.route_to_node(topology, a.id, b), scanned);
                }
                pairs += 2;
                errors += usize::from(want.is_err());
            }
        }
        assert!(detours > 0, "some neighbour must be reached otherwise under another metric");
        assert_eq!(cached.cached_routes(), 0, "neighbour routes are never stored");
        assert_eq!((cached.hit_stats(), cached.bypassed()), (before.0, before.1 + pairs));
        errors
    }

    /// Oracle for the one-hop rule and the memo bypass, on three random
    /// topologies: as built, after joins, moves and deaths written in place
    /// and left uncompacted (so the neighbour test reads overlay rows), and
    /// with nodes placed exactly on, or within 1e-10 m of, another node —
    /// where a packet for one is delivered at whichever the walk meets
    /// first, and the rule must stand aside.
    #[test]
    fn neighbour_bypass_matches_gpsr_on_every_adjacent_pair() {
        let mut errors = 0;
        for seed in [31, 32, 33] {
            let base = setup(seed);
            assert!(!base.has_coincident_nodes());
            let mut cached = CachedTransport::new(&base, Planarization::Gabriel);
            assert_eq!(check_every_adjacent_pair(&base, &mut cached), 0);

            let at = |topology: &Topology, id: u32| topology.position(NodeId(id));
            let nudged = |p: Point, by: f64| Point::new(p.x + by, p.y + by);
            let mut churned = base.clone();
            churned.add_node(Point::new(3.3, 4.4));
            churned.move_node(NodeId(20), nudged(at(&churned, 21), 0.5));
            churned.fail_nodes(&[NodeId(5), NodeId(40)]);
            assert!(churned.patched_rows() > 0, "the overlay must still be in use");
            assert!(!churned.has_coincident_nodes());
            cached.rebuild(&churned);
            assert_eq!(check_every_adjacent_pair(&churned, &mut cached), 0);

            // Co-located by churn, one writer at a time: a joiner on node 7,
            // node 11 onto node 12, node 30 within 1e-10 m of node 31.
            let colocations: [&dyn Fn(&mut Topology); 3] = [
                &|t| {
                    t.add_node(at(t, 7));
                },
                &|t| t.move_node(NodeId(11), at(t, 12)),
                &|t| t.move_node(NodeId(30), nudged(at(t, 31), 1e-10)),
            ];
            for colocate in colocations {
                let mut topology = churned.clone();
                colocate(&mut topology);
                cached.rebuild(&topology);
                errors += check_every_adjacent_pair(&topology, &mut cached);
            }

            // Co-located as built: a twin exactly on node 3, then twins
            // 1e-10 m off nodes 8 and 9.
            for twins in [&[(3, 0.0)][..], &[(8, 1e-10), (9, -1e-10)]] {
                let mut nodes = base.nodes().to_vec();
                for &(of, by) in twins {
                    let id = NodeId(nodes.len() as u32);
                    nodes.push(Node::new(id, nudged(nodes[of].position, by)));
                }
                let built = Topology::build(nodes, 40.0).expect("topology");
                let mut cached = CachedTransport::new(&built, Planarization::Gabriel);
                errors += check_every_adjacent_pair(&built, &mut cached);
            }
        }
        assert!(errors > 0, "co-located endpoints must exercise the error answer");
    }

    /// A route is computed into a doubling `Vec` and then kept for as long
    /// as the topology stands: the memo must hold it without the slack.
    #[test]
    fn memoized_paths_hold_no_slack() {
        let topology = setup(9);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let nodes = topology.nodes();
        for i in (0..nodes.len()).step_by(11) {
            let (a, b) = (nodes[i].id, nodes[(i * 7 + 3) % nodes.len()].id);
            let target = off_node_target(i);
            let to_node = cached.route_to_node(&topology, a, b).expect("route");
            let to_location = cached.route_to_location(&topology, a, target).expect("route");
            for route in [to_node, to_location] {
                assert_eq!(route.path.capacity(), route.path.len(), "{:?}", route.path);
            }
        }
        assert!(cached.cached_routes() > 0);
    }

    #[test]
    fn location_routes_are_memoized_per_target_bits() {
        let topology = setup(3);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let from = topology.nodes()[0].id;
        let target = Point::new(31.0, 12.5);
        let first = cached.route_to_location(&topology, from, target).expect("route");
        let second = cached.route_to_location(&topology, from, target).expect("route");
        assert!(Arc::ptr_eq(&first, &second));
        let other = cached.route_to_location(&topology, from, Point::new(31.0, 12.6));
        assert!(other.is_ok());
        assert_eq!(cached.cached_routes(), 2);
    }

    #[test]
    fn rebuild_clears_memo_and_bumps_generation() {
        let topology = setup(7);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let (a, b) = (topology.nodes()[1].id, topology.nodes()[99].id);
        let _ = cached.route_to_node(&topology, a, b);
        assert_eq!(cached.cached_routes(), 1);
        assert_eq!(cached.generation(), 0);
        cached.rebuild(&topology);
        assert_eq!(cached.cached_routes(), 0);
        assert_eq!(cached.generation(), 1);
    }

    /// Satellite regression: joins and moves invalidate the memo just like
    /// failures do. After a route-interior node moves away, the refreshed
    /// route must use only links that exist in the *new* topology — no
    /// stale route ever crosses a moved-away link.
    #[test]
    fn rebuild_after_join_and_move_leaves_no_stale_links() {
        let topology = setup(13);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let (a, b) = (topology.nodes()[2].id, topology.nodes()[170].id);
        let stale = cached.route_to_node(&topology, a, b).expect("route");
        assert!(stale.path.len() > 2, "endpoints must not be direct neighbors");

        // A join grows the network and must bump the generation.
        let (grown, joiner) = topology.with_node(Point::new(5.0, 5.0));
        cached.rebuild(&grown);
        assert_eq!(cached.generation(), 1);
        assert_eq!(cached.cached_routes(), 0, "join must clear the memo");
        assert_eq!(cached.ledger().nodes(), grown.len());
        assert_eq!(cached.clock().rx_counts().len(), grown.len());
        // The joiner is routable immediately.
        cached.route_to_node(&grown, joiner, b).expect("route from joiner");

        // Move a route-interior relay far outside radio range of its old
        // neighborhood: every link it carried is now dead.
        let relay = stale.path[stale.path.len() / 2];
        let moved = grown.with_moved_node(relay, Point::new(-500.0, -500.0));
        cached.rebuild(&moved);
        assert_eq!(cached.generation(), 2, "move must bump the generation");
        assert_eq!(cached.cached_routes(), 0, "move must clear the memo");
        let fresh = cached.route_to_node(&moved, a, b).expect("route after move");
        for w in fresh.path.windows(2) {
            assert!(
                w[0] == w[1] || moved.are_neighbors(w[0], w[1]),
                "route crosses a link that no longer exists: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(!fresh.path.contains(&relay), "the moved-away relay cannot appear on the route");
    }

    #[test]
    fn charging_through_cache_matches_reference() {
        use crate::TrafficLayer;
        let topology = setup(11);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let mut fresh = GpsrTransport::new(&topology, Planarization::Gabriel);
        let (a, b) = (topology.nodes()[4].id, topology.nodes()[180].id);
        for _ in 0..3 {
            let rc = cached.route_to_node(&topology, a, b).expect("route");
            cached.deliver(&topology, &rc.path, TrafficLayer::Forward);
            let rg = fresh.route_to_node(&topology, a, b).expect("route");
            fresh.deliver(&topology, &rg.path, TrafficLayer::Forward);
        }
        assert_eq!(cached.ledger(), fresh.ledger());
        assert_eq!(cached.clock(), fresh.clock());
    }

    /// Eviction must never change what a route *costs* — only whether it
    /// was recomputed. A capacity-1 cache thrashes on every alternating
    /// pair, so it exercises the eviction path constantly; its routes,
    /// ledger, and clock must still match the reference transport exactly.
    #[test]
    fn capacity_one_cache_matches_reference_costs_exactly() {
        use crate::TrafficLayer;
        let topology = setup(17);
        let mut cached = CachedTransport::with_capacity(&topology, Planarization::Gabriel, 1);
        let mut fresh = GpsrTransport::new(&topology, Planarization::Gabriel);
        let nodes = topology.nodes();
        let pairs: Vec<(NodeId, NodeId)> =
            (0..8).map(|i| (nodes[i * 13].id, nodes[(i * 31 + 57) % nodes.len()].id)).collect();
        for round in 0..3 {
            for &(a, b) in &pairs {
                let layer =
                    if round % 2 == 0 { TrafficLayer::Forward } else { TrafficLayer::Insert };
                match (cached.route_to_node(&topology, a, b), fresh.route_to_node(&topology, a, b))
                {
                    (Ok(rc), Ok(rg)) => {
                        assert_eq!(rc.path, rg.path);
                        cached.deliver(&topology, &rc.path, layer);
                        fresh.deliver(&topology, &rg.path, layer);
                    }
                    (Err(ec), Err(eg)) => assert_eq!(ec, eg),
                    (c, g) => panic!("capacity-1 cache diverged: {c:?} vs {g:?}"),
                }
                assert!(cached.cached_routes() <= 1);
            }
        }
        assert_eq!(cached.ledger(), fresh.ledger());
        assert_eq!(cached.clock(), fresh.clock());
        let stats = cached.hit_stats();
        assert!(stats.evictions > 0, "alternating pairs must thrash a capacity-1 memo");
    }

    /// Satellite regression: a failed delivery through a dead relay must
    /// evict exactly the memoized routes crossing it — other memos survive.
    #[test]
    fn evict_routes_through_is_targeted() {
        let topology = setup(19);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let nodes = topology.nodes();
        let (a, b) = (nodes[0].id, nodes[190].id);
        let victim_route = cached.route_to_node(&topology, a, b).expect("route");
        assert!(victim_route.path.len() > 2);
        let relay = victim_route.path[victim_route.path.len() / 2];
        // Memoize a second route that avoids the relay entirely.
        let (c, d) = nodes
            .iter()
            .flat_map(|x| nodes.iter().map(move |y| (x.id, y.id)))
            .find(|&(x, y)| {
                x != y
                    && cached
                        .gpsr
                        .route_to_node(&topology, x, y)
                        .map(|r| r.path.len() > 2 && !r.path.contains(&relay))
                        .unwrap_or(false)
            })
            .expect("some route avoids the relay");
        cached.route_to_node(&topology, c, d).expect("route");
        assert_eq!(cached.cached_routes(), 2);
        assert_eq!(cached.routes_through(relay), 1);

        let evicted = cached.evict_routes_through(relay);
        assert_eq!(evicted, 1, "exactly the route crossing the relay is dropped");
        assert_eq!(cached.cached_routes(), 1);
        assert_eq!(cached.routes_through(relay), 0);
        assert_eq!(cached.generation(), 0, "targeted eviction is not a rebuild");
        // The surviving memo still hits.
        let before = cached.hit_stats().hits;
        cached.route_to_node(&topology, c, d).expect("route");
        assert_eq!(cached.hit_stats().hits, before + 1);
    }

    /// Detour routes bypass the memo and avoid the excluded node.
    #[test]
    fn detour_routes_avoid_exclusions_and_are_not_memoized() {
        let topology = setup(23);
        let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
        let (a, b) = (topology.nodes()[0].id, topology.nodes()[195].id);
        let direct = cached.route_to_node(&topology, a, b).expect("route");
        assert!(direct.path.len() > 2);
        let relay = direct.path[direct.path.len() / 2];
        let memo_before = cached.cached_routes();
        match cached.route_to_node_avoiding(&topology, a, b, &[relay]) {
            Ok(detour) => {
                assert!(!detour.path.contains(&relay), "detour must avoid the exclusion");
                assert_eq!(detour.delivered, b);
            }
            Err(_) => {
                // The exclusion may genuinely disconnect the endpoints;
                // what matters is that nothing stale was served or stored.
            }
        }
        assert_eq!(cached.cached_routes(), memo_before, "detours are never memoized");
    }

    /// Acceptance soak: a small topology, a million lookups over more
    /// distinct keys than the memo holds. The memo must stay within its
    /// capacity bound the whole way and report the overflow as evictions.
    #[test]
    fn soak_million_lookups_stays_within_capacity() {
        let deployment = Deployment::paper_setting(100, 40.0, 20.0, 21).expect("deployment");
        let topology = Topology::build(deployment.nodes(), 40.0).expect("topology");
        let capacity = 512;
        let mut cached =
            CachedTransport::with_capacity(&topology, Planarization::Gabriel, capacity);
        let n = topology.nodes().len();
        // 100 nodes give ~10k endpoint pairs plus location keys — far more
        // distinct keys than 512 slots.
        for i in 0..1_000_000u64 {
            let from = topology.nodes()[(i * 7 % n as u64) as usize].id;
            if i % 4 == 0 {
                let target = Point::new((i % 39) as f64 + 0.5, (i % 19) as f64 + 0.25);
                let _ = cached.route_to_location(&topology, from, target);
            } else {
                let to = topology.nodes()[((i * 13 + 5) % n as u64) as usize].id;
                let _ = cached.route_to_node(&topology, from, to);
            }
            debug_assert!(cached.cached_routes() <= capacity);
        }
        assert!(cached.cached_routes() <= capacity, "memo exceeded its bound");
        let stats = cached.hit_stats();
        assert_eq!(stats.hits + stats.misses + cached.bypassed(), 1_000_000);
        assert!(cached.bypassed() > 0, "a 100-node network has adjacent endpoint pairs");
        assert!(stats.evictions > 0, "soak must overflow a 512-route memo");
        assert!(stats.hits > 0, "the working set revisits keys; some must hit");
    }
}
