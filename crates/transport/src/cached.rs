//! The memoizing transport: GPSR routes cached per endpoint pair.

use crate::clock::{LatencyModel, VirtualClock};
use crate::lru::{CacheStats, ShardedLru};
use crate::{Leg, TrafficLedger, Transport, TransportKind};
use pool_gpsr::{Gpsr, Planarization, Route, RouteError};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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

/// Default memo capacity: 64k routes covers the full working set of every
/// paper workload while bounding the worst case. A memoized route costs its
/// path (4 B per node), a 48 B `Route` behind a 16 B `Arc` header, and
/// ~80 B of LRU slab and map slot: `capacity × (4·(hops + 1) + 144)` bytes,
/// ~28 MB at the ~72 hops of a cold 100k-node route (~23 MB of it routes).
/// The suffix index beside it holds at most `capacity` 8-byte entries in
/// at most as many per-target tables, and pins at most one route per entry
/// — routes the memo may since have evicted, so in the worst case the index
/// keeps as many paths alive again.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// An all-greedy route records, in the suffix index, the nodes of its
/// walked prefix whose remaining hop count is a positive multiple of this.
/// That count is a property of the node (the length of `route(node,
/// target)`), so a walk that merges into a recorded route meets an entry
/// within `SPLICE_STRIDE - 1` steps.
const SPLICE_STRIDE: usize = 8;

/// Hashes a node id, the suffix index's only key: a 64×64→128-bit multiply
/// folded to 64 bits, which spreads the id over the low bits that pick a
/// bucket and the high bits that tag it. SipHash's keyed rounds cost as
/// much as the splice saves; nothing here needs DoS resistance.
#[derive(Debug, Clone, Copy, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(x ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by node id under [`FoldHasher`].
type NodeMap<V> = HashMap<u32, V, BuildHasherDefault<FoldHasher>>;

/// `path[offset..]` for the offset at which `node` was recorded: one whose
/// remaining hop count is a positive multiple of [`SPLICE_STRIDE`].
fn recorded_suffix(path: &[NodeId], node: NodeId) -> Option<&[NodeId]> {
    let hops = path.len() - 1;
    let offset = (hops % SPLICE_STRIDE..hops).step_by(SPLICE_STRIDE).find(|&i| path[i] == node)?;
    Some(&path[offset..])
}

/// The shared suffixes of node-addressed routes, one table per target.
///
/// An entry `node → pin` in `target`'s table says that the suffix of
/// `pins[pin]` from `node` ([`recorded_suffix`]) is `route(node, target's
/// position)`: the rest of an all-greedy route from a node it reached in
/// greedy mode. A walk toward the same target that reaches `node` in greedy
/// mode splices that path on ([`Gpsr::route_with`]) instead of walking it.
/// One small table per target keeps a walk's lookups on the few cache
/// lines of its own target's entries.
#[derive(Debug, Clone, Default)]
struct SuffixIndex {
    targets: NodeMap<NodeMap<u32>>,
    pins: Vec<Arc<Route>>,
    /// Entries over all tables.
    entries: usize,
    /// One bit per node id: the targets a route was computed to since the
    /// index was last emptied. A target's first route is walked with no
    /// lookups and not recorded, so targets that never recur (a DIM zone
    /// owner, one insert's) cost neither lookups nor entries.
    seen: Vec<u64>,
    /// Hops appended from the index instead of walked, since construction.
    spliced: u64,
}

impl SuffixIndex {
    /// `gpsr.route_to_node(from, to)`, spliced onto the index wherever the
    /// walk meets it, and how many of its leading hops are new to the
    /// index: the walked ones, or none on a target's first route.
    fn route_to_node(
        &mut self,
        gpsr: &Gpsr,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<(Route, usize), RouteError> {
        let (word, bit) = (to.index() / 64, 1 << (to.index() % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        let first = self.seen[word] & bit == 0;
        self.seen[word] |= bit;
        // Only a seen target has a table. Without one the plain walk runs:
        // the loop `Gpsr` compiled with no lookup in it.
        let Some(table) = self.targets.get(&to.0) else {
            return gpsr.route_to_node(topology, from, to).map(|route| {
                let new = if first { 0 } else { route.hops() };
                (route, new)
            });
        };
        let pins = &self.pins;
        let mut handed = 0;
        let route = gpsr.route_to_node_with(topology, from, to, |at| {
            let rest = recorded_suffix(&pins[*table.get(&at.0)? as usize].path, at)?;
            handed = rest.len() - 1;
            Some((rest, handed, 0))
        })?;
        // Every suffix here is greedy end to end, so one the router
        // declined ends past the hop budget, and so does the walk that
        // declined it: an `Ok` route spliced the last suffix handed to it.
        self.spliced += handed as u64;
        let walked = route.hops() - handed;
        Ok((route, walked))
    }

    /// Records the walked prefix of `route` to `to`, if the route is
    /// greedy end to end, at the nodes `SPLICE_STRIDE` divides the
    /// remaining hop count of. A full index (`cap` entries) starts over.
    fn record(&mut self, to: NodeId, route: &Arc<Route>, walked: usize, cap: usize) {
        if route.perimeter_hops > 0 {
            return;
        }
        let hops = route.hops();
        let offsets = (hops % SPLICE_STRIDE..walked).step_by(SPLICE_STRIDE);
        let new = offsets.len();
        if new == 0 {
            return;
        }
        if self.entries + new > cap {
            self.clear();
            if new > cap {
                return;
            }
        }
        let pin = self.pins.len() as u32;
        let table = self.targets.entry(to.0).or_default();
        for offset in offsets {
            self.entries += usize::from(table.insert(route.path[offset].0, pin).is_none());
        }
        self.pins.push(Arc::clone(route));
    }

    /// Drops every entry whose suffix passes through `node`, and unpins
    /// the routes no entry refers to any more.
    fn evict_through(&mut self, node: NodeId) {
        let pins = &self.pins;
        for table in self.targets.values_mut() {
            table.retain(|&at, pin| {
                recorded_suffix(&pins[*pin as usize].path, NodeId(at))
                    .is_some_and(|rest| !rest.contains(&node))
            });
        }
        self.targets.retain(|_, table| !table.is_empty());
        self.entries = self.targets.values().map(NodeMap::len).sum();
        let mut slot = vec![u32::MAX; self.pins.len()];
        let mut kept = Vec::new();
        for pin in self.targets.values_mut().flat_map(NodeMap::values_mut) {
            if slot[*pin as usize] == u32::MAX {
                slot[*pin as usize] = kept.len() as u32;
                kept.push(Arc::clone(&self.pins[*pin as usize]));
            }
            *pin = slot[*pin as usize];
        }
        self.pins = kept;
    }

    fn clear(&mut self) {
        self.targets.clear();
        self.pins.clear();
        self.entries = 0;
        self.seen.fill(0);
    }
}

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
/// ([`Gpsr::routes_directly`]: no coincident nodes) such a
/// lookup is [`Leg::Hop`] — two node ids, no scan, no allocation, nothing a
/// memo could serve faster. Otherwise GPSR computes it, and it is still one
/// greedy step. Storing one-hop routes would only push multi-hop routes,
/// which cost microseconds to recompute, towards eviction (`dim_cold_100k`'s
/// owner chains are ~85 % one-hop legs). These lookups are counted by
/// [`CachedTransport::bypassed`], not in [`CachedTransport::hit_stats`]:
/// `hits + misses` is the number of lookups that consulted the memo, and
/// `hits + misses + bypassed` the number of lookups.
///
/// Splicing: a memo miss on a node-addressed route walks GPSR with a
/// per-target suffix index ([`Gpsr::route_with`]). Routes to one target
/// share their tails — data-centric storage sends all-to-few traffic — so
/// once the walk reaches, in greedy mode, a node an earlier all-greedy route
/// to the same target recorded, it appends that route's rest instead of
/// walking it. The route is the one the walk would have found, hop for hop;
/// [`CachedTransport::spliced_hops`] counts the hops it did not walk.
///
/// Invalidation: [`Transport::refresh`] clears the memo and the suffix
/// index and bumps the generation counter, so no route ever crosses a
/// topology change.
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
    suffixes: SuffixIndex,
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
            suffixes: SuffixIndex::default(),
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

    /// Hops of node-addressed routes since construction that were appended
    /// from the suffix index instead of walked.
    pub fn spliced_hops(&self) -> u64 {
        self.suffixes.spliced
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
        compute: impl FnOnce(&Gpsr, &mut SuffixIndex) -> Result<Route, RouteError>,
    ) -> Result<Arc<Route>, RouteError> {
        if let Some(route) = self.routes.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(route));
        }
        self.misses += 1;
        let mut route = compute(&self.gpsr, &mut self.suffixes)?;
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
            let mut new = 0;
            let route = self.memoized(RouteKey::Node(from, to), |gpsr, suffixes| {
                let (route, hops) = suffixes.route_to_node(gpsr, topology, from, to)?;
                new = hops;
                Ok(route)
            })?;
            if new > 0 {
                let cap = self.routes.capacity();
                self.suffixes.record(to, &route, new, cap);
            }
            return Ok(Leg::Route(route));
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
        self.memoized(key, |gpsr, _| gpsr.route(topology, from, target))
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
        // cost-neutral — an evicted route is recomputed identically. No
        // suffix through `node` is spliced either.
        self.suffixes.evict_through(node);
        self.routes.retain(|_, route| !route.path.contains(&node)) as u64
    }

    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        self.gpsr.refresh(topology, dirty);
        self.routes.clear();
        self.suffixes.clear();
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
    /// must be up whenever two live nodes stand within the tolerance.
    /// Returns how many answers were errors.
    fn check_every_adjacent_pair(topology: &Topology, cached: &mut CachedTransport) -> usize {
        let live: Vec<&Node> =
            topology.nodes().iter().filter(|n| topology.is_alive(n.id)).collect();
        let coincident = live.iter().enumerate().any(|(i, a)| {
            live[i + 1..].iter().any(|b| a.position.distance_sq(b.position) < COINCIDENT_SQ)
        });
        assert!(!coincident || topology.has_coincident_nodes(), "a coincident pair went unflagged");
        let reference = Gpsr::new(topology, Planarization::Gabriel);
        let direct = !topology.has_coincident_nodes();
        let before = (cached.hit_stats(), cached.bypassed());
        let (mut pairs, mut errors) = (0, 0);
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
                pairs += 2;
                errors += usize::from(want.is_err());
            }
        }
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

    /// Sources drawn at random among live nodes, destinations among
    /// `targets`: every leg and route `cached` answers must be a fresh
    /// `Gpsr::route_to_node`'s, `Ok` and `Err` alike, hop split included,
    /// and the suffix index must stay within its bounds. Returns the
    /// perimeter hops and the errors the reference answered.
    fn check_spliced_routes(
        topology: &Topology,
        cached: &mut CachedTransport,
        targets: &[NodeId],
        seed: u64,
    ) -> (usize, usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let reference = Gpsr::new(topology, Planarization::Gabriel);
        let live: Vec<NodeId> =
            topology.nodes().iter().map(|n| n.id).filter(|&id| topology.is_alive(id)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut perimeter_hops, mut errors) = (0, 0);
        for _ in 0..300 {
            let a = live[rng.gen_range(0..live.len())];
            let b = targets[rng.gen_range(0..targets.len())];
            let want = reference.route_to_node(topology, a, b).map(Arc::new);
            let leg = cached.leg_to_node(topology, a, b).map(Leg::into_route);
            assert_eq!(leg, want, "leg {a} -> {b}");
            assert_eq!(cached.route_to_node(topology, a, b), want, "route {a} -> {b}");
            match want {
                Ok(route) => perimeter_hops += route.perimeter_hops,
                Err(_) => errors += 1,
            }
        }
        let index = &cached.suffixes;
        let (entries, pinned) = (index.entries, index.pins.len());
        assert_eq!(entries, index.targets.values().map(NodeMap::len).sum::<usize>());
        assert!(entries <= cached.capacity(), "{entries} entries over the cap");
        assert!(pinned <= entries, "{pinned} routes pinned by {entries} entries");
        (perimeter_hops, errors)
    }

    /// `count` live nodes of `topology`, drawn with `seed`.
    fn few_targets(topology: &Topology, count: usize, seed: u64) -> Vec<NodeId> {
        let live: Vec<NodeId> =
            topology.nodes().iter().map(|n| n.id).filter(|&id| topology.is_alive(id)).collect();
        (0..count).map(|k| live[(seed as usize * 7919 + k * 104_729) % live.len()]).collect()
    }

    /// Oracle for splicing onto the suffix index: all-to-few routes, as the
    /// storage schemes send them, equal the walk's on a dense field at the
    /// paper's degree (with a memo and index that overflow, too), on a
    /// sparse perimeter-heavy one, after joins, moves and deaths left in
    /// the overlay and a refresh, after a targeted eviction, and with nodes
    /// placed on or within 1e-10 m of another — where some answers are
    /// errors. Some hops must have been spliced.
    #[test]
    fn spliced_routes_match_fresh_gpsr() {
        let field = |n: usize, degree: f64, seed: u64| {
            let deployment = Deployment::paper_setting(n, 40.0, degree, seed).expect("deployment");
            Topology::build(deployment.nodes(), 40.0).expect("topology")
        };
        let (mut perimeter_hops, mut errors, mut spliced) = (0, 0, 0);
        for seed in [41, 42] {
            let dense = field(1000, 20.0, seed);
            let targets = few_targets(&dense, 4, seed);
            let mut cached = CachedTransport::new(&dense, Planarization::Gabriel);
            check_spliced_routes(&dense, &mut cached, &targets, seed);
            let mut small = CachedTransport::with_capacity(&dense, Planarization::Gabriel, 16);
            check_spliced_routes(&dense, &mut small, &targets, seed + 1);
            assert!(small.hit_stats().evictions > 0, "the small memo must overflow");
            spliced += small.spliced_hops();

            let sparse = field(1000, 7.0, seed);
            let mut thin = CachedTransport::new(&sparse, Planarization::Gabriel);
            let (hops, failed) =
                check_spliced_routes(&sparse, &mut thin, &few_targets(&sparse, 4, seed), seed);
            (perimeter_hops, errors, spliced) =
                (perimeter_hops + hops, errors + failed, spliced + thin.spliced_hops());

            // Joins, moves and deaths written in place and left uncompacted,
            // then refreshed over a warm index.
            let mut churned = dense.clone();
            let near = |topology: &Topology, id: NodeId, by: f64| {
                let p = topology.position(id);
                Point::new(p.x + by, p.y + by)
            };
            churned.add_node(near(&churned, targets[0], 3.0));
            churned.move_node(NodeId(20), near(&churned, NodeId(21), 0.5));
            let dead: Vec<NodeId> =
                [NodeId(5), NodeId(40)].into_iter().filter(|id| !targets.contains(id)).collect();
            churned.fail_nodes(&dead);
            assert!(churned.patched_rows() > 0, "the overlay must still be in use");
            assert!(cached.suffixes.entries > 0, "the index is warm before the refresh");
            cached.rebuild(&churned);
            let index = &cached.suffixes;
            assert!(index.targets.is_empty() && index.pins.is_empty(), "a refresh empties it");
            assert_eq!(index.entries, 0);
            check_spliced_routes(&churned, &mut cached, &targets, seed + 2);

            // A targeted eviction prunes exactly the suffixes through the node.
            let index = &cached.suffixes;
            let entries = index.entries;
            let relay = index.targets.values().flat_map(|table| table.keys()).next();
            let relay = NodeId(*relay.expect("an entry"));
            cached.evict_routes_through(relay);
            let index = &cached.suffixes;
            assert!(index.entries < entries, "the entry at {relay} must go");
            for (&at, &pin) in index.targets.values().flat_map(|table| table.iter()) {
                let rest = recorded_suffix(&index.pins[pin as usize].path, NodeId(at));
                assert!(rest.is_some_and(|rest| !rest.contains(&relay)), "{relay} still spliced");
            }
            check_spliced_routes(&churned, &mut cached, &targets, seed + 3);
            spliced += cached.spliced_hops();

            // Co-located as built: a twin exactly on one target, twins
            // 1e-10 m off two others, each twin a target too.
            let mut nodes = dense.nodes().to_vec();
            let mut twin_targets = targets.clone();
            for (&of, by) in targets.iter().zip([0.0, 1e-10, -1e-10]) {
                let id = NodeId(nodes.len() as u32);
                nodes.push(Node::new(id, near(&dense, of, by)));
                twin_targets.push(id);
            }
            let twinned = Topology::build(nodes, 40.0).expect("topology");
            let mut cached = CachedTransport::new(&twinned, Planarization::Gabriel);
            let (_, failed) = check_spliced_routes(&twinned, &mut cached, &twin_targets, seed);
            (errors, spliced) = (errors + failed, spliced + cached.spliced_hops());
        }
        assert!(spliced > 0, "some hops must have been spliced");
        assert!(perimeter_hops > 0, "the sparse field must exercise perimeter mode");
        assert!(errors > 0, "co-located targets must exercise the error answer");
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
        let mut grown = topology.clone();
        let joiner = grown.add_node(Point::new(5.0, 5.0));
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
        let mut moved = grown.clone();
        moved.move_node(relay, Point::new(-500.0, -500.0));
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
