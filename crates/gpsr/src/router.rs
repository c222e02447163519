//! The complete GPSR router: greedy mode with perimeter-mode recovery.
//!
//! Routes are computed hop by hop exactly as the distributed protocol would
//! forward a packet: each step uses only the current node's neighbor table,
//! the packet header (destination location, perimeter-entry point, face
//! intersection point, first face edge), and the planarized neighbor subset.
//! The full path is returned so callers can charge per-hop message costs.

use crate::greedy::greedy_next;
use crate::perimeter::right_hand_next;
use crate::planar::{PlanarGraph, Planarization};
use pool_netsim::geometry::{line_intersection, segments_cross, Point, COINCIDENT_SQ};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::error::Error;
use std::fmt;

/// A computed route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Every node visited, starting with the source. Consecutive entries are
    /// radio neighbors; `path.len() - 1` is the hop count.
    pub path: Vec<NodeId>,
    /// The node at which the packet was delivered (last entry of `path`).
    pub delivered: NodeId,
    /// Hops taken in greedy mode.
    pub greedy_hops: usize,
    /// Hops taken in perimeter mode.
    pub perimeter_hops: usize,
}

impl Route {
    /// The one-greedy-hop route from `from` to its radio neighbour `to`.
    pub fn single_hop(from: NodeId, to: NodeId) -> Route {
        Route { path: vec![from, to], delivered: to, greedy_hops: 1, perimeter_hops: 0 }
    }

    /// Total number of radio transmissions along the route.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Errors raised by route computation.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// The hop budget was exceeded — only possible on pathological
    /// geometries (e.g. coincident node positions).
    HopBudgetExceeded {
        /// The source node.
        from: NodeId,
        /// The destination location.
        target: Point,
    },
    /// A packet addressed to a specific node was delivered elsewhere, which
    /// means the planar graph is disconnected from the destination.
    NotDelivered {
        /// The intended destination node.
        to: NodeId,
        /// Where the packet ended up instead.
        delivered: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::HopBudgetExceeded { from, target } => {
                write!(f, "hop budget exceeded routing from {from} to {target}")
            }
            RouteError::NotDelivered { to, delivered } => {
                write!(f, "packet for {to} was delivered at {delivered} (disconnected network?)")
            }
        }
    }
}

impl Error for RouteError {}

/// Internal packet-header state for perimeter mode.
#[derive(Debug, Clone, Copy)]
struct PerimeterState {
    /// Location where the packet entered perimeter mode (`L_p`).
    lp: Point,
    /// Point where the packet entered the current face (`L_f`).
    lf: Point,
    /// First directed edge traversed on the current face (`e_0`).
    e0: (NodeId, NodeId),
    /// The node the packet arrived from.
    prev: NodeId,
}

/// A GPSR router bound to one planarization of a topology.
///
/// The router holds only the planar graph; every call takes the topology so
/// a single router can serve many experiments over the same deployment.
///
/// # Examples
///
/// ```
/// use pool_gpsr::router::Gpsr;
/// use pool_gpsr::planar::Planarization;
/// use pool_netsim::deployment::{Deployment, Placement};
/// use pool_netsim::geometry::{Point, Rect};
/// use pool_netsim::topology::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nodes = Deployment::new(Rect::square(100.0), 80, Placement::Uniform, 3).nodes();
/// let topo = Topology::build(nodes, 30.0)?;
/// let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
/// let route = gpsr.route(&topo, topo.nodes()[0].id, Point::new(90.0, 90.0))?;
/// assert_eq!(*route.path.last().unwrap(), route.delivered);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gpsr {
    planar: PlanarGraph,
}

impl Gpsr {
    /// Builds a router for `topology` using the given planarization.
    pub fn new(topology: &Topology, method: Planarization) -> Self {
        Gpsr { planar: PlanarGraph::build(topology, method) }
    }

    /// Brings the router up to date with a changed `topology` by
    /// re-planarizing only the `dirty` rows ([`PlanarGraph::refresh`]
    /// states what `dirty` must cover).
    pub fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        self.planar.refresh(topology, dirty);
    }

    /// The planar graph used by perimeter mode.
    pub fn planar(&self) -> &PlanarGraph {
        &self.planar
    }

    /// Routes a packet from `from` toward the geographic `target`.
    ///
    /// Delivery follows GHT's *home node* semantics: the packet stops at the
    /// node closest to `target` on the face enclosing it — found when a
    /// perimeter tour of that face completes — or at the node lying exactly
    /// at `target` when one exists.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::HopBudgetExceeded`] if the packet fails to
    /// terminate within `10·n + 100` hops (pathological geometry only).
    pub fn route(
        &self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Route, RouteError> {
        self.route_with(topology, from, target, |_| None)
    }

    /// [`Gpsr::route`], asking `splice` at every greedy-mode loop top for
    /// the rest of the route from the node the packet is at.
    ///
    /// `splice(at)` either answers `None`, and the walk goes on, or hands
    /// back `route(at, target)`'s `(path, greedy_hops, perimeter_hops)`:
    /// the path starting at `at`. Greedy mode is memoryless — the packet
    /// header carries no perimeter state, so every later step depends only
    /// on the node and the target — and from a greedy-mode loop top the
    /// rest of the walk is exactly `route(at, target)`. The route appends
    /// that path and returns, unless the spliced length would pass the hop
    /// budget; then it keeps walking, so its error is the one the walk
    /// meets. Either way the result is [`Gpsr::route`]'s, hop for hop.
    ///
    /// # Errors
    ///
    /// Exactly [`Gpsr::route`]'s.
    pub fn route_with<'s>(
        &self,
        topology: &Topology,
        from: NodeId,
        target: Point,
        mut splice: impl FnMut(NodeId) -> Option<(&'s [NodeId], usize, usize)>,
    ) -> Result<Route, RouteError> {
        let budget = 10 * topology.len() + 100;
        let mut path = vec![from];
        let mut at = from;
        let mut greedy_hops = 0usize;
        let mut perimeter_hops = 0usize;
        let mut mode: Option<PerimeterState> = None;
        // Nodes visited on the current face since e0 was set, starting at
        // the face-entry node; used for home-node delivery when the tour
        // completes.
        let mut face_nodes: Vec<NodeId> = Vec::new();

        loop {
            if path.len() > budget {
                return Err(RouteError::HopBudgetExceeded { from, target });
            }
            // Exact arrival.
            if topology.position(at).distance_sq(target) < COINCIDENT_SQ {
                return Ok(Route { path, delivered: at, greedy_hops, perimeter_hops });
            }

            match mode {
                None => {
                    if let Some((rest, greedy, perimeter)) = splice(at) {
                        debug_assert_eq!(
                            rest.first(),
                            Some(&at),
                            "a suffix starts where it splices"
                        );
                        // Every loop top the walk would reach along `rest`
                        // holds at most this many nodes, so within the
                        // budget the walk would return this very route.
                        if path.len() + rest.len() - 1 <= budget {
                            path.reserve_exact(rest.len() - 1);
                            path.extend_from_slice(&rest[1..]);
                            let delivered = rest[rest.len() - 1];
                            greedy_hops += greedy;
                            perimeter_hops += perimeter;
                            return Ok(Route { path, delivered, greedy_hops, perimeter_hops });
                        }
                    }
                    if let Some(next) = greedy_next(topology, at, target) {
                        at = next;
                        path.push(at);
                        greedy_hops += 1;
                    } else {
                        // Local minimum: enter perimeter mode on the face
                        // intersected by the line from here to the target.
                        let here = topology.position(at);
                        let ref_angle = here.angle_to(target);
                        let Some(next) = right_hand_next(&self.planar, topology, at, ref_angle)
                        else {
                            // No planar neighbors at all: deliver here.
                            return Ok(Route { path, delivered: at, greedy_hops, perimeter_hops });
                        };
                        mode =
                            Some(PerimeterState { lp: here, lf: here, e0: (at, next), prev: at });
                        face_nodes = vec![at];
                        at = next;
                        path.push(at);
                        perimeter_hops += 1;
                    }
                }
                Some(state) => {
                    let here = topology.position(at);
                    // Perimeter-mode exit: strictly closer than where we
                    // entered.
                    if here.distance_sq(target) < state.lp.distance_sq(target) - 1e-15 {
                        mode = None;
                        continue;
                    }
                    face_nodes.push(at);
                    let mut lf = state.lf;
                    let mut e0 = state.e0;
                    let ref_angle = here.angle_to(topology.position(state.prev));
                    let Some(mut candidate) =
                        right_hand_next(&self.planar, topology, at, ref_angle)
                    else {
                        return Ok(Route { path, delivered: at, greedy_hops, perimeter_hops });
                    };
                    // Face-change check: if the chosen edge crosses the
                    // line from the face entry point to the target at a
                    // point closer to the target, hop to the adjoining
                    // face instead of crossing the line.
                    let degree = self.planar.neighbors(topology, at).len();
                    for _ in 0..=degree {
                        let cpos = topology.position(candidate);
                        if !segments_cross(here, cpos, lf, target) {
                            break;
                        }
                        let Some(xing) = line_intersection(here, cpos, lf, target) else {
                            break;
                        };
                        if xing.distance_sq(target) >= lf.distance_sq(target) {
                            break;
                        }
                        lf = xing;
                        let new_ref = here.angle_to(cpos);
                        match right_hand_next(&self.planar, topology, at, new_ref) {
                            Some(n) => {
                                candidate = n;
                                // New face: reset the first-edge marker and
                                // the face visit log.
                                e0 = (at, candidate);
                                face_nodes = vec![at];
                            }
                            None => break,
                        }
                    }
                    if (at, candidate) == e0 && face_nodes.len() > 1 {
                        // The tour of the face enclosing the target is
                        // complete: deliver at the face node closest to the
                        // target, continuing the walk to reach it.
                        return Ok(self.finish_tour(
                            topology,
                            path,
                            face_nodes,
                            target,
                            greedy_hops,
                            perimeter_hops,
                        ));
                    }
                    mode = Some(PerimeterState { lp: state.lp, lf, e0, prev: at });
                    at = candidate;
                    path.push(at);
                    perimeter_hops += 1;
                }
            }
        }
    }

    /// Whether [`Gpsr::route_to_node`] answers `from → to` by construction,
    /// as [`Route::single_hop`], without scanning: `to` is a radio
    /// neighbour of `from` and the topology has no coincident nodes
    /// ([`Topology::has_coincident_nodes`]).
    ///
    /// That answer is the scan's. `from` is no closer than the tolerance to
    /// `to`, so the packet does not arrive at `from`; `to` scores distance 0,
    /// which no other neighbour of `from` can tie or beat without standing
    /// on `to`'s position (a coincident pair), so the strict-minimum greedy
    /// step picks `to`, and the packet arrives there.
    pub fn routes_directly(&self, topology: &Topology, from: NodeId, to: NodeId) -> bool {
        !topology.has_coincident_nodes() && topology.are_neighbors(from, to)
    }

    /// Routes to a specific node's position and verifies delivery.
    ///
    /// # Errors
    ///
    /// [`RouteError::NotDelivered`] if the packet stopped elsewhere (only
    /// possible when the planar graph is disconnected), plus any error from
    /// [`Gpsr::route`].
    pub fn route_to_node(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Route, RouteError> {
        self.route_to_node_with(topology, from, to, |_| None)
    }

    /// [`Gpsr::route_to_node`] with [`Gpsr::route_with`]'s `splice`
    /// lookup, whose target is `to`'s position.
    ///
    /// # Errors
    ///
    /// Exactly [`Gpsr::route_to_node`]'s.
    pub fn route_to_node_with<'s>(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        splice: impl FnMut(NodeId) -> Option<(&'s [NodeId], usize, usize)>,
    ) -> Result<Route, RouteError> {
        if from == to {
            return Ok(Route {
                path: vec![from],
                delivered: from,
                greedy_hops: 0,
                perimeter_hops: 0,
            });
        }
        if self.routes_directly(topology, from, to) {
            return Ok(Route::single_hop(from, to));
        }
        let route = self.route_with(topology, from, topology.position(to), splice)?;
        if route.delivered != to {
            return Err(RouteError::NotDelivered { to, delivered: route.delivered });
        }
        Ok(route)
    }

    /// Routes to `to` around an exclusion set: greedy and perimeter
    /// forwarding both run on the subgraph with `excluded` removed, exactly
    /// as the network would forward once those nodes stop acknowledging.
    /// Endpoints are exempt from exclusion; an empty set is the plain
    /// [`Gpsr::route_to_node`].
    ///
    /// The detour router is rebuilt per call (re-planarizing the reduced
    /// topology) — exclusion sets describe transient suspicions, so the
    /// result must never be memoized against the full topology. The clone
    /// is free (it shares the topology's arenas, and failing the excluded
    /// nodes copies only the liveness flags), so a detour costs its
    /// re-planarization.
    ///
    /// # Errors
    ///
    /// Any [`RouteError`] from routing on the reduced subgraph — including
    /// [`RouteError::NotDelivered`] when the exclusions disconnect the
    /// endpoints.
    pub fn route_to_node_avoiding(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Route, RouteError> {
        let dead: Vec<NodeId> =
            excluded.iter().copied().filter(|&n| n != from && n != to).collect();
        if dead.is_empty() {
            return self.route_to_node(topology, from, to);
        }
        let mut reduced = topology.clone();
        reduced.fail_nodes(&dead);
        let detour = Gpsr::new(&reduced, self.planar.method());
        detour.route_to_node(&reduced, from, to)
    }

    /// Completes a perimeter tour: the best (closest-to-target) node on the
    /// toured face is the home node; the packet keeps walking the face until
    /// it reaches that node again, so those hops are charged too.
    fn finish_tour(
        &self,
        topology: &Topology,
        mut path: Vec<NodeId>,
        face_nodes: Vec<NodeId>,
        target: Point,
        greedy_hops: usize,
        mut perimeter_hops: usize,
    ) -> Route {
        let best_idx = face_nodes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                // total_cmp: a NaN distance (corrupt target) must order
                // deterministically instead of panicking mid-tour.
                topology
                    .position(**a)
                    .distance_sq(target)
                    .total_cmp(&topology.position(**b).distance_sq(target))
                    .then(a.cmp(b))
            })
            .map(|(i, _)| i)
            .expect("face tour visited at least one node");
        // We are currently at face_nodes[0] (the tour returned to the first
        // edge). Re-walk the recorded face boundary to the home node.
        for &node in &face_nodes[1..=best_idx] {
            path.push(node);
            perimeter_hops += 1;
        }
        let delivered = *path.last().expect("path is never empty");
        Route { path, delivered, greedy_hops, perimeter_hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::deployment::{Deployment, Placement};
    use pool_netsim::geometry::Rect;
    use pool_netsim::node::Node;

    fn random_connected(n: usize, side: f64, range: f64, mut seed: u64) -> Topology {
        loop {
            let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
            let topo = Topology::build(nodes, range).unwrap();
            if topo.is_connected() {
                return topo;
            }
            seed += 1000;
        }
    }

    #[test]
    fn consecutive_path_nodes_are_radio_neighbors() {
        let topo = random_connected(100, 120.0, 30.0, 1);
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let route = gpsr.route(&topo, NodeId(0), Point::new(115.0, 115.0)).unwrap();
        for w in route.path.windows(2) {
            assert!(w[0] == w[1] || topo.are_neighbors(w[0], w[1]), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn route_to_every_node_delivers() {
        for seed in [2, 7, 19] {
            let topo = random_connected(80, 100.0, 30.0, seed);
            let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
            for dst in topo.nodes() {
                let route = gpsr.route_to_node(&topo, NodeId(0), dst.id);
                assert!(route.is_ok(), "seed {seed}: failed to reach {}: {route:?}", dst.id);
            }
        }
    }

    /// Regression: `finish_tour` picked the home node with
    /// `partial_cmp().unwrap()` over squared distances, so a NaN target
    /// (every distance NaN) panicked mid-tour. With `total_cmp` the route
    /// terminates — delivered somewhere, or a typed hop-budget error.
    #[test]
    fn nan_target_route_terminates_without_panicking() {
        for method in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
            let topo = random_connected(60, 80.0, 30.0, 11);
            let gpsr = Gpsr::new(&topo, method);
            let target = Point::new(f64::NAN, f64::NAN);
            match gpsr.route(&topo, NodeId(0), target) {
                Ok(route) => assert_eq!(*route.path.last().unwrap(), route.delivered),
                Err(RouteError::HopBudgetExceeded { from, .. }) => assert_eq!(from, NodeId(0)),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn route_to_node_with_rng_planarization() {
        let topo = random_connected(80, 100.0, 30.0, 5);
        let gpsr = Gpsr::new(&topo, Planarization::RelativeNeighborhood);
        for dst in topo.nodes().iter().step_by(7) {
            assert!(gpsr.route_to_node(&topo, NodeId(3), dst.id).is_ok());
        }
    }

    #[test]
    fn location_routing_reaches_nearest_node_usually() {
        // Home-node semantics: on dense networks the delivered node should
        // almost always be the globally nearest node to the target.
        let topo = random_connected(150, 130.0, 30.0, 11);
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let mut agree = 0;
        let mut total = 0;
        for i in 0..60 {
            let target = Point::new((i as f64 * 37.0) % 130.0, (i as f64 * 53.0) % 130.0);
            let route = gpsr.route(&topo, NodeId(i % 150), target).unwrap();
            total += 1;
            if route.delivered == topo.nearest_node(target) {
                agree += 1;
            }
        }
        assert!(agree * 10 >= total * 9, "only {agree}/{total} delivered at nearest node");
    }

    #[test]
    fn delivered_node_is_local_minimum() {
        // Whatever node the packet stops at must be closer to the target
        // than all of its radio neighbors (no greedy progress possible).
        let topo = random_connected(120, 110.0, 28.0, 23);
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        for i in 0..40 {
            let target = Point::new((i as f64 * 29.0) % 110.0, (i as f64 * 71.0) % 110.0);
            let route = gpsr.route(&topo, NodeId(i % 120), target).unwrap();
            let dd = topo.position(route.delivered).distance_sq(target);
            for &nb in topo.neighbors(route.delivered) {
                assert!(
                    topo.position(nb).distance_sq(target) >= dd - 1e-9,
                    "neighbor {nb} closer than delivery node {}",
                    route.delivered
                );
            }
        }
    }

    #[test]
    fn greedy_only_on_line_network() {
        let nodes: Vec<Node> =
            (0..6).map(|i| Node::new(NodeId(i), Point::new(i as f64 * 4.0, 0.0))).collect();
        let topo = Topology::build(nodes, 5.0).unwrap();
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let route = gpsr.route_to_node(&topo, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(route.hops(), 5);
        assert_eq!(route.perimeter_hops, 0);
        assert_eq!(route.greedy_hops, 5);
    }

    #[test]
    fn perimeter_mode_escapes_a_void() {
        // A "C" shape: greedy from the west side toward a target east of the
        // opening gets stuck and must tour the void.
        let mut nodes = Vec::new();
        let mut id = 0u32;
        let mut add = |x: f64, y: f64, id: &mut u32| {
            nodes.push(Node::new(NodeId(*id), Point::new(x, y)));
            *id += 1;
        };
        // Left column of the C.
        for i in 0..5 {
            add(0.0, i as f64 * 4.0, &mut id);
        }
        // Top and bottom arms.
        for i in 1..5 {
            add(i as f64 * 4.0, 16.0, &mut id);
            add(i as f64 * 4.0, 0.0, &mut id);
        }
        // Target node beyond the opening of the C, reachable only around
        // the arms (bridged by two relay nodes on the east side).
        add(16.0, 12.0, &mut id);
        add(16.0, 4.0, &mut id);
        add(16.0, 8.0, &mut id);
        let topo = Topology::build(nodes, 5.0).unwrap();
        assert!(topo.is_connected());
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        // Node 2 is the middle of the left column: straight-line progress is
        // blocked by the void inside the C.
        let route = gpsr.route_to_node(&topo, NodeId(2), NodeId(id - 1)).unwrap();
        assert!(route.perimeter_hops > 0, "expected perimeter hops, got {route:?}");
    }

    /// Greedy mode is memoryless: a lookup that hands back `route(at,
    /// target)` at every greedy-mode loop top past the source — perimeter
    /// legs and face tours included — leaves every route unchanged, to
    /// node positions and to points between nodes, on a dense and on a
    /// sparse field.
    #[test]
    fn splicing_the_rest_of_the_route_changes_no_hop() {
        let (mut spliced, mut toured) = (0, 0);
        for (n, range, seed) in [(150, 30.0, 11), (150, 16.0, 12)] {
            let nodes = Deployment::new(Rect::square(130.0), n, Placement::Uniform, seed).nodes();
            let topo = Topology::build(nodes, range).unwrap();
            let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
            let targets =
                (0..6).map(|i| Point::new((i * 37 % 130) as f64 + 0.3, (i * 53 % 130) as f64));
            let to_nodes = (0..6).map(|i| topo.position(NodeId(i * 23)));
            for target in targets.chain(to_nodes) {
                let rest: Vec<Result<Route, RouteError>> =
                    topo.nodes().iter().map(|node| gpsr.route(&topo, node.id, target)).collect();
                for node in topo.nodes() {
                    let route = gpsr.route_with(&topo, node.id, target, |at| {
                        let Ok(rest) = rest[at.index()].as_ref() else { return None };
                        if at == node.id {
                            return None;
                        }
                        spliced += 1;
                        toured += usize::from(rest.perimeter_hops > 0);
                        Some((&rest.path[..], rest.greedy_hops, rest.perimeter_hops))
                    });
                    assert_eq!(route, rest[node.id.index()], "from {} to {target}", node.id);
                }
            }
        }
        assert!(toured > 0 && spliced > toured, "{toured} of {spliced} splices left greedy mode");
    }

    #[test]
    fn route_to_self_is_empty() {
        let topo = random_connected(30, 60.0, 25.0, 3);
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let route = gpsr.route_to_node(&topo, NodeId(4), NodeId(4)).unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(route.delivered, NodeId(4));
    }

    #[test]
    fn hop_counts_are_consistent() {
        let topo = random_connected(90, 100.0, 28.0, 31);
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        for i in 0..30 {
            let target = Point::new((i as f64 * 13.0) % 100.0, (i as f64 * 41.0) % 100.0);
            let r = gpsr.route(&topo, NodeId(i % 90), target).unwrap();
            assert_eq!(r.greedy_hops + r.perimeter_hops, r.hops());
            assert_eq!(*r.path.first().unwrap(), NodeId(i % 90));
            assert_eq!(*r.path.last().unwrap(), r.delivered);
        }
    }

    /// Routing depends on positions and on ids only through ties, which a
    /// generic deployment does not have, so renumbering the nodes changes
    /// nothing but the names: on a 2k-node field, rebuilt under a random
    /// renumbering and under the Hilbert renumbering (ids = the topology's
    /// own storage order), every `route_to_node` route between 64×64
    /// sampled endpoints, and every route from those sources to 64 points
    /// between nodes (each ending in a perimeter tour), is the original
    /// route mapped through the permutation, hop for hop.
    #[test]
    fn routes_map_through_id_permutations() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let topo = (29..)
            .map(|seed| Deployment::paper_setting(2000, 40.0, 20.0, seed).unwrap())
            .map(|dep| Topology::build(dep.nodes(), 40.0).unwrap())
            .find(Topology::is_connected)
            .unwrap();
        let n = topo.len();
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let mut rng = StdRng::seed_from_u64(3);
        let mut random: Vec<u32> = (0..n as u32).collect();
        random.shuffle(&mut rng);
        let mut hilbert = vec![0u32; n];
        for (rank, (node, _)) in topo.rows().enumerate() {
            hilbert[node.id.index()] = rank as u32;
        }
        let sample: Vec<NodeId> = (0..64).map(|k| NodeId((k * 31 % n) as u32)).collect();
        let (lo, hi) = (topo.bounds().min, topo.bounds().max);
        let spots: Vec<Point> = (0..64)
            .map(|_| Point::new(rng.gen_range(lo.x..hi.x), rng.gen_range(lo.y..hi.y)))
            .collect();
        for (name, perm) in [("random", &random), ("hilbert", &hilbert)] {
            let to = |id: NodeId| NodeId(perm[id.index()]);
            let renamed: Vec<Node> =
                topo.nodes().iter().map(|node| Node::new(to(node.id), node.position)).collect();
            let topo2 = Topology::build(renamed, 40.0).unwrap();
            let gpsr2 = Gpsr::new(&topo2, Planarization::Gabriel);
            let mut perimeter_hops = 0;
            for &a in &sample {
                let to_nodes = sample.iter().map(|&b| {
                    (gpsr.route_to_node(&topo, a, b), gpsr2.route_to_node(&topo2, to(a), to(b)))
                });
                let to_spots =
                    spots.iter().map(|&p| (gpsr.route(&topo, a, p), gpsr2.route(&topo2, to(a), p)));
                for (want, got) in to_nodes.chain(to_spots) {
                    let (want, got) = (want.unwrap(), got.unwrap());
                    let mapped: Vec<NodeId> = want.path.iter().map(|&x| to(x)).collect();
                    assert_eq!(got.path, mapped, "{name}: route from {a}");
                    assert_eq!(
                        (got.greedy_hops, got.perimeter_hops),
                        (want.greedy_hops, want.perimeter_hops)
                    );
                    perimeter_hops += want.perimeter_hops;
                }
            }
            assert!(perimeter_hops > 0, "the sample must exercise perimeter mode");
        }
    }

    #[test]
    fn paper_scale_network_routes_everywhere() {
        // The paper's smallest setting: 300 nodes at degree ~20.
        let dep = Deployment::paper_setting(300, 40.0, 20.0, 4242).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        if !topo.is_connected() {
            return; // rare with this density; skip rather than flake
        }
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        for dst in topo.nodes().iter().step_by(13) {
            assert!(gpsr.route_to_node(&topo, NodeId(0), dst.id).is_ok());
        }
    }
}
