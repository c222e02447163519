//! The right-hand rule used by GPSR's perimeter mode.

use crate::planar::PlanarGraph;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::f64::consts::TAU;

/// Picks the planar neighbor of `at` that is next counterclockwise from the
/// reference direction `ref_angle` (radians).
///
/// This is GPSR's right-hand rule: sweeping counterclockwise about `at`
/// starting *just after* `ref_angle`, the first planar edge found is
/// traversed. An edge lying exactly at `ref_angle` (the incoming edge) is
/// considered a full turn away, so a dead-end node correctly bounces the
/// packet back along the edge it arrived on.
///
/// Returns `None` only when `at` has no planar neighbors.
///
/// # Examples
///
/// ```
/// use pool_gpsr::perimeter::right_hand_next;
/// use pool_gpsr::planar::{PlanarGraph, Planarization};
/// use pool_netsim::geometry::Point;
/// use pool_netsim::node::{Node, NodeId};
/// use pool_netsim::topology::Topology;
///
/// // Node 0 at the origin with neighbors east (1) and north (2).
/// let nodes = vec![
///     Node::new(NodeId(0), Point::new(0.0, 0.0)),
///     Node::new(NodeId(1), Point::new(1.0, 0.0)),
///     Node::new(NodeId(2), Point::new(0.0, 1.0)),
/// ];
/// let topo = Topology::build(nodes, 1.5).unwrap();
/// let planar = PlanarGraph::build(&topo, Planarization::Gabriel);
/// // Sweeping CCW from the east direction, the north edge comes first.
/// let next = right_hand_next(&planar, &topo, NodeId(0), 0.0);
/// assert_eq!(next, Some(NodeId(2)));
/// ```
pub fn right_hand_next(
    planar: &PlanarGraph,
    topology: &Topology,
    at: NodeId,
    ref_angle: f64,
) -> Option<NodeId> {
    let pos = topology.position(at);
    let mut best: Option<(f64, NodeId)> = None;
    for &nb in planar.neighbors(topology, at) {
        let angle = pos.angle_to(topology.position(nb));
        let mut delta = (angle - ref_angle) % TAU;
        if delta <= 1e-12 {
            delta += TAU;
        }
        let better = match best {
            None => true,
            Some((bd, bid)) => delta < bd || (delta == bd && nb < bid),
        };
        if better {
            best = Some((delta, nb));
        }
    }
    best.map(|(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planar::Planarization;
    use pool_netsim::geometry::Point;
    use pool_netsim::node::Node;

    /// A plus-shaped neighborhood: center 0, east 1, north 2, west 3,
    /// south 4.
    fn plus_topology() -> (Topology, PlanarGraph) {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(1.0, 0.0)),
            Node::new(NodeId(2), Point::new(0.0, 1.0)),
            Node::new(NodeId(3), Point::new(-1.0, 0.0)),
            Node::new(NodeId(4), Point::new(0.0, -1.0)),
        ];
        let topo = Topology::build(nodes, 1.2).unwrap();
        let planar = PlanarGraph::build(&topo, Planarization::Gabriel);
        (topo, planar)
    }

    #[test]
    fn sweeps_counterclockwise() {
        let (topo, planar) = plus_topology();
        // From the east direction, CCW order is north, west, south, east.
        assert_eq!(right_hand_next(&planar, &topo, NodeId(0), 0.0), Some(NodeId(2)));
        // From the north direction, next CCW is west.
        let north = std::f64::consts::FRAC_PI_2;
        assert_eq!(right_hand_next(&planar, &topo, NodeId(0), north), Some(NodeId(3)));
    }

    #[test]
    fn incoming_edge_is_last_resort() {
        // Node 1 has only the center as neighbor: the packet must bounce
        // back along the incoming edge.
        let (topo, planar) = plus_topology();
        let incoming = topo.position(NodeId(1)).angle_to(topo.position(NodeId(0)));
        // ref_angle is the direction back toward where the packet came from
        // reversed; at a dead end the only option is the same edge again.
        assert_eq!(right_hand_next(&planar, &topo, NodeId(1), incoming), Some(NodeId(0)));
    }

    #[test]
    fn no_neighbors_yields_none() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(50.0, 0.0)),
        ];
        let topo = Topology::build(nodes, 1.0).unwrap();
        let planar = PlanarGraph::build(&topo, Planarization::Gabriel);
        assert_eq!(right_hand_next(&planar, &topo, NodeId(0), 0.0), None);
    }

    #[test]
    fn full_face_walk_returns_to_start() {
        // Walking a triangle face with the right-hand rule must come back to
        // the starting directed edge after traversing the face boundary.
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(2.0, 0.0)),
            Node::new(NodeId(2), Point::new(1.0, 1.5)),
        ];
        let topo = Topology::build(nodes, 3.0).unwrap();
        let planar = PlanarGraph::build(&topo, Planarization::Gabriel);
        let mut prev = NodeId(0);
        let mut at = NodeId(1); // first directed edge 0 -> 1
        let mut walked = vec![prev, at];
        for _ in 0..3 {
            let ref_angle = topo.position(at).angle_to(topo.position(prev));
            let next = right_hand_next(&planar, &topo, at, ref_angle).unwrap();
            prev = at;
            at = next;
            walked.push(at);
        }
        // Face traversal visits every triangle vertex and returns.
        assert_eq!(walked[0], walked[3]);
        assert_eq!(walked[1], walked[4]);
    }
}
