//! Greedy geographic forwarding: GPSR's rule, to the neighbor closest to
//! the destination.

use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;

/// The neighbor of `at` strictly closer to `target` than `at` itself, or
/// `None` when `at` is a local minimum (which triggers perimeter mode).
///
/// Among qualifying neighbors the one closest to the target is chosen, with
/// ties broken by lower node id to keep routing deterministic.
///
/// # Examples
///
/// ```
/// use pool_gpsr::greedy::greedy_next;
/// use pool_netsim::geometry::Point;
/// use pool_netsim::node::{Node, NodeId};
/// use pool_netsim::topology::Topology;
///
/// let nodes = vec![
///     Node::new(NodeId(0), Point::new(0.0, 0.0)),
///     Node::new(NodeId(1), Point::new(5.0, 0.0)),
///     Node::new(NodeId(2), Point::new(10.0, 0.0)),
/// ];
/// let topo = Topology::build(nodes, 6.0).unwrap();
/// assert_eq!(greedy_next(&topo, NodeId(0), Point::new(10.0, 0.0)), Some(NodeId(1)));
/// assert_eq!(greedy_next(&topo, NodeId(2), Point::new(10.0, 0.0)), None);
/// ```
pub fn greedy_next(topology: &Topology, at: NodeId, target: Point) -> Option<NodeId> {
    // Bounded by the node's own distance, the running minimum is the
    // progress test and the selection in one compare. Rows ascend by id, so
    // keeping the first least is the lower-id tie-break, and a new minimum
    // is recorded O(log degree) times per step — not at every neighbor that
    // makes progress, which is every other one.
    let (mut least, mut best) = (topology.position(at).distance_sq(target), None);
    for &nb in topology.neighbors(at) {
        let d = topology.position(nb).distance_sq(target);
        if d < least {
            (least, best) = (d, Some(nb));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::node::Node;

    fn line_topology() -> Topology {
        let nodes = (0..5).map(|i| Node::new(NodeId(i), Point::new(i as f64 * 4.0, 0.0))).collect();
        Topology::build(nodes, 5.0).unwrap()
    }

    #[test]
    fn greedy_walks_toward_target() {
        let topo = line_topology();
        let target = Point::new(16.0, 0.0);
        let mut at = NodeId(0);
        let mut hops = 0;
        while let Some(next) = greedy_next(&topo, at, target) {
            at = next;
            hops += 1;
            assert!(hops < 10, "greedy looped");
        }
        assert_eq!(at, NodeId(4));
        assert_eq!(hops, 4);
    }

    #[test]
    fn local_minimum_returns_none() {
        // A gap: node 1 is closest to the target but cannot reach it.
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(4.0, 0.0)),
        ];
        let topo = Topology::build(nodes, 5.0).unwrap();
        assert_eq!(greedy_next(&topo, NodeId(1), Point::new(20.0, 0.0)), None);
    }

    #[test]
    fn equidistant_neighbor_is_not_progress() {
        // Two nodes equidistant from the target: neither is strictly closer,
        // so no greedy progress (prevents ping-pong loops).
        let nodes = vec![
            Node::new(NodeId(0), Point::new(-1.0, 0.0)),
            Node::new(NodeId(1), Point::new(1.0, 0.0)),
        ];
        let topo = Topology::build(nodes, 5.0).unwrap();
        assert_eq!(greedy_next(&topo, NodeId(0), Point::new(0.0, 5.0)), None);
    }

    #[test]
    fn tie_breaks_by_lower_id() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(1.0, 1.0)),
            Node::new(NodeId(2), Point::new(1.0, -1.0)),
        ];
        let topo = Topology::build(nodes, 5.0).unwrap();
        // Both neighbors are equally close to the target.
        assert_eq!(greedy_next(&topo, NodeId(0), Point::new(3.0, 0.0)), Some(NodeId(1)));
    }
}

#[cfg(test)]
mod metric_tests {
    use super::*;
    use pool_netsim::deployment::{Deployment, Placement};
    use pool_netsim::geometry::Rect;
    use pool_netsim::node::Node;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scan the kernel replaced, kept as the oracle: test progress per
    /// neighbor, then a three-way compare on distance that spells out the
    /// lower-id tie-break instead of leaning on row order. (Not an oracle
    /// for a NaN target, where it takes the first neighbor.)
    fn reference_next(topology: &Topology, at: NodeId, target: Point) -> Option<NodeId> {
        let own = topology.position(at).distance_sq(target);
        let mut best: Option<(f64, NodeId)> = None;
        for &nb in topology.neighbors(at) {
            let d = topology.position(nb).distance_sq(target);
            if d >= own {
                continue; // only strict progress keeps routing loop-free
            }
            let better = match best {
                None => true,
                Some((bd, bid)) => d < bd || (d == bd && nb < bid),
            };
            if better {
                best = Some((d, nb));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Kernel and oracle agree at every live node on targets chosen to
    /// tie: each node's own position, the midpoint of each node and its
    /// first neighbor, and `extra`.
    fn assert_kernel_matches_reference(topo: &Topology, extra: &[Point]) {
        let mut targets = extra.to_vec();
        for node in topo.nodes() {
            targets.push(node.position);
            if let Some(&nb) = topo.neighbors(node.id).first() {
                targets.push(node.position.midpoint(topo.position(nb)));
            }
        }
        for &target in &targets {
            for node in topo.nodes() {
                assert_eq!(
                    greedy_next(topo, node.id, target),
                    reference_next(topo, node.id, target),
                    "at {} toward {target}",
                    node.id
                );
            }
        }
    }
    /// A point likely to tie: on another node, on a 10 m lattice, or
    /// anywhere in (and a little around) the field.
    fn tie_prone_point(rng: &mut StdRng, taken: &[Point]) -> Point {
        match rng.gen_range(0..4) {
            0 if !taken.is_empty() => taken[rng.gen_range(0..taken.len())],
            1 => Point::new(
                f64::from(rng.gen_range(0..8u32)) * 10.0,
                f64::from(rng.gen_range(0..8u32)) * 10.0,
            ),
            _ => Point::new(rng.gen_range(-5.0..75.0), rng.gen_range(-5.0..75.0)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The kernel picks the oracle's hop on random deployments salted
        /// with coincident positions and lattice points (exact distance
        /// ties, where the lower id must win), and on the *uncompacted*
        /// overlay rows a random join / move / death sequence leaves.
        #[test]
        fn kernel_matches_reference_scan(seed in 0u64..100_000, n in 20usize..70) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut positions: Vec<Point> = Vec::new();
            for _ in 0..n {
                positions.push(tie_prone_point(&mut rng, &positions));
            }
            let nodes =
                positions.iter().enumerate().map(|(i, &p)| Node::new(NodeId(i as u32), p)).collect();
            let mut topo = Topology::build(nodes, 25.0).unwrap();
            let extra: Vec<Point> = (0..8).map(|_| tie_prone_point(&mut rng, &positions)).collect();
            assert_kernel_matches_reference(&topo, &extra);

            for _ in 0..rng.gen_range(4..16) {
                let id = NodeId(rng.gen_range(0..topo.len() as u32));
                let spot = tie_prone_point(&mut rng, &positions);
                match rng.gen_range(0..3) {
                    0 => {
                        topo.add_node(spot);
                    }
                    1 if topo.is_alive(id) => topo.move_node(id, spot),
                    _ => topo.fail_nodes(&[id]),
                }
            }
            prop_assert!(topo.patched_rows() > 0, "the overlay must still be uncompacted");
            assert_kernel_matches_reference(&topo, &extra);
        }
    }

    fn connected(n: usize, mut seed: u64) -> Topology {
        loop {
            let nodes = Deployment::new(Rect::square(100.0), n, Placement::Uniform, seed).nodes();
            let topo = Topology::build(nodes, 30.0).unwrap();
            if topo.is_connected() {
                return topo;
            }
            seed += 1;
        }
    }

    /// A NaN target is closer to nobody: every node reports a local
    /// minimum (the router then tours the face and delivers or fails typed)
    /// rather than hopping neighbor to neighbor until the hop budget.
    #[test]
    fn nan_target_is_a_local_minimum() {
        let topo = connected(80, 5);
        for target in [Point::new(f64::NAN, f64::NAN), Point::new(50.0, f64::NAN)] {
            for node in topo.nodes() {
                assert_eq!(greedy_next(&topo, node.id, target), None);
            }
        }
    }
}
