//! Property-based tests of the routing substrate: GPSR must deliver on
//! arbitrary connected unit-disk deployments, under both planarizations,
//! and its delivery points for location-addressed packets must be local
//! minima (home-node semantics).

use pool_dcs::gpsr::shortest::bfs_hops;
use pool_dcs::gpsr::{Gpsr, Planarization};
use pool_dcs::netsim::{Deployment, Node, NodeId, Placement, Point, Rect, Topology};
use proptest::prelude::*;

/// Builds a random deployment; returns `None` when it happens to be
/// disconnected (the property is vacuous there).
fn build(n: usize, seed: u64, side: f64, range: f64) -> Option<Topology> {
    let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
    let topo = Topology::build(nodes, range).ok()?;
    topo.is_connected().then_some(topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Node-addressed packets always arrive, under both planarizations,
    /// with every hop a radio link and within the hop budget.
    #[test]
    fn gpsr_delivers_on_random_connected_networks(
        seed in 0u64..2000,
        n in 30usize..120,
        from_sel in 0usize..1000,
        to_sel in 0usize..1000,
    ) {
        let Some(topo) = build(n, seed, 100.0, 30.0) else { return Ok(()) };
        let from = NodeId((from_sel % n) as u32);
        let to = NodeId((to_sel % n) as u32);
        for method in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
            let gpsr = Gpsr::new(&topo, method);
            let route = gpsr.route_to_node(&topo, from, to);
            prop_assert!(route.is_ok(), "{method:?} failed: {route:?}");
            let route = route.unwrap();
            prop_assert_eq!(route.delivered, to);
            for w in route.path.windows(2) {
                prop_assert!(w[0] == w[1] || topo.are_neighbors(w[0], w[1]));
            }
            prop_assert!(route.hops() <= 10 * n + 100);
            // GPSR can never beat the BFS optimum.
            let opt = bfs_hops(&topo, from, to).expect("connected");
            prop_assert!(route.hops() >= opt);
        }
    }

    /// Location-addressed packets stop at a node with no closer neighbor
    /// (the greedy local-minimum condition — GHT home-node semantics).
    #[test]
    fn location_routing_stops_at_local_minimum(
        seed in 0u64..2000,
        n in 30usize..120,
        from_sel in 0usize..1000,
        tx in 0.0f64..100.0,
        ty in 0.0f64..100.0,
    ) {
        let Some(topo) = build(n, seed, 100.0, 30.0) else { return Ok(()) };
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let from = NodeId((from_sel % n) as u32);
        let target = Point::new(tx, ty);
        let route = gpsr.route(&topo, from, target);
        prop_assert!(route.is_ok(), "{route:?}");
        let route = route.unwrap();
        let dd = topo.position(route.delivered).distance_sq(target);
        for &nb in topo.neighbors(route.delivered) {
            prop_assert!(
                topo.position(nb).distance_sq(target) >= dd - 1e-9,
                "neighbor {nb} closer to {target} than delivery node {}",
                route.delivered
            );
        }
    }

    /// Greedy mode's *choice* is pinned, not just its outcome: until the
    /// packet first meets a local minimum, every hop goes to the neighbor
    /// strictly closer to the target with the least distance, lowest id
    /// on ties. Half the cases snap nodes and target to a 5 m lattice, so
    /// exact ties (and coincident nodes) are the common case there.
    #[test]
    fn greedy_hops_take_the_closest_neighbor_lowest_id_on_ties(
        seed in 0u64..2000,
        n in 30usize..120,
        from_sel in 0usize..1000,
        tx in 0.0f64..100.0,
        ty in 0.0f64..100.0,
        snap in 0usize..2,
    ) {
        let snapped = |v: f64| if snap == 1 { (v / 5.0).round() * 5.0 } else { v };
        let place = |p: Point| Point::new(snapped(p.x), snapped(p.y));
        let nodes = Deployment::new(Rect::square(100.0), n, Placement::Uniform, seed)
            .nodes()
            .into_iter()
            .map(|node| Node::new(node.id, place(node.position)))
            .collect();
        let topo = Topology::build(nodes, 30.0).unwrap();
        let target = place(Point::new(tx, ty));
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        // Coincident nodes can exhaust the hop budget; the hops taken
        // before a typed error are not observable, so only routes count.
        let Ok(route) = gpsr.route(&topo, NodeId((from_sel % n) as u32), target) else {
            return Ok(());
        };
        let mut greedy_prefix = 0;
        for hop in route.path.windows(2) {
            let own = topo.position(hop[0]).distance_sq(target);
            let closest = topo
                .neighbors(hop[0])
                .iter()
                .map(|&nb| (topo.position(nb).distance_sq(target), nb))
                .filter(|&(d, _)| d < own)
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((_, closest)) = closest else { break };
            prop_assert_eq!(hop[1], closest, "hop {} of {:?}", greedy_prefix, route.path);
            greedy_prefix += 1;
        }
        prop_assert!(greedy_prefix <= route.greedy_hops);
        if route.perimeter_hops == 0 {
            prop_assert_eq!(greedy_prefix, route.hops());
        }
    }

    /// Routing is deterministic: the same request produces the same path.
    #[test]
    fn routing_is_deterministic(seed in 0u64..500, n in 30usize..80) {
        let Some(topo) = build(n, seed, 90.0, 30.0) else { return Ok(()) };
        let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
        let a = gpsr.route(&topo, NodeId(0), Point::new(45.0, 45.0)).unwrap();
        let b = gpsr.route(&topo, NodeId(0), Point::new(45.0, 45.0)).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Failing any single non-articulation node leaves routing working for
    /// every surviving destination.
    #[test]
    fn single_failure_does_not_break_routing(
        seed in 0u64..500,
        n in 40usize..90,
        victim_sel in 0usize..1000,
    ) {
        let Some(topo) = build(n, seed, 90.0, 30.0) else { return Ok(()) };
        let victim = NodeId((victim_sel % n) as u32);
        let mut failed = topo.clone();
        failed.fail_nodes(&[victim]);
        if !failed.is_connected() {
            return Ok(()); // articulation point: vacuous
        }
        let gpsr = Gpsr::new(&failed, Planarization::Gabriel);
        let from = if victim == NodeId(0) { NodeId(1) } else { NodeId(0) };
        for probe in [7u32, n as u32 / 2, n as u32 - 1] {
            let to = NodeId(probe % n as u32);
            if to == victim || to == from {
                continue;
            }
            let route = gpsr.route_to_node(&failed, from, to);
            prop_assert!(route.is_ok(), "after failing {victim}: {route:?}");
            prop_assert!(route.unwrap().path.iter().all(|&h| h != victim));
        }
    }
}
