//! A router's clones share its planar graph, and the sharing must not show.
//! Clones read the very same rows; after seeded joins, moves and deaths,
//! refreshing one clone over the churned topology leaves its siblings
//! reading exactly the pre-churn graph, while the refreshed clone equals a
//! planarisation of the churned topology built from scratch.

use pool_gpsr::planar::{PlanarGraph, Planarization};
use pool_gpsr::router::Gpsr;
use pool_netsim::deployment::{Deployment, Placement};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIDE: f64 = 100.0;
const RANGE: f64 = 22.0;
const METHODS: [Planarization; 2] = [Planarization::Gabriel, Planarization::RelativeNeighborhood];

fn topology(seed: u64) -> Topology {
    let nodes = Deployment::new(Rect::square(SIDE), 150, Placement::Uniform, seed).nodes();
    Topology::build(nodes, RANGE).expect("valid deployment")
}

/// Every planar row, in node-id order, read through `topology`.
fn rows(planar: &PlanarGraph, topology: &Topology) -> Vec<Vec<NodeId>> {
    (0..topology.len() as u32).map(|i| planar.neighbors(topology, NodeId(i)).to_vec()).collect()
}

/// Seeded joins, moves and deaths on a copy of `before`, compacted: the
/// churned topology and the rows the compaction folded.
fn churned(before: &Topology, rng: &mut StdRng) -> (Topology, Vec<NodeId>) {
    let mut after = before.clone();
    let spot = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE));
    for _ in 0..rng.gen_range(4..12) {
        let id = NodeId(rng.gen_range(0..after.len() as u32));
        match rng.gen_range(0..3) {
            0 => {
                after.add_node(spot(rng));
            }
            1 if after.is_alive(id) => after.move_node(id, spot(rng)),
            _ => after.fail_nodes(&[id]),
        }
    }
    let dirty = after.compact();
    (after, dirty)
}

#[test]
fn clones_of_a_router_read_the_same_rows() {
    for method in METHODS {
        let topo = topology(3);
        let gpsr = Gpsr::new(&topo, method);
        let clones = [gpsr.clone(), gpsr.clone()];
        for i in 0..topo.len() as u32 {
            let row = gpsr.planar().neighbors(&topo, NodeId(i));
            for clone in &clones {
                let shared = clone.planar().neighbors(&topo, NodeId(i));
                assert_eq!(shared.as_ptr(), row.as_ptr(), "{method:?}: row {i} was copied");
                assert_eq!(shared, row);
            }
        }
    }
}

#[test]
fn refreshing_one_clone_leaves_its_siblings_on_the_old_graph() {
    let mut rng = StdRng::seed_from_u64(41);
    for seed in 0..6 {
        for method in METHODS {
            let before = topology(seed);
            let original = Gpsr::new(&before, method);
            let old_rows = rows(original.planar(), &before);
            let sibling = original.clone();
            let mut writer = original.clone();

            let (after, dirty) = churned(&before, &mut rng);
            writer.refresh(&after, &dirty);

            for held in [&original, &sibling] {
                assert_eq!(rows(held.planar(), &before), old_rows, "seed {seed}, {method:?}");
                assert_eq!(held.planar(), &PlanarGraph::build(&before, method));
            }
            assert_eq!(
                writer.planar(),
                &PlanarGraph::build(&after, method),
                "seed {seed}, {method:?}: the refreshed clone is not the churned planarisation"
            );
            // Siblings still route over the old snapshot as a fresh router does.
            let fresh = Gpsr::new(&before, method);
            for _ in 0..20 {
                let from = NodeId(rng.gen_range(0..before.len() as u32));
                let target = Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE));
                assert_eq!(
                    sibling.route(&before, from, target),
                    fresh.route(&before, from, target)
                );
            }
        }
    }
}
