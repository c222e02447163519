//! Distributed planarization of the unit-disk graph.
//!
//! GPSR's perimeter mode requires a planar subgraph of the radio graph.
//! Karp & Kung use either the **Gabriel graph** (GG) or the **relative
//! neighborhood graph** (RNG); both can be computed by each node from its
//! one-hop neighbor table alone, and both keep a connected unit-disk graph
//! connected.

use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::sync::Arc;

/// Which planar subgraph to extract from the unit-disk graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Planarization {
    /// Gabriel graph: keep edge `(u, v)` iff no witness lies strictly inside
    /// the circle with diameter `u–v`. Denser than RNG.
    Gabriel,
    /// Relative neighborhood graph: keep edge `(u, v)` iff no witness `w`
    /// satisfies `max(d(u,w), d(v,w)) < d(u,v)`. A subgraph of the Gabriel
    /// graph.
    RelativeNeighborhood,
}

/// A planar subgraph of a unit-disk topology, with per-node neighbor lists
/// sorted by angle (the order perimeter traversal needs).
///
/// # Examples
///
/// ```
/// use pool_gpsr::planar::{PlanarGraph, Planarization};
/// use pool_netsim::deployment::{Deployment, Placement};
/// use pool_netsim::geometry::Rect;
/// use pool_netsim::topology::Topology;
///
/// let nodes = Deployment::new(Rect::square(80.0), 60, Placement::Uniform, 5).nodes();
/// let topo = Topology::build(nodes, 25.0).unwrap();
/// let planar = PlanarGraph::build(&topo, Planarization::Gabriel);
/// // The planar graph is a subgraph of the radio graph.
/// for node in topo.nodes() {
///     for &nb in planar.neighbors(&topo, node.id) {
///         assert!(topo.are_neighbors(node.id, nb));
///     }
/// }
/// ```
/// Stored as a flat CSR arena (one offsets array into one contiguous link
/// array) like [`Topology`]'s adjacency, so a 100k-node planarization is
/// two allocations rather than 100k. Rows are kept in the topology's
/// storage order ([`Topology::rows`]), so building reads the topology front
/// to back, and a row is looked up through the topology it was built from.
/// Equal graphs have equal rows.
///
/// The arenas are immutable once built and shared behind [`Arc`]s, so a
/// clone is O(1) and clones read the same rows; [`PlanarGraph::refresh`]
/// builds new arenas for the graph it is called on and leaves every other
/// clone reading the old ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanarGraph {
    method: Planarization,
    /// The planar neighbors of the node in storage slot `s` of the topology
    /// ([`Topology::slot`]) are `links[offsets[s]..offsets[s + 1]]`, sorted
    /// by the angle of the edge.
    offsets: Arc<Vec<u32>>,
    links: Arc<Vec<NodeId>>,
}

impl PlanarGraph {
    /// Extracts the chosen planar subgraph from `topology`: the refresh of
    /// a graph that has no rows yet, so every row is computed.
    pub fn build(topology: &Topology, method: Planarization) -> Self {
        let mut graph =
            PlanarGraph { method, offsets: Arc::new(vec![0]), links: Arc::new(Vec::new()) };
        graph.refresh(topology, &[]);
        graph
    }

    /// Brings the graph up to date with a changed `topology`, recomputing
    /// only the rows in `dirty` (plus any row past the old node count) and
    /// carrying every other row over unchanged.
    ///
    /// `topology` is the one the graph was built over, changed since only
    /// by its in-place mutators (which keep every node in its storage
    /// slot). A node's planar row depends only on its own neighbor table
    /// and on the positions of itself and those neighbors, so `dirty` must
    /// hold every node whose table was written or that has a neighbor that
    /// moved since the graph was last brought up to date —
    /// [`Topology::compact`] returns exactly that set. A superset is
    /// harmless; ids outside the topology are ignored.
    pub fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        let n = topology.len();
        let old_rows = self.offsets.len() - 1;
        // The dirty slots in row order, consumed in step with the rows
        // below. An empty set allocates nothing, so a build allocates
        // exactly its two arenas.
        let mut pending: Vec<usize> =
            dirty.iter().filter(|id| id.index() < n).map(|&id| topology.slot(id)).collect();
        pending.sort_unstable();
        let mut pending = pending.into_iter().peekable();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::with_capacity(self.links.len());
        let mut scratch = RowScratch::default();
        offsets.push(0u32);
        for (slot, (node, row)) in topology.rows().enumerate() {
            let mut recompute = slot >= old_rows;
            while pending.next_if_eq(&slot).is_some() {
                recompute = true;
            }
            if recompute {
                planar_row(topology, self.method, node.position, row, &mut scratch, &mut links);
            } else {
                links.extend_from_slice(self.row(slot));
            }
            offsets.push(links.len() as u32);
        }
        self.offsets = Arc::new(offsets);
        self.links = Arc::new(links);
    }

    /// The planarization method used.
    pub fn method(&self) -> Planarization {
        self.method
    }

    /// The planar neighbors of `id` in `topology` (the topology the graph
    /// was built over), sorted by edge angle in `(-π, π]`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, topology: &Topology, id: NodeId) -> &[NodeId] {
        self.row(topology.slot(id))
    }

    /// The planar row stored in `slot`.
    fn row(&self, slot: usize) -> &[NodeId] {
        &self.links[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Whether the undirected planar edge `(a, b)` exists.
    pub fn has_edge(&self, topology: &Topology, a: NodeId, b: NodeId) -> bool {
        self.neighbors(topology, a).contains(&b)
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.links.len() / 2
    }

    /// Size of the largest connected component of the planar graph over
    /// `topology`.
    pub fn largest_component(&self, topology: &Topology) -> usize {
        let n = self.offsets.len() - 1;
        let mut seen = vec![false; n];
        let mut best = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push(start);
            let mut size = 0;
            while let Some(x) = stack.pop() {
                size += 1;
                for &nb in self.row(x) {
                    let slot = topology.slot(nb);
                    if !seen[slot] {
                        seen[slot] = true;
                        stack.push(slot);
                    }
                }
            }
            best = best.max(size);
        }
        best
    }
}

/// Buffers [`planar_row`] reuses from one row to the next.
#[derive(Default)]
struct RowScratch {
    /// The positions of the row's neighbors, in table order.
    positions: Vec<Point>,
    /// The kept edges as `(angle, neighbor)`.
    edges: Vec<(f64, NodeId)>,
}

/// The one row kernel: appends the planar neighbors of the node at `pu`
/// with neighbor table `row` to `links`, sorted by edge angle. Reads nothing
/// but that table and those nodes' positions — each position once, gathered
/// into `scratch`, and one angle per kept edge.
fn planar_row(
    topology: &Topology,
    method: Planarization,
    pu: Point,
    row: &[NodeId],
    scratch: &mut RowScratch,
    links: &mut Vec<NodeId>,
) {
    let RowScratch { positions, edges } = scratch;
    positions.clear();
    positions.extend(row.iter().map(|&w| topology.position(w)));
    edges.clear();
    for (i, (&v, &pv)) in row.iter().zip(positions.iter()).enumerate() {
        if keep_edge(method, pu, i, positions) {
            edges.push((pu.angle_to(pv), v));
        }
    }
    // total_cmp: a NaN angle (undeployable position) must order
    // deterministically, not panic.
    edges.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    links.extend(edges.iter().map(|&(_, v)| v));
}

/// The distributed witness test for the directed edge from the node at `pu`
/// to its `i`-th neighbor, over the gathered neighbor `positions`. Both
/// endpoints apply the same symmetric predicate, so the resulting graph is
/// undirected.
fn keep_edge(method: Planarization, pu: Point, i: usize, positions: &[Point]) -> bool {
    let pv = positions[i];
    let duv_sq = pu.distance_sq(pv);
    // Gabriel: strictly inside the circle with diameter (u, v) — the
    // midpoint test d(m, w) < d(u, v) / 2.
    let m = pu.midpoint(pv);
    // In a unit-disk graph every witness that can eliminate edge (u, v) is
    // within radio range of u, so scanning u's neighbor table suffices —
    // this is what makes the construction distributed.
    !positions.iter().enumerate().any(|(j, &pw)| {
        j != i
            && match method {
                Planarization::Gabriel => m.distance_sq(pw) < duv_sq / 4.0 - 1e-12,
                Planarization::RelativeNeighborhood => {
                    pu.distance_sq(pw) < duv_sq - 1e-12 && pv.distance_sq(pw) < duv_sq - 1e-12
                }
            }
    })
}

/// The kernel [`planar_row`] replaced, kept as the oracle for the row
/// tests: positions re-read per witness, two `atan2` per sort comparison.
#[cfg(test)]
fn planar_row_reference(topology: &Topology, method: Planarization, u: NodeId) -> Vec<NodeId> {
    let pu = topology.position(u);
    let mut kept: Vec<NodeId> = topology
        .neighbors(u)
        .iter()
        .copied()
        .filter(|&v| keep_edge_reference(topology, method, u, v))
        .collect();
    kept.sort_by(|&a, &b| {
        let aa = pu.angle_to(topology.position(a));
        let ab = pu.angle_to(topology.position(b));
        aa.total_cmp(&ab).then(a.cmp(&b))
    });
    kept
}

#[cfg(test)]
fn keep_edge_reference(topology: &Topology, method: Planarization, u: NodeId, v: NodeId) -> bool {
    let pu = topology.position(u);
    let pv = topology.position(v);
    let duv_sq = pu.distance_sq(pv);
    for &w in topology.neighbors(u) {
        if w == v {
            continue;
        }
        let pw = topology.position(w);
        let eliminated = match method {
            Planarization::Gabriel => {
                let m = pu.midpoint(pv);
                m.distance_sq(pw) < duv_sq / 4.0 - 1e-12
            }
            Planarization::RelativeNeighborhood => {
                pu.distance_sq(pw) < duv_sq - 1e-12 && pv.distance_sq(pw) < duv_sq - 1e-12
            }
        };
        if eliminated {
            return false;
        }
    }
    true
}

/// Returns whether two planar edges (given by endpoint positions) cross,
/// re-exported for tests verifying planarity empirically.
pub fn edges_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    pool_netsim::geometry::segments_cross(a1, a2, b1, b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::deployment::{Deployment, Placement};
    use pool_netsim::geometry::Rect;
    use pool_netsim::node::Node;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_topo(n: usize, side: f64, range: f64, seed: u64) -> Topology {
        let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
        Topology::build(nodes, range).unwrap()
    }

    #[test]
    fn planar_graph_is_symmetric() {
        for method in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
            let topo = random_topo(80, 100.0, 30.0, 21);
            let g = PlanarGraph::build(&topo, method);
            for u in topo.nodes() {
                for &v in g.neighbors(&topo, u.id) {
                    assert!(
                        g.has_edge(&topo, v, u.id),
                        "{method:?}: edge {}–{v} not symmetric",
                        u.id
                    );
                }
            }
        }
    }

    #[test]
    fn rng_is_subgraph_of_gabriel() {
        let topo = random_topo(90, 100.0, 28.0, 33);
        let gg = PlanarGraph::build(&topo, Planarization::Gabriel);
        let rng = PlanarGraph::build(&topo, Planarization::RelativeNeighborhood);
        for u in topo.nodes() {
            for &v in rng.neighbors(&topo, u.id) {
                assert!(gg.has_edge(&topo, u.id, v));
            }
        }
        assert!(rng.edge_count() <= gg.edge_count());
    }

    #[test]
    fn planarization_preserves_connectivity() {
        for seed in [1, 2, 3, 4, 5] {
            let topo = random_topo(100, 100.0, 25.0, seed);
            if !topo.is_connected() {
                continue;
            }
            for method in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
                let g = PlanarGraph::build(&topo, method);
                assert_eq!(
                    g.largest_component(&topo),
                    topo.len(),
                    "{method:?} disconnected seed {seed}"
                );
            }
        }
    }

    #[test]
    fn no_two_planar_edges_cross() {
        let topo = random_topo(70, 90.0, 30.0, 9);
        let g = PlanarGraph::build(&topo, Planarization::Gabriel);
        // Collect undirected edges once.
        let mut edges = Vec::new();
        for u in topo.nodes() {
            for &v in g.neighbors(&topo, u.id) {
                if u.id < v {
                    edges.push((u.id, v));
                }
            }
        }
        for (i, &(a, b)) in edges.iter().enumerate() {
            for &(c, d) in &edges[i + 1..] {
                if a == c || a == d || b == c || b == d {
                    continue;
                }
                assert!(
                    !edges_cross(
                        topo.position(a),
                        topo.position(b),
                        topo.position(c),
                        topo.position(d)
                    ),
                    "edges {a}-{b} and {c}-{d} cross"
                );
            }
        }
    }

    #[test]
    fn neighbors_sorted_by_angle() {
        let topo = random_topo(60, 80.0, 30.0, 14);
        let g = PlanarGraph::build(&topo, Planarization::Gabriel);
        for u in topo.nodes() {
            let angles: Vec<f64> = g
                .neighbors(&topo, u.id)
                .iter()
                .map(|&v| u.position.angle_to(topo.position(v)))
                .collect();
            for w in angles.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn square_with_center_witness() {
        // Four corner nodes plus a center node: the Gabriel test must remove
        // the diagonals (center is inside their diameter circles) but keep
        // the sides.
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(10.0, 0.0)),
            Node::new(NodeId(2), Point::new(10.0, 10.0)),
            Node::new(NodeId(3), Point::new(0.0, 10.0)),
            Node::new(NodeId(4), Point::new(5.0, 5.0)),
        ];
        let topo = Topology::build(nodes, 20.0).unwrap();
        let g = PlanarGraph::build(&topo, Planarization::Gabriel);
        assert!(!g.has_edge(&topo, NodeId(0), NodeId(2)), "diagonal should be pruned");
        assert!(!g.has_edge(&topo, NodeId(1), NodeId(3)), "diagonal should be pruned");
        assert!(g.has_edge(&topo, NodeId(0), NodeId(1)), "side should remain");
        assert!(g.has_edge(&topo, NodeId(0), NodeId(4)), "spoke to center should remain");
    }

    /// Regression: the angle sort used `partial_cmp().unwrap()`, so a node
    /// with an undefined (NaN) position could panic planarization. With
    /// `total_cmp` the build completes and the NaN node is simply isolated
    /// (every distance test against NaN is false).
    #[test]
    fn nan_position_planarizes_without_panicking() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(5.0, 0.0)),
            Node::new(NodeId(2), Point::new(f64::NAN, f64::NAN)),
        ];
        let topo = Topology::build(nodes, 10.0).unwrap();
        for method in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
            let g = PlanarGraph::build(&topo, method);
            assert!(g.has_edge(&topo, NodeId(0), NodeId(1)), "{method:?}: finite edge survives");
            assert!(g.neighbors(&topo, NodeId(2)).is_empty(), "{method:?}: NaN node is isolated");
        }
    }

    const METHODS: [Planarization; 2] =
        [Planarization::Gabriel, Planarization::RelativeNeighborhood];

    /// An unchanged topology and an empty dirty set carry every row over.
    #[test]
    fn refresh_with_nothing_dirty_changes_nothing() {
        let topo = random_topo(80, 100.0, 28.0, 41);
        for method in METHODS {
            let built = PlanarGraph::build(&topo, method);
            let mut refreshed = built.clone();
            refreshed.refresh(&topo, &[]);
            assert_eq!(refreshed, built);
        }
    }

    /// Joins grow the graph: rows past the old node count are computed even
    /// when the caller's dirty set does not name them.
    #[test]
    fn refresh_computes_rows_past_the_old_node_count() {
        let mut topo = random_topo(60, 80.0, 25.0, 42);
        let mut graphs = METHODS.map(|m| PlanarGraph::build(&topo, m));
        let a = topo.add_node(Point::new(40.0, 40.0));
        let b = topo.add_node(Point::new(41.0, 44.0));
        let mut dirty = topo.compact();
        dirty.retain(|&id| id != a && id != b);
        for graph in &mut graphs {
            graph.refresh(&topo, &dirty);
            assert_eq!(*graph, PlanarGraph::build(&topo, graph.method()));
            assert!(graph.has_edge(&topo, a, b), "{:?}: the joiners are 4 m apart", graph.method());
        }
    }

    /// A survivor whose whole neighborhood died ends with an empty row.
    #[test]
    fn refresh_isolates_a_node_whose_neighborhood_died() {
        let mut topo = random_topo(90, 100.0, 25.0, 43);
        let mut graphs = METHODS.map(|m| PlanarGraph::build(&topo, m));
        let lonely = NodeId(17);
        let around = topo.neighbors(lonely).to_vec();
        assert!(!around.is_empty());
        topo.fail_nodes(&around);
        let dirty = topo.compact();
        for graph in &mut graphs {
            graph.refresh(&topo, &dirty);
            assert!(graph.neighbors(&topo, lonely).is_empty());
            assert_eq!(*graph, PlanarGraph::build(&topo, graph.method()));
        }
    }

    /// Negative control for the equality checks above and below: leaving a
    /// changed row out of the dirty set leaves a graph that differs from
    /// the full build, so a refresh that skipped dirty rows would be caught.
    #[test]
    fn a_skipped_dirty_row_is_visible_in_the_comparison() {
        let mut topo = random_topo(90, 100.0, 25.0, 44);
        let stale = PlanarGraph::build(&topo, Planarization::Gabriel);
        let victim = NodeId(5);
        let witness = stale.neighbors(&topo, victim)[0];
        topo.fail_nodes(&[victim]);
        let dirty = topo.compact();
        assert!(dirty.contains(&witness));
        let skipped: Vec<NodeId> = dirty.iter().copied().filter(|&id| id != witness).collect();
        let mut refreshed = stale.clone();
        refreshed.refresh(&topo, &skipped);
        assert!(refreshed.has_edge(&topo, witness, victim), "the stale row still names the corpse");
        assert_ne!(refreshed, PlanarGraph::build(&topo, Planarization::Gabriel));
        refreshed.refresh(&topo, &[witness]);
        assert_eq!(refreshed, PlanarGraph::build(&topo, Planarization::Gabriel));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of joins, moves and deaths, compacted once per
        /// epoch and refreshed from what `compact` returned (padded with
        /// unrelated rows: a dirty superset), leaves exactly the graph a
        /// full build of the new topology gives, epoch after epoch.
        #[test]
        fn refresh_equals_full_build_under_random_churn(
            seed in 0u64..100_000,
            n in 40usize..140,
            epochs in 1usize..5,
            padding in 0usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = random_topo(n, 100.0, 25.0, seed);
            let mut graphs = METHODS.map(|m| PlanarGraph::build(&topo, m));
            let somewhere =
                |rng: &mut StdRng| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            for _ in 0..epochs {
                for _ in 0..rng.gen_range(0..8) {
                    let id = NodeId(rng.gen_range(0..topo.len() as u32));
                    match rng.gen_range(0..3) {
                        0 => {
                            topo.add_node(somewhere(&mut rng));
                        }
                        1 if topo.is_alive(id) => topo.move_node(id, somewhere(&mut rng)),
                        _ => topo.fail_nodes(&[id]),
                    }
                }
                let mut dirty = topo.compact();
                for _ in 0..padding {
                    dirty.push(NodeId(rng.gen_range(0..topo.len() as u32)));
                }
                for graph in &mut graphs {
                    graph.refresh(&topo, &dirty);
                    prop_assert_eq!(&*graph, &PlanarGraph::build(&topo, graph.method()));
                }
            }
        }
    }

    /// Oracle: the gathering kernel yields the rows of the kernel it
    /// replaced, for both planarizations, on fields seeded with coincident
    /// nodes (zero-length edges, tied angles) and collinear runs (witnesses
    /// exactly on the Gabriel circle) — on the compacted arena and again
    /// over the overlay that uncompacted joins, moves and deaths leave.
    #[test]
    fn gathered_rows_equal_the_reference_kernel() {
        fn assert_rows_equal(topo: &Topology, when: &str) {
            let mut scratch = RowScratch::default();
            let mut row = Vec::new();
            for method in METHODS {
                for u in topo.nodes() {
                    row.clear();
                    let (at, nbs) = (topo.position(u.id), topo.neighbors(u.id));
                    planar_row(topo, method, at, nbs, &mut scratch, &mut row);
                    assert_eq!(
                        row,
                        planar_row_reference(topo, method, u.id),
                        "{method:?} row of {} {when}",
                        u.id
                    );
                }
            }
        }
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes =
                Deployment::new(Rect::square(100.0), 90, Placement::Uniform, seed).nodes();
            let place = |nodes: &mut Vec<Node>, at: Point| {
                nodes.push(Node::new(NodeId(nodes.len() as u32), at));
            };
            for _ in 0..10 {
                // A twin on top of an existing node, and an evenly spaced
                // collinear run through it.
                let at = nodes[rng.gen_range(0..nodes.len())].position;
                place(&mut nodes, at);
                let step = Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
                for k in 1..4 {
                    place(
                        &mut nodes,
                        Point::new(at.x + step.x * k as f64, at.y + step.y * k as f64),
                    );
                }
            }
            let mut topo = Topology::build(nodes, 25.0).unwrap();
            assert_rows_equal(&topo, "as built");
            for _ in 0..12 {
                let id = NodeId(rng.gen_range(0..topo.len() as u32));
                let onto = topo.position(NodeId(rng.gen_range(0..topo.len() as u32)));
                match rng.gen_range(0..3) {
                    0 => {
                        topo.add_node(onto);
                    }
                    1 if topo.is_alive(id) => topo.move_node(id, onto),
                    _ => topo.fail_nodes(&[id]),
                }
            }
            assert!(topo.patched_rows() > 0, "the churn must leave overlay rows");
            assert_rows_equal(&topo, "over uncompacted churn");
            topo.compact();
            assert_rows_equal(&topo, "after compaction");
        }
    }

    #[test]
    fn isolated_node_has_no_planar_neighbors() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(100.0, 100.0)),
        ];
        let topo = Topology::build(nodes, 10.0).unwrap();
        let g = PlanarGraph::build(&topo, Planarization::Gabriel);
        assert!(g.neighbors(&topo, NodeId(0)).is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
