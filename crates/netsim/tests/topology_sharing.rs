//! A topology's clones share its arenas, and the sharing must not show.
//! Seeded random joins, moves, deaths and compactions run on one clone
//! while the original and a sibling clone are held: both must read exactly
//! as they did before, and the written clone must equal the same history
//! replayed on a topology that was never cloned — every accessor, and what
//! each write returned (a joiner's id, the rows a compaction folded).

use pool_netsim::deployment::{Deployment, Placement};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::{Node, NodeId};
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIDE: f64 = 100.0;
const RANGE: f64 = 22.0;

fn deployment(seed: u64) -> Vec<Node> {
    Deployment::new(Rect::square(SIDE), 120, Placement::Uniform, seed).nodes()
}

#[derive(Debug, Clone)]
enum Op {
    Join(Point),
    Move(NodeId, Point),
    Fail(Vec<NodeId>),
    Compact,
}

/// Applies `op`, returning what it hands back: the joiner's id, or the
/// rows a compaction folded.
fn apply(topo: &mut Topology, op: &Op) -> Vec<NodeId> {
    match op {
        Op::Join(at) => vec![topo.add_node(*at)],
        Op::Move(id, to) => {
            topo.move_node(*id, *to);
            Vec::new()
        }
        Op::Fail(dead) => {
            topo.fail_nodes(dead);
            Vec::new()
        }
        Op::Compact => topo.compact(),
    }
}

/// A write that is legal on `topo`. Half the destinations land exactly on
/// another node, so the co-location flag gets set too; a death may name a
/// node that is already dead. `compact` weighs whether compactions are
/// drawn at all.
fn random_op(topo: &Topology, rng: &mut StdRng, compact: bool) -> Op {
    let any = |rng: &mut StdRng| NodeId(rng.gen_range(0..topo.len() as u32));
    let spot = |rng: &mut StdRng| {
        if rng.gen_range(0..2) == 0 {
            topo.position(any(rng))
        } else {
            Point::new(rng.gen_range(-10.0..SIDE + 10.0), rng.gen_range(-10.0..SIDE + 10.0))
        }
    };
    match rng.gen_range(0..8) {
        0 | 1 => Op::Join(spot(rng)),
        2..=4 => {
            let id = any(rng);
            if topo.is_alive(id) {
                Op::Move(id, spot(rng))
            } else {
                Op::Join(spot(rng))
            }
        }
        5 | 6 => Op::Fail((0..rng.gen_range(1..4)).map(|_| any(rng)).collect()),
        _ if compact => Op::Compact,
        _ => Op::Fail(vec![any(rng)]),
    }
}

/// Everything a topology shows through its public API, with its spatial
/// queries read at fixed probe points.
#[derive(Debug, PartialEq)]
struct View {
    nodes: Vec<Node>,
    neighbors: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    rows: Vec<(Node, Vec<NodeId>)>,
    bounds: Rect,
    coincident: bool,
    patched_rows: usize,
    largest_component: Vec<NodeId>,
    nearest: Vec<NodeId>,
    within: Vec<Vec<NodeId>>,
}

fn view(topo: &Topology, probes: &[Point]) -> View {
    let ids = (0..topo.len() as u32).map(NodeId);
    View {
        nodes: topo.nodes().to_vec(),
        neighbors: ids.clone().map(|id| topo.neighbors(id).to_vec()).collect(),
        alive: ids.map(|id| topo.is_alive(id)).collect(),
        rows: topo.rows().map(|(node, row)| (*node, row.to_vec())).collect(),
        bounds: topo.bounds(),
        coincident: topo.has_coincident_nodes(),
        patched_rows: topo.patched_rows(),
        largest_component: topo.largest_component_members(),
        nearest: probes.iter().map(|&p| topo.nearest_node(p)).collect(),
        within: probes.iter().map(|&p| topo.nodes_within(p, 1.5 * RANGE)).collect(),
    }
}

/// Probe points: some nodes' own positions, points just off them, and
/// points around and outside the field.
fn probes(topo: &Topology, rng: &mut StdRng) -> Vec<Point> {
    let mut out = Vec::new();
    for _ in 0..12 {
        let at = topo.position(NodeId(rng.gen_range(0..topo.len() as u32)));
        out.push(at);
        out.push(Point::new(at.x + rng.gen_range(-3.0..3.0), at.y + rng.gen_range(-3.0..3.0)));
        out.push(Point::new(rng.gen_range(-30.0..SIDE + 30.0), rng.gen_range(-30.0..SIDE + 30.0)));
    }
    out
}

/// Clones `original` into a writer and a sibling, then runs `lead` and
/// `random` seeded writes on the writer and on `replay` — the same
/// topology reached without ever being cloned. After every write the
/// writer must equal the replay, write results included, and the original,
/// the sibling and every clone taken of the writer along the way must read
/// as they did when taken.
fn check_writes_on_a_clone(
    original: &Topology,
    mut replay: Topology,
    lead: &[Op],
    random: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spots = probes(original, &mut rng);
    let before = view(original, &spots);
    assert_eq!(view(&replay, &spots), before, "the replay starts where the original is");
    let sibling = original.clone();
    let mut writer = original.clone();
    let mut held: Vec<(Topology, View)> = Vec::new();
    for step in 0..lead.len() + random {
        let op = match lead.get(step) {
            Some(op) => op.clone(),
            None => random_op(&replay, &mut rng, true),
        };
        let got = apply(&mut writer, &op);
        assert_eq!(got, apply(&mut replay, &op), "seed {seed}, step {step}: {op:?} returned");
        let now = view(&writer, &spots);
        assert_eq!(now, view(&replay, &spots), "seed {seed}, step {step}: after {op:?}");
        assert!(view(original, &spots) == before, "seed {seed}, step {step}: original moved");
        assert!(view(&sibling, &spots) == before, "seed {seed}, step {step}: sibling moved");
        for (k, (clone, then)) in held.iter().enumerate() {
            assert!(view(clone, &spots) == *then, "seed {seed}, step {step}: held clone {k} moved");
        }
        if step % 7 == 3 {
            held.push((writer.clone(), now));
        }
    }
}

#[test]
fn random_writes_on_a_clone_of_a_built_topology_stay_private() {
    for seed in 0..6 {
        let nodes = deployment(seed);
        let original = Topology::build(nodes.clone(), RANGE).unwrap();
        let replay = Topology::build(nodes, RANGE).unwrap();
        check_writes_on_a_clone(&original, replay, &[], 40, 100 + seed);
    }
}

#[test]
fn a_join_right_after_a_clone_stays_private() {
    for seed in 0..3 {
        let nodes = deployment(10 + seed);
        let original = Topology::build(nodes.clone(), RANGE).unwrap();
        let replay = Topology::build(nodes, RANGE).unwrap();
        let onto = original.position(NodeId(7));
        let lead = [
            Op::Join(Point::new(SIDE / 2.0, SIDE / 2.0)),
            Op::Join(onto),
            Op::Join(Point::new(4.0 * SIDE, -SIDE)),
        ];
        check_writes_on_a_clone(&original, replay, &lead, 12, 200 + seed);
    }
}

/// The mover's row is copied out of the shared CSR arena into the writer's
/// overlay, and its position out of the shared node records.
#[test]
fn a_move_of_a_never_overlaid_row_right_after_a_clone_stays_private() {
    for seed in 0..3 {
        let nodes = deployment(20 + seed);
        let original = Topology::build(nodes.clone(), RANGE).unwrap();
        assert_eq!(original.patched_rows(), 0, "a built topology overlays no row");
        let replay = Topology::build(nodes, RANGE).unwrap();
        let mover = NodeId(11);
        let away = Point::new(SIDE - original.position(mover).x, original.position(mover).y);
        let lead = [Op::Move(mover, away), Op::Move(NodeId(12), original.position(NodeId(13)))];
        check_writes_on_a_clone(&original, replay, &lead, 12, 300 + seed);
    }
}

/// The original carries an overlay when it is cloned: the writer gets its
/// own copy of the overlay, and shares the arenas under it.
#[test]
fn random_writes_on_a_clone_of_an_uncompacted_topology_stay_private() {
    for seed in 0..4 {
        let nodes = deployment(30 + seed);
        let mut original = Topology::build(nodes.clone(), RANGE).unwrap();
        let mut replay = Topology::build(nodes, RANGE).unwrap();
        let mut rng = StdRng::seed_from_u64(400 + seed);
        for _ in 0..10 {
            let op = random_op(&replay, &mut rng, false);
            assert_eq!(apply(&mut original, &op), apply(&mut replay, &op));
        }
        assert!(original.patched_rows() > 0, "seed {seed}: the prefix leaves an overlay");
        // A move of a node whose row the prefix did not overlay.
        let folded = original.clone().compact();
        let mover = (0..original.len() as u32)
            .map(NodeId)
            .find(|id| original.is_alive(*id) && !folded.contains(id))
            .expect("most rows are untouched");
        let lead = [Op::Move(mover, Point::new(SIDE / 3.0, SIDE / 3.0)), Op::Compact];
        check_writes_on_a_clone(&original, replay, &lead, 30, 500 + seed);
    }
}
