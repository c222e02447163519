//! The flat-arena contract: the CSR topology — through any interleaving of
//! in-place mutation, overlay patching, and compaction — must be
//! observationally identical to the persistent clone-per-change
//! representation it replaced. Neighbor tables, GPSR routes, and whole
//! traffic ledgers are all pinned here, because every message count in the
//! checked-in artifacts rides on them.

use pool_dcs::core::dynamics::{ChurnConfig, ChurnScenario};
use pool_dcs::core::{PoolConfig, PoolSystem};
use pool_dcs::gpsr::{Gpsr, Planarization};
use pool_dcs::netsim::geometry::Point;
use pool_dcs::netsim::{Deployment, NodeId, Rect, Topology};
use pool_dcs::transport::TransportKind;
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{exact_query, RangeSizeDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 350;

fn connected(mut seed: u64) -> (Topology, Rect) {
    loop {
        let dep = Deployment::paper_setting(NODES, 40.0, 20.0, seed).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        if topo.is_connected() {
            return (topo, dep.field());
        }
        seed += 4096;
    }
}

/// Neighbor rows, liveness flags, and position bit patterns per node.
type Observation = (Vec<Vec<NodeId>>, Vec<bool>, Vec<(u64, u64)>);

/// Every observable of the adjacency structure, gathered through the
/// public API only.
fn observe(topo: &Topology) -> Observation {
    let neighbors: Vec<Vec<NodeId>> =
        (0..topo.len()).map(|i| topo.neighbors(NodeId(i as u32)).to_vec()).collect();
    let alive: Vec<bool> = (0..topo.len()).map(|i| topo.is_alive(NodeId(i as u32))).collect();
    let positions: Vec<(u64, u64)> = (0..topo.len())
        .map(|i| {
            let p = topo.position(NodeId(i as u32));
            (p.x.to_bits(), p.y.to_bits())
        })
        .collect();
    (neighbors, alive, positions)
}

/// An interleaved churn script: deaths, a join, moves, more deaths —
/// exercising overlay-on-overlay patching before any compaction.
fn churn_script(topo_len: usize) -> (Vec<NodeId>, Point, NodeId, Point, Vec<NodeId>) {
    let first_deaths = vec![NodeId(3), NodeId(17), NodeId((topo_len - 2) as u32)];
    let join_at = Point::new(55.0, 47.0);
    let mover = NodeId(40);
    let move_to = Point::new(12.0, 93.0);
    let second_deaths = vec![NodeId(8), NodeId(41)];
    (first_deaths, join_at, mover, move_to, second_deaths)
}

/// Applies the script with the in-place mutators; compacts iff `compact`.
fn churn_in_place(base: &Topology, compact: bool) -> Topology {
    let mut topo = base.clone();
    let (first, join_at, mover, move_to, second) = churn_script(base.len());
    topo.fail_nodes(&first);
    let joined = topo.add_node(join_at);
    topo.move_node(mover, move_to);
    topo.move_node(joined, Point::new(56.0, 48.5));
    topo.fail_nodes(&second);
    if compact {
        topo.compact();
        assert_eq!(topo.patched_rows(), 0, "compaction must retire the overlay");
    }
    topo
}

/// Applies the same script persistently: a fresh copy per change, never
/// compacted.
fn churn_persistent(base: &Topology) -> Topology {
    let (first, join_at, mover, move_to, second) = churn_script(base.len());
    let mut topo = base.clone();
    topo.fail_nodes(&first);
    let mut topo = topo.clone();
    let joined = topo.add_node(join_at);
    let mut topo = topo.clone();
    topo.move_node(mover, move_to);
    let mut topo = topo.clone();
    topo.move_node(joined, Point::new(56.0, 48.5));
    let mut topo = topo.clone();
    topo.fail_nodes(&second);
    topo
}

#[test]
fn neighbor_tables_match_brute_force_after_churn() {
    let (base, _) = connected(31);
    for topo in [churn_in_place(&base, false), churn_in_place(&base, true)] {
        let range = topo.radio_range();
        for i in 0..topo.len() {
            let a = NodeId(i as u32);
            let row = topo.neighbors(a);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {a} not sorted/deduped");
            for j in 0..topo.len() {
                let b = NodeId(j as u32);
                let expected = i != j
                    && topo.is_alive(a)
                    && topo.is_alive(b)
                    && topo.position(a).distance(topo.position(b)) <= range;
                assert_eq!(
                    row.contains(&b),
                    expected,
                    "adjacency({a}, {b}) diverges from the unit-disk rule"
                );
            }
        }
    }
}

#[test]
fn in_place_and_persistent_churn_are_observationally_identical() {
    let (base, _) = connected(33);
    let persistent = churn_persistent(&base);
    for (label, topo) in
        [("patched", churn_in_place(&base, false)), ("compacted", churn_in_place(&base, true))]
    {
        assert_eq!(observe(&topo), observe(&persistent), "{label} arena diverges");
        assert_eq!(topo.alive_count(), persistent.alive_count());
        assert_eq!(topo.bounds(), persistent.bounds());
        assert_eq!(topo.largest_component(), persistent.largest_component());
    }
}

#[test]
fn gpsr_routes_survive_overlay_and_compaction_unchanged() {
    let (base, _) = connected(35);
    let patched = churn_in_place(&base, false);
    let compacted = churn_in_place(&base, true);
    let reference = churn_persistent(&base);
    for planarization in [Planarization::Gabriel, Planarization::RelativeNeighborhood] {
        let gpsr_ref = Gpsr::new(&reference, planarization);
        let gpsr_patched = Gpsr::new(&patched, planarization);
        let gpsr_compacted = Gpsr::new(&compacted, planarization);
        let members = reference.largest_component_members();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let from = members[rng.gen_range(0..members.len())];
            let to = members[rng.gen_range(0..members.len())];
            let want = gpsr_ref.route_to_node(&reference, from, to);
            let got_patched = gpsr_patched.route_to_node(&patched, from, to);
            let got_compacted = gpsr_compacted.route_to_node(&compacted, from, to);
            match (&want, &got_patched, &got_compacted) {
                (Ok(w), Ok(p), Ok(c)) => {
                    assert_eq!(w.path, p.path, "{planarization:?}: patched route diverges");
                    assert_eq!(w.path, c.path, "{planarization:?}: compacted route diverges");
                }
                (Err(w), Err(p), Err(c)) => {
                    assert_eq!(w, p);
                    assert_eq!(w, c);
                }
                other => panic!("{planarization:?}: route outcomes diverge: {other:?}"),
            }
        }
    }
}

/// End to end: a fig6-style workload over a churned-then-compacted arena
/// charges the exact same ledger as the same workload over the persistent
/// representation — message accounting cannot see the arena rewrite.
#[test]
fn ledger_totals_identical_across_representations() {
    let (base, field) = connected(37);
    let compacted = churn_in_place(&base, true);
    let reference = churn_persistent(&base);

    let run = |topo: Topology| {
        let config = PoolConfig::paper().with_dims(3).with_seed(5);
        let mut pool = PoolSystem::build(topo, field, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
        let members = pool.topology().largest_component_members();
        for _ in 0..300 {
            let src = members[rng.gen_range(0..members.len())];
            let event = generator.generate(&mut rng);
            pool.insert_from(src, event).unwrap();
        }
        let mut results = Vec::new();
        for _ in 0..40 {
            let sink = members[rng.gen_range(0..members.len())];
            let query = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
            let r = pool.query_from(sink, &query).unwrap();
            results.push((r.events.len(), r.cost.forward_messages, r.cost.reply_messages));
        }
        (results, pool.transport().ledger().clone())
    };

    let (results_a, ledger_a) = run(compacted);
    let (results_b, ledger_b) = run(reference);
    assert_eq!(results_a, results_b, "query outcomes diverge across representations");
    assert_eq!(ledger_a, ledger_b, "ledgers diverge across representations");
}

/// The refresh contract, end to end: a 10-epoch churn scenario whose
/// transport re-planarizes only each epoch's dirty rows equals — report for
/// report, answer for answer, ledger row for ledger row, to the virtual
/// nanosecond — the same scenario with every row passed as dirty after every
/// epoch. A refresh that missed a row would route the traffic between epochs
/// (and the next epoch's repairs) over a stale planar graph.
#[test]
fn dirty_row_refresh_and_all_row_refresh_are_observationally_identical() {
    let (base, field) = connected(39);
    let run = |kind: TransportKind, every_row: bool| {
        let config =
            PoolConfig::paper().with_dims(3).with_seed(5).with_replication().with_transport(kind);
        let mut pool = PoolSystem::build(base.clone(), field, config).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
        let churn = ChurnConfig::new(21).with_rates(3, 5, 5).with_epochs(10).with_budget(120);
        let mut scenario = ChurnScenario::new(churn);
        let mut reports = Vec::new();
        let mut answers = Vec::new();
        for _ in 0..churn.epochs {
            reports.push(scenario.advance(&mut pool).unwrap());
            assert_eq!(pool.topology().patched_rows(), 0, "every epoch compacts");
            if every_row {
                let topology = pool.topology().clone();
                pool.transport_mut().rebuild(&topology);
            }
            let members = pool.topology().largest_component_members();
            for _ in 0..20 {
                let src = members[rng.gen_range(0..members.len())];
                let receipt = pool.insert_from(src, generator.generate(&mut rng)).unwrap();
                answers.push((receipt.holder.index(), receipt.messages, 0));
            }
            for _ in 0..10 {
                let sink = members[rng.gen_range(0..members.len())];
                let query =
                    exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
                let r = pool.query_from(sink, &query).unwrap();
                answers.push((r.events.len(), r.cost.forward_messages, r.cost.reply_messages));
            }
        }
        assert_eq!(scenario.epochs_run(), 10);
        let clock = pool.transport().clock().now().to_bits();
        (reports, answers, pool.transport().ledger().clone(), clock)
    };
    for kind in [TransportKind::Gpsr, TransportKind::Cached] {
        let (reports, answers, ledger, clock) = run(kind, false);
        let (reports_all, answers_all, ledger_all, clock_all) = run(kind, true);
        assert!(reports.iter().any(|r| r.failed_nodes > 0 && r.repair_messages > 0));
        assert_eq!(reports, reports_all, "{kind}: epoch reports diverge");
        assert_eq!(answers, answers_all, "{kind}: operation outcomes diverge");
        assert_eq!(ledger, ledger_all, "{kind}: ledgers diverge");
        assert_eq!(clock, clock_all, "{kind}: virtual clocks diverge");
    }
}
