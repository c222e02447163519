//! Failure-injection integration tests across Pool, DIM, and the routing
//! substrate: nodes die, the systems repair themselves, and every
//! queryable guarantee is re-checked against ground truth.

use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::gpsr::{Gpsr, Planarization};
use pool_dcs::netsim::{Deployment, NodeId, Topology};
use pool_dcs::transport::{Substrate, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn connected(n: usize, mut seed: u64) -> (Topology, pool_dcs::netsim::Rect) {
    loop {
        let dep = Deployment::paper_setting(n, 40.0, 20.0, seed).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        if topo.is_connected() {
            return (topo, dep.field());
        }
        seed += 4096;
    }
}

/// Picks `count` victims whose removal keeps the network connected.
fn safe_victims(topo: &Topology, count: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut picked: Vec<NodeId> = Vec::new();
    let mut tries = 0;
    while picked.len() < count && tries < 2000 {
        tries += 1;
        let candidate = NodeId(rng.gen_range(0..topo.len() as u32));
        if picked.contains(&candidate) {
            continue;
        }
        let mut attempt = picked.clone();
        attempt.push(candidate);
        let mut without = topo.clone();
        without.fail_nodes(&attempt);
        if without.is_connected() {
            picked.push(candidate);
        }
    }
    picked
}

#[test]
fn gpsr_still_delivers_after_failures() {
    let (topo, _) = connected(300, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let victims = safe_victims(&topo, 15, &mut rng);
    let mut failed = topo.clone();
    failed.fail_nodes(&victims);
    let gpsr = Gpsr::new(&failed, Planarization::Gabriel);
    let survivors: Vec<NodeId> =
        failed.nodes().iter().filter(|n| failed.is_alive(n.id)).map(|n| n.id).collect();
    for i in (0..survivors.len()).step_by(11) {
        let from = survivors[i];
        let to = survivors[survivors.len() - 1 - i];
        let route = gpsr.route_to_node(&failed, from, to).unwrap();
        assert_eq!(route.delivered, to);
        // The route never crosses a dead node.
        for hop in &route.path {
            assert!(failed.is_alive(*hop));
        }
    }
}

#[test]
fn replicated_pool_answers_match_pre_failure_truth() {
    let (topo, field) = connected(400, 3);
    let mut pool =
        PoolSystem::build(topo.clone(), field, PoolConfig::paper().with_seed(3).with_replication())
            .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let mut inserted = Vec::new();
    for _ in 0..500 {
        let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
        pool.insert_from(NodeId(rng.gen_range(0..400)), e.clone()).unwrap();
        inserted.push(e);
    }
    let victims = safe_victims(pool.topology(), 10, &mut rng);
    let report = pool.fail_nodes(&victims).unwrap();
    assert_eq!(report.events_lost, 0);

    // Every pre-failure event is still retrievable by point query.
    for e in inserted.iter().step_by(23) {
        let q = RangeQuery::point(e.values().to_vec()).unwrap();
        let mut sink = NodeId(rng.gen_range(0..400));
        while !pool.topology().is_alive(sink) {
            sink = NodeId(rng.gen_range(0..400));
        }
        let got = pool.query_from(sink, &q).unwrap();
        assert!(got.events.contains(e), "lost {e} after failures");
    }
}

#[test]
fn unreplicated_loss_is_exactly_the_dead_holders_inventory() {
    let (topo, field) = connected(350, 5);
    let mut pool =
        PoolSystem::build(topo.clone(), field, PoolConfig::paper().with_seed(5)).unwrap();
    let mut dim = DimSystem::build(topo, field, 3, &Substrate::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..400 {
        let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
        let src = NodeId(rng.gen_range(0..350));
        pool.insert_from(src, e.clone()).unwrap();
        dim.insert_from(src, e).unwrap();
    }
    let victims = safe_victims(pool.topology(), 8, &mut rng);
    let pool_at_risk: usize = victims.iter().map(|&v| pool.store().count_at(v)).sum();
    let report = pool.fail_nodes(&victims).unwrap();
    assert_eq!(report.events_lost, pool_at_risk);
    assert_eq!(report.events_recovered, 0, "no replication, nothing to recover");

    let dim_before = dim.stored_events();
    let dim_report = dim.fail_nodes(&victims).unwrap();
    assert_eq!(dim.stored_events(), dim_before - dim_report.events_lost);

    // Both systems remain internally consistent: network answers equal
    // their own surviving ground truth.
    let full = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let sink = pool.topology().nodes().iter().find(|n| pool.topology().is_alive(n.id)).unwrap().id;
    assert_eq!(pool.query_from(sink, &full).unwrap().events.len(), pool.store().len());
    assert_eq!(dim.query_from(sink, &full).unwrap().events.len(), dim.stored_events());
}

#[test]
fn cached_routes_never_cross_dead_nodes_after_failures() {
    let (topo, field) = connected(300, 11);
    let mut pool = PoolSystem::build(
        topo,
        field,
        PoolConfig::paper().with_seed(11).with_transport(TransportKind::Cached),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(12);

    // Warm the route memo: inserts and queries populate it with paths over
    // the intact topology.
    for _ in 0..200 {
        let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
        pool.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
    }
    for _ in 0..20 {
        let q = RangeQuery::exact(vec![(0.2, 0.4), (0.1, 0.6), (0.3, 0.5)]).unwrap();
        pool.query_from(NodeId(rng.gen_range(0..300)), &q).unwrap();
    }

    let generation_before = pool.transport().generation();
    let victims = safe_victims(pool.topology(), 12, &mut rng);
    pool.fail_nodes(&victims).unwrap();

    // The repair rebuilt the substrate: stale pre-failure routes are gone.
    assert_eq!(pool.transport().generation(), generation_before + 1);

    // Every route served after the failure stays on living nodes.
    let survivors: Vec<NodeId> = pool
        .topology()
        .nodes()
        .iter()
        .filter(|n| pool.topology().is_alive(n.id))
        .map(|n| n.id)
        .collect();
    let topo = pool.topology().clone();
    for i in (0..survivors.len()).step_by(7) {
        let from = survivors[i];
        let to = survivors[survivors.len() - 1 - i];
        let route = pool.transport_mut().route_to_node(&topo, from, to).unwrap();
        assert_eq!(route.delivered, to);
        for hop in &route.path {
            assert!(topo.is_alive(*hop), "cached route crosses dead node {hop:?}");
        }
    }
}

#[test]
fn nearest_neighbor_still_exact_after_failures() {
    let (topo, field) = connected(300, 7);
    let mut pool =
        PoolSystem::build(topo, field, PoolConfig::paper().with_seed(7).with_replication())
            .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..200 {
        let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
        pool.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
    }
    let victims = safe_victims(pool.topology(), 6, &mut rng);
    pool.fail_nodes(&victims).unwrap();

    let full = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let survivors = pool.brute_force_query(&full);
    for _ in 0..10 {
        let probe = [rng.gen(), rng.gen(), rng.gen()];
        let mut sink = NodeId(rng.gen_range(0..300));
        while !pool.topology().is_alive(sink) {
            sink = NodeId(rng.gen_range(0..300));
        }
        let (got, _) = pool.nearest(sink, &probe).unwrap();
        let want = survivors
            .iter()
            .map(|e| pool_dcs::core::nn::event_distance(&probe, e))
            .fold(f64::INFINITY, f64::min);
        assert!((got.unwrap().1 - want).abs() < 1e-12);
    }
}

/// Up to `count` of `candidates`, in order, whose removal together keeps
/// `topo` connected.
fn connected_victims(
    topo: &Topology,
    candidates: impl IntoIterator<Item = NodeId>,
    count: usize,
) -> Vec<NodeId> {
    let mut picked = Vec::new();
    for candidate in candidates {
        if picked.len() == count {
            break;
        }
        picked.push(candidate);
        let mut without = topo.clone();
        without.fail_nodes(&picked);
        if !without.is_connected() {
            picked.pop();
        }
    }
    picked
}

/// A one-shot model of DIM's failure repair, the reference for its epoch:
/// every event of a zone whose owner dies is lost, the zone goes to the
/// live node nearest its center, and a partition is tallied over the
/// survivors. Fails `victims` on `dim` and checks the result against it.
fn assert_dim_burst_matches_the_one_shot_repair(dim: &mut DimSystem, victims: &[NodeId]) {
    use std::collections::HashSet;
    let all = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let dying: HashSet<NodeId> =
        victims.iter().copied().filter(|&v| dim.topology().is_alive(v)).collect();
    let owners: Vec<NodeId> = dim.tree().zones().iter().map(|z| z.owner).collect();
    let (mut kept, mut lost) = (Vec::new(), 0);
    for e in dim.brute_force_query(&all) {
        if dying.contains(&owners[dim.tree().zone_index_of_event(e.values())]) {
            lost += 1;
        } else {
            kept.push(e);
        }
    }

    let report = dim.fail_nodes(victims).unwrap();
    let topology = dim.topology();
    let zones = dim.tree().zones();
    for (zone_idx, (zone, old)) in zones.iter().zip(&owners).enumerate() {
        let elected = topology.nearest_node(dim.tree().region(zone_idx).center());
        assert_eq!(zone.owner, if dying.contains(old) { elected } else { *old });
    }
    assert_eq!((report.failed_nodes, report.events_lost, report.epochs), (dying.len(), lost, 0));
    assert_eq!(report.cells_reassigned, owners.iter().filter(|o| dying.contains(o)).count());
    assert_eq!(report.partitioned, !topology.is_connected());
    let main: HashSet<NodeId> = topology.largest_component_members().into_iter().collect();
    let cut_off = zones.iter().filter(|z| !main.contains(&z.owner)).count();
    let tallies =
        if report.partitioned { (topology.alive_count() - main.len(), cut_off) } else { (0, 0) };
    assert_eq!((report.nodes_unreachable, report.cells_unreachable), tallies);
    let mut stored = dim.brute_force_query(&all);
    stored.sort_by(|a, b| a.values().partial_cmp(b.values()).unwrap());
    kept.sort_by(|a, b| a.values().partial_cmp(b.values()).unwrap());
    assert_eq!(stored, kept, "the store keeps exactly the live owners' events");
    assert_eq!((report.repair_messages, report.deferred_repairs), (0, 0));
}

/// A failure burst is the deaths-only epoch with no budget, so with
/// replication on it pays for the copies that died and nothing else. On a
/// loss-free radio the Replication layer grows by exactly one message per
/// retained event whose backup sat on a victim, plus one per recovered
/// event whose surviving backup became its cell's index node (one node
/// holding both copies is no replica). Killing nodes that hold neither a
/// primary nor a backup costs nothing at all. DIM's burst leaves the
/// store, owners and report the one-shot repair model predicts.
#[test]
fn a_failure_burst_pays_only_for_the_copies_it_killed() {
    use pool_dcs::core::grid::CellCoord;
    use pool_dcs::transport::TrafficLayer;
    use std::collections::HashSet;

    let (topo, field) = connected(400, 31);
    let config = PoolConfig::paper().with_seed(31).with_replication();
    let mut pool = PoolSystem::build(topo.clone(), field, config).unwrap();
    let mut dim = DimSystem::build(topo, field, 3, &Substrate::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..300 {
        let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
        let src = NodeId(rng.gen_range(0..400));
        pool.insert_from(src, e.clone()).unwrap();
        dim.insert_from(src, e).unwrap();
    }
    let copies = |pool: &PoolSystem| -> Vec<(CellCoord, NodeId, Option<NodeId>)> {
        let stored =
            pool.store().iter().flat_map(|(&c, events)| events.iter().map(move |s| (c, s)));
        stored.map(|(c, s)| (c, s.holder, s.backup.get())).collect()
    };
    let replication = |pool: &PoolSystem| pool.ledger().layer_total(TrafficLayer::Replication);

    // Nodes holding neither copy: their death moves no event.
    let held = copies(&pool);
    let busy: HashSet<NodeId> = held.iter().flat_map(|&(_, h, b)| [Some(h), b]).flatten().collect();
    let idle = (0..400).map(NodeId).filter(|n| !busy.contains(n));
    let idle = connected_victims(pool.topology(), idle, 6);
    assert_eq!(idle.len(), 6);
    let before = pool.ledger().total_messages();
    let report = pool.fail_nodes(&idle).unwrap();
    assert_eq!((report.failed_nodes, report.events_retained), (6, held.len()), "{report:?}");
    assert_eq!(report.repair_messages, 0, "{report:?}");
    assert_eq!(pool.ledger().total_messages(), before);

    // Backup holders and one primary holder whose cell passes to a node
    // holding one of the cell's backups: only the retained events whose
    // backup died are re-backed; the recovered keep their surviving backup
    // unless it now holds the primary too.
    let held = copies(&pool);
    let primaries: HashSet<NodeId> = held.iter().map(|&(_, h, _)| h).collect();
    let mut ordered: Vec<NodeId> = primaries.iter().copied().collect();
    ordered.sort_unstable();
    let (primary, heir) = ordered
        .into_iter()
        .find_map(|p| {
            let mut without = pool.topology().clone();
            without.fail_nodes(&[p]);
            held.iter().filter(|&&(_, h, _)| h == p).find_map(|&(c, _, b)| {
                let heir = without.nearest_node(pool.grid().center(c));
                (b == Some(heir)).then_some((p, heir))
            })
        })
        .expect("some cell's next-nearest node holds one of its backups");
    let backups = held.iter().filter_map(|&(_, _, b)| b);
    let backups = backups.filter(|b| !primaries.contains(b) && *b != heir);
    let mut candidates: Vec<NodeId> = backups.collect::<HashSet<_>>().into_iter().collect();
    candidates.sort_unstable();
    candidates.insert(0, primary);
    let victims = connected_victims(pool.topology(), candidates, 8);
    assert!(victims.len() == 8 && victims[0] == primary);
    let dies = |n: &Option<NodeId>| n.is_some_and(|n| victims.contains(&n));
    let rebacked = held.iter().filter(|(_, h, b)| !victims.contains(h) && dies(b)).count();
    let recovered: Vec<_> =
        held.iter().filter(|(_, h, b)| victims.contains(h) && b.is_some() && !dies(b)).collect();
    let lost = held.iter().filter(|(_, h, _)| victims.contains(h)).count() - recovered.len();
    assert!(rebacked > 0 && !recovered.is_empty());
    let before = replication(&pool);
    let report = pool.fail_nodes(&victims).unwrap();
    let onto_backup = recovered.iter().filter(|(c, _, b)| pool.index_node_of(*c) == *b).count();
    assert!(onto_backup > 0, "the burst must elect a backup holder as an index node");
    let expected = rebacked + onto_backup;
    assert_eq!(replication(&pool) - before, expected as u64, "{report:?}");
    let counts = (report.events_recovered, report.events_lost);
    assert_eq!(counts, (recovered.len(), lost), "{report:?}");
    assert_eq!(pool.store().len(), held.len() - lost);
    for (cell, holder, backup) in copies(&pool) {
        assert_eq!(Some(holder), pool.index_node_of(cell));
        assert!(backup.is_some_and(|b| b != holder), "{cell}: two copies on {holder}");
    }

    // DIM: owners first, then a stripe that partitions the field.
    let mut owners: Vec<NodeId> = dim.tree().zones().iter().map(|z| z.owner).collect();
    owners.sort_unstable();
    owners.dedup();
    let owners = connected_victims(dim.topology(), owners, 3);
    assert_dim_burst_matches_the_one_shot_repair(&mut dim, &owners);
    let mid_x = field.center().x;
    let stripe: Vec<NodeId> = dim
        .topology()
        .nodes()
        .iter()
        .filter(|n| (n.position.x - mid_x).abs() < 45.0)
        .map(|n| n.id)
        .collect();
    assert_dim_burst_matches_the_one_shot_repair(&mut dim, &stripe);
    assert!(!dim.topology().is_connected(), "the stripe must partition");
}

/// Folded in from the PR 7 scratch review: with a repair budget of zero,
/// Backup tasks queued by a churn epoch must neither duplicate nor drain
/// across idle repair-only epochs — the queue length is exactly constant.
#[test]
fn zero_budget_repair_queue_stays_constant_across_idle_epochs() {
    use pool_dcs::core::config::SharingPolicy;
    use pool_dcs::core::dynamics::{ChurnConfig, ChurnPlanner, EpochPlan, RepairQueue};
    use pool_dcs::workloads::events::{EventDistribution, EventGenerator};

    let (topo, field) = connected(300, 107);
    let config =
        PoolConfig::paper().with_seed(107).with_sharing(SharingPolicy::new(8)).with_replication();
    let mut pool = PoolSystem::build(topo, field, config).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for _ in 0..90 {
        let src = NodeId(rng.gen_range(0..300));
        pool.insert_from(src, generator.generate(&mut rng)).unwrap();
    }
    // One churn epoch with budget 0 so Backup tasks queue instead of running.
    let mut planner = ChurnPlanner::new(ChurnConfig::new(0).with_rates(2, 3, 2));
    let mut queue = RepairQueue::default();
    let plan = planner.plan(pool.topology(), pool.field());
    pool.apply_epoch(&plan, &mut queue, 0).unwrap();
    let queued = queue.len();
    assert!(queued > 0, "churn with dead nodes must queue repair work");
    // Repair-only epochs, still budget 0: the queue must stay constant.
    for _ in 0..4 {
        pool.apply_epoch(&EpochPlan::empty(), &mut queue, 0).unwrap();
        assert_eq!(queue.len(), queued, "idle zero-budget epoch changed the repair queue");
    }
}

/// Regression for stale cached routes: once a failed delivery proves a node
/// dead and the passive detector suspects it, detoured deliveries put zero
/// further traffic on that node — the memoized routes crossing it were
/// evicted on `failed_hop`, not at the next generation bump.
#[test]
fn suspected_dead_node_takes_no_further_traffic() {
    use pool_dcs::transport::{
        Fault, FaultPlan, FaultyTransport, LossyConfig, RecoveryConfig, TrafficLayer, Transport,
        TransportKind,
    };

    let (topo, _) = connected(300, 21);
    let mut inner = TransportKind::Cached.build(&topo, Planarization::Gabriel);

    // Find an endpoint pair whose route has an interior relay.
    let mut rng = StdRng::seed_from_u64(42);
    let (from, to, relay) = loop {
        let a = NodeId(rng.gen_range(0..300));
        let b = NodeId(rng.gen_range(0..300));
        if a == b {
            continue;
        }
        if let Ok(route) = inner.route_to_node(&topo, a, b) {
            if route.path.len() >= 4 {
                break (a, b, route.path[route.path.len() / 2]);
            }
        }
    };

    let recovery = RecoveryConfig::default();
    let mut transport = FaultyTransport::wrap_adaptive(
        inner,
        LossyConfig::fixed(1.0, 9),
        FaultPlan::new().with(Fault::Crash { node: relay, at: 0.0 }),
        recovery,
    );

    // Enough failed deliveries for the detector's k consecutive exhausted
    // budgets on the hop into the dead relay.
    for _ in 0..recovery.suspect_after {
        let route = transport.route_to_node(&topo, from, to).unwrap();
        let outcome = transport.deliver(&topo, &route.path, TrafficLayer::Forward);
        assert!(!outcome.delivered, "delivery through a crashed relay must fail");
        assert_eq!(outcome.failed_hop.map(|(_, t)| t), Some(relay));
    }
    assert!(
        transport.adaptive().unwrap().is_suspect(relay),
        "the detector must suspect the crashed relay"
    );

    // From here on the dead node's ledger line is frozen: detoured
    // deliveries route around it and charge it nothing.
    let dead_load = transport.ledger().node_load(relay);
    for _ in 0..5 {
        let route = transport.route_to_node_avoiding(&topo, from, to, &[]).unwrap();
        assert!(!route.path.contains(&relay), "detour route still crosses the suspect");
        let outcome = transport.deliver(&topo, &route.path, TrafficLayer::Forward);
        assert!(outcome.delivered, "detoured delivery must succeed on a perfect link");
    }
    assert_eq!(
        transport.ledger().node_load(relay),
        dead_load,
        "post-failure traffic charged through the dead node"
    );
    assert!(transport.delivery_stats().detour_routes >= 1);
}
