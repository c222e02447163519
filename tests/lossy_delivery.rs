//! The lossy-delivery contract (DESIGN.md §6): a perfect link must be
//! invisible, loss must degrade results instead of aborting them, and the
//! completeness report must tell the truth.
//!
//! * With `prr = 1.0` the [`LossyTransport`] decorator reproduces the
//!   loss-free substrate byte for byte — same query costs, same traffic
//!   ledger, zero retransmissions — the same equivalence bar as
//!   `transport_equivalence.rs` holds across the link layer.
//! * Under the harsh 15/42 m radio, exact-match queries return partial
//!   results whose [`Completeness`] report is *accurate*: every cell the
//!   result claims to have reached contributed all of its matching stored
//!   events, and every missing cell is listed.
//! * A node failure that partitions the network degrades into unreachable
//!   counts and partial queries instead of a routing error.
//! * Property: bounded ARQ on a fixed-`p` link spends `≈ 1/p` transmissions
//!   per delivered hop (the ETX identity the accounting is built on).
//!
//! [`LossyTransport`]: pool_dcs::transport::LossyTransport
//! [`Completeness`]: pool_dcs::core::system::Completeness

use pool_dcs::core::insert::InsertError;
use pool_dcs::core::resolve::relevant_cells;
use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::gpsr::Planarization;
use pool_dcs::netsim::radio::PrrModel;
use pool_dcs::netsim::{Deployment, NodeId, Rect, Topology};
use pool_dcs::transport::{
    LinkQuality, LossyConfig, LossyTransport, Substrate, TrafficLayer, Transport, TransportKind,
};
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{exact_query, RangeSizeDistribution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 400;
const EVENTS: usize = 800;
const QUERIES: usize = 60;

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

type Placements = Vec<(NodeId, Event)>;
type SinkQueries = Vec<(NodeId, RangeQuery)>;

/// The same fig6-style deterministic workload as `transport_equivalence.rs`.
fn workload(seed: u64) -> (Placements, SinkQueries) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    let events: Vec<(NodeId, Event)> = (0..EVENTS)
        .map(|_| {
            let src = NodeId(rng.gen_range(0..NODES as u32));
            (src, generator.generate(&mut rng))
        })
        .collect();
    let queries: Vec<(NodeId, RangeQuery)> = (0..QUERIES)
        .map(|_| {
            let sink = NodeId(rng.gen_range(0..NODES as u32));
            (sink, exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 }))
        })
        .collect();
    (events, queries)
}

/// (a) A perfect lossy link is observationally identical to no link layer
/// at all, for Pool: same receipts, same query costs and results, same
/// ledger layer by layer — and nothing charged to `Retransmit`.
#[test]
fn perfect_link_reproduces_loss_free_pool_exactly() {
    let (topo, field) = connected(21);
    let (events, queries) = workload(22);

    let mut plain = {
        let config = PoolConfig::paper().with_seed(21);
        PoolSystem::build(topo.clone(), field, config).unwrap()
    };
    let mut lossy = {
        let config = PoolConfig::paper().with_seed(21).with_lossy(LossyConfig::fixed(1.0, 777));
        PoolSystem::build(topo.clone(), field, config).unwrap()
    };

    for (src, e) in &events {
        let a = plain.insert_from(*src, e.clone()).unwrap();
        let b = lossy.insert_from(*src, e.clone()).unwrap();
        assert_eq!(a, b, "insert receipt diverges under a perfect link");
    }
    assert_eq!(plain.ledger(), lossy.ledger(), "insert traffic diverges");

    for (sink, query) in &queries {
        let a = plain.query_from(*sink, query).unwrap();
        let b = lossy.query_from(*sink, query).unwrap();
        assert_eq!(a.cost, b.cost, "QueryCost diverges on {query}");
        assert_eq!(a.events.len(), b.events.len(), "result sets diverge on {query}");
        assert!(b.completeness.is_complete(), "perfect link left {query} incomplete");
        assert_eq!(b.cost.retransmit_messages, 0);
    }

    for layer in TrafficLayer::ALL {
        assert_eq!(
            plain.ledger().layer_total(layer),
            lossy.ledger().layer_total(layer),
            "layer {layer:?} diverges"
        );
    }
    assert_eq!(lossy.ledger().layer_total(TrafficLayer::Retransmit), 0);
    let stats = lossy.transport().delivery_stats();
    assert_eq!(stats.deliveries_failed, 0);
    assert_eq!(stats.retransmissions, 0);
}

/// (a) The same perfect-link equivalence for the DIM baseline.
#[test]
fn perfect_link_reproduces_loss_free_dim_exactly() {
    let (topo, field) = connected(23);
    let (events, queries) = workload(24);

    let mut plain = DimSystem::build(topo.clone(), field, 3, &Substrate::default()).unwrap();
    let mut lossy = DimSystem::build(
        topo.clone(),
        field,
        3,
        &Substrate { lossy: Some(LossyConfig::fixed(1.0, 778)), ..Substrate::default() },
    )
    .unwrap();

    for (src, e) in &events {
        let a = plain.insert_from(*src, e.clone()).unwrap();
        let b = lossy.insert_from(*src, e.clone()).unwrap();
        assert_eq!(a, b, "DIM insert receipt diverges under a perfect link");
    }
    for (sink, query) in &queries {
        let a = plain.query_from(*sink, query).unwrap();
        let b = lossy.query_from(*sink, query).unwrap();
        assert_eq!(a.cost, b.cost, "DIM QueryCost diverges on {query}");
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(b.zones_reached, b.zones_visited, "perfect link left zones unreached");
    }
    assert_eq!(plain.ledger(), lossy.ledger());
    assert_eq!(lossy.ledger().layer_total(TrafficLayer::Retransmit), 0);
}

/// (b) Harsh loss: queries keep answering with partial results, and the
/// completeness report is accurate — reached cells contributed *all* their
/// matching stored events, unreached cells are all listed, nothing is
/// fabricated.
#[test]
fn harsh_loss_degrades_queries_with_accurate_completeness() {
    let (topo, field) = connected(31);
    let (events, queries) = workload(32);

    let config = PoolConfig::paper()
        .with_seed(31)
        .with_lossy(LossyConfig::model(PrrModel::new(15.0, 42.0), 4242));
    let mut pool = PoolSystem::build(topo, field, config).unwrap();

    let mut drops = 0usize;
    for (src, e) in &events {
        match pool.insert_from(*src, e.clone()) {
            Ok(_) => {}
            Err(InsertError::Undeliverable { .. }) => drops += 1,
            Err(e) => panic!("unexpected insert failure: {e}"),
        }
    }
    assert!(drops > 0, "the harsh radio should drop some insertions");
    assert!(pool.store().len() + drops == EVENTS, "drops and stored events must partition");

    let mut partial = 0usize;
    for (sink, query) in &queries {
        let got = pool.query_from(*sink, query).expect("lossy queries must not error");
        let c = &got.completeness;

        // The report's arithmetic is consistent and matches the resolver.
        let relevant = relevant_cells(pool.layout(), query);
        assert_eq!(c.cells_relevant, relevant.len());
        assert_eq!(c.cells_reached + c.unreached_cells.len(), c.cells_relevant);
        for missing in &c.unreached_cells {
            assert!(relevant.contains(missing), "phantom unreached cell {missing:?}");
        }

        // Every claimed-reached cell's matching stored events are in the
        // result — the report never overstates coverage.
        for rc in relevant.iter().filter(|rc| !c.unreached_cells.contains(rc)) {
            for stored in pool.store().events_in(rc.1) {
                if query.matches(&stored.event) {
                    assert!(
                        got.events.contains(&stored.event),
                        "cell {rc:?} claimed reached but event {:?} is missing",
                        stored.event
                    );
                }
            }
        }
        // And nothing is fabricated: every returned event is a stored match.
        let truth = pool.brute_force_query(query);
        for e in &got.events {
            assert!(truth.contains(e), "fabricated event {e:?}");
        }

        partial += usize::from(!c.is_complete());
    }
    assert!(partial > 0, "the harsh radio should leave some queries partial");
}

/// (b') The completeness report agrees with the trace, leg by leg. Every
/// leg of a query leaves one span, in forwarding order; replaying those
/// spans against the §3.2.3 tree — sink → splitter, splitter → each cell,
/// cell → splitter when the cell has matches, splitter → sink when any
/// cell contributed — says which cells answered without consulting the
/// system's own bookkeeping. The harsh radio must produce both whole-pool
/// losses (a dead sink → splitter leg) and late demotions (a reply that
/// reached the splitter and died on the way to the sink).
#[test]
fn completeness_matches_a_leg_by_leg_replay_of_the_trace() {
    use pool_dcs::core::resolve::group_by_pool;
    let (topo, field) = connected(31);
    let (events, queries) = workload(32);
    let config = PoolConfig::paper()
        .with_seed(31)
        .with_lossy(LossyConfig::model(PrrModel::new(15.0, 42.0), 4242));
    let mut pool = PoolSystem::build(topo, field, config).unwrap();
    for (src, e) in &events {
        let _ = pool.insert_from(*src, e.clone());
    }

    let (mut pools_lost, mut late_demotions, mut cells_lost) = (0usize, 0usize, 0usize);
    // The workload's queries, then wide ones: many cells, many replies.
    let wide = (0..40u32).map(|i| {
        let sink = NodeId(i * 9 % NODES as u32);
        let lo = f64::from(i % 5) * 0.1;
        (sink, RangeQuery::exact(vec![(lo, lo + 0.5), (0.0, 1.0), (0.0, 0.8)]).unwrap())
    });
    for (sink, query) in queries.into_iter().chain(wide) {
        pool.tracer_mut().clear();
        let got = pool.query_from(sink, &query).unwrap();
        let spans: Vec<_> = pool.tracer().spans().copied().collect();
        let mut legs = spans.iter();
        let mut leg = |layer: TrafficLayer, from: NodeId, to: NodeId| {
            let span = legs.next().expect("the query recorded a span for every leg");
            assert_eq!((span.layer, span.origin, span.destination), (layer, from, to));
            span.is_delivered()
        };

        let relevant = relevant_cells(pool.layout(), &query);
        let mut unreached = Vec::new();
        for (dim, cells) in group_by_pool(&relevant) {
            let splitter = pool.splitter_of(dim, sink);
            if !leg(TrafficLayer::Forward, sink, splitter) {
                pools_lost += 1;
                unreached.extend(cells.iter().map(|&c| (dim, c)));
                continue;
            }
            let mut contributors = Vec::new();
            for &cell in &cells {
                let index_node = pool.index_node_of(cell).unwrap();
                if !leg(TrafficLayer::Forward, splitter, index_node) {
                    cells_lost += 1;
                    unreached.push((dim, cell));
                    continue;
                }
                let has_matches =
                    pool.store().events_in(cell).iter().any(|s| query.matches(&s.event));
                if has_matches {
                    if leg(TrafficLayer::Reply, index_node, splitter) {
                        contributors.push(cell);
                    } else {
                        cells_lost += 1;
                        unreached.push((dim, cell));
                    }
                }
            }
            if !contributors.is_empty() && !leg(TrafficLayer::Reply, splitter, sink) {
                late_demotions += contributors.len();
                unreached.extend(contributors.into_iter().map(|c| (dim, c)));
            }
        }
        assert!(legs.next().is_none(), "the query recorded a leg the tree does not have");

        // `unreached_cells` is in resolution order; the replay found them
        // leg by leg.
        let expected: Vec<_> =
            relevant.iter().copied().filter(|key| unreached.contains(key)).collect();
        assert_eq!(got.completeness.unreached_cells, expected, "query {query} from {sink}");
        assert_eq!(got.completeness.cells_relevant, relevant.len());
        assert_eq!(got.completeness.cells_reached, relevant.len() - expected.len());
    }
    assert!(pools_lost > 0, "no sink → splitter leg died");
    assert!(cells_lost > 0, "no splitter ↔ cell leg died");
    assert!(late_demotions > 0, "no splitter → sink reply died");
}

/// (c) A failure wave that partitions the network degrades — unreachable
/// nodes/cells are counted, later queries report missing cells — instead
/// of returning `PoolError::Routing`.
#[test]
fn partitioning_failure_degrades_instead_of_erroring() {
    let (topo, field) = connected(41);
    let (events, _) = workload(42);
    let mut pool = PoolSystem::build(topo, field, PoolConfig::paper().with_seed(41)).unwrap();
    for (src, e) in &events {
        pool.insert_from(*src, e.clone()).unwrap();
    }

    // Cut one index node off from the rest of the network by killing its
    // entire radio neighborhood — a guaranteed partition regardless of
    // where this deployment's random pivots put the pool cells.
    let isolated = pool
        .layout()
        .pools()
        .to_vec()
        .iter()
        .flat_map(|p| p.cells())
        .find_map(|c| pool.index_node_of(c))
        .expect("layout has index nodes");
    let victims: Vec<NodeId> = pool.topology().neighbors(isolated).to_vec();
    let report = pool.fail_nodes(&victims).expect("partition must degrade, not abort");
    assert!(report.partitioned, "stripe failure must partition: {report:?}");
    assert!(report.nodes_unreachable > 0);
    assert!(report.cells_unreachable > 0);

    // The main component still answers, listing what it cannot see.
    let sink = pool.topology().largest_component_members()[0];
    let all = RangeQuery::from_bounds(vec![Some((0.0, 1.0)), Some((0.0, 1.0)), Some((0.0, 1.0))])
        .unwrap();
    let got = pool.query_from(sink, &all).unwrap();
    assert!(!got.completeness.is_complete(), "{:?}", got.completeness);
    assert_eq!(
        got.completeness.cells_reached + got.completeness.unreached_cells.len(),
        got.completeness.cells_relevant
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (d) The ETX identity: with per-hop reception probability `p` and a
    /// deep retry budget, bounded ARQ spends `1/p` transmissions per
    /// delivered hop on average.
    #[test]
    fn arq_cost_converges_to_inverse_prr(p in 0.3f64..=1.0) {
        let dep = Deployment::paper_setting(150, 40.0, 20.0, 9).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        let inner = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
        let config = LossyConfig {
            quality: LinkQuality::Fixed(p),
            ..LossyConfig::fixed(1.0, 1234)
        }
        .with_retry_budget(64);
        let mut lossy = LossyTransport::wrap(inner, config);

        let mut rng = StdRng::seed_from_u64(99);
        let n = topo.len() as u32;
        for _ in 0..300 {
            let from = NodeId(rng.gen_range(0..n));
            let to = NodeId(rng.gen_range(0..n));
            if from == to {
                continue;
            }
            let route = lossy.route_to_node(&topo, from, to).unwrap();
            let path = route.path.clone();
            lossy.deliver(&topo, &path, TrafficLayer::Forward);
        }

        let stats = lossy.delivery_stats();
        prop_assert!(stats.hop_attempts > 1_000, "workload too small: {stats:?}");
        // Budget 64 makes a hop failure astronomically unlikely at p >= 0.3.
        prop_assert_eq!(stats.hops_failed, 0);
        let per_hop = stats.transmissions as f64 / stats.hop_attempts as f64;
        let etx = 1.0 / p;
        prop_assert!(
            (per_hop - etx).abs() < 0.15 * etx,
            "mean transmissions per hop {per_hop:.3} vs ETX {etx:.3}"
        );
    }
}
