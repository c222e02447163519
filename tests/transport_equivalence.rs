//! The routing-substrate contract: the memoizing [`CachedTransport`] must
//! be observationally equivalent to the reference [`GpsrTransport`] on
//! everything the paper measures — per-query message costs and the whole
//! traffic ledger — and on virtual time to the bit, on a fig6-style seeded
//! workload.
//!
//! [`CachedTransport`]: pool_dcs::transport::CachedTransport
//! [`GpsrTransport`]: pool_dcs::transport::GpsrTransport

use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::netsim::{Deployment, NodeId, Rect, Topology};
use pool_dcs::transport::{Substrate, TrafficLayer, Transport, TransportKind};
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{exact_query, RangeSizeDistribution};
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

/// The fig6-style workload, deterministic in `seed`: uniform events from
/// random sources, then exponential-range exact-match queries from random
/// sinks.
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

/// The two query shapes a reply that retraces one path special-cases: one
/// that matches nothing (no reply leg at all), and the point query of a
/// stored event (a single owner answers, one reply retraces one chain).
fn edge_queries(events: &Placements) -> SinkQueries {
    let nothing = RangeQuery::exact(vec![(0.5, 0.5 + 1e-9); 3]).unwrap();
    let stored = events[0].1.values().iter().map(|&v| (v, v)).collect();
    vec![(NodeId(3), nothing), (NodeId(NODES as u32 - 1), RangeQuery::exact(stored).unwrap())]
}

/// The clock's final instant as a bit pattern, and its per-node receive
/// counts. Per-node sends (and so busy time, sends × service time) are the
/// ledger's, compared on their own.
fn clock_bits(transport: &dyn Transport) -> (u64, Vec<u64>) {
    let clock = transport.clock();
    (clock.now().to_bits(), clock.rx_counts().to_vec())
}

#[test]
fn pool_costs_identical_across_substrates() {
    let (topo, field) = connected(21);
    let (events, mut queries) = workload(22);
    queries.extend(edge_queries(&events));

    let build = |kind| {
        let config = PoolConfig::paper().with_seed(21).with_transport(kind);
        let mut pool = PoolSystem::build(topo.clone(), field, config).unwrap();
        for (src, e) in &events {
            pool.insert_from(*src, e.clone()).unwrap();
        }
        pool
    };
    let mut gpsr = build(TransportKind::Gpsr);
    let mut cached = build(TransportKind::Cached);

    // Insertion traffic already matches, layer by layer.
    assert_eq!(gpsr.ledger(), cached.ledger(), "insert traffic diverges");

    // Every query costs exactly the same number of messages on both
    // substrates, and returns the same events. Queries repeat below so the
    // cache actually serves hits while being measured.
    let mut answers = Vec::new();
    for _round in 0..2 {
        for (sink, query) in &queries {
            let a = gpsr.query_from(*sink, query).unwrap();
            let b = cached.query_from(*sink, query).unwrap();
            assert_eq!(a.cost, b.cost, "QueryCost diverges on {query}");
            assert_eq!(a.cost.elapsed.to_bits(), b.cost.elapsed.to_bits(), "elapsed on {query}");
            assert_eq!(a.events.len(), b.events.len(), "result sets diverge on {query}");
            answers.push(b);
        }
    }
    // The edge queries, asked last, have the shapes they were added for.
    let [.., none, one] = &answers[..] else { unreachable!() };
    assert!(none.events.is_empty() && none.cost.reply_messages == 0 && none.cost.total() > 0);
    assert!(!one.events.is_empty() && one.cost.reply_messages > 0);

    assert_eq!(clock_bits(gpsr.transport()), clock_bits(cached.transport()));
    for layer in TrafficLayer::ALL {
        assert_eq!(
            gpsr.ledger().layer_total(layer),
            cached.ledger().layer_total(layer),
            "layer {layer:?} diverges"
        );
    }
    assert_eq!(gpsr.ledger().node_loads(), cached.ledger().node_loads());
    assert_eq!(gpsr.ledger(), cached.ledger());
}

#[test]
fn dim_costs_identical_across_substrates() {
    let (topo, field) = connected(23);
    let (events, mut queries) = workload(24);
    queries.extend(edge_queries(&events));

    let build = |kind| {
        let mut dim =
            DimSystem::build(topo.clone(), field, 3, &Substrate { kind, ..Substrate::default() })
                .unwrap();
        for (src, e) in &events {
            dim.insert_from(*src, e.clone()).unwrap();
        }
        dim
    };
    let mut gpsr = build(TransportKind::Gpsr);
    let mut cached = build(TransportKind::Cached);

    let mut answers = Vec::new();
    for _round in 0..2 {
        for (sink, query) in &queries {
            let a = gpsr.query_from(*sink, query).unwrap();
            let b = cached.query_from(*sink, query).unwrap();
            assert_eq!(a.cost, b.cost, "QueryCost diverges on {query}");
            assert_eq!(a.cost.elapsed.to_bits(), b.cost.elapsed.to_bits(), "elapsed on {query}");
            answers.push(b);
        }
    }
    // The edge queries, asked last, have the shapes they were added for.
    let [.., none, one] = &answers[..] else { unreachable!() };
    assert!(none.events.is_empty() && none.cost.reply_messages == 0 && none.cost.total() > 0);
    assert_eq!(one.zones_visited, 1, "a point query's chain is a single owner");
    assert!(!one.events.is_empty() && one.cost.reply_messages > 0);

    assert_eq!(gpsr.ledger(), cached.ledger());
    assert_eq!(clock_bits(gpsr.transport()), clock_bits(cached.transport()));
}
