//! Cross-crate integration tests: Pool and DIM deployed over identical
//! networks and workloads must agree with each other and with brute-force
//! ground truth on every query type, at multiple scales.

use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::netsim::{Deployment, NodeId, Topology};
use pool_dcs::transport::Substrate;
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{
    exact_query, partial_query, partial_query_at, RangeSizeDistribution,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_pair(n: usize, seed: u64, events: usize) -> (PoolSystem, DimSystem) {
    let mut s = seed;
    let (topology, field) = loop {
        let dep = Deployment::paper_setting(n, 40.0, 20.0, s).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        if topo.is_connected() {
            break (topo, dep.field());
        }
        s += 4096;
    };
    let mut pool =
        PoolSystem::build(topology.clone(), field, PoolConfig::paper().with_seed(seed)).unwrap();
    let mut dim = DimSystem::build(topology, field, 3, &Substrate::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for i in 0..events {
        let event: Event = generator.generate(&mut rng);
        let src = NodeId((i % n) as u32);
        pool.insert_from(src, event.clone()).unwrap();
        dim.insert_from(src, event).unwrap();
    }
    (pool, dim)
}

fn canon(mut events: Vec<Event>) -> Vec<Vec<i64>> {
    let mut keys: Vec<Vec<i64>> =
        events.drain(..).map(|e| e.values().iter().map(|v| (v * 1e12) as i64).collect()).collect();
    keys.sort();
    keys
}

#[test]
fn pool_and_dim_agree_with_ground_truth_at_multiple_scales() {
    for (n, seed) in [(200usize, 1u64), (400, 2)] {
        let (mut pool, mut dim) = build_pair(n, seed, n * 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for trial in 0..25 {
            let q = match trial % 4 {
                0 => exact_query(&mut rng, 3, RangeSizeDistribution::Uniform),
                1 => exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 }),
                2 => partial_query(&mut rng, 3, 1),
                _ => partial_query(&mut rng, 3, 2),
            };
            let sink = NodeId(rng.gen_range(0..n as u32));
            let p = pool.query_from(sink, &q).unwrap();
            let d = dim.query_from(sink, &q).unwrap();
            let truth = canon(pool.brute_force_query(&q));
            assert_eq!(canon(p.events), truth, "n={n} trial {trial}: pool wrong on {q}");
            assert_eq!(canon(d.events), truth, "n={n} trial {trial}: dim wrong on {q}");
        }
    }
}

#[test]
fn point_queries_find_every_stored_event() {
    let (mut pool, mut dim) = build_pair(250, 3, 120);
    // Re-query every stored event by exact point.
    let all = pool
        .brute_force_query(&RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap());
    assert_eq!(all.len(), 120);
    for (i, event) in all.iter().enumerate().step_by(7) {
        let q = RangeQuery::point(event.values().to_vec()).unwrap();
        let sink = NodeId((i % 250) as u32);
        let p = pool.query_from(sink, &q).unwrap();
        assert!(
            p.events.iter().any(|e| e == event),
            "pool lost event {event} (found {})",
            p.events.len()
        );
        let d = dim.query_from(sink, &q).unwrap();
        assert!(d.events.iter().any(|e| e == event), "dim lost event {event}");
    }
}

#[test]
fn runs_are_deterministic_in_the_seed() {
    let run = || {
        let (mut pool, mut dim) = build_pair(200, 11, 200);
        let mut rng = StdRng::seed_from_u64(77);
        let mut costs = Vec::new();
        for _ in 0..10 {
            let q = exact_query(&mut rng, 3, RangeSizeDistribution::Uniform);
            let sink = NodeId(rng.gen_range(0..200));
            costs.push((
                pool.query_from(sink, &q).unwrap().cost.total(),
                dim.query_from(sink, &q).unwrap().cost.total(),
            ));
        }
        costs
    };
    assert_eq!(run(), run());
}

#[test]
fn one_at_n_partial_queries_are_correct_for_every_dimension() {
    let (mut pool, mut dim) = build_pair(300, 5, 600);
    let mut rng = StdRng::seed_from_u64(13);
    for dim_idx in 0..3 {
        for _ in 0..5 {
            let q = partial_query_at(&mut rng, 3, dim_idx);
            let sink = NodeId(rng.gen_range(0..300));
            let p = pool.query_from(sink, &q).unwrap();
            let d = dim.query_from(sink, &q).unwrap();
            let truth = canon(pool.brute_force_query(&q));
            assert_eq!(canon(p.events), truth, "pool wrong on {q}");
            assert_eq!(canon(d.events), truth, "dim wrong on {q}");
        }
    }
}

#[test]
fn narrow_queries_cost_less_than_wide_ones() {
    let (mut pool, mut dim) = build_pair(300, 7, 900);
    let narrow = RangeQuery::exact(vec![(0.5, 0.55), (0.5, 0.55), (0.5, 0.55)]).unwrap();
    let wide = RangeQuery::exact(vec![(0.05, 0.95), (0.05, 0.95), (0.05, 0.95)]).unwrap();
    let sink = NodeId(42);
    let pn = pool.query_from(sink, &narrow).unwrap().cost.total();
    let pw = pool.query_from(sink, &wide).unwrap().cost.total();
    assert!(pn < pw, "pool: narrow {pn} >= wide {pw}");
    let dn = dim.query_from(sink, &narrow).unwrap().cost.total();
    let dw = dim.query_from(sink, &wide).unwrap().cost.total();
    assert!(dn < dw, "dim: narrow {dn} >= wide {dw}");
}

#[test]
fn tied_events_are_never_duplicated_or_lost() {
    let (mut pool, mut dim) = build_pair(200, 9, 0);
    // Hand-crafted ties: equal greatest values in various dimension pairs.
    let tied = [
        vec![0.7, 0.7, 0.2],
        vec![0.5, 0.5, 0.5],
        vec![0.3, 0.9, 0.9],
        vec![1.0, 1.0, 0.0],
        vec![0.25, 0.25, 0.25],
    ];
    for (i, values) in tied.iter().enumerate() {
        let e = Event::new(values.clone()).unwrap();
        pool.insert_from(NodeId(i as u32 * 13), e.clone()).unwrap();
        dim.insert_from(NodeId(i as u32 * 13), e).unwrap();
    }
    assert_eq!(pool.store().len(), tied.len(), "exactly one copy per event (§4.1)");
    let q = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let p = pool.query_from(NodeId(0), &q).unwrap();
    assert_eq!(p.events.len(), tied.len());
    let d = dim.query_from(NodeId(0), &q).unwrap();
    assert_eq!(d.events.len(), tied.len());
}

#[test]
fn boundary_events_survive_the_roundtrip() {
    let (mut pool, _) = build_pair(200, 15, 0);
    let corners = [
        vec![0.0, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, 1.0],
        vec![1.0, 1.0, 0.0],
    ];
    for (i, values) in corners.iter().enumerate() {
        pool.insert_from(NodeId(i as u32), Event::new(values.clone()).unwrap()).unwrap();
    }
    let q = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let got = pool.query_from(NodeId(100), &q).unwrap();
    assert_eq!(got.events.len(), corners.len(), "boundary values 0.0/1.0 must be retrievable");
}
