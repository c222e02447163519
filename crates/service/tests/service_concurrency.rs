//! Concurrent-correctness suite for the sharded service front end.
//!
//! The claims under test, in order:
//!
//! 1. shard-disjoint operations commute: N threads submitting to their
//!    own shards produce exactly the serial reference (responses,
//!    stores, ledgers);
//! 2. the ledger conservation identity holds under unpartitioned
//!    contention — attributed messages equal total ledger growth for
//!    every interleaving;
//! 3. the service's no-coalescing serve is message- and result-identical
//!    to the monolithic single-threaded system (Pool's exact per-pool
//!    decomposition);
//! 4. coalescing changes delivery cost, never answers: every member of a
//!    merged unit gets the same events the ablation hands it;
//! 5. serve outcomes are jobs-invariant, byte for byte;
//! 6. a response shares its events' values with the shards' stores: a
//!    multi-shard answer holds the stored events' own value buffers.

use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_service::{
    AdmissionConfig, DimBackend, GhtBackend, PoolBackend, Request, Response, ScheduledRequest,
    ServiceBackend, ServiceHandle,
};
use pool_transport::Substrate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const NODES: usize = 150;
const DIMS: usize = 3;

fn topology(seed: u64) -> (Topology, Rect) {
    let mut seed = seed;
    loop {
        let dep = Deployment::paper_setting(NODES, 40.0, 20.0, seed).expect("deployment");
        let topo = Topology::build(dep.nodes(), 40.0).expect("topology");
        if topo.is_connected() {
            return (topo, dep.field());
        }
        seed = seed.wrapping_add(0x1000);
    }
}

fn pool_handle(topo: &Topology, field: Rect, seed: u64) -> ServiceHandle<PoolBackend> {
    let config = PoolConfig::paper().with_dims(DIMS).with_seed(seed);
    let (backend, shards) =
        PoolBackend::build(topo.clone(), field, config, DIMS).expect("pool backend");
    ServiceHandle::new(backend, shards)
}

fn random_inserts(rng: &mut StdRng, n: usize, count: usize) -> Vec<Request> {
    (0..count)
        .map(|_| Request::Insert {
            source: NodeId(rng.gen_range(0..n as u32)),
            event: Event::new((0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect()).unwrap(),
        })
        .collect()
}

fn random_queries(rng: &mut StdRng, n: usize, count: usize) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let ranges: Vec<(f64, f64)> = (0..DIMS)
                .map(|_| {
                    let c = rng.gen_range(0.2..0.8);
                    (c - 0.15, c + 0.15)
                })
                .collect();
            Request::Query {
                sink: NodeId(rng.gen_range(0..n as u32)),
                query: RangeQuery::exact(ranges).unwrap(),
            }
        })
        .collect()
}

fn sorted_events(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_by(|a, b| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    events
}

/// Claim 1: operations partitioned by owning shard commute. One thread
/// per shard submits that shard's inserts concurrently; the identical
/// deployment replays them serially. Every response, every shard ledger,
/// and every subsequent query answer must match exactly.
#[test]
fn shard_partitioned_threads_match_the_serial_reference() {
    let (topo, field) = topology(501);
    let concurrent = pool_handle(&topo, field, 7);
    let serial = pool_handle(&topo, field, 7);

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let inserts = random_inserts(&mut rng, NODES, 90);

    // Partition by owning shard (inserts land on exactly one shard).
    let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); concurrent.shard_count()];
    for request in &inserts {
        let shards = concurrent.backend().shards_of(request);
        assert_eq!(shards.len(), 1, "a pool insert touches exactly one shard");
        per_shard[shards[0]].push(request.clone());
    }

    let concurrent_responses: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .iter()
            .map(|requests| {
                let service = &concurrent;
                scope.spawn(move || {
                    requests.iter().map(|r| service.submit(r)).collect::<Vec<Response>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("insert thread")).collect()
    });
    let serial_responses: Vec<Vec<Response>> = per_shard
        .iter()
        .map(|requests| requests.iter().map(|r| serial.submit(r)).collect())
        .collect();

    assert_eq!(concurrent_responses, serial_responses, "shard-disjoint submits must commute");
    assert_eq!(concurrent.merged_ledger(), serial.merged_ledger());

    // The stored state is the same too: every query answers identically.
    for query in random_queries(&mut rng, NODES, 10) {
        let a = concurrent.submit(&query);
        let b = serial.submit(&query);
        assert_eq!(sorted_events(a.events.clone()), sorted_events(b.events.clone()));
        assert_eq!(a.messages, b.messages);
        assert_eq!((a.relevant, a.reached, a.delivered), (b.relevant, b.reached, b.delivered));
    }
}

/// Claim 2: conservation under contention. Eight threads hammer one GHT
/// deployment with unpartitioned mixed puts/gets; whatever the
/// interleaving, the messages attributed across responses must equal the
/// exact growth of the shard ledgers — and every operation must land.
#[test]
fn ledger_conservation_holds_under_unpartitioned_contention() {
    let (topo, _field) = topology(733);
    let (backend, shards) = GhtBackend::build(topo, &Substrate::default(), 4);
    let service = ServiceHandle::new(backend, shards);

    let before = service.total_messages();
    let attributed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF ^ t);
                    let mut sum = 0u64;
                    for i in 0..25 {
                        let key = format!("key-{}", rng.gen_range(0..12));
                        let request = if i % 3 == 0 {
                            Request::Put {
                                source: NodeId(rng.gen_range(0..NODES as u32)),
                                key,
                                value: t * 1000 + i,
                            }
                        } else {
                            Request::Get { sink: NodeId(rng.gen_range(0..NODES as u32)), key }
                        };
                        let response = service.submit(&request);
                        assert!(response.delivered, "perfect links must deliver {request:?}");
                        sum += response.messages;
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).sum()
    });
    let growth = service.total_messages() - before;
    assert_eq!(attributed, growth, "attributed messages must equal ledger growth exactly");
}

/// Claim 3: the service without coalescing is the monolithic system.
/// Pool's per-pool decomposition is exact, so serving a schedule of
/// inserts and queries must produce the same answers AND charge the same
/// messages, request for request, as a single-threaded [`PoolSystem`]
/// replaying the identical operations.
#[test]
fn uncoalesced_serve_matches_the_monolithic_system_exactly() {
    let (topo, field) = topology(911);
    let service = pool_handle(&topo, field, 13);
    let config = PoolConfig::paper().with_dims(DIMS).with_seed(13);
    let mut monolith = PoolSystem::build(topo.clone(), field, config).expect("monolith");

    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut requests = random_inserts(&mut rng, NODES, 40);
    requests.extend(random_queries(&mut rng, NODES, 20));
    let schedule: Vec<ScheduledRequest> = requests
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, request)| ScheduledRequest { arrival: i as f64 * 0.05, request })
        .collect();

    let outcome = service.serve(&schedule, &AdmissionConfig::no_coalescing(), 4);

    for (request, response) in requests.iter().zip(&outcome.responses) {
        match request {
            Request::Insert { source, event } => {
                let receipt = monolith.insert_from(*source, event.clone()).expect("insert");
                assert_eq!(response.messages, receipt.messages, "insert cost diverged");
                assert!(response.delivered);
            }
            Request::Query { sink, query } => {
                let reference = monolith.query_from(*sink, query).expect("query");
                assert_eq!(
                    sorted_events(response.events.clone()),
                    sorted_events(reference.events.clone()),
                    "query answers diverged"
                );
                assert_eq!(
                    response.messages,
                    reference.cost.total(),
                    "query cost diverged from the monolithic system"
                );
                assert_eq!(response.relevant, reference.completeness.cells_relevant);
                assert!(response.delivered);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
}

/// Claim 4: coalescing shares delivery, not answers. The same schedule
/// served with and without coalescing (fresh identical deployments) must
/// hand every request the same result set; the coalesced run must
/// actually merge something and must not cost more messages.
#[test]
fn coalescing_changes_cost_but_never_answers() {
    let (topo, field) = topology(1201);
    let coalesced_handle = pool_handle(&topo, field, 23);
    let ablation_handle = pool_handle(&topo, field, 23);

    let mut rng = StdRng::seed_from_u64(0xFACADE);
    let preload = random_inserts(&mut rng, NODES, 60);
    for request in &preload {
        assert!(coalesced_handle.submit(request).delivered);
        assert!(ablation_handle.submit(request).delivered);
    }

    // Bursts of same-sink overlapping queries: prime coalescing bait.
    let sink = NodeId(17);
    let schedule: Vec<ScheduledRequest> = (0..24)
        .map(|i| {
            let c: Vec<f64> = (0..DIMS).map(|_| 0.45 + 0.01 * ((i % 8) as f64)).collect();
            let ranges: Vec<(f64, f64)> = c.iter().map(|&c| (c - 0.2, c + 0.2)).collect();
            ScheduledRequest {
                arrival: (i / 8) as f64 * 0.4 + (i % 8) as f64 * 0.004,
                request: Request::Query { sink, query: RangeQuery::exact(ranges).unwrap() },
            }
        })
        .collect();

    let coalesced = coalesced_handle.serve(&schedule, &AdmissionConfig::default(), 4);
    let ablation = ablation_handle.serve(&schedule, &AdmissionConfig::no_coalescing(), 4);

    assert!(coalesced.coalesced_requests > 0, "the burst schedule must coalesce");
    assert!(coalesced.total_messages <= ablation.total_messages);
    for (merged, alone) in coalesced.responses.iter().zip(&ablation.responses) {
        assert_eq!(
            sorted_events(merged.events.clone()),
            sorted_events(alone.events.clone()),
            "a coalesced member's answer diverged from its solo answer"
        );
        assert!(merged.delivered && alone.delivered);
    }
}

/// Claim 5: serve outcomes are jobs-invariant — same responses, same
/// latencies, same attribution, bit for bit — across worker counts, for
/// a DIM deployment (the backend with the most cross-shard traffic).
#[test]
fn serve_outcomes_are_jobs_invariant() {
    fn run(jobs: usize) -> pool_service::ServeOutcome {
        let (topo, field) = topology(1601);
        let (backend, shards) =
            DimBackend::build(topo, field, DIMS, &Substrate::default(), 4).expect("dim backend");
        let service = ServiceHandle::new(backend, shards);

        let mut rng = StdRng::seed_from_u64(0x1D1D);
        for request in random_inserts(&mut rng, NODES, 40) {
            assert!(service.submit(&request).delivered);
        }
        let schedule: Vec<ScheduledRequest> = random_queries(&mut rng, NODES, 24)
            .into_iter()
            .enumerate()
            .map(|(i, request)| ScheduledRequest { arrival: i as f64 * 0.02, request })
            .collect();
        service.serve(&schedule, &AdmissionConfig::default(), jobs)
    }
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel, "serve outcome differs between jobs=1 and jobs=8");
}

/// Duplicate GHT gets in one admission window collapse into one fetch
/// and still hand every member the stored values.
#[test]
fn duplicate_gets_coalesce_and_answer_everyone() {
    let (topo, _field) = topology(1999);
    let (backend, shards) = GhtBackend::build(topo, &Substrate::default(), 4);
    let service = ServiceHandle::new(backend, shards);

    let put = Request::Put { source: NodeId(3), key: "hot".into(), value: 41 };
    assert!(service.submit(&put).delivered);

    let schedule: Vec<ScheduledRequest> = (0..6)
        .map(|i| ScheduledRequest {
            arrival: i as f64 * 0.005,
            request: Request::Get { sink: NodeId(9), key: "hot".into() },
        })
        .collect();
    let outcome = service.serve(&schedule, &AdmissionConfig::default(), 2);
    assert_eq!(outcome.units, 1, "identical same-window gets must share one unit");
    assert_eq!(outcome.coalesced_requests, 6);
    for response in &outcome.responses {
        assert_eq!(response.values, vec![41]);
        assert!(response.delivered);
        assert_eq!(response.coalesced_with, 5);
    }
}

/// Claim 6: responses copy event handles, never values. Every event a
/// 3-shard `submit` answers, cross-shard answers included, points at the
/// value buffer of an event some shard's store holds.
#[test]
fn a_three_shard_submit_response_holds_the_stored_events_own_buffers() {
    let (topo, field) = topology(3307);
    let service = pool_handle(&topo, field, 37);
    assert_eq!(service.shard_count(), 3);
    let mut rng = StdRng::seed_from_u64(0x5E4E);
    for insert in random_inserts(&mut rng, NODES, 120) {
        assert!(service.submit(&insert).delivered);
    }
    let stored: HashSet<*const f64> = (0..service.shard_count())
        .flat_map(|s| {
            service.with_shard(s, |shard| {
                let store = shard.system.store();
                store
                    .iter()
                    .flat_map(|(_, stored)| stored.iter().map(|e| e.event.values().as_ptr()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let (mut answered, mut cross_shard) = (0, 0);
    for request in random_queries(&mut rng, NODES, 40) {
        let response = service.submit(&request);
        for event in &response.events {
            assert!(stored.contains(&event.values().as_ptr()), "{event} is a copy");
        }
        answered += response.events.len();
        if service.backend().shards_of(&request).len() > 1 && !response.events.is_empty() {
            cross_shard += 1;
        }
    }
    assert!(answered > 40, "the queries must answer events, got {answered}");
    assert!(cross_shard > 0, "some answer must gather events from several shards");
}
