//! The service backends build one system (or one transport stack) and
//! clone it for every further shard. That is sound only if a clone of a
//! freshly built system behaves exactly as a second build from the same
//! inputs. Per scheme, a clone, a second fresh build and the cloned
//! original itself run the same seeded inserts, queries and one churn
//! epoch — the clone first, while the original is held — over a lossy
//! radio under a fault plan with adaptive recovery and operation retry, so
//! ARQ RNG streams, link estimator and failure detector are all cloned.
//! Answers, message totals, ledger rows, the virtual clock and the
//! delivery statistics must be identical.

use pool_core::config::PoolConfig;
use pool_core::dynamics::{ChurnConfig, ChurnPlanner, RepairQueue};
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_dim::{DimRepairQueue, DimSystem};
use pool_ght::{GhtRepairQueue, GhtTable};
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{
    DeliveryStats, EpochPlan, Fault, FaultPlan, GilbertElliott, LossyConfig, OpRetryPolicy,
    RecoveryConfig, Substrate, TrafficLedger, Transport, TransportKind, VirtualClock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const NODES: usize = 200;
const DIMS: usize = 3;

fn network(seed: u64) -> (Topology, Rect) {
    (seed..)
        .find_map(|seed| {
            let deployment = Deployment::paper_setting(NODES, 40.0, 20.0, seed).expect("valid");
            let topology = Topology::build(deployment.nodes(), 40.0).expect("valid");
            topology.is_connected().then(|| (topology, deployment.field()))
        })
        .expect("some seed deploys a connected network")
}

/// A crash a few operations in and a burst channel for the rest of the run.
fn fault_plan() -> FaultPlan {
    FaultPlan::new().with(Fault::Crash { node: NodeId(17), at: 0.3 }).with(Fault::BurstLoss {
        channel: GilbertElliott { p_gb: 0.1, p_bg: 0.3, good_prr: 1.0, bad_prr: 0.3 },
        from: 0.2,
        until: f64::INFINITY,
    })
}

/// The route cache over a lossy radio (loss seed `seed`) under
/// [`fault_plan`], with adaptive recovery and detouring operation retry.
fn substrate(seed: u64) -> Substrate {
    Substrate {
        kind: TransportKind::Cached,
        lossy: Some(LossyConfig::fixed(0.9, seed)),
        faults: Some(fault_plan()),
        recovery: Some(RecoveryConfig::default()),
        op_retry: Some(OpRetryPolicy::detouring(2)),
    }
}

fn churn_plan(topology: &Topology, field: Rect) -> EpochPlan {
    ChurnPlanner::new(ChurnConfig::new(9).with_rates(3, 3, 3)).plan(topology, field)
}

fn event(rng: &mut StdRng) -> Event {
    Event::new((0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect()).expect("in range")
}

fn query(rng: &mut StdRng) -> RangeQuery {
    let ranges = (0..DIMS)
        .map(|_| {
            let centre = rng.gen_range(0.2..0.8);
            (centre - 0.2, centre + 0.2)
        })
        .collect();
    RangeQuery::exact(ranges).expect("in range")
}

fn node(rng: &mut StdRng, topology: &Topology) -> NodeId {
    NodeId(rng.gen_range(0..topology.len() as u32))
}

fn sorted(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_by(|a, b| a.values().partial_cmp(b.values()).expect("finite values"));
    events
}

/// What a run shows: every operation's outcome, in order, then the
/// transport's final state.
#[derive(Debug, PartialEq)]
struct Record {
    outcomes: Vec<String>,
    total_messages: u64,
    ledger: TrafficLedger,
    clock: VirtualClock,
    stats: DeliveryStats,
}

impl Record {
    fn of(outcomes: Vec<String>, transport: &dyn Transport) -> Self {
        Record {
            outcomes,
            total_messages: transport.ledger().total_messages(),
            ledger: transport.ledger().clone(),
            clock: transport.clock().clone(),
            stats: transport.delivery_stats(),
        }
    }
}

/// Runs `script` on the clone of `original` (while `original` is held),
/// on `fresh`, and then on `original`: all three records must agree.
fn assert_clone_is_a_fresh_build<S: Clone>(
    mut original: S,
    mut fresh: S,
    script: impl Fn(&mut S) -> Record,
    scheme: &str,
) {
    let from_clone = script(&mut original.clone());
    let from_fresh = script(&mut fresh);
    let from_original = script(&mut original);
    assert!(from_clone.total_messages > 0, "{scheme}: the script charged nothing");
    assert!(from_clone.stats.retransmissions > 0, "{scheme}: the radio never lost a frame");
    assert_eq!(from_clone, from_fresh, "{scheme}: a clone behaves unlike a fresh build");
    assert_eq!(from_original, from_fresh, "{scheme}: running the clone moved the original");
}

#[test]
fn a_pool_clone_behaves_like_a_fresh_build() {
    let (topology, field) = network(11);
    let plan = churn_plan(&topology, field);
    let topology = Arc::new(topology);
    let config = PoolConfig {
        substrate: substrate(1111),
        ..PoolConfig::paper().with_dims(DIMS).with_seed(11)
    };
    let build = || PoolSystem::build(Arc::clone(&topology), field, config.clone());
    let script = |system: &mut PoolSystem| {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut outcomes = Vec::new();
        for round in 0..2 {
            for _ in 0..40 {
                let source = node(&mut rng, system.topology());
                outcomes.push(format!("{:?}", system.insert_from(source, event(&mut rng))));
            }
            for _ in 0..10 {
                let sink = node(&mut rng, system.topology());
                let result = system.query_from(sink, &query(&mut rng)).map(|mut result| {
                    result.events = sorted(result.events);
                    result
                });
                outcomes.push(format!("{result:?}"));
            }
            if round == 0 {
                let report = system.apply_epoch(&plan, &mut RepairQueue::default(), 500);
                outcomes.push(format!("{report:?}"));
            }
        }
        Record::of(outcomes, system.transport())
    };
    let (original, fresh) = (build().expect("connected"), build().expect("connected"));
    assert_clone_is_a_fresh_build(original, fresh, script, "pool");
}

#[test]
fn a_dim_clone_behaves_like_a_fresh_build() {
    let (topology, field) = network(21);
    let plan = churn_plan(&topology, field);
    let topology = Arc::new(topology);
    let build = || DimSystem::build(Arc::clone(&topology), field, DIMS, &substrate(2121));
    let script = |system: &mut DimSystem| {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut outcomes = Vec::new();
        for round in 0..2 {
            for _ in 0..40 {
                let source = node(&mut rng, system.topology());
                outcomes.push(format!("{:?}", system.insert_from(source, event(&mut rng))));
            }
            for _ in 0..10 {
                let sink = node(&mut rng, system.topology());
                let result = system.query_from(sink, &query(&mut rng)).map(|mut result| {
                    result.events = sorted(result.events);
                    result
                });
                outcomes.push(format!("{result:?}"));
            }
            if round == 0 {
                let report = system.apply_epoch(&plan, &mut DimRepairQueue::default(), 500);
                outcomes.push(format!("{report:?}"));
            }
        }
        Record::of(outcomes, system.transport())
    };
    let (original, fresh) = (build().expect("connected"), build().expect("connected"));
    assert_clone_is_a_fresh_build(original, fresh, script, "dim");
}

/// GHT owns no transport: the shard is a table and a [`Substrate::stack`]
/// transport, and the run needs its own copy of the topology to churn.
#[derive(Clone)]
struct GhtRun {
    topology: Topology,
    table: GhtTable<u64>,
    transport: Box<dyn Transport>,
}

#[test]
fn a_ght_stack_clone_behaves_like_a_fresh_build() {
    let (topology, field) = network(31);
    let plan = churn_plan(&topology, field);
    let build = || GhtRun {
        topology: topology.clone(),
        table: GhtTable::new(&topology),
        transport: substrate(3131).stack(&topology, 0),
    };
    let retry = substrate(3131).op_retry;
    let script = |run: &mut GhtRun| {
        let GhtRun { topology, table, transport } = run;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut outcomes = Vec::new();
        for round in 0..2 {
            for i in 0..40u64 {
                let (from, key) = (node(&mut rng, topology), format!("k{}", rng.gen_range(0..25)));
                let put = table.put_with_retry(topology, transport.as_mut(), from, &key, i, retry);
                outcomes.push(format!("{put:?}"));
            }
            for _ in 0..10 {
                let (from, key) = (node(&mut rng, topology), format!("k{}", rng.gen_range(0..25)));
                let got = table.get_with_retry(topology, transport.as_mut(), from, &key, retry);
                outcomes.push(format!("{got:?}"));
            }
            if round == 0 {
                let report = table.apply_epoch(
                    topology,
                    transport.as_mut(),
                    &plan,
                    &mut GhtRepairQueue::default(),
                    500,
                );
                outcomes.push(format!("{report:?}"));
            }
        }
        Record::of(outcomes, transport.as_ref())
    };
    assert_clone_is_a_fresh_build(build(), build(), script, "ght");
}
