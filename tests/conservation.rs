//! The message-conservation audit (DESIGN.md §7): every cost a public
//! operation reports must equal the traffic ledger's growth over exactly
//! the layers that operation is allowed to touch — no phantom messages the
//! radio never sent, no silent charges the caller never sees.
//!
//! * Deterministic sweeps check the identity op by op for Pool (insert,
//!   query, batch, k-nearest, monitors, failure repair) over the gpsr,
//!   cached, and lossy transports, and for DIM over gpsr and lossy.
//! * A property test re-checks the identity across random link qualities.
//! * Regressions pin the chain-reply fix: delegation-chain replies are now
//!   real `deliver_reverse` legs (delegates show Reply-layer load in the
//!   per-node ledger), and a chain reply that dies demotes its cell in the
//!   completeness report instead of silently clipping the answer.
//! * The `aggregate_from` / `install_monitor` receipts now surface
//!   completeness; their reports must stay arithmetically accurate.

use pool_dcs::core::config::SharingPolicy;
use pool_dcs::core::insert::InsertError;
use pool_dcs::core::{AggregateOp, Event, PoolConfig, PoolSystem, QueryCost, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::netsim::radio::PrrModel;
use pool_dcs::netsim::{Deployment, NodeId, Rect, Topology};
use pool_dcs::transport::trace::{SpanOutcome, TraceOp};
use pool_dcs::transport::{
    LedgerSnapshot, LossyConfig, NodeRole, Substrate, TrafficLayer, TransportKind,
};
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{exact_query, RangeSizeDistribution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 300;

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

/// Drives one Pool system through every operation family, asserting after
/// each op that its reported cost equals the ledger growth layer by layer
/// and that no other layer was charged.
fn audit_pool(mut pool: PoolSystem, label: &str) {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);

    // A standing query first, so insertions also exercise the Monitor
    // (notification) layer.
    let watch = RangeQuery::from_bounds(vec![Some((0.0, 0.4)), None, None]).unwrap();
    let before = LedgerSnapshot::of(pool.ledger());
    let install = pool.install_monitor(NodeId(5), watch).unwrap();
    assert_eq!(
        install.cost.forward_messages,
        before.layer_delta(pool.ledger(), TrafficLayer::Monitor),
        "{label}: install_monitor vs Monitor layer"
    );
    assert_eq!(
        install.cost.retransmit_messages,
        before.layer_delta(pool.ledger(), TrafficLayer::Retransmit),
        "{label}: install_monitor vs Retransmit layer"
    );
    assert_eq!(install.cost.total(), before.total_delta(pool.ledger()), "{label}: install total");

    // Insertions: flat receipt count == Insert + Monitor + Replication +
    // Retransmit growth. Undeliverable insertions still charge what the
    // radio actually sent.
    for _ in 0..250 {
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let event = generator.generate(&mut rng);
        let before = LedgerSnapshot::of(pool.ledger());
        let spent = match pool.insert_from(src, event) {
            Ok(receipt) => receipt.messages,
            Err(InsertError::Undeliverable { transmissions, .. }) => transmissions,
            Err(e) => panic!("{label}: unexpected insert failure: {e}"),
        };
        let delta: u64 = [
            TrafficLayer::Insert,
            TrafficLayer::Monitor,
            TrafficLayer::Replication,
            TrafficLayer::Retransmit,
        ]
        .iter()
        .map(|&l| before.layer_delta(pool.ledger(), l))
        .sum();
        assert_eq!(spent, delta, "{label}: insert cost vs ledger");
        assert_eq!(spent, before.total_delta(pool.ledger()), "{label}: insert charged elsewhere");
    }

    // One-shot queries: the cost struct partitions the ledger growth.
    for _ in 0..25 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
        let before = LedgerSnapshot::of(pool.ledger());
        let result = pool.query_from(sink, &q).unwrap();
        assert_eq!(
            result.cost.forward_messages,
            before.layer_delta(pool.ledger(), TrafficLayer::Forward),
            "{label}: query forward vs ledger"
        );
        assert_eq!(
            result.cost.reply_messages,
            before.layer_delta(pool.ledger(), TrafficLayer::Reply),
            "{label}: query reply vs ledger"
        );
        assert_eq!(
            result.cost.retransmit_messages,
            before.layer_delta(pool.ledger(), TrafficLayer::Retransmit),
            "{label}: query retransmissions vs ledger"
        );
        assert_eq!(
            result.cost.total(),
            before.total_delta(pool.ledger()),
            "{label}: query charged a foreign layer"
        );
    }

    // Aggregates ride the same path and now report completeness.
    let q = RangeQuery::from_bounds(vec![Some((0.2, 0.6)), None, None]).unwrap();
    let before = LedgerSnapshot::of(pool.ledger());
    let agg = pool.aggregate_from(NodeId(9), &q, AggregateOp::Count).unwrap();
    assert_eq!(agg.cost.total(), before.total_delta(pool.ledger()), "{label}: aggregate total");
    assert_eq!(
        agg.completeness.cells_reached + agg.completeness.unreached_cells.len(),
        agg.completeness.cells_relevant,
        "{label}: aggregate completeness arithmetic"
    );

    // Batched queries.
    let batch_queries = vec![
        RangeQuery::exact(vec![(0.2, 0.5), (0.0, 0.6), (0.0, 1.0)]).unwrap(),
        RangeQuery::from_bounds(vec![None, Some((0.7, 0.9)), None]).unwrap(),
    ];
    // A batch degrades like a query on a lossy radio; it never aborts.
    let before = LedgerSnapshot::of(pool.ledger());
    let batch = pool.query_batch(NodeId(3), &batch_queries).unwrap();
    assert_eq!(batch.cost.total(), before.total_delta(pool.ledger()), "{label}: batch total");
    assert_eq!(
        batch.completeness.cells_reached + batch.completeness.unreached_cells.len(),
        batch.completeness.cells_relevant,
        "{label}: batch completeness arithmetic"
    );
    assert_eq!(batch.completeness.cells_relevant, batch.cells_visited, "{label}: batch cells");

    // Nearest-neighbor search.
    let before = LedgerSnapshot::of(pool.ledger());
    match pool.k_nearest(NodeId(7), &[0.4, 0.5, 0.6], 3) {
        Ok(nn) => {
            assert_eq!(
                nn.cost.total(),
                before.total_delta(pool.ledger()),
                "{label}: k_nearest total"
            );
        }
        Err(e) => assert!(
            matches!(e, pool_dcs::core::PoolError::Undeliverable { .. }),
            "{label}: unexpected k_nearest failure: {e}"
        ),
    }

    // Monitor removal uses the same dissemination tree.
    let before = LedgerSnapshot::of(pool.ledger());
    let removal = pool.remove_monitor(install.id).unwrap().expect("monitor was installed");
    assert_eq!(removal.total(), before.total_delta(pool.ledger()), "{label}: removal total");

    // Failure repair: the report's repair_messages must equal the Repair +
    // Replication + Retransmit growth.
    let victims: Vec<NodeId> =
        (0..NODES as u32).map(NodeId).filter(|&n| pool.store().count_at(n) > 0).take(3).collect();
    let before = LedgerSnapshot::of(pool.ledger());
    let report = pool.fail_nodes(&victims).unwrap();
    let delta: u64 = [TrafficLayer::Repair, TrafficLayer::Replication, TrafficLayer::Retransmit]
        .iter()
        .map(|&l| before.layer_delta(pool.ledger(), l))
        .sum();
    assert_eq!(report.repair_messages, delta, "{label}: repair cost vs ledger");
    assert_eq!(
        report.repair_messages,
        before.total_delta(pool.ledger()),
        "{label}: repair charged a foreign layer"
    );
}

/// A Pool configuration that exercises every layer: workload sharing (so
/// delegation chains form), replication, and a standing query.
fn full_config(seed: u64) -> PoolConfig {
    PoolConfig::paper().with_seed(seed).with_sharing(SharingPolicy::new(8)).with_replication()
}

#[test]
fn pool_conserves_messages_on_gpsr() {
    let (topo, field) = connected(51);
    audit_pool(PoolSystem::build(topo, field, full_config(51)).unwrap(), "gpsr");
}

#[test]
fn pool_conserves_messages_on_cached() {
    let (topo, field) = connected(52);
    let config = full_config(52).with_transport(TransportKind::Cached);
    audit_pool(PoolSystem::build(topo, field, config).unwrap(), "cached");
}

#[test]
fn pool_conserves_messages_on_lossy() {
    let (topo, field) = connected(53);
    let config = full_config(53).with_lossy(LossyConfig::fixed(0.85, 5353));
    audit_pool(PoolSystem::build(topo, field, config).unwrap(), "lossy");
}

/// A fault plan that keeps the campaign interesting for the whole audit:
/// one mid-run crash, one healing partition-era burst channel.
fn audit_fault_plan() -> pool_dcs::transport::FaultPlan {
    use pool_dcs::transport::{Fault, FaultPlan, GilbertElliott};
    FaultPlan::new().with(Fault::Crash { node: NodeId(123), at: 0.5 }).with(Fault::BurstLoss {
        channel: GilbertElliott { p_gb: 0.1, p_bg: 0.3, good_prr: 1.0, bad_prr: 0.3 },
        from: 0.25,
        until: f64::INFINITY,
    })
}

/// The same conservation identity under structured faults with the full
/// recovery stack (EWMA backoff ARQ, failure detector, detour rerouting,
/// operation-level retry): every attempt — retries, detours, exhausted
/// budgets — lands in the ledger the cost structs report.
#[test]
fn pool_conserves_messages_under_faults_and_recovery() {
    use pool_dcs::transport::{OpRetryPolicy, RecoveryConfig};
    let (topo, field) = connected(54);
    let config = full_config(54)
        .with_transport(TransportKind::Cached)
        .with_lossy(LossyConfig::fixed(0.9, 5454))
        .with_faults(audit_fault_plan())
        .with_recovery(RecoveryConfig::default())
        .with_op_retry(OpRetryPolicy::detouring(2));
    audit_pool(PoolSystem::build(topo, field, config).unwrap(), "faulty+recovery");
}

/// DIM's insert and query obey the same identity, loss-free and lossy.
fn audit_dim(mut dim: DimSystem, label: &str) {
    let mut rng = StdRng::seed_from_u64(1717);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for _ in 0..200 {
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let before = LedgerSnapshot::of(dim.ledger());
        let spent = match dim.insert_from(src, generator.generate(&mut rng)) {
            Ok(receipt) => receipt.messages,
            Err(InsertError::Undeliverable { transmissions, .. }) => transmissions,
            Err(e) => panic!("{label}: unexpected DIM insert failure: {e}"),
        };
        let delta = before.layer_delta(dim.ledger(), TrafficLayer::Insert)
            + before.layer_delta(dim.ledger(), TrafficLayer::Retransmit);
        assert_eq!(spent, delta, "{label}: DIM insert vs ledger");
        assert_eq!(spent, before.total_delta(dim.ledger()), "{label}: DIM insert elsewhere");
    }
    for _ in 0..20 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
        let before = LedgerSnapshot::of(dim.ledger());
        let result = dim.query_from(sink, &q).unwrap();
        assert_eq!(
            result.cost.forward_messages,
            before.layer_delta(dim.ledger(), TrafficLayer::Forward),
            "{label}: DIM query forward vs ledger"
        );
        assert_eq!(
            result.cost.reply_messages,
            before.layer_delta(dim.ledger(), TrafficLayer::Reply),
            "{label}: DIM query reply vs ledger"
        );
        assert_eq!(
            result.cost.total(),
            before.total_delta(dim.ledger()),
            "{label}: DIM query charged a foreign layer"
        );
    }
}

#[test]
fn dim_conserves_messages_on_gpsr_and_lossy() {
    let (topo, field) = connected(61);
    audit_dim(DimSystem::build(topo.clone(), field, 3, &Substrate::default()).unwrap(), "gpsr");
    audit_dim(
        DimSystem::build(
            topo,
            field,
            3,
            &Substrate { lossy: Some(LossyConfig::fixed(0.85, 6161)), ..Substrate::default() },
        )
        .unwrap(),
        "lossy",
    );
}

/// Builds a sharing-enabled Pool and hammers one attribute-space hotspot so
/// the target cell overflows into a delegation chain.
fn hotspot_pool(seed: u64, capacity: usize, lossy: Option<LossyConfig>) -> PoolSystem {
    let (topo, field) = connected(seed);
    let mut config = PoolConfig::paper().with_seed(seed).with_sharing(SharingPolicy::new(capacity));
    if let Some(lossy) = lossy {
        config = config.with_lossy(lossy);
    }
    let mut pool = PoolSystem::build(topo, field, config).unwrap();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 7);
    for i in 0..60u32 {
        let jitter = 0.0004 * f64::from(i % 40);
        let event = Event::new(vec![0.951 + jitter, 0.052, 0.013]).unwrap();
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let _ = pool.insert_from(src, event);
    }
    pool
}

/// The cells that actually overflowed into delegation chains.
fn delegated_cells(pool: &PoolSystem) -> Vec<(usize, pool_dcs::core::grid::CellCoord)> {
    let mut out = Vec::new();
    for spec in pool.layout().pools().to_vec() {
        for cell in spec.cells() {
            if !pool.delegates_of(cell).is_empty() {
                out.push((spec.dim, cell));
            }
        }
    }
    out
}

/// Regression (headline bugfix): delegation-chain replies are real
/// transport legs. The delegates show up as Reply-layer senders in the
/// per-node ledger, and the query's reply cost still equals the Reply
/// layer's growth exactly — the old code charged `chain.len() * copies`
/// phantom messages the ledger never saw, so this identity failed on every
/// delegated cell.
#[test]
fn chain_replies_are_ledgered_per_delegate() {
    let mut pool = hotspot_pool(71, 4, None);
    let delegated = delegated_cells(&pool);
    assert!(!delegated.is_empty(), "hotspot workload must overflow into delegation");

    let hot = RangeQuery::exact(vec![(0.94, 0.98), (0.0, 0.1), (0.0, 0.1)]).unwrap();
    let before = LedgerSnapshot::of(pool.ledger());
    let result = pool.query_from(NodeId(200), &hot).unwrap();
    assert!(result.events.len() >= 50, "the hotspot events must answer");
    assert!(result.completeness.is_complete());

    assert_eq!(
        result.cost.reply_messages,
        before.layer_delta(pool.ledger(), TrafficLayer::Reply),
        "reply cost must equal the Reply-layer ledger growth (no phantom chain messages)"
    );
    assert_eq!(result.cost.total(), before.total_delta(pool.ledger()));

    // The chain members themselves sent the reply traffic: every delegated
    // cell's chain shows nonzero Reply-layer load at the chain links.
    let mut delegate_reply = 0u64;
    for &(_, cell) in &delegated {
        for &node in pool.delegates_of(cell) {
            delegate_reply += pool.ledger().node_layer_load(node, TrafficLayer::Reply);
        }
    }
    assert!(delegate_reply > 0, "delegates must appear as Reply-layer senders");

    // The load report sees the same thing through the role tags.
    let report = pool.load_report();
    assert!(report.role_layer_total(NodeRole::Delegate, TrafficLayer::Reply) > 0);
}

/// Regression (headline bugfix, failure half): a chain reply that dies on
/// a lossy link demotes its cell in the completeness report — the answer
/// is never silently partial.
#[test]
fn dead_chain_reply_demotes_the_cell() {
    let hot = RangeQuery::exact(vec![(0.94, 0.98), (0.0, 0.1), (0.0, 0.1)]).unwrap();
    let mut observed_chain_reply_death = false;
    'seeds: for seed in 0..120u64 {
        let mut pool =
            hotspot_pool(81, 4, Some(LossyConfig::fixed(0.8, 9000 + seed).with_retry_budget(1)));
        let delegated = delegated_cells(&pool);
        if delegated.is_empty() {
            continue;
        }
        // Chain tail → index node endpoints identify the chain-reply leg's
        // trace span for each delegated cell.
        let chain_endpoints: Vec<(NodeId, NodeId, (usize, pool_dcs::core::grid::CellCoord))> =
            delegated
                .iter()
                .map(|&key| {
                    let chain = pool.delegates_of(key.1);
                    let index = pool.index_node_of(key.1).unwrap();
                    (*chain.last().unwrap(), index, key)
                })
                .collect();
        pool.tracer_mut().clear();
        let result = pool.query_from(NodeId(200), &hot).unwrap();
        for span in pool.tracer().spans() {
            if span.op != TraceOp::Query || span.layer != TrafficLayer::Reply {
                continue;
            }
            if let SpanOutcome::PartialCopies { .. } = span.outcome {
                for &(tail, index, key) in &chain_endpoints {
                    if span.origin == tail && span.destination == index && tail != index {
                        observed_chain_reply_death = true;
                        assert!(
                            result.completeness.unreached_cells.contains(&key),
                            "seed {seed}: chain reply died for {key:?} but the cell \
                             was not demoted: {:?}",
                            result.completeness
                        );
                        break 'seeds;
                    }
                }
            }
        }
    }
    assert!(observed_chain_reply_death, "no seed produced a dead chain reply; weaken the radio");
}

/// Regression: `aggregate_from` surfaces completeness. On a loss-free
/// radio the aggregate is authoritative; under a harsh radio at least one
/// aggregate must admit it is partial instead of posing as complete.
#[test]
fn aggregates_surface_partial_answers() {
    let (topo, field) = connected(91);
    let mut perfect =
        PoolSystem::build(topo.clone(), field, PoolConfig::paper().with_seed(91)).unwrap();
    let harsh_config = PoolConfig::paper()
        .with_seed(91)
        .with_lossy(LossyConfig::model(PrrModel::new(15.0, 42.0), 9191));
    let mut harsh = PoolSystem::build(topo, field, harsh_config).unwrap();

    let mut rng = StdRng::seed_from_u64(919);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for _ in 0..400 {
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let event = generator.generate(&mut rng);
        perfect.insert_from(src, event.clone()).unwrap();
        let _ = harsh.insert_from(src, event);
    }

    let mut saw_partial = false;
    for _ in 0..30 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.15 });
        let clean = perfect.aggregate_from(sink, &q, AggregateOp::Count).unwrap();
        assert!(clean.completeness.is_complete(), "loss-free aggregates are authoritative");
        assert_eq!(clean.value, Some(perfect.brute_force_query(&q).len() as f64));

        let noisy = harsh.aggregate_from(sink, &q, AggregateOp::Count).unwrap();
        assert_eq!(
            noisy.completeness.cells_reached + noisy.completeness.unreached_cells.len(),
            noisy.completeness.cells_relevant
        );
        saw_partial |= !noisy.completeness.is_complete();
    }
    assert!(saw_partial, "the harsh radio should leave some aggregate partial");
}

/// Regression: `install_monitor` surfaces installed-cell completeness.
/// After a partitioning failure, an installation from the main component
/// reports exactly the cells that are actually watching.
#[test]
fn monitor_install_reports_its_coverage() {
    let (topo, field) = connected(95);
    let mut pool = PoolSystem::build(topo, field, PoolConfig::paper().with_seed(95)).unwrap();

    // Loss-free, fully connected: installation covers every relevant cell.
    let all = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
    let install = pool.install_monitor(NodeId(2), all.clone()).unwrap();
    assert!(install.completeness.is_complete());
    assert_eq!(
        pool.monitors().cells_of(install.id).len(),
        install.completeness.cells_reached,
        "the registry and the receipt must agree"
    );
    pool.remove_monitor(install.id).unwrap();

    // Cut one index node's whole radio neighborhood: a guaranteed
    // partition. A fresh installation from the main component must report
    // the unreachable cells instead of claiming full coverage.
    let isolated = pool
        .layout()
        .pools()
        .to_vec()
        .iter()
        .flat_map(|p| p.cells())
        .find_map(|c| pool.index_node_of(c))
        .expect("layout has index nodes");
    let victims: Vec<NodeId> = pool.topology().neighbors(isolated).to_vec();
    let report = pool.fail_nodes(&victims).unwrap();
    assert!(report.partitioned, "neighborhood kill must partition: {report:?}");

    let sink = pool.topology().largest_component_members()[0];
    let install = pool.install_monitor(sink, all).unwrap();
    assert!(
        !install.completeness.is_complete(),
        "a partitioned install must admit narrowed coverage: {:?}",
        install.completeness
    );
    assert_eq!(
        install.completeness.cells_reached + install.completeness.unreached_cells.len(),
        install.completeness.cells_relevant
    );
    assert_eq!(pool.monitors().cells_of(install.id).len(), install.completeness.cells_reached);
}

/// Runs every `(sink, query)` as `query_from` on `single` and as a batch of
/// one on `batched` (two identically built and loaded systems, so their
/// state stays in lockstep) and asserts the batch is the query: the same
/// cost field by field, the same completeness, the same events as a
/// multiset.
fn assert_batch_of_one_is_a_query(
    mut single: PoolSystem,
    mut batched: PoolSystem,
    queries: &[(NodeId, RangeQuery)],
    label: &str,
) {
    let key = |e: &Event| e.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (i, (sink, q)) in queries.iter().enumerate() {
        let want = single.query_from(*sink, q).unwrap();
        let got = batched.query_batch(*sink, std::slice::from_ref(q)).unwrap();
        assert_eq!(got.cost, want.cost, "{label}: query {i} cost");
        assert_eq!(got.completeness, want.completeness, "{label}: query {i} completeness");
        assert_eq!(got.cells_visited, want.relevant_cells, "{label}: query {i} cells");
        let mut want_events = want.events;
        let [mut got_events] = <[Vec<Event>; 1]>::try_from(got.per_query).unwrap();
        want_events.sort_by_key(key);
        got_events.sort_by_key(key);
        assert_eq!(got_events, want_events, "{label}: query {i} events");
    }
}

/// A batch of one query is that query, on a loss-free radio, over
/// delegation chains, and on a lossy radio. The batch used to run its own
/// loop: it skipped delegation chains, routed replies afresh, timed cells
/// one after another, and aborted on the first lost leg.
#[test]
fn a_batch_of_one_query_is_that_query() {
    let mut rng = StdRng::seed_from_u64(3131);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    let events: Vec<(NodeId, Event)> = (0..300)
        .map(|_| (NodeId(rng.gen_range(0..NODES as u32)), generator.generate(&mut rng)))
        .collect();
    let loaded = |config: PoolConfig| {
        let (topo, field) = connected(31);
        let mut pool = PoolSystem::build(topo, field, config).unwrap();
        for (src, event) in &events {
            let _ = pool.insert_from(*src, event.clone());
        }
        pool
    };
    let queries: Vec<(NodeId, RangeQuery)> = (0..40)
        .map(|_| {
            let sink = NodeId(rng.gen_range(0..NODES as u32));
            (sink, exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 }))
        })
        .collect();
    let paper = PoolConfig::paper().with_seed(31);
    assert_batch_of_one_is_a_query(loaded(paper.clone()), loaded(paper), &queries, "loss-free");

    // A one-retry budget loses legs, so the lossy arm also compares
    // degraded answers.
    let radio = LossyConfig::fixed(0.8, 3232).with_retry_budget(1);
    let lossy = PoolConfig::paper().with_seed(31).with_lossy(radio);
    assert_batch_of_one_is_a_query(loaded(lossy.clone()), loaded(lossy), &queries, "lossy");

    // Half the queries cover the hotspot, so they walk its delegation chain.
    let hot: Vec<(NodeId, RangeQuery)> = queries
        .iter()
        .enumerate()
        .map(|(i, (sink, q))| {
            let widen = 0.002 * i as f64;
            let hot = RangeQuery::exact(vec![(0.94 - widen, 0.98), (0.0, 0.1 + widen), (0.0, 0.1)]);
            (*sink, if i % 2 == 0 { hot.unwrap() } else { q.clone() })
        })
        .collect();
    let (single, batched) = (hotspot_pool(71, 10, None), hotspot_pool(71, 10, None));
    assert!(!delegated_cells(&single).is_empty(), "the hotspot must overflow into a chain");
    assert_batch_of_one_is_a_query(single, batched, &hot, "sharing");
}

/// Virtual-time tolerance: elapsed times are sums of exact binary
/// fractions of the latency model, so they agree to far better than this.
const T_EPS: f64 = 1e-9;

/// The time-ledger audit, mirroring the message audit above: every cost a
/// public operation reports in *virtual time* must equal the clock's
/// advance over that operation, and the clock must come to rest at the
/// span tree's critical path — the maximum span end among the legs the
/// operation launched. No phantom waiting the radio never did, no silent
/// time the caller never sees.
fn audit_pool_time(mut pool: PoolSystem, label: &str) {
    let mut rng = StdRng::seed_from_u64(2468);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);

    // Insertions (with replication on, these fan out and overlap).
    for _ in 0..150 {
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let start = pool.transport().clock().now();
        pool.tracer_mut().clear();
        match pool.insert_from(src, generator.generate(&mut rng)) {
            Ok(receipt) => {
                let end = pool.transport().clock().now();
                assert!(
                    (receipt.elapsed - (end - start)).abs() < T_EPS,
                    "{label}: insert elapsed {} vs clock advance {}",
                    receipt.elapsed,
                    end - start
                );
                // Empty-op guard: an insert that sent nothing took no time.
                if receipt.messages == 0 {
                    assert_eq!(receipt.elapsed, 0.0, "{label}: zero-message insert took time");
                }
                audit_spans(&pool, start, end, label, "insert");
            }
            Err(InsertError::Undeliverable { .. }) => {}
            Err(e) => panic!("{label}: unexpected insert failure: {e}"),
        }
    }

    // One-shot queries: elapsed is the critical path, so it is bounded by
    // the per-leg latency sums and equals the clock's advance exactly.
    for _ in 0..20 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
        audit_op_time(&mut pool, label, "query", |pool| {
            Some(pool.query_from(sink, &q).unwrap().cost)
        });
    }

    // Every other fan-out is timed by the same rules: aggregates, batches
    // and monitor installation and removal walk the same splitter tree.
    let q = RangeQuery::from_bounds(vec![Some((0.2, 0.6)), None, None]).unwrap();
    audit_op_time(&mut pool, label, "aggregate", |pool| {
        Some(pool.aggregate_from(NodeId(9), &q, AggregateOp::Count).unwrap().cost)
    });
    let batch = [q.clone(), RangeQuery::from_bounds(vec![None, Some((0.7, 0.9)), None]).unwrap()];
    audit_op_time(&mut pool, label, "batch", |pool| {
        Some(pool.query_batch(NodeId(3), &batch).unwrap().cost)
    });
    let mut installed = None;
    audit_op_time(&mut pool, label, "install_monitor", |pool| {
        let install = pool.install_monitor(NodeId(5), q.clone()).unwrap();
        installed = Some(install.id);
        Some(install.cost)
    });
    audit_op_time(&mut pool, label, "remove_monitor", |pool| {
        pool.remove_monitor(installed.unwrap()).unwrap()
    });
    // The nearest-neighbour search is serial, and fails on a lost leg: only
    // a search that answered has a cost to audit.
    audit_op_time(&mut pool, label, "k_nearest", |pool| {
        pool.k_nearest(NodeId(7), &[0.4, 0.5, 0.6], 3).ok().map(|nn| nn.cost)
    });
}

/// Runs one operation and audits its reported time: `elapsed` equals the
/// clock's advance, is at most the per-leg latency sum, is positive when
/// messages moved, and the operation's spans obey [`audit_spans`]. `run`
/// returns `None` for an operation that failed (nothing to audit).
fn audit_op_time(
    pool: &mut PoolSystem,
    label: &str,
    op: &str,
    run: impl FnOnce(&mut PoolSystem) -> Option<QueryCost>,
) {
    let start = pool.transport().clock().now();
    pool.tracer_mut().clear();
    let Some(cost) = run(pool) else { return };
    let end = pool.transport().clock().now();
    assert!(
        (cost.elapsed - (end - start)).abs() < T_EPS,
        "{label}: {op} elapsed {} vs clock advance {}",
        cost.elapsed,
        end - start
    );
    assert!(
        cost.elapsed <= cost.forward_latency + cost.reply_latency + T_EPS,
        "{label}: {op} critical path {} exceeds per-leg latency sum {}",
        cost.elapsed,
        cost.forward_latency + cost.reply_latency
    );
    if cost.total() > 0 {
        assert!(cost.elapsed > 0.0, "{label}: {op} moved messages in zero time");
    }
    audit_spans(pool, start, end, label, op);
}

/// Asserts the span-tree identity for the operation bracketed by
/// `[start, end]`: every span lies inside the bracket, and the clock's
/// resting point is the maximum span end (or `start`, for an op that
/// launched no legs). Also asserts that every message the ledger holds was
/// timed: each timed transmission has exactly one receive, so the clock's
/// receive counts sum to the ledger total.
fn audit_spans(pool: &PoolSystem, start: f64, end: f64, label: &str, op: &str) {
    let received: u64 = pool.transport().clock().rx_counts().iter().sum();
    assert_eq!(
        received,
        pool.ledger().total_messages(),
        "{label}: after {op}, the clock timed other than the ledger charged"
    );
    let mut max_end = start;
    for span in pool.tracer().spans() {
        assert!(
            span.start >= start - T_EPS && span.end <= end + T_EPS,
            "{label}: {op} span [{}, {}] escapes the op bracket [{start}, {end}]",
            span.start,
            span.end
        );
        assert!(span.end >= span.start - T_EPS, "{label}: {op} span runs backward");
        max_end = max_end.max(span.end);
    }
    assert!(
        (end - max_end).abs() < T_EPS,
        "{label}: {op} clock rests at {end} but the span critical path ends at {max_end}"
    );
}

#[test]
fn pool_conserves_time_on_gpsr() {
    let (topo, field) = connected(54);
    audit_pool_time(PoolSystem::build(topo, field, full_config(54)).unwrap(), "gpsr");
}

#[test]
fn pool_conserves_time_on_cached() {
    let (topo, field) = connected(55);
    let config = full_config(55).with_transport(TransportKind::Cached);
    audit_pool_time(PoolSystem::build(topo, field, config).unwrap(), "cached");
}

/// Backoff is priced on the virtual clock, so the time identity must hold
/// under faults and recovery too: an operation's `elapsed` equals the
/// clock's advance — including every exponential-backoff delay — and the
/// span tree stays inside the bracket.
#[test]
fn pool_conserves_time_under_faults_and_recovery() {
    use pool_dcs::transport::{OpRetryPolicy, RecoveryConfig};
    let (topo, field) = connected(57);
    let config = full_config(57)
        .with_transport(TransportKind::Cached)
        .with_lossy(LossyConfig::fixed(0.9, 5757))
        .with_faults(audit_fault_plan())
        .with_recovery(RecoveryConfig::default())
        .with_op_retry(OpRetryPolicy::detouring(2));
    audit_pool_time(PoolSystem::build(topo, field, config).unwrap(), "faulty+recovery");
}

#[test]
fn pool_conserves_time_on_lossy() {
    let (topo, field) = connected(56);
    let config = full_config(56).with_lossy(LossyConfig::fixed(0.85, 5656));
    audit_pool_time(PoolSystem::build(topo, field, config).unwrap(), "lossy");
}

/// DIM obeys the same clock identity: each insert's and query's reported
/// elapsed time equals the clock's advance (its walk is a serial chain, so
/// the critical path and the leg sum coincide on a loss-free radio).
#[test]
fn dim_conserves_time() {
    let (topo, field) = connected(62);
    let mut dim = DimSystem::build(topo, field, 3, &Substrate::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(2727);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for _ in 0..150 {
        let src = NodeId(rng.gen_range(0..NODES as u32));
        let start = dim.transport().clock().now();
        let receipt = dim.insert_from(src, generator.generate(&mut rng)).unwrap();
        let end = dim.transport().clock().now();
        assert!((receipt.elapsed - (end - start)).abs() < T_EPS, "DIM insert elapsed vs clock");
    }
    for _ in 0..20 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
        let start = dim.transport().clock().now();
        let result = dim.query_from(sink, &q).unwrap();
        let end = dim.transport().clock().now();
        assert!((result.cost.elapsed - (end - start)).abs() < T_EPS, "DIM query elapsed vs clock");
        assert!(
            (result.cost.elapsed - (result.cost.forward_latency + result.cost.reply_latency)).abs()
                < T_EPS,
            "DIM's serial chain: critical path must equal the leg sum"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Churn soak: random epoch interleavings of joins, deaths, moves, and
    /// mid-churn queries preserve both ledgers. Every epoch's repair spend
    /// must equal the repair-layer growth exactly and stay within the
    /// budget (strict on the loss-free radio, including budget 0 = repair
    /// paused), every loaded event must be accounted for — visible, queued
    /// for handoff, lost with its holders, or dropped as unreachable — and
    /// queries issued mid-churn never panic and keep their completeness
    /// arithmetic consistent.
    #[test]
    fn churn_soak_conserves_messages_and_events(seed in 0u64..1000, budget in 0u64..300) {
        use pool_dcs::core::dynamics::{ChurnConfig, ChurnPlanner, RepairQueue};

        let (topo, field) = connected(107);
        let mut pool = PoolSystem::build(topo, field, full_config(107)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
        const LOADED: usize = 90;
        for _ in 0..LOADED {
            let src = NodeId(rng.gen_range(0..NODES as u32));
            pool.insert_from(src, generator.generate(&mut rng)).unwrap();
        }

        let mut planner = ChurnPlanner::new(ChurnConfig::new(seed).with_rates(2, 3, 2));
        let mut queue = RepairQueue::default();
        let mut lost = 0usize;
        let mut unreachable = 0usize;
        for _ in 0..5 {
            let plan = planner.plan(pool.topology(), pool.field());
            let before = LedgerSnapshot::of(pool.ledger());
            let clock_before = pool.transport().clock().now();
            let report = pool.apply_epoch(&plan, &mut queue, budget).unwrap();

            // Message conservation: the report prices exactly the repair
            // layers' growth, and nothing else moved.
            let delta: u64 =
                [TrafficLayer::Repair, TrafficLayer::Replication, TrafficLayer::Retransmit]
                    .iter()
                    .map(|&l| before.layer_delta(pool.ledger(), l))
                    .sum();
            prop_assert_eq!(report.repair_messages, delta);
            prop_assert_eq!(report.repair_messages, before.total_delta(pool.ledger()));
            prop_assert!(report.repair_messages <= budget,
                "epoch spent {} > budget {budget}", report.repair_messages);
            prop_assert!(pool.transport().clock().now() >= clock_before);

            // Event conservation: visible + queued + lost + unreachable
            // always sums to what was loaded.
            lost += report.events_lost;
            unreachable += report.events_unreachable;
            prop_assert_eq!(pool.store().len() + queue.len() + lost + unreachable, LOADED);
            prop_assert_eq!(report.deferred_repairs as usize, queue.len());

            // Mid-churn queries: never a panic, always honest arithmetic.
            let members = pool.topology().largest_component_members();
            for _ in 0..2 {
                let sink = members[rng.gen_range(0..members.len())];
                let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
                let result = pool.query_from(sink, &q).unwrap();
                prop_assert_eq!(
                    result.completeness.cells_reached + result.completeness.unreached_cells.len(),
                    result.completeness.cells_relevant
                );
                prop_assert!(result.events.iter().all(|e| q.matches(e)));
            }
        }
    }

    /// Conservation is not a fair-weather identity: it holds for any link
    /// quality, with sharing and replication on.
    #[test]
    fn conservation_holds_for_any_link_quality(p in 0.5f64..=1.0, seed in 0u64..1000) {
        let (topo, field) = connected(101);
        let config = PoolConfig::paper()
            .with_seed(101)
            .with_sharing(SharingPolicy::new(10))
            .with_replication()
            .with_lossy(LossyConfig::fixed(p, seed));
        let mut pool = PoolSystem::build(topo, field, config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);

        for _ in 0..60 {
            let src = NodeId(rng.gen_range(0..NODES as u32));
            let before = LedgerSnapshot::of(pool.ledger());
            let spent = match pool.insert_from(src, generator.generate(&mut rng)) {
                Ok(receipt) => receipt.messages,
                Err(InsertError::Undeliverable { transmissions, .. }) => transmissions,
                Err(e) => panic!("unexpected insert failure: {e}"),
            };
            prop_assert_eq!(spent, before.total_delta(pool.ledger()));
        }
        for _ in 0..8 {
            let sink = NodeId(rng.gen_range(0..NODES as u32));
            let q = exact_query(&mut rng, 3, RangeSizeDistribution::Exponential { mean: 0.1 });
            let before = LedgerSnapshot::of(pool.ledger());
            let result = pool.query_from(sink, &q).unwrap();
            prop_assert_eq!(
                result.cost.forward_messages,
                before.layer_delta(pool.ledger(), TrafficLayer::Forward)
            );
            prop_assert_eq!(
                result.cost.reply_messages,
                before.layer_delta(pool.ledger(), TrafficLayer::Reply)
            );
            prop_assert_eq!(
                result.cost.retransmit_messages,
                before.layer_delta(pool.ledger(), TrafficLayer::Retransmit)
            );
            prop_assert_eq!(result.cost.total(), before.total_delta(pool.ledger()));
        }
    }
}
