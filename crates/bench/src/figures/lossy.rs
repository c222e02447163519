//! Ablation: the paper's results under a realistic lossy radio — executed,
//! not re-priced.
//!
//! Both systems are built over a [`pool_transport::LossyTransport`] and
//! actually run their insert and query workloads through per-hop loss with
//! bounded hop-by-hop ARQ. Three link regimes are compared:
//!
//! * **ideal** — every hop succeeds (`prr = 1`); must reproduce the
//!   loss-free numbers exactly.
//! * **mild** — logistic PRR, perfect inside 30 m, dead past 45 m.
//! * **harsh** — perfect inside 15 m, dead past 42 m; many links sit deep
//!   in the transitional region and deliveries start failing outright.
//!
//! Each regime is an independent trial on the execution engine (it owns
//! its deployment, link RNG, ledger, and tracer), so the three levels run
//! concurrently under `--jobs` and `BENCH_lossy.json` is byte-identical
//! for any worker count.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{QueryKind, Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_netsim::radio::PrrModel;
use pool_netsim::stats::Summary;
use pool_transport::{LinkQuality, LossyConfig, TrafficLayer};
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// What one system delivered (and spent) under one link regime.
struct SystemStats {
    insert_delivery: f64,
    packet_delivery: f64,
    retransmission_overhead: f64,
    mean_completeness: f64,
    complete_queries: usize,
    mean_query_messages: f64,
    retransmit_messages: u64,
    latency: Summary,
}

struct LevelResult {
    label: &'static str,
    pool: SystemStats,
    dim: SystemStats,
}

fn run_level(
    scenario: &Scenario,
    quality: LinkQuality,
    queries: usize,
    label: &'static str,
) -> LevelResult {
    let lossy = LossyConfig { quality, ..LossyConfig::fixed(1.0, scenario.seed ^ 0x10557) };
    let config = PoolConfig::paper().with_lossy(lossy);
    let mut pair = SystemPair::build(scenario, config, EventDistribution::Uniform);

    let attempted = pair.inserts_attempted as f64;
    let pool_insert = (pair.inserts_attempted - pair.pool_insert_drops) as f64 / attempted;
    let dim_insert = (pair.inserts_attempted - pair.dim_insert_drops) as f64 / attempted;

    // Query phase. The same sinks and queries hit both systems; under loss
    // the result sets may legitimately diverge, so instead of asserting
    // equality (as `measure` does) we record each system's self-reported
    // completeness.
    let dims = pair.pool.config().dims;
    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let mut pool_ratio = 0.0;
    let mut dim_ratio = 0.0;
    let mut pool_complete = 0usize;
    let mut dim_complete = 0usize;
    let mut pool_msgs = 0u64;
    let mut dim_msgs = 0u64;
    let mut pool_latencies = Vec::with_capacity(queries);
    let mut dim_latencies = Vec::with_capacity(queries);
    for _ in 0..queries {
        let sink = pair.random_node();
        let query = kind.generate(pair.rng(), dims);
        let p = pair.pool.query_from(sink, &query).expect("pool query");
        pool_ratio += p.completeness.ratio();
        pool_complete += usize::from(p.completeness.is_complete());
        pool_msgs += p.cost.total();
        pool_latencies.push(p.cost.elapsed * 1e3);
        let d = pair.dim.query_from(sink, &query).expect("dim query");
        let ratio = if d.zones_visited == 0 {
            1.0
        } else {
            d.zones_reached as f64 / d.zones_visited as f64
        };
        dim_ratio += ratio;
        dim_complete += usize::from(d.zones_reached == d.zones_visited);
        dim_msgs += d.cost.total();
        dim_latencies.push(d.cost.elapsed * 1e3);
    }

    let ps = pair.pool.transport().delivery_stats();
    let ds = pair.dim.transport().delivery_stats();
    LevelResult {
        label,
        pool: SystemStats {
            insert_delivery: pool_insert,
            packet_delivery: ps.delivery_rate(),
            retransmission_overhead: ps.retransmission_overhead(),
            mean_completeness: pool_ratio / queries as f64,
            complete_queries: pool_complete,
            mean_query_messages: pool_msgs as f64 / queries as f64,
            retransmit_messages: pair.pool.ledger().layer_total(TrafficLayer::Retransmit),
            latency: Summary::of(&pool_latencies),
        },
        dim: SystemStats {
            insert_delivery: dim_insert,
            packet_delivery: ds.delivery_rate(),
            retransmission_overhead: ds.retransmission_overhead(),
            mean_completeness: dim_ratio / queries as f64,
            complete_queries: dim_complete,
            mean_query_messages: dim_msgs as f64 / queries as f64,
            retransmit_messages: pair.dim.ledger().layer_total(TrafficLayer::Retransmit),
            latency: Summary::of(&dim_latencies),
        },
    }
}

/// Runs the three link regimes on `--jobs` workers and returns the
/// table.
///
/// # Panics
///
/// Panics if the ideal regime retransmits or answers a query incompletely.
pub fn run(args: &Args) -> Report {
    // At least one query: the completeness means divide by the count.
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(60)).max(1);
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let scenario = Scenario::paper(nodes, 90_000);

    let levels: Vec<(&'static str, LinkQuality)> = vec![
        ("ideal (prr = 1)", LinkQuality::Fixed(1.0)),
        ("mild loss (30/45 m)", LinkQuality::Model(PrrModel::new(30.0, 45.0))),
        ("harsh loss (15/42 m)", LinkQuality::Model(PrrModel::new(15.0, 42.0))),
    ];
    let results = run_trials(opts.jobs, levels, |_, (label, quality)| {
        run_level(&scenario, quality, queries, label)
    });

    let mut table = Table::new(
        "Lossy radio: hop-by-hop ARQ, delivery and completeness",
        &[
            "radio",
            "system",
            "insert_delivery",
            "packet_delivery",
            "rtx_overhead",
            "mean_completeness",
            "complete_queries",
            "mean_query_msgs",
            "rtx_messages",
            "query_p50_ms",
            "query_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for level in &results {
        for (system, s) in [("pool", &level.pool), ("dim", &level.dim)] {
            table.row(vec![
                level.label.into(),
                system.into(),
                s.insert_delivery.into(),
                s.packet_delivery.into(),
                s.retransmission_overhead.into(),
                s.mean_completeness.into(),
                s.complete_queries.into(),
                s.mean_query_messages.into(),
                s.retransmit_messages.into(),
                s.latency.median.into(),
                s.latency.p99.into(),
            ]);
        }
    }

    // The ideal regime is the regression guard: a perfect link must be
    // indistinguishable from the loss-free seed.
    let ideal = &results[0];
    assert_eq!(ideal.pool.retransmit_messages, 0, "ideal radio retransmitted (pool)");
    assert_eq!(ideal.dim.retransmit_messages, 0, "ideal radio retransmitted (dim)");
    assert!((ideal.pool.mean_completeness - 1.0).abs() < 1e-12, "ideal pool incomplete");
    assert!((ideal.dim.mean_completeness - 1.0).abs() < 1e-12, "ideal dim incomplete");
    table.into()
}
