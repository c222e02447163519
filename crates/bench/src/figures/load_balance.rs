//! Load-balance driver: per-node message/storage load under a skewed
//! workload, Pool vs DIM, on ideal and harsh radios.
//!
//! Each (link-regime) level is an independent trial — it builds its own
//! deployment, lossy link layer, ledger, and tracer from the scenario
//! seed — so the two levels run concurrently under `--jobs` and aggregate
//! into a byte-identical table regardless of worker count. The regression
//! guards (no ARQ traffic on the ideal radio, delegation chains visibly
//! ledgered, Pool's sharing beating DIM's hot zone owner) run after
//! aggregation, exactly as the serial binary always asserted them.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{QueryKind, Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::{PoolConfig, SharingPolicy};
use pool_core::query::RangeQuery;
use pool_netsim::radio::PrrModel;
use pool_transport::{LinkQuality, LoadDistribution, LossyConfig, NodeRole, TrafficLayer};
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// The hotspot: most readings cluster here, so one α-cell's index node
/// overflows its sharing capacity and grows a delegation chain.
const HOTSPOT: [f64; 3] = [0.85, 0.15, 0.5];

/// How one system's load spread out under one link regime.
struct SystemStats {
    messages: LoadDistribution,
    storage: LoadDistribution,
    reply: LoadDistribution,
    busy: LoadDistribution,
    delegate_reply_messages: u64,
    hottest_node: u32,
    hottest_messages: u64,
    retransmit_messages: u64,
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
    let lossy = LossyConfig { quality, ..LossyConfig::fixed(1.0, scenario.seed ^ 0x70AD) };
    let config = PoolConfig::paper().with_sharing(SharingPolicy::new(25)).with_lossy(lossy);
    let events = EventDistribution::Hotspot { center: HOTSPOT.to_vec(), std_dev: 0.04 };
    let mut pair = SystemPair::build(scenario, config, events);

    // Query phase: a mix of random exact-match ranges (the §5 workload)
    // and queries aimed at the hotspot itself — the latter are what walk
    // the delegation chains and generate Delegate-relayed Reply traffic.
    let dims = pair.pool.config().dims;
    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let hot_query =
        RangeQuery::exact(HOTSPOT.iter().map(|&c| (c - 0.06, c + 0.06)).collect::<Vec<_>>())
            .expect("hotspot query");
    for i in 0..queries {
        let sink = pair.random_node();
        let query = if i % 3 == 0 { hot_query.clone() } else { kind.generate(pair.rng(), dims) };
        pair.pool.query_from(sink, &query).expect("pool query");
        pair.dim.query_from(sink, &query).expect("dim query");
    }

    let stats = |report: &pool_transport::LoadReport, retransmit: u64| {
        let hottest = report.hottest(1);
        let (hottest_node, hottest_messages) =
            hottest.first().map(|n| (n.node.0, n.messages)).unwrap_or((0, 0));
        SystemStats {
            messages: report.message_distribution(),
            storage: report.storage_distribution(),
            reply: report.layer_distribution(TrafficLayer::Reply),
            busy: report.busy_distribution(),
            delegate_reply_messages: report
                .role_layer_total(NodeRole::Delegate, TrafficLayer::Reply),
            hottest_node,
            hottest_messages,
            retransmit_messages: retransmit,
        }
    };
    let pool =
        stats(&pair.pool.load_report(), pair.pool.ledger().layer_total(TrafficLayer::Retransmit));
    let dim =
        stats(&pair.dim.load_report(), pair.dim.ledger().layer_total(TrafficLayer::Retransmit));
    LevelResult { label, pool, dim }
}

/// Runs both link regimes on `--jobs` workers and aggregates the
/// deterministic table.
///
/// # Panics
///
/// Panics if a regression guard trips: ARQ traffic on an ideal radio,
/// delegation chains missing from the Reply-layer ledger, or Pool's
/// sharing failing to cap storage below DIM's hot zone owner.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(45)).max(1);
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let scenario = Scenario::paper(nodes, 91_000);
    let levels: Vec<(&'static str, LinkQuality)> = vec![
        ("ideal (prr = 1)", LinkQuality::Fixed(1.0)),
        ("harsh loss (15/42 m)", LinkQuality::Model(PrrModel::new(15.0, 42.0))),
    ];
    let results = run_trials(opts.jobs, levels, |_, (label, quality)| {
        run_level(&scenario, quality, queries, label)
    });

    let mut table = Table::new(
        "Per-node load balance under a hotspot workload (sharing capacity 25)",
        &[
            "radio",
            "system",
            "msg_max",
            "msg_mean",
            "msg_gini",
            "store_max",
            "store_mean",
            "store_gini",
            "reply_max",
            "reply_gini",
            "busy_max_s",
            "busy_gini",
            "delegate_reply",
            "hottest_node",
            "hottest_msgs",
            "rtx",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for level in &results {
        for (system, s) in [("pool", &level.pool), ("dim", &level.dim)] {
            table.row(vec![
                level.label.into(),
                system.into(),
                s.messages.max.into(),
                s.messages.mean.into(),
                s.messages.gini.into(),
                s.storage.max.into(),
                s.storage.mean.into(),
                s.storage.gini.into(),
                s.reply.max.into(),
                s.reply.gini.into(),
                s.busy.max.into(),
                s.busy.gini.into(),
                s.delegate_reply_messages.into(),
                s.hottest_node.into(),
                s.hottest_messages.into(),
                s.retransmit_messages.into(),
            ]);
        }
    }

    // Regression guards. Ideal radio: no ARQ traffic, and the delegation
    // chains *must* show up as Reply-layer load on the delegates — this is
    // the observable form of the chain-reply fix (phantom costs never
    // landed on any node's ledger row).
    let ideal = &results[0];
    assert_eq!(ideal.pool.retransmit_messages, 0, "ideal radio retransmitted (pool)");
    assert_eq!(ideal.dim.retransmit_messages, 0, "ideal radio retransmitted (dim)");
    assert!(
        ideal.pool.delegate_reply_messages > 0,
        "hotspot queries walked no delegation chain — chain replies are not being ledgered"
    );
    // The skew story itself: under a hotspot, Pool's sharing keeps storage
    // strictly better balanced than DIM's zone ownership.
    assert!(
        ideal.pool.storage.max < ideal.dim.storage.max,
        "pool sharing should cap per-node storage below DIM's hot zone owner ({} vs {})",
        ideal.pool.storage.max,
        ideal.dim.storage.max
    );
    table.into()
}
