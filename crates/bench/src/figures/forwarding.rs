//! Ablation: value of reply aggregation at splitters (§3.2.3).
//!
//! The paper argues the splitter tree "enables the system to consume
//! sensor energy more efficiently than by unicasting ... individually" and
//! that aggregation "significantly reduces" reply traffic. This experiment
//! compares Pool's reply cost with aggregation on and off as result-set
//! sizes grow. Each range size is an independent trial with its own pair
//! of deployments and a derived query seed (`derive_seed(31_337, i)`) —
//! the serial binary threaded one RNG across all sizes. Emits
//! `BENCH_forwarding.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::{derive_seed, run_trials};
use crate::harness::{connected_deployment, Scenario};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_workloads::events::{EventDistribution, EventGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one trial per range size on `--jobs` workers and returns the
/// table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let trials_per_size = opts.scale(25, 5);
    let sizes: Vec<f64> =
        if opts.smoke { vec![0.1, 0.4] } else { vec![0.05, 0.1, 0.2, 0.4, 0.6, 0.8] };
    let scenario = Scenario::paper(nodes, 31337);

    let results = run_trials(opts.jobs, sizes, |trial_index, size| {
        let (topology, field, _) = connected_deployment(&scenario);
        let build = |aggregate: bool| -> PoolSystem {
            let mut config = PoolConfig::paper().with_seed(scenario.seed);
            if !aggregate {
                config = config.without_reply_aggregation();
            }
            let mut pool = PoolSystem::build(topology.clone(), field, config).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
            for i in 0..(nodes * 3) {
                let event = generator.generate(&mut rng);
                pool.insert_from(NodeId((i % nodes) as u32), event).unwrap();
            }
            pool
        };
        let mut with_agg = build(true);
        let mut without_agg = build(false);

        let mut rng = StdRng::seed_from_u64(derive_seed(31_337, trial_index as u64));
        let mut agg_total = 0u64;
        let mut raw_total = 0u64;
        let mut matches = 0usize;
        let mut agg_latencies = Vec::with_capacity(trials_per_size);
        let mut raw_latencies = Vec::with_capacity(trials_per_size);
        for _ in 0..trials_per_size {
            let bounds = (0..3)
                .map(|_| {
                    let lo = rng.gen_range(0.0..=(1.0 - size));
                    Some((lo, lo + size))
                })
                .collect();
            let q = RangeQuery::from_bounds(bounds).unwrap();
            let sink = NodeId(rng.gen_range(0..nodes as u32));
            let a = with_agg.query_from(sink, &q).unwrap();
            let b = without_agg.query_from(sink, &q).unwrap();
            assert_eq!(a.events.len(), b.events.len());
            matches += a.events.len();
            agg_total += a.cost.reply_messages;
            raw_total += b.cost.reply_messages;
            agg_latencies.push(a.cost.elapsed * 1e3);
            raw_latencies.push(b.cost.elapsed * 1e3);
        }
        (
            size,
            matches,
            agg_total,
            raw_total,
            Summary::of(&agg_latencies),
            Summary::of(&raw_latencies),
        )
    });

    // Latency columns: whole-query virtual time with and without reply
    // aggregation, in milliseconds.
    let mut table = Table::new(
        "Reply aggregation ablation (growing query selectivity)",
        &[
            "range_size",
            "matches",
            "reply_aggregated",
            "reply_unaggregated",
            "ratio",
            "agg_p50_ms",
            "agg_p99_ms",
            "raw_p50_ms",
            "raw_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("trials", trials_per_size);
    for (size, matches, agg_total, raw_total, agg_lat, raw_lat) in &results {
        table.row(vec![
            (*size).into(),
            (*matches as f64 / trials_per_size as f64).into(),
            (*agg_total as f64 / trials_per_size as f64).into(),
            (*raw_total as f64 / trials_per_size as f64).into(),
            (*raw_total as f64 / (*agg_total).max(1) as f64).into(),
            agg_lat.median.into(),
            agg_lat.p99.into(),
            raw_lat.median.into(),
            raw_lat.p99.into(),
        ]);
    }
    table.into()
}
