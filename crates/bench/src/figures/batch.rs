//! Ablation: multi-query batching.
//!
//! Dashboards and sweeps issue several related queries at once. Pool's
//! batch API shares the sink→splitter legs and deduplicates cell visits
//! across the batch; this experiment measures the saving as a function of
//! batch size and query overlap. Each batch size is an independent trial
//! over its own deployment — the serial binary reused one pair (and one
//! RNG) across all sizes. Emits `BENCH_batch.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::query::RangeQuery;
use pool_netsim::stats::Summary;
use pool_workloads::events::EventDistribution;
use rand::Rng;

/// Runs one trial per batch size on `--jobs` workers and returns the
/// table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let trials_per_size = opts.scale(15, 4);
    let batch_sizes: Vec<usize> = if opts.smoke { vec![2, 8] } else { vec![2, 4, 8, 16] };

    let results = run_trials(opts.jobs, batch_sizes, |_, batch_size| {
        // Same deployment seed for every batch size: the sweep varies only
        // the batch width, and each trial owns its pair, so reusing the
        // scenario is coupling-free.
        let scenario = Scenario::paper(nodes, 123_123);
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        let mut separate_total = 0u64;
        let mut batched_total = 0u64;
        let mut separate_latencies = Vec::with_capacity(trials_per_size);
        let mut batched_latencies = Vec::with_capacity(trials_per_size);
        for _ in 0..trials_per_size {
            let sink = pair.random_node();
            // A threshold sweep: overlapping windows along dimension 1.
            let base: f64 = pair.rng().gen_range(0.0..0.5);
            let queries: Vec<RangeQuery> = (0..batch_size)
                .map(|i| {
                    let lo = (base + i as f64 * 0.02).min(0.9);
                    RangeQuery::exact(vec![(lo, (lo + 0.2).min(1.0)), (0.0, 0.5), (0.0, 1.0)])
                        .unwrap()
                })
                .collect();
            let mut separate_elapsed = 0.0;
            for q in &queries {
                let result = pair.pool.query_from(sink, q).unwrap();
                separate_total += result.cost.total();
                separate_elapsed += result.cost.elapsed;
            }
            let batched = pair.pool.query_batch(sink, &queries).unwrap();
            batched_total += batched.cost.total();
            separate_latencies.push(separate_elapsed * 1e3);
            batched_latencies.push(batched.cost.elapsed * 1e3);
        }
        (
            batch_size,
            separate_total,
            batched_total,
            Summary::of(&separate_latencies),
            Summary::of(&batched_latencies),
        )
    });

    // Latency columns: virtual time of issuing the whole batch serially vs
    // through the batch API, in milliseconds.
    let mut table = Table::new(
        "Query batching (overlapping threshold sweeps)",
        &[
            "batch_size",
            "separate_msgs",
            "batched_msgs",
            "saving_pct",
            "separate_p50_ms",
            "separate_p99_ms",
            "batched_p50_ms",
            "batched_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("trials", trials_per_size);
    for (batch_size, separate, batched, separate_lat, batched_lat) in &results {
        table.row(vec![
            (*batch_size).into(),
            (*separate as f64 / trials_per_size as f64).into(),
            (*batched as f64 / trials_per_size as f64).into(),
            (100.0 * (1.0 - *batched as f64 / *separate as f64)).into(),
            separate_lat.median.into(),
            separate_lat.p99.into(),
            batched_lat.median.into(),
            batched_lat.p99.into(),
        ]);
    }
    table.into()
}
