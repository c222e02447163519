//! Extension experiment: continuous monitoring vs periodic polling.
//!
//! A user who wants fresh matches for a standing range query can either
//! (a) re-issue the query every reporting interval, or (b) install a Pool
//! continuous monitor (§6 extension) and receive per-event notifications.
//! This experiment charges both strategies over the same insertion stream
//! and locates the crossover in match rate. Each query width is an
//! independent trial (the serial seeds — topology 808, streams 9 — are
//! unchanged). Emits `BENCH_monitor.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{connected_deployment, Scenario};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one trial per query width on `--jobs` workers and returns the
/// table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let insertions = opts.scale(500, 100);
    let poll_every = opts.scale(50, 25);
    let widths: Vec<f64> =
        if opts.smoke { vec![0.05, 0.2] } else { vec![0.02, 0.05, 0.1, 0.2, 0.4] };

    let results = run_trials(opts.jobs, widths, |_, width| {
        let (topology, field, seed) = connected_deployment(&Scenario::paper(nodes, 808));
        let query =
            RangeQuery::from_bounds(vec![Some((0.5 - width / 2.0, 0.5 + width / 2.0)), None, None])
                .unwrap();
        let sink = NodeId(3);

        // Strategy A: continuous monitor.
        let mut monitored =
            PoolSystem::build(topology.clone(), field, PoolConfig::paper().with_seed(seed))
                .unwrap();
        let install = monitored.install_monitor(sink, query.clone()).unwrap();
        let mut monitor_msgs = install.cost.total();
        let mut matches = 0usize;
        let mut insert_latencies = Vec::with_capacity(insertions);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..insertions {
            let event = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            let receipt = monitored.insert_from(NodeId((i % nodes) as u32), event).unwrap();
            matches += receipt.notifications.len();
            monitor_msgs += receipt.notifications.iter().map(|n| n.messages).sum::<u64>();
            insert_latencies.push(receipt.elapsed * 1e3);
        }

        // Strategy B: poll every `poll_every` insertions.
        let mut polled =
            PoolSystem::build(topology, field, PoolConfig::paper().with_seed(seed)).unwrap();
        let mut polling_msgs = 0u64;
        let mut poll_latencies = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..insertions {
            let event = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            polled.insert_from(NodeId((i % nodes) as u32), event).unwrap();
            if (i + 1) % poll_every == 0 {
                let result = polled.query_from(sink, &query).unwrap();
                polling_msgs += result.cost.total();
                poll_latencies.push(result.cost.elapsed * 1e3);
            }
        }
        (
            width,
            matches,
            monitor_msgs,
            polling_msgs,
            Summary::of(&insert_latencies),
            Summary::of(&poll_latencies),
        )
    });

    // Latency columns: per-insert (with notification fan-out) vs per-poll
    // query virtual time, in milliseconds.
    let mut table = Table::new(
        "Continuous monitor vs periodic polling",
        &[
            "selectivity",
            "matches",
            "monitor_msgs",
            "polling_msgs",
            "poll_over_monitor",
            "insert_p50_ms",
            "insert_p99_ms",
            "poll_p50_ms",
            "poll_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("insertions", insertions);
    table.meta("poll_every", poll_every);
    for (width, matches, monitor_msgs, polling_msgs, insert_lat, poll_lat) in &results {
        table.row(vec![
            (*width).into(),
            (*matches).into(),
            (*monitor_msgs).into(),
            (*polling_msgs).into(),
            (*polling_msgs as f64 / (*monitor_msgs).max(1) as f64).into(),
            insert_lat.median.into(),
            insert_lat.p99.into(),
            poll_lat.median.into(),
            poll_lat.p99.into(),
        ]);
    }
    table.into()
}
