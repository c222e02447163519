//! §5.2's omitted comparison: data-insertion cost vs network size.
//!
//! The paper drops this plot because "the data insertion cost of both
//! methods are conceptually the same" (both GPSR-route each event to one
//! storage node). This figure verifies that claim empirically; each
//! network size is an independent trial on the execution engine (the
//! serial seeds, `77 + nodes`, are unchanged). Emits
//! `BENCH_insertion.json`.

use crate::cli::Args;
use crate::exec::run_trials;
use crate::harness::{connected_deployment, Scenario, LATENCY_COLUMNS};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_transport::Substrate;
use pool_workloads::events::{EventDistribution, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one trial per network size on `--jobs` workers and returns the
/// table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let results = run_trials(opts.jobs, opts.network_sizes(), |_, n| {
        let scenario = Scenario::paper(n, 77 + n as u64);
        let (topology, field, _) = connected_deployment(&scenario);
        let mut pool = PoolSystem::build(
            topology.clone(),
            field,
            PoolConfig::paper().with_seed(scenario.seed),
        )
        .unwrap();
        let mut dim = DimSystem::build(topology, field, 3, &Substrate::default()).unwrap();

        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
        let mut pool_costs = Vec::new();
        let mut dim_costs = Vec::new();
        let mut pool_latencies = Vec::new();
        let mut dim_latencies = Vec::new();
        for node in 0..n as u32 {
            for _ in 0..scenario.events_per_node {
                let event = generator.generate(&mut rng);
                let p = pool.insert_from(NodeId(node), event.clone()).unwrap();
                let d = dim.insert_from(NodeId(node), event).unwrap();
                pool_costs.push(p.messages as f64);
                dim_costs.push(d.messages as f64);
                pool_latencies.push(p.elapsed * 1e3);
                dim_latencies.push(d.elapsed * 1e3);
            }
        }
        (
            n,
            Summary::of(&pool_costs),
            Summary::of(&dim_costs),
            Summary::of(&pool_latencies),
            Summary::of(&dim_latencies),
        )
    });

    // Latency columns report per-insert virtual time in milliseconds.
    let mut columns = vec!["nodes", "pool_mean", "dim_mean", "pool_p95", "dim_p95"];
    columns.extend(LATENCY_COLUMNS);
    let mut table = Table::new("Insertion cost (messages per event) vs network size", &columns);
    for (n, ps, ds, pl, dl) in &results {
        table.row(vec![
            (*n).into(),
            ps.mean.into(),
            ds.mean.into(),
            ps.p95.into(),
            ds.p95.into(),
            pl.median.into(),
            pl.p99.into(),
            dl.median.into(),
            dl.p99.into(),
        ]);
    }
    table.into()
}
