//! §5.2's omitted comparison: data-insertion cost vs network size.
//!
//! The paper drops this plot because "the data insertion cost of both
//! methods are conceptually the same" (both GPSR-route each event to one
//! storage node). This binary verifies that claim empirically; each
//! network size is an independent trial on the execution engine (the
//! serial seeds, `77 + nodes`, are unchanged). Emits
//! `BENCH_insertion.json`.
//!
//! Run: `cargo run -p pool-bench --bin insertion_cost --release
//!       [-- --jobs N --smoke]`

use pool_bench::cli::BenchOpts;
use pool_bench::exec::run_trials;
use pool_bench::harness::Scenario;
use pool_core::config::PoolConfig;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_netsim::deployment::Deployment;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_netsim::topology::Topology;
use pool_transport::Substrate;
use pool_workloads::events::{EventDistribution, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = BenchOpts::from_env();
    let results = run_trials(opts.jobs, opts.network_sizes(), |_, n| {
        let scenario = Scenario::paper(n, 77 + n as u64);
        let mut seed = scenario.seed;
        let (topology, field) = loop {
            let dep = Deployment::paper_setting(n, 40.0, 20.0, seed).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                break (topo, dep.field());
            }
            seed += 0x1000;
        };
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
    columns.extend(pool_bench::LATENCY_COLUMNS);
    let mut table =
        pool_bench::Table::new("Insertion cost (messages per event) vs network size", &columns);
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
    opts.emit("insertion", &table);
}
