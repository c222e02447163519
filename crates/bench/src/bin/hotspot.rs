//! Ablation: skewed events and the workload-sharing mechanism (§4.2).
//!
//! Pool's claim 3 (§1): an index node experiencing a burst of insertions
//! can share load with its neighbors. This experiment drives a heavily
//! skewed event stream into (a) DIM, (b) Pool without sharing, and
//! (c) Pool with sharing at several capacities, then reports the maximum
//! per-node storage load — the hotspot indicator. Each system/capacity is
//! an independent trial over the same (seed-pinned) deployment and event
//! stream. Emits `BENCH_hotspot.json`.
//!
//! Run: `cargo run -p pool-bench --bin hotspot --release
//!       [-- --nodes N --jobs N --smoke]`

use pool_bench::cli::{arg_usize, BenchOpts};
use pool_bench::exec::run_trials;
use pool_bench::harness::Scenario;
use pool_core::config::{PoolConfig, SharingPolicy};
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

/// One deployment under the skewed stream: which system, and with what
/// sharing capacity (Pool only).
#[derive(Clone, Copy)]
enum Subject {
    Dim,
    Pool(Option<usize>),
}

fn main() {
    let opts = BenchOpts::from_env();
    let nodes = arg_usize("--nodes", opts.nodes(600));
    let events = opts.scale(1200, 300);
    let scenario = Scenario::paper(nodes, 999);
    let skew = EventDistribution::Hotspot { center: vec![0.85, 0.1, 0.1], std_dev: 0.02 };

    let subjects = vec![
        Subject::Dim,
        Subject::Pool(None),
        Subject::Pool(Some(200)),
        Subject::Pool(Some(50)),
        Subject::Pool(Some(10)),
    ];
    let results = run_trials(opts.jobs, subjects, |_, subject| {
        let mut seed = scenario.seed;
        let (topology, field) = loop {
            let dep = Deployment::paper_setting(nodes, 40.0, 20.0, seed).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                break (topo, dep.field());
            }
            seed += 0x1000;
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut generator = EventGenerator::new(3, skew.clone());
        match subject {
            Subject::Dim => {
                let mut dim = DimSystem::build(topology, field, 3, &Substrate::default()).unwrap();
                let mut latencies = Vec::with_capacity(events);
                for i in 0..events {
                    let event = generator.generate(&mut rng);
                    let r = dim.insert_from(NodeId((i % nodes) as u32), event).unwrap();
                    latencies.push(r.elapsed * 1e3);
                }
                (
                    "dim".to_string(),
                    dim.max_owner_load() as u64,
                    "-".to_string(),
                    dim.ledger().total_messages() as f64 / events as f64,
                    Summary::of(&latencies),
                )
            }
            Subject::Pool(capacity) => {
                let mut config = PoolConfig::paper().with_seed(scenario.seed);
                if let Some(c) = capacity {
                    config = config.with_sharing(SharingPolicy::new(c));
                }
                let mut pool = PoolSystem::build(topology, field, config).unwrap();
                let mut latencies = Vec::with_capacity(events);
                for i in 0..events {
                    let event = generator.generate(&mut rng);
                    let r = pool.insert_from(NodeId((i % nodes) as u32), event).unwrap();
                    latencies.push(r.elapsed * 1e3);
                }
                let label = match capacity {
                    None => "pool (no sharing)".to_string(),
                    Some(c) => format!("pool (capacity {c})"),
                };
                (
                    label,
                    pool.store().max_node_load() as u64,
                    pool.store().loaded_nodes().to_string(),
                    pool.ledger().total_messages() as f64 / events as f64,
                    Summary::of(&latencies),
                )
            }
        }
    });

    // Latency columns report per-insert virtual time in milliseconds.
    let mut table = pool_bench::Table::new(
        "Hotspot under skewed events",
        &[
            "system",
            "max_node_load",
            "loaded_nodes",
            "insert_msgs_per_event",
            "insert_p50_ms",
            "insert_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("events", events);
    for (label, max_load, loaded, per_event, latency) in &results {
        table.row(vec![
            label.clone().into(),
            (*max_load).into(),
            loaded.clone().into(),
            (*per_event).into(),
            latency.median.into(),
            latency.p99.into(),
        ]);
    }
    opts.emit("hotspot", &table);
}
